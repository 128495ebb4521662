"""Wavefunction series assembly and its qualitative physics."""

import math

import numpy as np
import pytest

from tribound.errors import ParameterError
from tribound.potential import PotentialParams
from tribound.solver import solve_bound_states
from tribound.special import jacobi_sequence
from tribound.wavefunction import (
    LOG_UNDERFLOW,
    count_sign_changes,
    sample_wavefunction,
    state_coefficients,
)

REFERENCE_POTENTIAL = PotentialParams(A=-300.0, B=5.0, C=3.0)


@pytest.fixture(scope="module")
def reference_spectrum():
    return solve_bound_states(REFERENCE_POTENTIAL, 100)


class TestStateCoefficients:
    def test_ground_state_single_term(self, reference_spectrum):
        eps0 = float(reference_spectrum.epsilons[0])
        basis, f, c = state_coefficients(0, eps0, -300.0, 5.0, 3.0)
        assert f.tolist() == [1.0]
        assert c.shape == (1,) and c[0] > 0.0
        # the single-term series is admissible: mu_k + nu_k < -1
        assert basis.N == 0 and basis.mu + basis.nu < -1.0

    def test_leading_coefficient_always_one(self, reference_spectrum):
        for k, eps in enumerate(reference_spectrum.epsilons):
            _, f, _ = state_coefficients(k, float(eps), -300.0, 5.0, 3.0)
            assert f[0] == 1.0

    def test_invalid_index(self):
        with pytest.raises(ParameterError):
            state_coefficients(-1, -10.0, -300.0, 5.0, 3.0)


class TestSampleWavefunction:
    def test_ground_state_matches_bare_prefactor(self, reference_spectrum):
        # k = 0 has a single series term, so psi is proportional to
        # (x-1)^(mu/2) (x+1)^(nu/2)
        eps0 = float(reference_spectrum.epsilons[0])
        # r capped where x - 1 = coth(r) - 1 survives naive subtraction
        r = np.geomspace(1e-3, 6.0, 200)
        table = sample_wavefunction(0, eps0, REFERENCE_POTENTIAL, r)
        x = 1.0 / np.tanh(r)
        direct = (x - 1.0) ** (0.5 * table.mu_k) * (x + 1.0) ** (0.5 * table.nu_k)
        ratio = table.psi / direct
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_split_matches_direct_evaluation(self, reference_spectrum):
        # log-space assembly must agree with naive evaluation where both exist
        eps = float(reference_spectrum.epsilons[2])
        r = np.geomspace(0.05, 2.0, 50)
        table = sample_wavefunction(2, eps, REFERENCE_POTENTIAL, r)
        _, f, c = state_coefficients(2, eps, -300.0, 5.0, 3.0)
        x = 1.0 / np.tanh(r)
        poly = jacobi_sequence(table.mu_k, table.nu_k, 2, x)
        naive = ((x - 1.0) ** (0.5 * table.mu_k) * (x + 1.0) ** (0.5 * table.nu_k)
                 * sum(c[n] * f[n] * poly[n] for n in range(3)))
        scale = np.abs(naive).max()
        assert np.max(np.abs(table.psi - naive)) < 1e-10 * scale

    def test_boundary_decay(self, reference_spectrum):
        r = np.geomspace(1e-3, 15.0, 2000)
        for k, eps in enumerate(reference_spectrum.epsilons):
            table = sample_wavefunction(k, float(eps), REFERENCE_POTENTIAL, r)
            peak = np.abs(table.psi).max()
            assert abs(table.psi[0]) < 1e-6 * peak
            assert abs(table.psi[-1]) < 1e-6 * peak

    def test_node_counts(self, reference_spectrum):
        r = np.geomspace(1e-3, 15.0, 10000)
        for k, eps in enumerate(reference_spectrum.epsilons):
            table = sample_wavefunction(k, float(eps), REFERENCE_POTENTIAL, r)
            assert count_sign_changes(table.psi) == k

    def test_tail_log_slope(self, reference_spectrum):
        r = np.geomspace(1e-3, 15.0, 10000)
        for k, eps in enumerate(reference_spectrum.epsilons):
            table = sample_wavefunction(k, float(eps), REFERENCE_POTENTIAL, r)
            window = (r > 8.0) & (r < 12.0) & (np.abs(table.psi) > 0)
            slope = np.polyfit(r[window], np.log(np.abs(table.psi[window])), 1)[0]
            assert slope == pytest.approx(-table.mu_k, rel=0.01)

    def test_decreasing_toward_origin(self, reference_spectrum):
        r = np.geomspace(1e-3, 15.0, 2000)
        for k, eps in enumerate(reference_spectrum.epsilons):
            psi = np.abs(sample_wavefunction(k, float(eps), REFERENCE_POTENTIAL, r).psi)
            assert psi[0] < psi[1] < psi[2]

    def test_underflow_is_exact_zero(self, reference_spectrum):
        eps0 = float(reference_spectrum.epsilons[0])  # mu_0 ~ 15.8, fast decay
        r = np.geomspace(1.0, 60.0, 50)
        table = sample_wavefunction(0, eps0, REFERENCE_POTENTIAL, r)
        assert np.all(np.isfinite(table.psi))
        assert table.psi[-1] == 0.0
        assert table.clamped_count > 0
        assert table.clamped_count == int(np.sum(table.psi == 0.0))

    def test_grid_validation(self, reference_spectrum):
        eps0 = float(reference_spectrum.epsilons[0])
        with pytest.raises(ParameterError):
            sample_wavefunction(0, eps0, REFERENCE_POTENTIAL, np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            sample_wavefunction(0, eps0, REFERENCE_POTENTIAL, np.array([2.0, 1.0]))

    def test_metadata(self, reference_spectrum):
        eps1 = float(reference_spectrum.epsilons[1])
        r = np.geomspace(1e-3, 15.0, 100)
        table = sample_wavefunction(1, eps1, REFERENCE_POTENTIAL, r)
        assert table.state_index == 1
        assert table.terms_used == 2
        assert table.epsilon == eps1
        assert table.mu_k == pytest.approx(math.sqrt(-eps1), rel=1e-14)


def masked_index_sampler(k, epsilon_k, p, r):
    """psi and clamped count by the direct formulas, combined only at the
    nonzero series values through masked copies: the reference that the
    whole-array sampler must match bit for bit."""
    basis, f, c = state_coefficients(k, epsilon_k, p.A, p.B, p.C)
    n_max = f.shape[0] - 1
    t = p.lam * r
    em = -np.expm1(-2.0 * t)
    x = 1.0 + 2.0 * np.exp(-2.0 * t) / em
    ln_xm1 = math.log(2.0) - 2.0 * t - np.log(em)
    ln_xp1 = math.log(2.0) - np.log(em)
    ln_pref = 0.5 * basis.mu * ln_xm1 + 0.5 * basis.nu * ln_xp1
    poly = jacobi_sequence(basis.mu, basis.nu, n_max, x)
    series = (c * f) @ poly.reshape(n_max + 1, -1)
    psi = np.zeros_like(x)
    nz = series != 0.0
    ln_mag = ln_pref[nz] + np.log(np.abs(series[nz]))
    keep = ln_mag >= LOG_UNDERFLOW
    vals = np.zeros(ln_mag.shape)
    vals[keep] = np.sign(series[nz][keep]) * np.exp(ln_mag[keep])
    psi[nz] = vals
    return psi, int(np.size(keep) - np.count_nonzero(keep))


@pytest.mark.parametrize("consistent", [False, True], ids=["reference", "consistent"])
@pytest.mark.parametrize("grid, clamps", [
    (np.geomspace(1e-3, 15.0, 10**5), False),
    (np.geomspace(1e-6, 400.0, 5000), True),
], ids=["states-grid", "wide-grid"])
def test_sampler_bit_identical_to_masked_index_form(consistent, grid, clamps):
    spectrum = solve_bound_states(REFERENCE_POTENTIAL, 50, consistent_potential=consistent)
    assert len(spectrum) == (8 if consistent else 5)
    clamped_total = 0
    for k, eps in enumerate(spectrum.epsilons.tolist()):
        table = sample_wavefunction(k, eps, REFERENCE_POTENTIAL, grid)
        psi, clamped = masked_index_sampler(k, eps, REFERENCE_POTENTIAL, grid)
        assert np.array_equal(table.psi, psi)
        assert table.clamped_count == clamped
        clamped_total += clamped
    assert (clamped_total > 0) == clamps
