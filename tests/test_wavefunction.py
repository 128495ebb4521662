"""Wavefunction series assembly and its qualitative physics."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tribound import potential, wavefunction
from tribound.errors import ParameterError
from tribound.potential import PotentialParams
from tribound.solver import solve_bound_states
from tribound.recursion import jacobi_sequence
from tribound.wavefunction import (
    LOG_UNDERFLOW,
    SAMPLE_BLOCK,
    count_sign_changes,
    sample_wavefunction,
    state_coefficients,
)

REFERENCE_POTENTIAL = PotentialParams(A=-300.0, B=5.0, C=3.0)
DEEP_POTENTIAL = PotentialParams(A=-2000.0, B=5.0, C=3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


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
    def test_non_integer_state_refused(self, reference_spectrum):
        eps1 = float(reference_spectrum.epsilons[1])
        with pytest.raises(ParameterError, match=r"^highest degree must be an integer, got 1\.0$"):
            sample_wavefunction(1.0, eps1, REFERENCE_POTENTIAL, np.geomspace(1e-3, 15.0, 50))

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
        for bad in ([0.5, np.nan, 2.0], [0.5, 2.0, np.inf]):
            with pytest.raises(ParameterError, match="r must be positive and finite"):
                sample_wavefunction(0, eps0, REFERENCE_POTENTIAL, np.array(bad))

    def test_metadata(self, reference_spectrum):
        eps1 = float(reference_spectrum.epsilons[1])
        r = np.geomspace(1e-3, 15.0, 100)
        table = sample_wavefunction(1, eps1, REFERENCE_POTENTIAL, r)
        assert table.state_index == 1
        assert table.terms_used == 2
        assert table.epsilon == eps1
        assert table.mu_k == pytest.approx(math.sqrt(-eps1), rel=1e-14)


def masked_index_sampler(k, epsilon_k, p, r):
    """psi and the clamped points by the direct formulas, combined only at
    the nonzero series values through masked copies: the reference that the
    block sampler must match bit for bit."""
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
    clamped = np.zeros(x.shape, dtype=bool)
    clamped[nz] = ~keep
    return psi, clamped


@pytest.mark.parametrize("p, size, consistent, count", [
    (REFERENCE_POTENTIAL, 50, False, 5),
    (REFERENCE_POTENTIAL, 50, True, 8),
    (DEEP_POTENTIAL, 100, True, 25),
], ids=["reference", "consistent", "deep-consistent"])
@pytest.mark.parametrize("grid, clamps, mixed", [
    (np.geomspace(1e-3, 15.0, 10**5), False, False),
    (np.geomspace(1e-6, 400.0, 5000), True, False),
    (np.geomspace(1e-3, 15.0, SAMPLE_BLOCK - 1), False, False),
    (np.geomspace(1e-3, 15.0, SAMPLE_BLOCK + 1), False, False),
    (np.geomspace(1e-3, 15.0, 20001), False, False),
    (np.geomspace(1e-3, 400.0, 2 * SAMPLE_BLOCK + 3), True, True),
    (np.linspace(1e-3, 120.0, 3 * SAMPLE_BLOCK), True, True),
], ids=["states-grid", "wide-grid", "block-minus-1", "block-plus-1", "20001-points",
        "late-clamp-geomspace", "late-clamp-linspace"])
def test_sampler_bit_identical_to_masked_index_form(p, size, consistent, count, grid, clamps,
                                                    mixed):
    spectrum = solve_bound_states(p, size, consistent_potential=consistent)
    assert len(spectrum) == count
    clamped_total, mixed_calls = 0, 0
    for k, eps in enumerate(spectrum.epsilons.tolist()):
        table = sample_wavefunction(k, eps, p, grid)
        psi, clamped = masked_index_sampler(k, eps, p, grid)
        assert np.array_equal(table.psi, psi)
        assert table.clamped_count == np.count_nonzero(clamped)
        clamped_total += table.clamped_count
        blocks = [clamped[s:s + SAMPLE_BLOCK].any() for s in range(0, grid.size, SAMPLE_BLOCK)]
        mixed_calls += any(blocks) and not all(blocks)
    # the deep spectrum's fast-decaying states clamp on every grid
    assert (clamped_total > 0) == (clamps or p is DEEP_POTENTIAL)
    # on the multi-block grids some call has a block that clamps and one that does not
    if mixed:
        assert mixed_calls > 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_series_overflow_in_a_later_block_names_its_first_r(monkeypatch, consistent_spectrum,
                                                           bad):
    # the grid's x is largest in the first block, so a series that is not
    # finite only in the second is forced through the table
    grid = np.geomspace(1e-3, 15.0, 2 * SAMPLE_BLOCK + 3)
    calls, jacobi = [], wavefunction.jacobi_sequence

    def poisoned(*args):
        table = jacobi(*args)
        if len(calls) == 1:
            table[-1, [7, 12]] = bad, np.nan
        calls.append(table.shape)
        return table

    monkeypatch.setattr(wavefunction, "jacobi_sequence", poisoned)
    message = (f"the series of state 3 overflows float64 at r = {grid[SAMPLE_BLOCK + 7]:.6g}, "
               "lambda = 1")
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        sample_wavefunction(3, float(consistent_spectrum.epsilons[3]), REFERENCE_POTENTIAL, grid)
    assert calls == [(4, SAMPLE_BLOCK)] * 2


def test_traced_bindings_are_resolved_per_block_and_per_call(monkeypatch, consistent_spectrum):
    # the benchmark times special.jacobi and wavefunction.coeffs by wrapping
    # these two names in tribound.wavefunction
    grid = np.geomspace(1e-3, 15.0, 2 * SAMPLE_BLOCK + 3)
    counts = {"jacobi_sequence": 0, "state_coefficients": 0}

    def counting(name):
        fn = getattr(wavefunction, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    eps = consistent_spectrum.epsilons.tolist()
    plain = [sample_wavefunction(k, e, REFERENCE_POTENTIAL, grid) for k, e in enumerate(eps)]
    for name in counts:
        monkeypatch.setattr(wavefunction, name, counting(name))
    for k, e in enumerate(eps):
        table = sample_wavefunction(k, e, REFERENCE_POTENTIAL, grid)
        assert np.array_equal(table.psi, plain[k].psi)
    assert counts == {"jacobi_sequence": 3 * len(eps), "state_coefficients": len(eps)}


# psi of state 7 of the A = -300 consistent N = 100 spectrum, written to
# stdout; epsilon is a literal because the solve depends on the thread count
BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
from tribound.potential import PotentialParams
from tribound.wavefunction import sample_wavefunction
table = sample_wavefunction(7, -3.0688620220490272, PotentialParams(A=-300.0, B=5.0, C=3.0),
                            np.geomspace(1e-3, 15.0, 123457))
sys.stdout.buffer.write(table.psi.tobytes())
"""


def test_sampler_bits_do_not_depend_on_blas_threads():
    psis = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        psis.append(proc.stdout)
    assert len(psis[0]) == 8 * 123457
    assert psis[0] == psis[1]


def test_sampler_memory_is_psi_plus_block_rows():
    # state 24 of the deep spectrum has 25 series terms; a whole-grid table
    # would take 25 psi-sized rows
    grid = np.geomspace(1e-3, 15.0, 10**6)
    eps = solve_bound_states(DEEP_POTENTIAL, 100, consistent_potential=True).epsilons[24]
    potential.x_of_r(DEEP_POTENTIAL.lam, grid)      # warm grid pieces
    tracemalloc.start()
    try:
        table = sample_wavefunction(24, float(eps), DEEP_POTENTIAL, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.terms_used == 25
    assert peak < 3 * table.psi.nbytes


@pytest.fixture(scope="module")
def consistent_spectrum():
    return solve_bound_states(REFERENCE_POTENTIAL, 50, consistent_potential=True)


def cold_sample(monkeypatch, k, eps, p, r):
    """sample_wavefunction with the shared grid pieces emptied first."""
    monkeypatch.setattr(potential, "_last_grid", None)
    return sample_wavefunction(k, eps, p, r)


@pytest.fixture
def expm1_sizes(monkeypatch):
    """Sizes of the arrays np.expm1 is called on: one call per set of coth
    pieces built (em = 1 - e^{-2 lambda r})."""
    sizes, expm1 = [], np.expm1

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return expm1(a, *args, **kwargs)

    monkeypatch.setattr(np, "expm1", counting)
    return sizes


class TestGridCache:
    """potential._grid keeps the last grid's pieces; V(r), x_of_r and every
    state on that grid reuse them bit for bit."""

    def test_states_grid_warm_equals_cold(self, monkeypatch, consistent_spectrum):
        grid = np.geomspace(1e-3, 15.0, 10**5)
        epsilons = consistent_spectrum.epsilons.tolist()
        assert len(epsilons) == 8
        sample_wavefunction(0, epsilons[0], REFERENCE_POTENTIAL, grid)
        for k, eps in enumerate(epsilons):
            warm = sample_wavefunction(k, eps, REFERENCE_POTENTIAL, grid)
            cold = cold_sample(monkeypatch, k, eps, REFERENCE_POTENTIAL, grid)
            assert np.array_equal(warm.psi, cold.psi)
            assert warm.clamped_count == cold.clamped_count

    def test_one_set_of_coth_pieces_per_grid(self, expm1_sizes, consistent_spectrum):
        grid = np.geomspace(1e-3, 15.0, 2000)
        for k, eps in enumerate(consistent_spectrum.epsilons.tolist()):
            sample_wavefunction(k, eps, REFERENCE_POTENTIAL, grid)
        assert expm1_sizes == [2000]

    def test_potential_and_states_share_one_set(self, monkeypatch, expm1_sizes,
                                                consistent_spectrum):
        # the states op: V(r), then every bound state, on one 10^5-point grid
        grid = np.geomspace(1e-3, 15.0, 10**5)
        v = potential.potential_value(REFERENCE_POTENTIAL, grid)
        x = potential.x_of_r(REFERENCE_POTENTIAL.lam, grid)
        tables = [sample_wavefunction(k, eps, REFERENCE_POTENTIAL, grid)
                  for k, eps in enumerate(consistent_spectrum.epsilons.tolist())]
        assert expm1_sizes == [10**5]
        monkeypatch.setattr(potential, "_last_grid", None)
        assert np.array_equal(v, potential.potential_value(REFERENCE_POTENTIAL, grid))
        monkeypatch.setattr(potential, "_last_grid", None)
        assert np.array_equal(x, potential.x_of_r(REFERENCE_POTENTIAL.lam, grid))
        cold = cold_sample(monkeypatch, 7, consistent_spectrum.epsilons[7],
                           REFERENCE_POTENTIAL, grid)
        assert np.array_equal(tables[7].psi, cold.psi)

    def test_x_of_r_returns_a_copy(self):
        grid = np.geomspace(1e-3, 15.0, 500)
        x = potential.x_of_r(1.0, grid)
        x[:] = 0.0
        assert np.all(potential.x_of_r(1.0, grid) > 1.0)

    def test_grid_changed_in_place_is_recomputed(self, monkeypatch, consistent_spectrum):
        eps = float(consistent_spectrum.epsilons[3])
        grid = np.geomspace(1e-3, 15.0, 500)
        before = sample_wavefunction(3, eps, REFERENCE_POTENTIAL, grid)
        grid *= 0.5
        after = sample_wavefunction(3, eps, REFERENCE_POTENTIAL, grid)
        cold = cold_sample(monkeypatch, 3, eps, REFERENCE_POTENTIAL, grid.copy())
        assert np.array_equal(after.psi, cold.psi)
        assert not np.array_equal(after.psi, before.psi)

    @pytest.mark.parametrize("change", ["lambda", "grid"])
    def test_other_lambda_or_grid_is_recomputed(self, monkeypatch, consistent_spectrum, change):
        eps = float(consistent_spectrum.epsilons[2])
        grid = np.geomspace(1e-3, 15.0, 500)
        p, r = REFERENCE_POTENTIAL, grid
        if change == "lambda":
            p = PotentialParams(A=-300.0, B=5.0, C=3.0, lam=1.25)
        else:
            r = np.linspace(1e-3, 15.0, 500)
        sample_wavefunction(2, eps, REFERENCE_POTENTIAL, grid)
        warm = sample_wavefunction(2, eps, p, r)
        cold = cold_sample(monkeypatch, 2, eps, p, r)
        assert np.array_equal(warm.psi, cold.psi)
        assert warm.clamped_count == cold.clamped_count

    @pytest.mark.parametrize("bad, message", [
        (np.array([0.0, 1.0]), "r must be positive and finite"),
        (np.array([2.0, 1.0]), "r grid must be positive and strictly ascending"),
        (np.geomspace(1e-3, 15.0, 500)[::-1], "r grid must be positive and strictly ascending"),
        (np.geomspace(1e-3, 15.0, 500).reshape(2, 250), "r grid must be a non-empty 1-d array"),
        (np.array([]), "r grid must be a non-empty 1-d array"),
        (np.array([1e-310, 1.0]), "lambda \\* r = 1e-310 is below"),
        (np.array([0.5, np.nan, 2.0]), "r must be positive and finite"),
        (np.array([0.5, 2.0, np.inf]), "r must be positive and finite"),
    ])
    def test_invalid_grid_after_valid_one(self, consistent_spectrum, bad, message):
        eps = float(consistent_spectrum.epsilons[1])
        sample_wavefunction(1, eps, REFERENCE_POTENTIAL, np.geomspace(1e-3, 15.0, 500))
        with pytest.raises(ParameterError, match=message):
            sample_wavefunction(1, eps, REFERENCE_POTENTIAL, bad)

    def test_grid_error_comes_before_state_error(self, consistent_spectrum):
        grid = np.geomspace(1e-3, 15.0, 500)
        sample_wavefunction(0, float(consistent_spectrum.epsilons[0]), REFERENCE_POTENTIAL, grid)
        for bad, message in ((grid[::-1], "positive and strictly ascending"),
                             (np.array([0.5, np.nan, 2.0]), "positive and finite"),
                             (np.array([1e-310, 1.0]), "lambda \\* r = 1e-310 is below")):
            with pytest.raises(ParameterError, match=message):
                sample_wavefunction(-1, -10.0, REFERENCE_POTENTIAL, bad)
        with pytest.raises(ParameterError, match="state index must be >= 0"):
            sample_wavefunction(-1, -10.0, REFERENCE_POTENTIAL, grid)
