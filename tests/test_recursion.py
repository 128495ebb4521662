"""Energy parameters, recursion coefficients and the coefficient polynomials."""

import math

import numpy as np
import pytest

from tribound.errors import ParameterError
from tribound.recursion import (
    BasisParams,
    _d_array,
    _f_g_arrays,
    auto_nu,
    energy_params,
    expansion_coefficients,
    h_polynomial_sequence,
    recursion_coeffs,
)

REFERENCE_GROUND_EPS = -249.6474353


def random_valid_basis(rng, n_top=8):
    mu = rng.uniform(-0.9, 3.0)
    n = int(rng.integers(0, n_top + 1))
    nu = -2.0 * n - 1.0 - mu - rng.uniform(0.5, 25.0)
    return BasisParams(mu=mu, nu=nu, N=n)


def recursion_residual(h, mu, nu, B, C):
    """Max residual of the three-term relation over the checkable indices."""
    count = len(h) - 1
    if count < 1:
        return 0.0
    F, G = _f_g_arrays(mu, nu, count)
    D = _d_array(mu, nu, count)
    worst = 0.0
    for n in range(count):
        lhs = (B / C) * h[n]
        rhs = (-(1.0 / C) * G[n] + F[n]) * h[n] + D[n] * h[n + 1]
        if n > 0:
            rhs += D[n - 1] * h[n - 1]
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(h[n])))
    return worst


class TestEnergyParams:
    def test_reference_ground_state(self):
        e = energy_params(REFERENCE_GROUND_EPS, -300.0)
        assert e.mu_k == pytest.approx(15.80024, abs=1e-5)
        assert e.nu_k == pytest.approx(-29.14871, abs=1e-5)
        assert e.mu_k**2 - e.nu_k**2 == pytest.approx(-600.0, abs=1e-12)
        assert e.mu_k**2 + e.nu_k**2 == pytest.approx(-2 * (e.epsilon - 300.0), abs=1e-12)

    def test_limiting_boundary(self):
        e = energy_params(-1e-12, -0.5)
        assert e.mu_k == pytest.approx(0.0, abs=1e-6)
        assert e.nu_k == pytest.approx(-1.0, abs=1e-6)
        assert e.mu_k + e.nu_k > -1.0 - 1e-6

    def test_sum_monotone_in_energy(self):
        # mu(eps) + nu(eps) is a single monotone curve (decreasing in eps)
        A = -50.0
        sums = [energy_params(e, A).mu_k + energy_params(e, A).nu_k
                for e in np.linspace(-90.0, -1.0, 25)]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_round_trip(self):
        e = energy_params(-123.456, -200.0)
        assert -e.mu_k**2 == pytest.approx(e.epsilon, rel=1e-12)
        assert 0.5 * (e.mu_k**2 - e.nu_k**2) == pytest.approx(-200.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            energy_params(0.0, -300.0)
        with pytest.raises(ParameterError):
            energy_params(-1.0, -0.4)


class TestRecursionCoeffs:
    def test_f0_hand_value(self):
        c = recursion_coeffs(BasisParams(mu=1.5, nu=-25.5, N=10))
        assert c.F[0] == pytest.approx(648.0 / 528.0, rel=1e-14)

    def test_d0_hand_value(self):
        # radicand (1*2*(-4)*(-3)) / ((-3)*(-1)) = 8, prefactor 2/(-2)
        assert _d_array(1.0, -5.0, 1)[0] == pytest.approx(-math.sqrt(8.0), rel=1e-14)

    def test_marginal_basis_rejected(self):
        # mu + nu = -2N - 2 exactly makes the F_N denominator vanish
        with pytest.raises(ParameterError):
            recursion_coeffs(BasisParams(mu=1.0, nu=-5.0, N=1))

    def test_two_g_forms_agree(self):
        mu, nu = 1.5, -503.5
        c = recursion_coeffs(BasisParams(mu=mu, nu=nu, N=200))
        n = np.arange(201, dtype=float)
        squared_form = (n + 0.5 * (mu + nu + 1.0)) ** 2 - 0.25
        assert np.max(np.abs(c.G - squared_form) / np.abs(c.G)) < 1e-12

    def test_d_negative_for_valid_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            basis = random_valid_basis(rng)
            if basis.N == 0:
                continue
            c = recursion_coeffs(basis)
            assert np.all(c.D < 0.0)

    def test_sizes(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=7)
        c = recursion_coeffs(basis)
        assert c.F.shape == (8,) and c.G.shape == (8,) and c.D.shape == (7,)

    def test_invalid_basis_rejected(self):
        with pytest.raises(ParameterError):
            BasisParams(mu=-1.0, nu=-25.0, N=3)
        with pytest.raises(ParameterError):
            BasisParams(mu=1.5, nu=-8.5, N=3)  # mu + nu = -7 = -2N - 1 exactly

    def test_from_size(self):
        basis = BasisParams.from_size(1.5, auto_nu(1.5, 10), 10)
        assert basis.N == 9 and basis.size == 10
        assert basis.nu == -23.5


class TestHPolynomialSequence:
    def test_h0_is_one(self):
        basis = BasisParams(mu=1.0, nu=-5.0, N=1)
        h = h_polynomial_sequence(basis, 5.0, 3.0, 0)
        assert h.tolist() == [1.0]

    def test_h1_hand_value(self):
        # B=5, C=3, mu=1, nu=-5: G_0=2, F_0=3, D_0=-sqrt(8)
        basis = BasisParams(mu=1.0, nu=-5.0, N=1)
        h = h_polynomial_sequence(basis, 5.0, 3.0, 1)
        assert h[1] == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), rel=1e-14)
        # brute-force solve of the first recursion row for f_1
        (f0,), (g0,) = _f_g_arrays(1.0, -5.0, 1)
        d0 = _d_array(1.0, -5.0, 1)[0]
        f1 = ((5.0 / 3.0) - (-(1.0 / 3.0) * g0 + f0)) / d0
        assert h[1] == pytest.approx(f1, rel=1e-14)

    def test_general_step_matches_low_order_instance(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=4)
        c = recursion_coeffs(basis)
        h = h_polynomial_sequence(basis, 5.0, 3.0, 2)
        h2_hand = ((5.0 + c.G[1] - 3.0 * c.F[1]) * h[1] - 3.0 * c.D[0] * h[0]) / (3.0 * c.D[1])
        assert h[2] == h2_hand  # same arithmetic path, bit for bit

    def test_recursion_consistency_randomized(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            basis = random_valid_basis(rng)
            if basis.N < 2:
                continue
            count += 1
            C = rng.uniform(0.2, 4.0)
            B = C * rng.uniform(1.0, 3.0)
            h = h_polynomial_sequence(basis, B, C, basis.N)
            res = recursion_residual(h, basis.mu, basis.nu, B, C)
            assert res < 1e-10

    def test_rescaling_guard_preserves_recursion(self):
        # tiny C drives |H_n| through 1e150; the global rescale keeps the
        # sequence finite and termwise consistent
        size = 120
        mu = 1.5
        nu = auto_nu(mu, size)
        basis = BasisParams.from_size(mu, nu, size)
        C = 1e-4
        B = 5.0 * C
        h = h_polynomial_sequence(basis, B, C, basis.N)
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h)) <= 1e150 * (1.0 + 1e-12)
        # entries rescaled into the denormal range cannot satisfy the
        # per-term residual; the contract here is relative to max |H|
        F, G = _f_g_arrays(basis.mu, basis.nu, basis.N)
        D = _d_array(basis.mu, basis.nu, basis.N)
        worst = 0.0
        for n in range(basis.N):
            lhs = (B / C) * h[n]
            rhs = (-(1.0 / C) * G[n] + F[n]) * h[n] + D[n] * h[n + 1]
            if n > 0:
                rhs += D[n - 1] * h[n - 1]
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10 * np.max(np.abs(h))

    def test_degenerate_step_rejected(self):
        basis = BasisParams(mu=1.0, nu=-5.0, N=1)
        with pytest.raises(ParameterError):
            h_polynomial_sequence(basis, 5.0, 1e-20, 1)


class TestExpansionCoefficients:
    def test_single_term(self):
        e = energy_params(REFERENCE_GROUND_EPS, -300.0)
        f = expansion_coefficients(e, 5.0, 3.0, 0)
        assert f.tolist() == [1.0]

    def test_reference_state_residual(self):
        e = energy_params(REFERENCE_GROUND_EPS, -300.0)
        f = expansion_coefficients(e, 5.0, 3.0, 4)
        assert recursion_residual(f, e.mu_k, e.nu_k, 5.0, 3.0) < 1e-10

    def test_square_integrability_guard(self):
        e = energy_params(REFERENCE_GROUND_EPS, -300.0)
        # mu_k + nu_k ~ -13.35 allows n_max <= 6 only
        with pytest.raises(ParameterError):
            expansion_coefficients(e, 5.0, 3.0, 7)

    def test_association_guard(self):
        # the recursion's polynomial family needs B >= C > 0
        e = energy_params(REFERENCE_GROUND_EPS, -300.0)
        for B, C in ((2.0, 3.0), (2.0, -1.0)):
            with pytest.raises(ParameterError, match="B >= C > 0"):
                expansion_coefficients(e, B, C, 2)
