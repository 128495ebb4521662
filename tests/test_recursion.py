"""State bases, recursion coefficients and the coefficient polynomials."""

import math

import numpy as np
import pytest

from tribound.errors import ParameterError
from tribound.recursion import (
    BasisParams,
    _d_array,
    _f_g_arrays,
    h_polynomial_sequence,
    recursion_coeffs,
)
from tribound.wavefunction import state_coefficients

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


def state_basis(epsilon, A, k=0):
    """The energy-dependent basis that state_coefficients builds for state k."""
    return state_coefficients(k, epsilon, A, 5.0, 3.0)[0]


class TestEnergyParams:
    """mu_k = sqrt(-eps), nu_k = -sqrt(-eps - 2A) and its domain."""

    def test_reference_ground_state(self):
        b = state_basis(REFERENCE_GROUND_EPS, -300.0)
        assert b.mu == pytest.approx(15.80024, abs=1e-5)
        assert b.nu == pytest.approx(-29.14871, abs=1e-5)
        assert b.mu**2 - b.nu**2 == pytest.approx(-600.0, abs=1e-12)
        assert b.mu**2 + b.nu**2 == pytest.approx(-2 * (REFERENCE_GROUND_EPS - 300.0),
                                                  abs=1e-12)

    def test_limiting_boundary(self):
        # eps -> 0 at A = -1/2 puts the pair at (0, -1), the edge of square
        # integrability, which even the single-term series needs
        with pytest.raises(ParameterError, match=r"basis requires mu \+ nu < -2N - 1"):
            state_basis(-1e-12, -0.5)
        b = state_basis(-1e-12, -0.6)
        assert b.mu == pytest.approx(0.0, abs=1e-6)
        assert b.nu == pytest.approx(-math.sqrt(1.2), abs=1e-6)

    def test_sum_monotone_in_energy(self):
        # mu(eps) + nu(eps) is a single monotone curve (decreasing in eps)
        A = -50.0
        sums = [state_basis(e, A).mu + state_basis(e, A).nu
                for e in np.linspace(-90.0, -1.0, 25)]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_round_trip(self):
        b = state_basis(-123.456, -200.0)
        assert -b.mu**2 == pytest.approx(-123.456, rel=1e-12)
        assert 0.5 * (b.mu**2 - b.nu**2) == pytest.approx(-200.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError, match="bound states require eps < 0"):
            state_basis(0.0, -300.0)
        with pytest.raises(ParameterError, match="bound states require A <= -1/2"):
            state_basis(-1.0, -0.4)
        # a NaN A fails the A test (eps + 2A < 0 follows from A <= -1/2 and eps < 0)
        with pytest.raises(ParameterError, match="^bound states require A <= -1/2, got A = nan$"):
            state_basis(-1.0, math.nan)


class TestRecursionCoeffs:
    def test_f0_hand_value(self):
        F, _ = recursion_coeffs(BasisParams(mu=1.5, nu=-25.5, N=10))
        assert F[0] == pytest.approx(648.0 / 528.0, rel=1e-14)

    def test_d0_hand_value(self):
        # radicand (1*2*(-4)*(-3)) / ((-3)*(-1)) = 8, prefactor 2/(-2)
        assert _d_array(1.0, -5.0, 1)[0] == pytest.approx(-math.sqrt(8.0), rel=1e-14)

    def test_marginal_basis_rejected(self):
        # mu + nu = -2N - 2 exactly makes the F_N denominator vanish
        with pytest.raises(ParameterError):
            recursion_coeffs(BasisParams(mu=1.0, nu=-5.0, N=1))

    @pytest.mark.parametrize("nu, shown", [(-1e155, "-1e+155"), (-math.inf, "-inf")])
    def test_unrepresentable_basis_refused_by_name(self, nu, shown):
        # nu^2 in F_n and the radicand of D_n overflow float64; no numpy
        # warning escapes (pytest makes any RuntimeWarning an error)
        with pytest.raises(ParameterError) as err:
            recursion_coeffs(BasisParams(mu=2.0, nu=nu, N=2))
        assert str(err.value) == ("recursion coefficients are not finite in float64 for "
                                  f"mu = 2, nu = {shown}, N = 2")

    def test_divisor_rounding_to_zero_refused_by_name(self):
        # mu + nu = -5.000000000000001 < -2N - 1 passes BasisParams, but the D_{N-1}
        # divisor 2(N-1) + mu + nu + 3 rounds to 0.0; no divide warning escapes
        basis = BasisParams(mu=6.3, nu=-11.3, N=2)
        with pytest.raises(ParameterError, match="recursion coefficients are not finite"):
            recursion_coeffs(basis)
        with pytest.raises(ParameterError, match="recursion overflowed within one step"):
            h_polynomial_sequence(basis, 5.0, 3.0)

    def test_two_g_forms_agree(self):
        mu, nu = 1.5, -503.5
        _, G = _f_g_arrays(mu, nu, 201)
        n = np.arange(201, dtype=float)
        squared_form = (n + 0.5 * (mu + nu + 1.0)) ** 2 - 0.25
        assert np.max(np.abs(G - squared_form) / np.abs(G)) < 1e-12

    def test_d_negative_for_valid_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            basis = random_valid_basis(rng)
            if basis.N == 0:
                continue
            _, D = recursion_coeffs(basis)
            assert np.all(D < 0.0)

    def test_sizes(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=7)
        F, D = recursion_coeffs(basis)
        _, G = _f_g_arrays(basis.mu, basis.nu, basis.size)
        assert F.shape == (8,) and G.shape == (8,) and D.shape == (7,)

    def test_invalid_basis_rejected(self):
        with pytest.raises(ParameterError):
            BasisParams(mu=-1.0, nu=-25.0, N=3)
        with pytest.raises(ParameterError):
            BasisParams(mu=1.5, nu=-8.5, N=3)  # mu + nu = -7 = -2N - 1 exactly
        with pytest.raises(ParameterError, match=r"^highest degree must be >= 0, got -1$"):
            BasisParams(mu=1.5, nu=-10.0, N=-1)

    def test_from_size(self):
        basis = BasisParams.from_size(1.5, 10)
        assert basis.N == 9 and basis.size == 10
        assert basis.nu == -23.5  # -2*size - mu - 2

    # the ids keep the names these cases had while from_size also took nu
    # (None was the rule nu it now always uses) and refused only mu <= -1
    @pytest.mark.parametrize("mu, size, message", [
        pytest.param(-2.0, 0, "mu must be positive, got -2.0: at mu <= 0 the basis "
                     "functions are not square-integrable as r -> infinity",
                     id="-2.0-None-0-mu must exceed -1, got -2.0"),
        pytest.param(1e300, 10, "mu = 1e+300 is too large for a basis of 10 functions",
                     id="1e+300-None-10-mu = 1e+300 is too large for a basis of 10 functions"),
        pytest.param(1.5, 0, "basis size must be >= 1, got 0",
                     id="1.5-None-0-basis size must be >= 1, got 0"),
        pytest.param(1.5, 2.5, "basis size must be an integer, got 2.5", id="size-2.5"),
        pytest.param(1.5, 10.0, "basis size must be an integer, got 10.0", id="size-10.0"),
        pytest.param(1.5, np.float64(10.0), "basis size must be an integer, got 10.0",
                     id="size-np.float64-10.0"),
        # numbers.Integral admits a bool; True would silently be one function
        pytest.param(1.5, True, "basis size must be an integer, got the bool True",
                     id="size-True"),
    ])
    def test_from_size_checks_in_order(self, mu, size, message):
        # both mu checks come before the size checks
        with pytest.raises(ParameterError) as err:
            BasisParams.from_size(mu, size)
        assert str(err.value) == message

    def test_non_integer_degree_refused(self):
        with pytest.raises(ParameterError, match=r"^highest degree must be an integer, got 2\.5$"):
            BasisParams(1.5, -30.0, 2.5)
        with pytest.raises(ParameterError,
                           match=r"^highest degree must be an integer, got the bool True$"):
            BasisParams(1.5, -10.0, True)

    def test_numpy_integers_accepted(self):
        assert BasisParams.from_size(1.5, np.int64(10)) == BasisParams.from_size(1.5, 10)
        assert BasisParams(1.5, -30.0, np.int32(3)).size == 4


class TestHPolynomialSequence:
    def test_h0_is_one(self):
        basis = BasisParams(mu=1.0, nu=-5.0, N=0)
        h = h_polynomial_sequence(basis, 5.0, 3.0)
        assert h.tolist() == [1.0]

    def test_h1_hand_value(self):
        # B=5, C=3, mu=1, nu=-5: G_0=2, F_0=3, D_0=-sqrt(8)
        basis = BasisParams(mu=1.0, nu=-5.0, N=1)
        h = h_polynomial_sequence(basis, 5.0, 3.0)
        assert h[1] == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), rel=1e-14)
        # brute-force solve of the first recursion row for f_1
        (f0,), (g0,) = _f_g_arrays(1.0, -5.0, 1)
        d0 = _d_array(1.0, -5.0, 1)[0]
        f1 = ((5.0 / 3.0) - (-(1.0 / 3.0) * g0 + f0)) / d0
        assert h[1] == pytest.approx(f1, rel=1e-14)

    def test_general_step_matches_low_order_instance(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=2)
        F, D = recursion_coeffs(basis)
        _, G = _f_g_arrays(basis.mu, basis.nu, basis.size)
        h = h_polynomial_sequence(basis, 5.0, 3.0)
        h2_hand = ((5.0 + G[1] - 3.0 * F[1]) * h[1] - 3.0 * D[0] * h[0]) / (3.0 * D[1])
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
            h = h_polynomial_sequence(basis, B, C)
            res = recursion_residual(h, basis.mu, basis.nu, B, C)
            assert res < 1e-10

    def test_rescaling_guard_preserves_recursion(self):
        # the global rescale keeps the sequence finite and termwise consistent
        cases = [
            # tiny C drives |H_n| through 1e150
            (BasisParams.from_size(1.5, 120), 5e-4, 1e-4),
            # |H_1| ~ 7.9e200 already: rescaled from the first step, H_2 stays finite
            (BasisParams(mu=1.5, nu=-30.0, N=2), 1e200, 1.0),
        ]
        for basis, B, C in cases:
            h = h_polynomial_sequence(basis, B, C)
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
            h_polynomial_sequence(basis, 5.0, 1e-20)

    @pytest.mark.parametrize("B, C, message", [
        # H_1 is checked like every later term, with no numpy overflow warning
        (1e300, 1e-10, "recursion overflowed within one step at n = 1"),
        (math.nan, 3.0, "B must be finite, got nan"),
        (5.0, math.inf, "C must be finite, got inf"),
        (5.0, -math.inf, "C must be finite, got -inf"),
    ])
    def test_overflow_and_non_finite_input_refused_by_name(self, B, C, message):
        with pytest.raises(ParameterError) as err:
            h_polynomial_sequence(BasisParams(mu=1.5, nu=-30.0, N=5), B, C)
        assert str(err.value) == message


class TestExpansionCoefficients:
    """The series coefficients f_n of state_coefficients at a state's basis."""

    def test_single_term(self):
        _, f, _ = state_coefficients(0, REFERENCE_GROUND_EPS, -300.0, 5.0, 3.0)
        assert f.tolist() == [1.0]

    def test_reference_state_residual(self):
        basis, f, _ = state_coefficients(4, REFERENCE_GROUND_EPS, -300.0, 5.0, 3.0)
        assert np.array_equal(f, h_polynomial_sequence(basis, 5.0, 3.0))
        assert recursion_residual(f, basis.mu, basis.nu, 5.0, 3.0) < 1e-10

    def test_square_integrability_guard(self):
        # mu_k + nu_k ~ -13.35 allows N <= 6 only
        with pytest.raises(ParameterError, match=r"basis requires mu \+ nu < -2N - 1"):
            state_coefficients(7, REFERENCE_GROUND_EPS, -300.0, 5.0, 3.0)

    def test_association_guard(self):
        # the recursion's polynomial family needs B >= C > 0
        for B, C in ((2.0, 3.0), (2.0, -1.0)):
            with pytest.raises(ParameterError, match="B >= C > 0"):
                state_coefficients(2, REFERENCE_GROUND_EPS, -300.0, B, C)
