"""Jacobi evaluation, signed log-gamma and normalization constants."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate

from tribound.errors import ParameterError
from tribound.oracle import direct_matrix
from tribound.recursion import (
    BasisParams,
    SignedLogMagnitude,
    _log_cn_squared_gammas,
    _sinpi,
    jacobi_sequence,
    log_gamma_ratio,
    normalization_c,
    signed_log_gamma,
)


def log_cn_squared_sines(mu, nu, n):
    """log(c_n^2) from the sine-ratio closed form of the diagonal norm, the
    independent second form that the gamma form must match.

    diag_n = 2^(mu+nu+1)/(2n+mu+nu+1)
             * Gamma(n+mu+1) Gamma(n+nu+1) / (Gamma(n+1) Gamma(n+mu+nu+1))
             * sin(pi nu) / sin(pi (mu+nu+1)),
    so c_n^2 = 1/diag_n is log_gamma_ratio times sin(pi (mu+nu+1))
    / (2^(mu+nu+1) sin(pi nu)); undefined at integer nu or mu + nu.
    """
    s_nu, sg_nu = _sinpi(nu)
    s_mn, sg_mn = _sinpi(mu + nu + 1.0)
    ratio = log_gamma_ratio(mu, nu, n)
    log_abs = (ratio.log_abs - (mu + nu + 1.0) * math.log(2.0)
               - math.log(s_nu) + math.log(s_mn))
    return SignedLogMagnitude(log_abs, ratio.sign * sg_nu * sg_mn)


def hypergeometric_oracle(mu, nu, n, x):
    """Finite terminating hypergeometric sum for P_n; independent of the
    production recursion (numerically poor for large |nu|, fine for oracles)."""
    total = 0.0
    term = 1.0
    z = 0.5 * (1.0 - x)
    for j in range(n + 1):
        total += term
        term *= (-n + j) * (n + mu + nu + 1.0 + j) / ((mu + 1.0 + j) * (j + 1.0)) * z
    lead = math.exp(math.lgamma(n + mu + 1.0) - math.lgamma(n + 1.0) - math.lgamma(mu + 1.0))
    return lead * total


def weighted_product_integral(mu, nu, n, m, tol=1e-10):
    """c_n c_m int_1^inf (x-1)^mu (x+1)^nu P_n P_m dx via x = 1 + e^t.

    Pre-scaling by the normalization constants keeps diagonals at 1 so the
    relative comparison against the closed form is well conditioned.
    """
    log_c = math.log(normalization_c(mu, nu, n)) + math.log(normalization_c(mu, nu, m))

    def integrand(t):
        x = 1.0 + math.exp(t)
        lw = log_c + (mu + 1.0) * t + nu * math.log(x + 1.0)
        if lw < -700.0:
            return 0.0
        p = jacobi_sequence(mu, nu, max(n, m), x)
        return math.exp(lw) * float(p[n]) * float(p[m])

    t_peak = math.log((mu - nu) / (-mu - nu) - 1.0)
    val, err = integrate.quad(integrand, -40.0, 600.0, epsabs=tol, epsrel=tol,
                              limit=400, points=[t_peak - 6, t_peak, t_peak + 6])
    assert err < 100 * tol
    return val


def expression_jacobi_sequence(mu, nu, n_max, x):
    """jacobi_sequence with each step written as one expression: the reference
    that the in-place recursion must match bit for bit."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (mu + nu + 2.0) * x / 2.0 + (mu - nu) / 2.0
    for n in range(1, n_max):
        s = 2.0 * n + mu + nu
        lead = 2.0 * (n + 1.0) * (n + mu + nu + 1.0) / ((s + 1.0) * (s + 2.0))
        f_n = (nu * nu - mu * mu) / (s * (s + 2.0))
        a_n = 2.0 * (n + mu) * (n + nu) / (s * (s + 1.0))
        out[n + 1] = ((x - f_n) * out[n] - a_n * out[n - 1]) / lead
    return out


@pytest.mark.parametrize("mu, nu", [(1.5, -45.5), (0.3, -9.2), (12.7, -19.2), (28.2, -37.9)])
@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 17])
def test_in_place_recursion_bit_identical_to_expression_form(mu, nu, n_max):
    grids = (np.geomspace(1.0 + 1e-12, 1e6, 3000), np.linspace(-3.0, 3.0, 301),
             1.0 + 2.0 / np.expm1(np.geomspace(1e-3, 30.0, 1000)), np.array([]))
    for x in grids:
        assert np.array_equal(jacobi_sequence(mu, nu, n_max, x),
                              expression_jacobi_sequence(mu, nu, n_max, x))
    for x in (1.0, 1.0 + 1e-9, 3.0, 250.5, -0.7):
        got = jacobi_sequence(mu, nu, n_max, x)
        assert got.shape == (n_max + 1,)
        assert np.array_equal(got, expression_jacobi_sequence(mu, nu, n_max, x))


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        assert jacobi_sequence(1.5, -25.5, 0, 3.0)[0] == 1.0

    def test_degree_one_hand_value(self):
        # (mu+nu+2)x/2 + (mu-nu)/2 at (2, -10), x = 3
        p1 = jacobi_sequence(2.0, -10.0, 1, 3.0)[1]
        assert p1 == pytest.approx(-3.0, abs=1e-14)
        assert hypergeometric_oracle(2.0, -10.0, 1, 3.0) == pytest.approx(-3.0, rel=1e-12)
        # at mu + nu + 2 = 0 the x term vanishes and P_1 = (mu - nu)/2
        assert jacobi_sequence(0.5, -2.5, 1, 2.0).tolist() == [1.0, 1.5]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_hypergeometric_sum(self, n):
        for mu, nu in ((1.5, -25.5), (0.3, -9.2), (2.0, -30.0)):
            for x in (1.0, 1.5, 4.0):
                got = jacobi_sequence(mu, nu, n, x)[n]
                want = hypergeometric_oracle(mu, nu, n, x)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * abs(want) + 1e-12)

    def test_reflection_symmetry(self):
        # P_n^(mu,nu)(x) = (-1)^n P_n^(nu,mu)(-x)
        rng = np.random.default_rng(42)
        for _ in range(100):
            mu = rng.uniform(-0.9, 3.0)
            nu = rng.uniform(-30.0, -19.0)
            n = int(rng.integers(0, 9))
            x = rng.uniform(1.0, 5.0)
            lhs = jacobi_sequence(mu, nu, n, x)[n]
            rhs = (-1.0) ** n * jacobi_sequence(nu, mu, n, -x)[n]
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ParameterError, match="^polynomial argument must be finite$"):
            jacobi_sequence(1.5, -25.5, 2, math.inf)
        # a NaN parameter would otherwise give [1, nan, nan]
        for mu, nu in ((math.nan, -25.5), (1.5, math.nan)):
            with pytest.raises(ParameterError, match=r"^Jacobi parameters must be finite, "
                               rf"got mu = {mu}, nu = {nu}$"):
                jacobi_sequence(mu, nu, 2, 2.0)

    def test_rejects_degenerate_denominator(self):
        cases = [
            ((1.0, -5.0, 3), "degenerate recursion denominator at n = 1"),   # 2n + mu + nu + 2 = 0
            ((0.5, -3.5, 3), "degenerate recursion denominator at n = 1"),   # 2n + mu + nu + 1 = 0
            ((0.5, -2.5, 3), "degenerate recursion denominator at n = 1"),   # 2n + mu + nu = 0
            # the leading coefficient 2(n+1)(n+mu+nu+1)/... at n = 3 is 8e-11
            ((0.5, -4.5 + 1.2e-10, 4), "vanishing leading coefficient at n = 3"),
        ]
        for (mu, nu, n_max), message in cases:
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                jacobi_sequence(mu, nu, n_max, 2.0)

    @pytest.mark.parametrize("n_max, message", [
        (2.5, "polynomial degree must be an integer, got 2.5"),
        (True, "polynomial degree must be an integer, got the bool True"),
        (-1, "polynomial degree must be >= 0, got -1"),
    ])
    def test_rejects_bad_degree(self, n_max, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            jacobi_sequence(1.5, -10.0, n_max, 2.0)

    def test_differential_equation_residual(self):
        # (1-x^2) P'' - [(mu+nu+2)x + mu - nu] P' + n(n+mu+nu+1) P = 0
        mu, nu = 1.5, -25.5
        h = 1e-4
        for n in (2, 4, 6):
            for x in np.linspace(1.01, 10.0, 7):
                p = jacobi_sequence(mu, nu, n, x)[n]
                pp = jacobi_sequence(mu, nu, n, x + h)[n]
                pm = jacobi_sequence(mu, nu, n, x - h)[n]
                d1 = (pp - pm) / (2 * h)
                d2 = (pp - 2 * p + pm) / (h * h)
                t1 = (1.0 - x * x) * d2
                t2 = -((mu + nu + 2.0) * x + mu - nu) * d1
                t3 = n * (n + mu + nu + 1.0) * p
                scale = abs(t1) + abs(t2) + abs(t3)
                assert abs(t1 + t2 + t3) < 1e-6 * max(scale, 1.0)


class TestSignedLogGamma:
    def test_gamma_one(self):
        g = signed_log_gamma(1.0)
        assert g.sign == 1 and g.log_abs == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        g = signed_log_gamma(0.5)
        assert g.sign == 1
        assert g.log_abs == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_negative_argument_by_downward_product(self):
        # Gamma(z) = Gamma(z + k) / prod_{i=0}^{k-1} (z + i) from a positive reference
        for z in (-2.5, -0.3, -7.8, -24.5):
            k = int(math.ceil(-z)) + 1
            prod = 1.0
            for i in range(k):
                prod *= z + i
            want = math.exp(math.lgamma(z + k)) / prod
            g = signed_log_gamma(z)
            assert g.sign == int(math.copysign(1, want))
            assert g.sign * math.exp(g.log_abs) == pytest.approx(want, rel=1e-12)

    def test_sign_alternates_between_negative_integers(self):
        assert signed_log_gamma(-0.5).sign == -1
        assert signed_log_gamma(-1.5).sign == 1
        assert signed_log_gamma(-2.5).sign == -1

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -3.0 + 1e-13,
                                   pytest.param(math.inf, id="not-finite"),
                                   pytest.param(1e307, id="lgamma-overflows")])
    def test_poles_rejected(self, z):
        with pytest.raises(ParameterError):
            signed_log_gamma(z)


class TestNormalization:
    def test_positive_and_matches_integral(self):
        c0 = normalization_c(1.5, -25.5, 0)
        assert c0 > 0.0 and math.isfinite(c0)
        # weighted_product_integral already carries c_0^2
        assert weighted_product_integral(1.5, -25.5, 0, 0) == pytest.approx(1.0, rel=1e-9)

    def test_strict_inequality_boundary_rejected(self):
        # mu + nu = -2n - 1 exactly is outside the validity domain
        with pytest.raises(ParameterError):
            normalization_c(1.5, -1.5 - 2.0 * 3 - 1.0, 3)

    def test_mu_constraint(self):
        with pytest.raises(ParameterError):
            normalization_c(-1.0, -20.0, 0)

    def test_overflow_refused_by_name(self):
        message = "c_n overflows float64 for (mu, nu, n) = (0.5, -1e+200, 0)"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            normalization_c(0.5, -1e200, 0)
        # the oracle's elements carry c_n and refuse the basis the same way
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            direct_matrix(BasisParams(0.5, -1e200, 2), lambda x: x)

    def test_gamma_form_equals_sine_form(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            mu = rng.uniform(-0.9, 3.0)
            n = int(rng.integers(0, 5))
            nu = -2.0 * n - 1.0 - mu - rng.uniform(0.5, 20.0)
            a = _log_cn_squared_gammas(mu, nu, n)
            b = log_cn_squared_sines(mu, nu, n)
            assert a.sign == b.sign == 1
            assert a.log_abs == pytest.approx(b.log_abs, abs=1e-12 * max(1.0, abs(a.log_abs)))


class TestOrthogonality:
    @pytest.mark.parametrize("mu,nu,N", [(1.5, -25.5, 4), (0.5, -12.7, 3), (2.2, -20.1, 4)])
    def test_weighted_orthogonality(self, mu, nu, N):
        # normalized integrals: diagonal 1, off-diagonal 0
        for n in range(N + 1):
            for m in range(n, N + 1):
                got = weighted_product_integral(mu, nu, n, m)
                if n == m:
                    assert got == pytest.approx(1.0, rel=1e-8)
                else:
                    assert abs(got) < 1e-8

    def test_shifted_orthogonality(self):
        # substitute x -> 2x + 1: int_0^inf x^mu (x+1)^nu P_n(2x+1) P_m(2x+1) dx
        # equals the x >= 1 closed form divided by 2^(mu+nu+1)
        mu, nu, N = 1.5, -13.5, 2

        def element(n, m):
            log_c = math.log(normalization_c(mu, nu, n)) + math.log(normalization_c(mu, nu, m))

            def integrand(t):
                x = math.exp(t)
                lw = log_c + (mu + 1.0) * t + nu * math.log1p(x)
                if lw < -700.0:
                    return 0.0
                p = jacobi_sequence(mu, nu, max(n, m), 2.0 * x + 1.0)
                return math.exp(lw) * float(p[n]) * float(p[m])

            t_peak = math.log(0.5 * ((mu - nu) / (-mu - nu) - 1.0))
            with warnings.catch_warnings():
                # tolerances sit at the roundoff floor by design
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, err = integrate.quad(integrand, -40.0, 80.0, epsabs=1e-11,
                                          epsrel=1e-11, limit=800,
                                          points=[t_peak - 6, t_peak, t_peak + 6])
            assert err < 5e-8  # quadpack's estimate is conservative near roundoff
            return val * 2.0 ** (mu + nu + 1.0)

        for n in range(N + 1):
            for m in range(n, N + 1):
                got = element(n, m)
                if n == m:
                    assert got == pytest.approx(1.0, rel=1e-8)
                else:
                    assert abs(got) < 1e-8
