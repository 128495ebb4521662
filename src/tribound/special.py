"""Jacobi polynomials on the half line x >= 1 and signed log-gamma utilities.

The basis built elsewhere in the package uses Jacobi polynomials P_n^(mu,nu)
with mu > -1 but nu strongly negative (mu + nu < -2N - 1), so the weight
(x-1)^mu (x+1)^nu is integrable on [1, inf) with only finitely many moments.
Gamma factors in the normalization then carry negative non-integer arguments,
which is why all closed forms here are assembled in log space with explicit
sign bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# |2n + mu + nu| below this is treated as a degenerate recursion denominator.
DEGENERATE_DENOM_TOL = 1e-10

# |z - round(z)| below this counts as a gamma pole for z <= 0.
GAMMA_POLE_TOL = 1e-12


@dataclass(frozen=True)
class JacobiPair:
    """Parameter pair (mu, nu) of a Jacobi polynomial family.

    Evaluation works for any real pair; orthogonality on [1, inf) additionally
    needs mu > -1 and mu + nu < -2N - 1, which is checked where it matters
    (normalization_c, basis construction), not here.
    """

    mu: float
    nu: float


@dataclass(frozen=True)
class SignedLogMagnitude:
    """A real number stored as (log |value|, sign), sign in {-1, 0, +1}."""

    log_abs: float
    sign: int

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_abs)


def _sinpi(z: float) -> tuple[float, int]:
    """sin(pi z) as (|sin|, sign), with exact argument reduction by floor."""
    m = math.floor(z)
    frac = z - m
    if frac == 0.0:
        return 0.0, 0
    s = math.sin(math.pi * (frac if frac <= 0.5 else 1.0 - frac))
    return s, (1 if m % 2 == 0 else -1)


def signed_log_gamma(z: float) -> SignedLogMagnitude:
    """ln|Gamma(z)| and sign(Gamma(z)); reflection handles z < 0.

    Raises ParameterError at the poles z = 0, -1, -2, ... (within 1e-12).
    """
    if not math.isfinite(z):
        raise ParameterError(f"gamma argument must be finite, got {z}")
    if z <= 0.0 and abs(z - round(z)) < GAMMA_POLE_TOL:
        raise ParameterError(f"gamma pole at z = {z}")
    if z > 0.0:
        return SignedLogMagnitude(math.lgamma(z), 1)
    # Gamma(z) = pi / (sin(pi z) Gamma(1 - z)); Gamma(1 - z) > 0 here.
    s, sgn = _sinpi(z)
    log_abs = math.log(math.pi) - math.log(s) - math.lgamma(1.0 - z)
    return SignedLogMagnitude(log_abs, sgn)


def jacobi_sequence(pair: JacobiPair, n_max: int, x) -> np.ndarray:
    """P_0 .. P_n_max at x (scalar or array) by upward three-term recursion.

    Seeds P_0 = 1 and P_1 = (mu+nu+2)x/2 + (mu-nu)/2; each step solves the
    recursion x P_n = F_n P_n + A_n P_{n-1} + B_n P_{n+1} for P_{n+1}.
    """
    if n_max < 0:
        raise ParameterError(f"polynomial degree must be >= 0, got {n_max}")
    mu, nu = pair.mu, pair.nu
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError("polynomial argument must be finite")
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        if abs(mu + nu + 2.0) < DEGENERATE_DENOM_TOL:
            raise ParameterError("degenerate parameters: mu + nu + 2 ~ 0")
        out[1] = (mu + nu + 2.0) * x / 2.0 + (mu - nu) / 2.0
    for n in range(1, n_max):
        s = 2.0 * n + mu + nu
        if abs(s) < DEGENERATE_DENOM_TOL or abs(s + 2.0) < DEGENERATE_DENOM_TOL:
            raise ParameterError(f"degenerate recursion denominator at n = {n}")
        lead = 2.0 * (n + 1.0) * (n + mu + nu + 1.0) / ((s + 1.0) * (s + 2.0))
        if abs(lead) < DEGENERATE_DENOM_TOL:
            raise ParameterError(f"vanishing leading coefficient at n = {n}")
        f_n = (nu * nu - mu * mu) / (s * (s + 2.0))
        a_n = 2.0 * (n + mu) * (n + nu) / (s * (s + 1.0))
        out[n + 1] = ((x - f_n) * out[n] - a_n * out[n - 1]) / lead
    return out


def jacobi_eval(pair: JacobiPair, n: int, x: float) -> float:
    """P_n^(mu,nu)(x) for a scalar x."""
    return float(jacobi_sequence(pair, n, x)[n])


def jacobi_derivative(pair: JacobiPair, n: int, x: float) -> float:
    """dP_n/dx via the first-order differential relation.

    (1 - x^2) P_n' = -n (x + (nu-mu)/(2n+mu+nu)) P_n
                     + 2 (n+mu)(n+nu)/(2n+mu+nu) P_{n-1},
    rearranged for P_n'; fails at x = +-1 where 1 - x^2 vanishes.
    """
    if n == 0:
        return 0.0
    mu, nu = pair.mu, pair.nu
    if x * x == 1.0:
        raise ParameterError("derivative relation is singular at x = +-1")
    if n == 1:
        return (mu + nu + 2.0) / 2.0
    s = 2.0 * n + mu + nu
    if abs(s) < DEGENERATE_DENOM_TOL:
        raise ParameterError(f"degenerate denominator 2n + mu + nu ~ 0 at n = {n}")
    p = jacobi_sequence(pair, n, x)
    rhs = (-n * (x + (nu - mu) / s) * p[n]
           + 2.0 * (n + mu) * (n + nu) / s * p[n - 1])
    return float(rhs / (1.0 - x * x))


def _log_cn_squared_gammas(pair: JacobiPair, n: int) -> SignedLogMagnitude:
    """log(c_n^2) from the pure-gamma closed form of the diagonal norm.

    diag_n = (-1)^(n+1) 2^(mu+nu+1)/(2n+mu+nu+1)
             * Gamma(n+mu+1) Gamma(n+nu+1) Gamma(-n-mu-nu)
             / (Gamma(n+1) Gamma(-nu) Gamma(nu+1)),
    and c_n^2 = 1/diag_n.
    """
    mu, nu = pair.mu, pair.nu
    t = 2.0 * n + mu + nu + 1.0
    num = [signed_log_gamma(n + mu + 1.0),
           signed_log_gamma(n + nu + 1.0),
           signed_log_gamma(-n - mu - nu)]
    den = [signed_log_gamma(n + 1.0),
           signed_log_gamma(-nu),
           signed_log_gamma(nu + 1.0)]
    sign = (-1) ** (n + 1) * (1 if t > 0 else -1)
    log_abs = (mu + nu + 1.0) * math.log(2.0) - math.log(abs(t))
    for g in num:
        sign *= g.sign
        log_abs += g.log_abs
    for g in den:
        sign *= g.sign
        log_abs -= g.log_abs
    return SignedLogMagnitude(-log_abs, sign)


def log_gamma_ratio(pair: JacobiPair, n: int) -> SignedLogMagnitude:
    """ln|t Gamma(n+1) Gamma(n+mu+nu+1) / (Gamma(n+mu+1) Gamma(n+nu+1))| and its sign.

    t = 2n + mu + nu + 1.  This is c_n^2 up to a factor that does not depend
    on n; the wavefunction series normalizations use it as it stands.
    """
    mu, nu = pair.mu, pair.nu
    ga = signed_log_gamma(n + 1.0)
    gb = signed_log_gamma(n + mu + nu + 1.0)
    gc = signed_log_gamma(n + mu + 1.0)
    gd = signed_log_gamma(n + nu + 1.0)
    t = 2.0 * n + mu + nu + 1.0
    sign = ga.sign * gb.sign * gc.sign * gd.sign * (1 if t > 0 else -1)
    return SignedLogMagnitude(
        math.log(abs(t)) + ga.log_abs + gb.log_abs - gc.log_abs - gd.log_abs, sign)


def _log_cn_squared_sines(pair: JacobiPair, n: int) -> SignedLogMagnitude:
    """log(c_n^2) from the sine-ratio closed form of the diagonal norm.

    diag_n = 2^(mu+nu+1)/(2n+mu+nu+1)
             * Gamma(n+mu+1) Gamma(n+nu+1) / (Gamma(n+1) Gamma(n+mu+nu+1))
             * sin(pi nu) / sin(pi (mu+nu+1)),
    so c_n^2 = 1/diag_n is log_gamma_ratio times sin(pi (mu+nu+1))
    / (2^(mu+nu+1) sin(pi nu)).
    """
    mu, nu = pair.mu, pair.nu
    s_nu, sg_nu = _sinpi(nu)
    s_mn, sg_mn = _sinpi(mu + nu + 1.0)
    if s_nu == 0.0 or s_mn == 0.0:
        raise ParameterError("sine-ratio norm undefined at integer nu or mu + nu")
    ratio = log_gamma_ratio(pair, n)
    log_abs = (ratio.log_abs - (mu + nu + 1.0) * math.log(2.0)
               - math.log(s_nu) + math.log(s_mn))
    return SignedLogMagnitude(log_abs, ratio.sign * sg_nu * sg_mn)


def normalization_c(pair: JacobiPair, n: int) -> float:
    """Normalization c_n making the weighted family orthonormal on [1, inf).

    c_n^2 is the reciprocal of the closed-form diagonal of
    int_1^inf (x-1)^mu (x+1)^nu P_n P_m dx; requires mu > -1 and
    mu + nu < -2n - 1 (strict), and the assembled square must be positive.
    """
    mu, nu = pair.mu, pair.nu
    if not mu > -1.0:
        raise ParameterError(f"orthogonality requires mu > -1, got mu = {mu}")
    if not (mu + nu < -2.0 * n - 1.0):
        raise ParameterError(
            f"orthogonality requires mu + nu < -2n - 1; got {mu + nu} at n = {n}")
    cn2 = _log_cn_squared_gammas(pair, n)
    if cn2.sign <= 0 or not math.isfinite(cn2.log_abs):
        raise ParameterError(
            f"assembled c_n^2 is not positive finite for (mu, nu, n) = ({mu}, {nu}, {n})")
    return math.exp(0.5 * cn2.log_abs)
