"""The Jacobi pair (mu, nu): its basis, its polynomials and their recursions.

The wavefunction is expanded over weighted Jacobi functions
phi_n(x) = c_n (x-1)^(mu/2) (x+1)^(nu/2) P_n^(mu,nu)(x) on x >= 1, with
mu > -1 but nu strongly negative (mu + nu < -2N - 1), so the weight
(x-1)^mu (x+1)^nu has only finitely many moments.  Gamma factors in the
normalization then carry negative non-integer arguments, which is why the
closed forms here are assembled in log space with explicit sign bookkeeping.

For a bound state of dimensionless energy eps = 2E/lambda^2 the basis
parameters are tied to the energy by mu = sqrt(-eps), nu = -sqrt(-eps - 2A).
The wave equation then collapses to the symmetric three-term recursion

    (B/C) f_n = { -(1/C) [ (n + (mu+nu+1)/2)^2 - 1/4 ] + F_n } f_n
                + D_{n-1} f_{n-1} + D_n f_{n+1},

whose solution with f_0 = 1 is a non-conventional orthogonal polynomial in
B/C; it is generated here directly from the recursion (no closed form is
known).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# |2n + mu + nu| (or |... + 2|) below this is a degenerate recursion denominator.
DEGENERATE_DENOM_TOL = 1e-10

# |z - round(z)| below this counts as a gamma pole for z <= 0.
GAMMA_POLE_TOL = 1e-12

# |C D_n| below this makes the recursion step degenerate.
H_STEP_TOL = 1e-14

# Rescale the rolling pair when |H_n| passes this (the recursion is linear
# and homogeneous, so a global rescale is harmless).
H_RESCALE_LIMIT = 1e150


def _check_integer(value, what: str) -> None:
    """Refuse a value that is not an integer; a bool is an Integral to numbers, not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        shown = f"the bool {value}" if isinstance(value, bool) else value
        raise ParameterError(f"{what} must be an integer, got {shown}")


@dataclass(frozen=True)
class BasisParams:
    """Jacobi basis: pair (mu, nu) and highest degree N, for the solver and for
    each bound state's series (mu = sqrt(-eps), nu = -sqrt(-eps - 2A)).

    The basis holds N + 1 square-integrable functions of degrees 0..N.
    Command-line sizes count functions, not degrees; from_size takes those.
    """

    mu: float
    nu: float
    N: int

    def __post_init__(self):
        _check_integer(self.N, "highest degree")
        if self.N < 0:
            raise ParameterError(f"highest degree must be >= 0, got {self.N}")
        if not self.mu > -1.0:
            raise ParameterError(f"basis requires mu > -1, got {self.mu}")
        if not (self.mu + self.nu < -2.0 * self.N - 1.0):
            raise ParameterError(
                f"basis requires mu + nu < -2N - 1; got mu + nu = {self.mu + self.nu} "
                f"with N = {self.N}")

    @property
    def size(self) -> int:
        return self.N + 1

    @classmethod
    def from_size(cls, mu: float, size: int) -> "BasisParams":
        """Basis of `size` functions with the stability-rule nu = -2*size - mu - 2.

        Requires mu > 0 and an integer size >= 1, not a bool.  Near
        r = infinity a basis function goes like e^(-mu lambda r), so at
        mu <= 0 the overlap integral diverges and the solve has no continuum
        meaning.  mu + nu is -2*size - 2 in exact arithmetic; a mu large
        enough for float64 to lose the size term is refused by name.
        A basis off the rule is BasisParams(mu, nu, N); its levels are the
        caller's to certify.
        """
        if not mu > 0.0:
            raise ParameterError(f"mu must be positive, got {mu}: at mu <= 0 the basis "
                                 "functions are not square-integrable as r -> infinity")
        _check_integer(size, "basis size")
        nu = -2.0 * size - mu - 2.0
        if not mu + nu < -2.0 * size - 1.0:
            raise ParameterError(f"mu = {mu:.10g} is too large for a basis of {size} functions")
        if size < 1:
            raise ParameterError(f"basis size must be >= 1, got {size}")
        return cls(mu=mu, nu=nu, N=size - 1)


@dataclass(frozen=True)
class SignedLogMagnitude:
    """A real number stored as (log |value|, sign), sign in {-1, 0, +1}."""

    log_abs: float
    sign: int


def _sinpi(z: float) -> tuple[float, int]:
    """sin(pi z) as (|sin|, sign) for non-integer z, exact argument reduction by floor."""
    m = math.floor(z)
    frac = z - m
    s = math.sin(math.pi * (frac if frac <= 0.5 else 1.0 - frac))
    return s, (1 if m % 2 == 0 else -1)


def signed_log_gamma(z: float) -> SignedLogMagnitude:
    """ln|Gamma(z)| and sign(Gamma(z)); reflection handles z < 0.

    Raises ParameterError at the poles z = 0, -1, -2, ... (within 1e-12)
    and where ln Gamma(z) overflows float64 (z above about 2.5e305).
    """
    if not math.isfinite(z):
        raise ParameterError(f"gamma argument must be finite, got {z}")
    if z <= 0.0 and abs(z - round(z)) < GAMMA_POLE_TOL:
        raise ParameterError(f"gamma pole at z = {z}")
    if z > 0.0:
        try:
            return SignedLogMagnitude(math.lgamma(z), 1)
        except OverflowError:
            raise ParameterError(f"ln Gamma(z) overflows float64 at z = {z}") from None
    # Gamma(z) = pi / (sin(pi z) Gamma(1 - z)); Gamma(1 - z) > 0 here.
    s, sgn = _sinpi(z)
    log_abs = math.log(math.pi) - math.log(s) - math.lgamma(1.0 - z)
    return SignedLogMagnitude(log_abs, sgn)


def _f(mu: float, nu: float, s):
    """F_n = (nu^2 - mu^2) / [s (s + 2)] with s = 2n + mu + nu (a float or an array).

    F_n is both the recursion's diagonal term and the Jacobi polynomials'
    three-term coefficient of P_n.
    """
    return (nu * nu - mu * mu) / (s * (s + 2.0))


def _f_g_arrays(mu: float, nu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """F_n and G_n = (2n+mu+nu)(2n+mu+nu+2)/4 for n = 0..count-1."""
    n = np.arange(count, dtype=float)
    s = 2.0 * n + mu + nu
    if (np.any(np.abs(s) < DEGENERATE_DENOM_TOL)
            or np.any(np.abs(s + 2.0) < DEGENERATE_DENOM_TOL)):
        raise ParameterError("degenerate denominator 2n + mu + nu (+2) ~ 0")
    return _f(mu, nu, s), 0.25 * s * (s + 2.0)


def _d_array(mu: float, nu: float, count: int) -> np.ndarray:
    """D_n for n = 0..count-1.

    D_n = 2/(2n+mu+nu+2) * sqrt[ (n+1)(n+mu+1)(n+nu+1)(n+mu+nu+1)
                                 / ((2n+mu+nu+1)(2n+mu+nu+3)) ]
    Both callers have refused |2n+mu+nu+2| ~ 0 over these n in _f_g_arrays.
    """
    m = np.arange(count, dtype=float)
    sm = 2.0 * m + mu + nu
    rad = ((m + 1.0) * (m + mu + 1.0) * (m + nu + 1.0) * (m + mu + nu + 1.0)
           / ((sm + 1.0) * (sm + 3.0)))
    if np.any(rad <= 0.0):
        bad = int(np.argmax(rad <= 0.0))
        raise ParameterError(f"non-positive radicand in D_n at n = {bad}")
    return 2.0 / (sm + 2.0) * np.sqrt(rad)


def recursion_coeffs(basis: BasisParams) -> tuple[np.ndarray, np.ndarray]:
    """Recursion coefficients (F, D) of the full basis: F_n for 0..N and D_n for 0..N-1.

    Signs are literal: D_n < 0 for every valid basis because 2n+mu+nu+2 < 0.
    A basis with mu + nu = -2N - 2 exactly has a vanishing denominator in F_N
    and is rejected as degenerate (stability-rule choices keep |2n+mu+nu| >= 1).
    A basis whose coefficients overflow float64 (|nu| of order 1e154 or more)
    is refused by name, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        F, _ = _f_g_arrays(basis.mu, basis.nu, basis.size)
        D = _d_array(basis.mu, basis.nu, basis.size - 1)
    if not (np.isfinite(F).all() and np.isfinite(D).all()):
        raise ParameterError(f"recursion coefficients are not finite in float64 for "
                             f"mu = {basis.mu:.6g}, nu = {basis.nu:.6g}, N = {basis.N}")
    return F, D


def h_polynomial_sequence(basis: BasisParams, B: float, C: float) -> np.ndarray:
    """H_0 .. H_N solving the recursion with H_0 = 1, H_{-1} = 0.

    H_1 = (B + G_0 - C F_0) / (C D_0) and
    H_{n+1} = [ (B + G_n - C F_n) H_n - C D_{n-1} H_{n-1} ] / (C D_n).

    Magnitudes can sweep many orders for deep states; from the first step on,
    whenever |H| passes 1e150 the whole accumulated sequence is rescaled, H_0
    with it (overall scale is irrelevant and the termwise recursion residual
    is preserved).  A non-finite B or C, or a term that overflows float64, is
    refused by name, with no numpy warning.
    """
    for name, value in (("B", B), ("C", C)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    h = np.empty(basis.size, dtype=float)
    h[0] = 1.0
    # only indices 0..N-1 of each sequence enter the steps here
    with np.errstate(over="ignore", invalid="ignore"):
        F, G = _f_g_arrays(basis.mu, basis.nu, basis.N)
        D = _d_array(basis.mu, basis.nu, basis.N)
        for n in range(basis.N):
            if abs(C * D[n]) < H_STEP_TOL:
                raise ParameterError(f"degenerate recursion step: |C D_{n}| ~ 0")
            back = C * D[n - 1] * h[n - 1] if n else 0.0   # H_{-1} = 0
            h[n + 1] = ((B + G[n] - C * F[n]) * h[n] - back) / (C * D[n])
            if not math.isfinite(h[n + 1]):
                raise ParameterError(f"recursion overflowed within one step at n = {n + 1}")
            if abs(h[n + 1]) > H_RESCALE_LIMIT:
                h[:n + 2] /= abs(h[n + 1])
    return h


def jacobi_sequence(mu: float, nu: float, n_max: int, x) -> np.ndarray:
    """P_0 .. P_n_max of the pair (mu, nu) at x (scalar or array) by upward recursion.

    Seeds P_0 = 1 and P_1 = (mu+nu+2)x/2 + (mu-nu)/2; each step solves the
    recursion x P_n = F_n P_n + A_n P_{n-1} + B_n P_{n+1} for P_{n+1}.  Any real
    pair evaluates; orthogonality on [1, inf) needs more (see normalization_c).
    """
    _check_integer(n_max, "polynomial degree")
    if n_max < 0:
        raise ParameterError(f"polynomial degree must be >= 0, got {n_max}")
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise ParameterError(f"Jacobi parameters must be finite, got mu = {mu}, nu = {nu}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ParameterError("polynomial argument must be finite")
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        row = out[1, ...]                  # a view, also for 0-d x
        np.multiply(x, mu + nu + 2.0, out=row)
        row *= 0.5                         # exact: the bits of row / 2
        row += (mu - nu) / 2.0
    buf = np.empty_like(x)
    for n in range(1, n_max):
        s = 2.0 * n + mu + nu
        if min(abs(s), abs(s + 1.0), abs(s + 2.0)) < DEGENERATE_DENOM_TOL:
            raise ParameterError(f"degenerate recursion denominator at n = {n}")
        lead = 2.0 * (n + 1.0) * (n + mu + nu + 1.0) / ((s + 1.0) * (s + 2.0))
        if abs(lead) < DEGENERATE_DENOM_TOL:
            raise ParameterError(f"vanishing leading coefficient at n = {n}")
        f_n = _f(mu, nu, s)
        a_n = 2.0 * (n + mu) * (n + nu) / (s * (s + 1.0))
        # in place, rounding as ((x - f_n) P_n - a_n P_{n-1}) / lead
        row = out[n + 1, ...]
        np.subtract(x, f_n, out=row)
        row *= out[n]
        row -= np.multiply(out[n - 1], a_n, out=buf)
        row /= lead
    return out


def _log_cn_squared_gammas(mu: float, nu: float, n: int) -> SignedLogMagnitude:
    """log(c_n^2) from the pure-gamma closed form of the diagonal norm.

    diag_n = (-1)^(n+1) 2^(mu+nu+1)/(2n+mu+nu+1)
             * Gamma(n+mu+1) Gamma(n+nu+1) Gamma(-n-mu-nu)
             / (Gamma(n+1) Gamma(-nu) Gamma(nu+1)),
    and c_n^2 = 1/diag_n.  At integer nu both Gamma(n+nu+1) and Gamma(nu+1)
    sit on poles; their ratio is then taken as the finite product
    (nu+1)(nu+2)...(nu+n).
    """
    t = 2.0 * n + mu + nu + 1.0
    num = [signed_log_gamma(n + mu + 1.0)]
    den = [signed_log_gamma(n + 1.0), signed_log_gamma(-nu)]
    if nu + 1.0 <= 0.0 and abs(nu - round(nu)) < GAMMA_POLE_TOL:
        factors = nu + np.arange(1.0, n + 1.0)
        num.append(SignedLogMagnitude(float(np.log(np.abs(factors)).sum()),
                                      int(np.prod(np.sign(factors)))))
    else:
        num.append(signed_log_gamma(n + nu + 1.0))
        den.append(signed_log_gamma(nu + 1.0))
    num.append(signed_log_gamma(-n - mu - nu))  # summed below in the closed form's order
    sign = (-1) ** (n + 1) * (1 if t > 0 else -1)
    log_abs = (mu + nu + 1.0) * math.log(2.0) - math.log(abs(t))
    for g in num:
        sign *= g.sign
        log_abs += g.log_abs
    for g in den:
        sign *= g.sign
        log_abs -= g.log_abs
    return SignedLogMagnitude(-log_abs, sign)


def log_gamma_ratio(mu: float, nu: float, n: int) -> SignedLogMagnitude:
    """ln|t Gamma(n+1) Gamma(n+mu+nu+1) / (Gamma(n+mu+1) Gamma(n+nu+1))| and its sign.

    t = 2n + mu + nu + 1.  This is c_n^2 up to a factor that does not depend
    on n; the wavefunction series normalizations use it as it stands.
    """
    ga = signed_log_gamma(n + 1.0)
    gb = signed_log_gamma(n + mu + nu + 1.0)
    gc = signed_log_gamma(n + mu + 1.0)
    gd = signed_log_gamma(n + nu + 1.0)
    t = 2.0 * n + mu + nu + 1.0
    sign = ga.sign * gb.sign * gc.sign * gd.sign * (1 if t > 0 else -1)
    return SignedLogMagnitude(
        math.log(abs(t)) + ga.log_abs + gb.log_abs - gc.log_abs - gd.log_abs, sign)


def normalization_c(mu: float, nu: float, n: int) -> float:
    """Normalization c_n making the weighted family orthonormal on [1, inf).

    c_n^2 is the reciprocal of the closed-form diagonal of
    int_1^inf (x-1)^mu (x+1)^nu P_n P_m dx; requires mu > -1 and
    mu + nu < -2n - 1 (strict) with n an integer, and the assembled square
    must be positive with a square root that float64 can hold.
    """
    _check_integer(n, "index n")
    if not mu > -1.0:
        raise ParameterError(f"orthogonality requires mu > -1, got mu = {mu}")
    if not (mu + nu < -2.0 * n - 1.0):
        raise ParameterError(
            f"orthogonality requires mu + nu < -2n - 1; got {mu + nu} at n = {n}")
    cn2 = _log_cn_squared_gammas(mu, nu, n)
    if cn2.sign <= 0 or not math.isfinite(cn2.log_abs):
        raise ParameterError(
            f"assembled c_n^2 is not positive finite for (mu, nu, n) = ({mu}, {nu}, {n})")
    try:
        return math.exp(0.5 * cn2.log_abs)
    except OverflowError:
        raise ParameterError(
            f"c_n overflows float64 for (mu, nu, n) = ({mu}, {nu}, {n})") from None
