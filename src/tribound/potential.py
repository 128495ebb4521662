"""The three-parameter short-range potential and its shape analysis.

V(r) = (lambda^2/2) [ A (coth(lambda r) - 1) - B / sinh^2(lambda r)
                      + C cosh(lambda r) / sinh^3(lambda r) ],

singular at the origin like A/r - B/r^2 + C/r^3 and decaying like
exp(-2 lambda r).  Under x = coth(lambda r) the same function is the cubic
U(x) = A(x-1) + (1-x^2)(B - Cx) in units lambda^2/2, which factorizes as
U(x) = (x-1)[A + (x+1)(Cx - B)] and makes crossings and extrema elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# x must exceed 1 by this much to count as a physical crossing/extremum
# (x = 1 is r = infinity).
ROOT_ADMISSIBLE_TOL = 1e-12

# Smallest lambda r whose coth(lambda r) ~ 1/(lambda r) is a finite float64.
LAMBDA_R_MIN = float(np.finfo(float).tiny)

# Largest |B/C| and |A/C| whose shape discriminants are finite float64.
SHAPE_RATIO_MAX = 1e150

_LN2 = math.log(2.0)


def _check_lam(lam: float) -> None:
    """Refuse a range scale lambda that is not positive and finite."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ParameterError(f"lambda must be positive, got {lam}")


@dataclass(frozen=True)
class PotentialParams:
    """Strengths (A, B, C) of the 1/r, -1/r^2, 1/r^3 terms and range scale lambda."""

    A: float
    B: float
    C: float
    lam: float = 1.0

    def __post_init__(self):
        _check_lam(self.lam)
        for name in ("A", "B", "C"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")

    @property
    def gamma(self) -> float:
        """Shape ratio B/C."""
        return self._ratio("B")

    @property
    def xi(self) -> float:
        """Shape ratio A/C."""
        return self._ratio("A")

    def _ratio(self, name: str) -> float:
        if self.C == 0.0:
            raise ParameterError("shape ratios need C != 0")
        ratio = getattr(self, name) / self.C
        if not math.isfinite(ratio):
            raise ParameterError(f"shape ratio {name}/C overflows float64 at C = {self.C:.6g}")
        return ratio


@dataclass(frozen=True)
class Crossing:
    """A zero of the potential at finite r."""

    x: float
    r: float


@dataclass(frozen=True)
class Extremum:
    """A local extremum of the potential; value is V in units lambda^2/2."""

    x: float
    r: float
    value: float


@dataclass(frozen=True)
class ShapeReport:
    crossings: list[Crossing]
    extrema: list[Extremum]
    admits_bound_states: bool
    satisfies_B_ge_C: bool


@dataclass(frozen=True)
class _Grid:
    """The pieces of one r grid, read-only: lambda, a copy of r, q = e^{-2t}
    and em = 1 - e^{-2t} for t = lambda r, x = coth t, ln(x - 1) and ln(x + 1)."""

    lam: float
    r: np.ndarray
    q: np.ndarray
    em: np.ndarray
    x: np.ndarray
    ln_xm1: np.ndarray
    ln_xp1: np.ndarray


# The last grid _grid built; a grid with another lambda or r replaces it.
_last_grid: _Grid | None = None


def _grid(lam: float, r: np.ndarray) -> _Grid:
    """The pieces of r, computed once per grid for x_of_r, potential_value
    and sample_wavefunction.

    An equal lambda and an elementwise-equal r return the last grid's
    pieces.  Otherwise lambda and r must be positive and finite; a lambda r
    that overflows is r = infinity (x = 1), one below LAMBDA_R_MIN is refused.
    coth t - 1 = 2q/em, ln(x - 1) = ln 2 - 2t - ln(em) and ln(x + 1) =
    ln 2 - ln(em): one exp, one expm1 and one log per point, each float
    operation in the order of the direct formulas, so every value is
    bit-identical to them.
    """
    global _last_grid
    g = _last_grid
    if g is not None and g.lam == lam and np.array_equal(g.r, r):
        return g
    _check_lam(lam)
    if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
        raise ParameterError("r must be positive and finite")
    with np.errstate(over="ignore"):
        ln_xm1 = lam * r
        ln_xm1 *= -2.0                              # -2t
    if np.any(ln_xm1 > -2.0 * LAMBDA_R_MIN):
        raise ParameterError(f"lambda * r = {-0.5 * np.max(ln_xm1):.6g} is below "
                             f"{LAMBDA_R_MIN:.6g}, where coth(lambda r) overflows float64 "
                             f"(lambda = {lam:.6g})")
    q = np.exp(ln_xm1)
    em = -np.expm1(ln_xm1)
    x = 2.0 * q
    x /= em
    x += 1.0
    ln_xp1 = np.log(em)
    ln_xm1 += _LN2
    ln_xm1 -= ln_xp1
    ln_xp1 = _LN2 - ln_xp1
    # a 0-d r gives numpy scalars, which asarray turns into freezable arrays
    pieces = [np.asarray(a) for a in (r.copy(), q, em, x, ln_xm1, ln_xp1)]
    for a in pieces:
        a.flags.writeable = False
    _last_grid = _Grid(lam, *pieces)
    return _last_grid


def x_of_r(lam: float, r):
    """x = coth(lambda r); strictly decreasing in r with limit 1 at infinity.

    Resolution note: coth(t) - 1 = 2 e^{-2t}(1 + ...) falls below the spacing
    of floats near 1.0 once lambda r exceeds about 18, where the returned x
    collapses to exactly 1.0 and the inverse map is lost.  Relative round-trip
    accuracy 1e-12 holds for lambda r up to about 6.5.
    """
    x = _grid(lam, np.asarray(r, dtype=float)).x
    return x.copy() if x.shape else float(x)


def r_of_x(lam: float, x):
    """Inverse map r = arccoth(x)/lambda for x > 1, as log1p(2/(x-1)) / (2 lambda).

    The log1p form stays accurate where (x+1)/(x-1) rounds to 1 (x > ~1e16)."""
    _check_lam(lam)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 1.0):
        raise ParameterError("inverse map needs x > 1 (x = 1 is r = infinity)")
    with np.errstate(over="ignore", invalid="ignore"):
        r = 0.5 / lam * np.log1p(2.0 / (x - 1.0))
    if not np.all((0.0 < r) & (r < math.inf)):
        raise ParameterError(f"r = arccoth(x)/lambda leaves float64 at lambda = {lam:.6g}")
    return r if r.shape else float(r)


def u_of_x(p: PotentialParams, x):
    """U(x) = A(x-1) + (1-x^2)(B - Cx): the potential in units lambda^2/2.

    A U that is not a finite float64 (x is NaN or infinite, or U overflows)
    raises a ParameterError naming x, with no numpy warning.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = p.A * (x - 1.0) + (1.0 - x * x) * (p.B - p.C * x)
    finite = np.isfinite(u)
    if not np.all(finite):
        raise ParameterError(f"U(x) is not a finite float64 at x = {x.flat[np.argmin(finite)]:.6g}")
    return u if u.shape else float(u)


def potential_value(p: PotentialParams, r):
    """V(r), vanishing at infinity.

    Evaluated from exp(-2 lambda r) rewrites of the hyperbolic ratios, which
    are exact identities and neither overflow nor lose precision at large
    lambda r (direct sinh^3 overflows near lambda r ~ 237).  A V that is not
    a finite float64 raises a ParameterError naming lambda and r.
    """
    r = np.asarray(r, dtype=float)
    g = _grid(p.lam, r)
    try:
        scale = 0.5 * p.lam**2
    except OverflowError:
        raise ParameterError(f"lambda = {p.lam:.6g} is too large: lambda^2 overflows") from None
    q, em = g.q, g.em
    # three buffers, each operation in the order of
    # scale * (A 2q/em - B 4q/em^2 + C 4q(1 + q)/em^3)
    v, q4, t = np.empty_like(q), np.empty_like(q), np.empty_like(q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(q, 4.0, out=q4)
        np.multiply(q, 2.0, out=v)
        v /= em
        v *= p.A                                    # A coth_m1
        np.square(em, out=t)
        np.divide(q4, t, out=t)
        t *= p.B                                    # B / sinh^2
        v -= t
        np.add(q, 1.0, out=t)
        t *= q4
        np.power(em, 3, out=q4)
        t /= q4
        t *= p.C                                    # C cosh / sinh^3
        v += t
        v *= scale
    finite = np.isfinite(v)
    if not np.all(finite):
        raise ParameterError(f"V(r) overflows float64 at r = {r.flat[np.argmin(finite)]:.6g}, "
                             f"lambda = {p.lam:.6g}")
    return v if v.shape else float(v)


def max_basis_index(A: float) -> int | None:
    """Largest admissible basis index floor(sqrt(-A/2) - 1/2), or None if A > -1/2.

    Bounds both the square-integrable series length and the number of bound
    states (count <= index + 1).
    """
    if not math.isfinite(A):
        raise ParameterError("A must be finite")
    if A > -0.5:
        return None
    return int(math.floor(math.sqrt(-A / 2.0) - 0.5))


def classify_shape(p: PotentialParams) -> ShapeReport:
    """Crossings, extrema and bound-state admissibility of the potential.

    Crossings solve U(x) = 0 beyond the trivial root x = 1:
        x_pm = [gamma - 1 +- sqrt((gamma+1)^2 - 4 xi)] / 2,
    kept when real and x > 1.  Extrema solve dU/dx = 0:
        x_pm~ = [gamma +- sqrt(gamma^2 + 3(1 - xi))] / 3,
    same admissibility.  Both extrema are reported even when no crossing
    exists (the configuration with a barrier but no negative well).  Each
    list ascends in x: its - root comes first, and root >= 0.
    """
    gamma, xi = p.gamma, p.xi
    if not max(abs(gamma), abs(xi)) <= SHAPE_RATIO_MAX:
        raise ParameterError(f"shape report needs |B/C| and |A/C| <= {SHAPE_RATIO_MAX:g}, "
                             f"got B/C = {gamma:.6g}, A/C = {xi:.6g}")

    crossings: list[Crossing] = []
    disc = (gamma + 1.0) ** 2 - 4.0 * xi
    if disc >= 0.0:
        root = math.sqrt(disc)
        for x in (0.5 * (gamma - 1.0 - root), 0.5 * (gamma - 1.0 + root)):
            if x >= 1.0 + ROOT_ADMISSIBLE_TOL:
                crossings.append(Crossing(x=x, r=r_of_x(p.lam, x)))

    extrema: list[Extremum] = []
    disc_e = gamma * gamma + 3.0 * (1.0 - xi)
    if disc_e >= 0.0:
        root = math.sqrt(disc_e)
        for x in ((gamma - root) / 3.0, (gamma + root) / 3.0):
            if x >= 1.0 + ROOT_ADMISSIBLE_TOL:
                value = u_of_x(p, x)
                extrema.append(Extremum(x=x, r=r_of_x(p.lam, x), value=value))

    return ShapeReport(
        crossings=crossings,
        extrema=extrema,
        admits_bound_states=max_basis_index(p.A) is not None,
        satisfies_B_ge_C=p.B >= p.C,
    )
