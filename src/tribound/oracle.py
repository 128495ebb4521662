"""Brute-force matrix elements by adaptive integration.

Independent check of the spectral quadrature path: evaluates

    c_n c_m int_1^inf (x-1)^mu (x+1)^nu w(x) P_n(x) P_m(x) dx

directly under the substitution x = 1 + e^t, which tames both the x -> 1
endpoint and the exponential decay at infinity and shares no code with the
production solver's node-based approximation.

QUADPACK comes from scipy's extension scipy.integrate._quadpack, loaded on
its own where it can be, without the scipy.integrate package
(solver._scipy_extension).  Each node's x, ln(x + 1) and Jacobi table are
built once per basis (_node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SolverError
from .recursion import BasisParams, _check_integer, jacobi_sequence, normalization_c
from .solver import _scipy_extension

# Integration window in t = ln(x - 1).  Below -43 the variable x - 1 falls
# under extended-precision resolution of x; the integrand decays there like
# exp(mu * t) for a kernel with a simple pole at x = 1, and that part is
# estimated from the window's second unit and counted against the tolerance.
# Above 692 every admissible integrand has underflowed.
_T_LO = -43.0
_T_HI = 692.0

# QUADPACK subinterval cap; about 21 evaluations each, well under the
# 1e7-evaluation budget.
_LIMIT = 1500

# Absolute and relative tolerance every element must meet.
_TOL = 1e-10


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class _Node:
    """One node t of a basis: x = 1 + e^t in extended precision, ln(x + 1),
    and on first use the read-only Jacobi table P_0..P_N at x."""

    def __init__(self, basis: BasisParams, t: float):
        # x - 1 = e^t exactly; extended precision keeps x distinguishable
        # from 1 down to t ~ -43 so kernels like 1/(1-x) stay accurate.
        self.basis = basis
        self.x = np.longdouble(1.0) + np.exp(np.longdouble(t))
        self.log_x1 = float(np.log(self.x + 1.0))

    @cached_property
    def jacobi(self) -> np.ndarray:
        # P_n of the upward recursion does not depend on how far it runs
        b = self.basis
        p = jacobi_sequence(b.mu, b.nu, b.N, float(self.x))
        p.flags.writeable = False
        return p


# a check-quadrature basis visits about 600 nodes where the weight is above underflow
_node = lru_cache(maxsize=4096)(_Node)


def direct_matrix_element(basis: BasisParams, w, n: int, m: int) -> IntegrationResult:
    """Adaptive-quadrature matrix element of the kernel w between states n, m.

    Raises SolverError when the error estimate plus the estimated part below
    the window cannot be brought below 1e-10 max(1, |value|) within the
    evaluation budget.  Kernels singular at x = 1 need mu large enough for an
    integrable product (mu > 0 for a simple 1/(x-1) pole); a small mu leaves
    too much below the window and raises.
    """
    if basis.N > 8:
        raise ParameterError(
            "direct integration is supported for basis degree <= 8 (cost grows "
            "with the oscillation of the polynomials)")
    _check_integer(n, "matrix index n")
    _check_integer(m, "matrix index m")
    if not (0 <= n <= basis.N and 0 <= m <= basis.N):
        raise ParameterError(f"indices must lie in 0..{basis.N}, got ({n}, {m})")
    mu, nu = basis.mu, basis.nu
    log_c = (math.log(normalization_c(mu, nu, n))
             + math.log(normalization_c(mu, nu, m)))

    def integrand(t: float) -> float:
        node = _node(basis, t)
        log_weight = log_c + mu * t + nu * node.log_x1 + t
        if log_weight < -745.0:
            return 0.0   # before the table, which overflows far out
        p = node.jacobi
        return math.exp(log_weight) * float(w(node.x)) * float(p[n]) * float(p[m])

    # Peak of the weight at x0 - 1 = (mu + 1)/(-nu - mu - 1) * 2 roughly;
    # hint QUADPACK so narrow concentrated weights are not missed.
    x0 = (mu - nu) / (-mu - nu)
    t0 = math.log(max(x0 - 1.0, 1e-300))
    points = [t for t in (t0 - 8.0, t0 - 2.0, t0, t0 + 2.0, t0 + 8.0)
              if _T_LO < t < _T_HI]
    # as scipy.integrate.quad passes them: sorted, then two spare slots
    breaks = np.concatenate((np.unique(points), (0.0, 0.0)))
    quadpack = _scipy_extension("scipy.integrate._quadpack")
    try:
        value, err, info, ier = quadpack._qagpe(
            integrand, _T_LO, _T_HI, breaks, (), 1, _TOL, _TOL, _LIMIT)
    except Exception as exc:  # an error raised inside the integrand
        raise SolverError(f"direct integration failed: {exc}") from exc
    if ier not in (0, 1, 2, 3, 4, 5, 7):   # the codes that return a value to judge
        raise SolverError(f"direct integration failed: QUADPACK error code {ier}")
    evaluations = int(info["neval"])
    if not math.isfinite(value) or err > _TOL * max(1.0, abs(value)):
        raise SolverError(
            f"direct integration did not converge: value = {value}, "
            f"error estimate = {err:.3e} with tol = {_TOL:.3e}")
    # below the window the integrand decays like exp(rate * t); the rate is
    # read off its second unit, since at the edge x - 1 is only a few ulps of
    # x and the rate there reads high.  A non-decaying one has no finite
    # estimate.
    f_lo, f_in, f_next = (abs(integrand(_T_LO + s)) for s in (0.0, 1.0, 2.0))
    below = 0.0 if f_lo == 0.0 else math.inf
    if f_lo > 0.0 and 0.0 < f_in < f_next:
        below = f_lo / math.log(f_next / f_in)
    if err + below > _TOL * max(1.0, abs(value)):
        raise SolverError(
            f"direct integration misses {below:.3e} below t = {_T_LO:g}: value = {value}, "
            f"error estimate = {err:.3e} with tol = {_TOL:.3e}")
    return IntegrationResult(value=float(value), abs_error_estimate=float(err),
                             evaluations=evaluations)


def direct_matrix(basis: BasisParams, w) -> np.ndarray:
    """Symmetric matrix of direct elements over the whole basis."""
    k = basis.size
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = direct_matrix_element(basis, w, i, j).value
    return out
