"""Parameter algebra and the three-term recursion for expansion coefficients.

The wavefunction is expanded over weighted Jacobi functions
phi_n(x) = c_n (x-1)^(mu/2) (x+1)^(nu/2) P_n^(mu,nu)(x).  For a bound state
of dimensionless energy eps = 2E/lambda^2 the basis parameters are tied to
the energy by mu = sqrt(-eps), nu = -sqrt(-eps - 2A).  The wave equation then
collapses to the symmetric three-term recursion

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

# |C D_n| below this makes the recursion step degenerate.
H_STEP_TOL = 1e-14

# Rescale the rolling pair when |H_n| passes this (the recursion is linear
# and homogeneous, so a global rescale is harmless).
H_RESCALE_LIMIT = 1e150


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
        if not isinstance(self.N, numbers.Integral):
            raise ParameterError(f"highest degree must be an integer, got {self.N}")
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

        Requires mu > -1 and an integer size >= 1.  mu + nu is -2*size - 2 in
        exact arithmetic; a mu large enough for float64 to lose the size term
        is refused by name.
        A basis off the rule is BasisParams(mu, nu, N); its levels are the
        caller's to certify.
        """
        if not mu > -1.0:
            raise ParameterError(f"mu must exceed -1, got {mu}")
        nu = -2.0 * size - mu - 2.0
        if not mu + nu < -2.0 * size - 1.0:
            raise ParameterError(f"mu = {mu:.10g} is too large for a basis of {size} functions")
        if not isinstance(size, numbers.Integral):
            raise ParameterError(f"basis size must be an integer, got {size}")
        if size < 1:
            raise ParameterError(f"basis size must be >= 1, got {size}")
        return cls(mu=mu, nu=nu, N=size - 1)


@dataclass(frozen=True)
class RecursionCoeffs:
    """Sequences F_n (0..N) and D_n (0..N-1) of the recursion."""

    F: np.ndarray
    D: np.ndarray


def _f_g_arrays(mu: float, nu: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """F_n and G_n for n = 0..count-1.

    F_n = (nu^2 - mu^2) / [(2n+mu+nu)(2n+mu+nu+2)]
    G_n = (2n+mu+nu)(2n+mu+nu+2)/4
    """
    n = np.arange(count, dtype=float)
    s = 2.0 * n + mu + nu
    if np.any(np.abs(s) < 1e-10) or np.any(np.abs(s + 2.0) < 1e-10):
        raise ParameterError("degenerate denominator 2n + mu + nu (+2) ~ 0")
    return (nu * nu - mu * mu) / (s * (s + 2.0)), 0.25 * s * (s + 2.0)


def _d_array(mu: float, nu: float, count: int) -> np.ndarray:
    """D_n for n = 0..count-1.

    D_n = 2/(2n+mu+nu+2) * sqrt[ (n+1)(n+mu+1)(n+nu+1)(n+mu+nu+1)
                                 / ((2n+mu+nu+1)(2n+mu+nu+3)) ]
    """
    m = np.arange(count, dtype=float)
    sm = 2.0 * m + mu + nu
    if np.any(np.abs(sm + 2.0) < 1e-10):
        raise ParameterError("degenerate denominator 2n + mu + nu + 2 ~ 0")
    rad = ((m + 1.0) * (m + mu + 1.0) * (m + nu + 1.0) * (m + mu + nu + 1.0)
           / ((sm + 1.0) * (sm + 3.0)))
    if np.any(rad <= 0.0):
        bad = int(np.argmax(rad <= 0.0))
        raise ParameterError(f"non-positive radicand in D_n at n = {bad}")
    return 2.0 / (sm + 2.0) * np.sqrt(rad)


def recursion_coeffs(basis: BasisParams) -> RecursionCoeffs:
    """Recursion coefficients of the full basis: F for 0..N and D for 0..N-1.

    Signs are literal: D_n < 0 for every valid basis because 2n+mu+nu+2 < 0.
    A basis with mu + nu = -2N - 2 exactly has a vanishing denominator in F_N
    and is rejected as degenerate (stability-rule choices keep |2n+mu+nu| >= 1).
    """
    F, _ = _f_g_arrays(basis.mu, basis.nu, basis.size)
    return RecursionCoeffs(F=F, D=_d_array(basis.mu, basis.nu, basis.size - 1))


def h_polynomial_sequence(basis: BasisParams, B: float, C: float) -> np.ndarray:
    """H_0 .. H_N solving the recursion with H_0 = 1, H_{-1} = 0.

    H_1 = (B + G_0 - C F_0) / (C D_0) and
    H_{n+1} = [ (B + G_n - C F_n) H_n - C D_{n-1} H_{n-1} ] / (C D_n).

    Magnitudes can sweep many orders for deep states; if |H| passes 1e150 the
    whole accumulated sequence is rescaled (overall scale is irrelevant and
    the termwise recursion residual is preserved).
    """
    h = np.empty(basis.size, dtype=float)
    h[0] = 1.0
    if basis.N == 0:
        return h
    # only indices 0..N-1 of each sequence enter the steps here
    F, G = _f_g_arrays(basis.mu, basis.nu, basis.N)
    D = _d_array(basis.mu, basis.nu, basis.N)
    if abs(C * D[0]) < H_STEP_TOL:
        raise ParameterError("degenerate recursion step: |C D_0| ~ 0")
    h[1] = (B + G[0] - C * F[0]) / (C * D[0])
    for n in range(1, basis.N):
        if abs(C * D[n]) < H_STEP_TOL:
            raise ParameterError(f"degenerate recursion step: |C D_{n}| ~ 0")
        h[n + 1] = ((B + G[n] - C * F[n]) * h[n] - C * D[n - 1] * h[n - 1]) / (C * D[n])
        if not math.isfinite(h[n + 1]):
            raise ParameterError(f"recursion overflowed within one step at n = {n + 1}")
        if abs(h[n + 1]) > H_RESCALE_LIMIT:
            h[:n + 2] /= abs(h[n + 1])
    return h
