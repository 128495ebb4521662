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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# |C D_n| below this makes the recursion step degenerate.
H_STEP_TOL = 1e-14

# Rescale the rolling pair when |H_n| passes this (the recursion is linear
# and homogeneous, so a global rescale is harmless).
H_RESCALE_LIMIT = 1e150


@dataclass(frozen=True)
class BasisParams:
    """Computational basis: Jacobi pair (mu, nu) and highest degree N.

    The basis holds N + 1 functions of degrees 0..N.  Command-line level
    sizes count functions, not degrees; use from_size for that convention.
    """

    mu: float
    nu: float
    N: int

    def __post_init__(self):
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

    @property
    def alpha(self) -> float:
        return self.mu / 2.0

    @property
    def beta(self) -> float:
        return -self.nu / 2.0

    @classmethod
    def from_size(cls, mu: float, nu: float, size: int) -> "BasisParams":
        if size < 1:
            raise ParameterError(f"basis size must be >= 1, got {size}")
        return cls(mu=mu, nu=nu, N=size - 1)


def auto_nu(mu: float, size: int) -> float:
    """Default computational nu for a basis of `size` functions: -2*size - mu - 2."""
    return -2.0 * size - mu - 2.0


def nu_energy_independent(mu: float, A: float) -> float:
    """The optional nu-elimination rule nu = -sqrt(mu^2 - 2A).

    Ties nu to mu through the strength A instead of leaving it free.  Not
    used by default: it caps the admissible basis size at roughly
    (sqrt(mu^2 - 2A) - mu - 1)/2, which is far too small for converged
    spectra.  Exposed for experimentation only.
    """
    if mu * mu - 2.0 * A < 0.0:
        raise ParameterError("nu elimination needs mu^2 - 2A >= 0")
    return -math.sqrt(mu * mu - 2.0 * A)


@dataclass(frozen=True)
class EnergyParams:
    """Energy-dependent basis parameters for one bound state."""

    epsilon: float
    mu_k: float
    nu_k: float


def energy_params(epsilon: float, A: float) -> EnergyParams:
    """mu = sqrt(-eps), nu = -sqrt(-eps - 2A) for a bound-state energy eps < 0."""
    if A > -0.5:
        raise ParameterError(f"bound states require A <= -1/2, got A = {A}")
    if not epsilon < 0.0:
        raise ParameterError(f"bound states require eps < 0, got {epsilon}")
    if not epsilon + 2.0 * A < 0.0:
        raise ParameterError(f"eps + 2A must be negative, got {epsilon + 2.0 * A}")
    return EnergyParams(
        epsilon=epsilon,
        mu_k=math.sqrt(-epsilon),
        nu_k=-math.sqrt(-epsilon - 2.0 * A),
    )


@dataclass(frozen=True)
class RecursionCoeffs:
    """Sequences F_n (0..N), D_n (0..N-1), G_n (0..N) of the recursion."""

    F: np.ndarray
    D: np.ndarray
    G: np.ndarray


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
    """Recursion coefficients of the full basis: F, G for 0..N and D for 0..N-1.

    Signs are literal: D_n < 0 for every valid basis because 2n+mu+nu+2 < 0.
    A basis with mu + nu = -2N - 2 exactly has a vanishing denominator in F_N
    and is rejected as degenerate (stability-rule choices keep |2n+mu+nu| >= 1).
    """
    F, G = _f_g_arrays(basis.mu, basis.nu, basis.size)
    D = _d_array(basis.mu, basis.nu, basis.size - 1)
    return RecursionCoeffs(F=F, D=D, G=G)


@dataclass(frozen=True)
class AssociatedParams:
    """Bookkeeping parameters of the coefficient polynomial family.

    cosh(theta) = B/C and z = -sqrt(B^2 - C^2) identify the recursion with
    that family; sigma is pinned at -1/4.  The B = C boundary gives
    theta = 0, z = 0 and is allowed: the recursion itself never divides by z.
    """

    theta: float
    z: float
    sigma: float = field(default=-0.25)


def associated_params(B: float, C: float) -> AssociatedParams:
    if not (C > 0.0 and B >= C):
        raise ParameterError(f"association needs B >= C > 0, got B = {B}, C = {C}")
    return AssociatedParams(theta=math.acosh(B / C), z=-math.sqrt(B * B - C * C))


def h_polynomial_sequence(basis: BasisParams, B: float, C: float,
                          n_max: int) -> np.ndarray:
    """H_0 .. H_n_max solving the recursion with H_0 = 1, H_{-1} = 0.

    H_1 = (B + G_0 - C F_0) / (C D_0) and
    H_{n+1} = [ (B + G_n - C F_n) H_n - C D_{n-1} H_{n-1} ] / (C D_n).

    Magnitudes can sweep many orders for deep states; if |H| passes 1e150 the
    whole accumulated sequence is rescaled (overall scale is irrelevant and
    the termwise recursion residual is preserved).
    """
    if C == 0.0:
        raise ParameterError("recursion needs C != 0")
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    if n_max > basis.N:
        raise ParameterError(f"n_max = {n_max} exceeds basis degree {basis.N}")
    h = np.empty(n_max + 1, dtype=float)
    h[0] = 1.0
    if n_max == 0:
        return h
    # only indices 0..n_max-1 of each sequence enter the steps here
    F, G = _f_g_arrays(basis.mu, basis.nu, n_max)
    D = _d_array(basis.mu, basis.nu, n_max)
    if abs(C * D[0]) < H_STEP_TOL:
        raise ParameterError("degenerate recursion step: |C D_0| ~ 0")
    h[1] = (B + G[0] - C * F[0]) / (C * D[0])
    for n in range(1, n_max):
        if abs(C * D[n]) < H_STEP_TOL:
            raise ParameterError(f"degenerate recursion step: |C D_{n}| ~ 0")
        h[n + 1] = ((B + G[n] - C * F[n]) * h[n] - C * D[n - 1] * h[n - 1]) / (C * D[n])
        if not math.isfinite(h[n + 1]):
            raise ParameterError(f"recursion overflowed within one step at n = {n + 1}")
        if abs(h[n + 1]) > H_RESCALE_LIMIT:
            h[:n + 2] /= abs(h[n + 1])
    return h


def expansion_coefficients(energy: EnergyParams, B: float, C: float,
                           n_max: int) -> np.ndarray:
    """Wavefunction expansion coefficients f_0 .. f_n_max at a bound-state energy.

    These are the recursion polynomials evaluated with the energy-dependent
    pair (mu_k, nu_k); normalization is modulo an overall constant (f_0 = 1).
    Requires mu_k + nu_k < -2 n_max - 1 so every term is square integrable.
    """
    associated_params(B, C)  # enforces B >= C > 0
    if not (energy.mu_k + energy.nu_k < -2.0 * n_max - 1.0):
        raise ParameterError(
            f"series of length {n_max + 1} is not square integrable: "
            f"mu_k + nu_k = {energy.mu_k + energy.nu_k} >= {-2.0 * n_max - 1.0}")
    basis = BasisParams(mu=energy.mu_k, nu=energy.nu_k, N=n_max)
    return h_polynomial_sequence(basis, B, C, n_max)
