"""Bound-state wavefunctions as finite weighted-Jacobi series.

psi_k(r) ~ (coth lr - 1)^(mu_k/2) (coth lr + 1)^(nu_k/2)
           * sum_{n=0}^{k} c_n f_n P_n^(mu_k, nu_k)(coth lr),

with mu_k, nu_k tied to the state energy, f_n the recursion-polynomial
coefficients and c_n the gamma-factor normalizations.  Output is
un-normalized (the series carries an arbitrary overall constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .potential import PotentialParams, _grid
from .recursion import BasisParams, h_polynomial_sequence, jacobi_sequence, log_gamma_ratio

# Magnitudes with ln|psi| below this emit exact 0.0.
LOG_UNDERFLOW = -700.0

# Grid points sampled per block: one block's Jacobi table and combine
# buffers stay cache-sized, whatever the grid size.
SAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class WavefunctionTable:
    """Sampled un-normalized wavefunction of one bound state.

    clamped_count reports grid points whose magnitude fell below the
    log-space representable range and were flushed to exact 0.0.
    """

    state_index: int
    r_grid: np.ndarray
    psi: np.ndarray
    epsilon: float
    mu_k: float
    nu_k: float
    terms_used: int
    clamped_count: int = 0


def _series_normalizations(basis: BasisParams) -> np.ndarray:
    """c_n for n = 0..N from the gamma closed form, up to a global constant.

    c_n^2 = (2n + mu + nu + 1) Gamma(n+1) Gamma(n+mu+nu+1)
            / (Gamma(n+mu+1) Gamma(n+nu+1)).
    At physical (mu_k, nu_k) the squares share one common sign across n (it
    can be negative, in which case the common imaginary unit is absorbed in
    the overall normalization); a mixed-sign sequence signals an invalid
    state and is rejected.
    """
    ratios = [log_gamma_ratio(basis.mu, basis.nu, n) for n in range(basis.size)]
    logs = np.array([r.log_abs for r in ratios])
    signs = np.array([r.sign for r in ratios])
    if np.any(signs != signs[0]):
        raise ParameterError(
            "series normalizations have mixed signs; state parameters invalid")
    return np.exp(0.5 * logs)


def state_coefficients(k: int, epsilon_k: float, A: float, B: float, C: float
                       ) -> tuple[BasisParams, np.ndarray, np.ndarray]:
    """State basis, series coefficients f_n and normalizations c_n.

    The series for state k runs over the basis mu_k = sqrt(-eps),
    nu_k = -sqrt(-eps - 2A) of degrees n = 0..k; BasisParams refuses it unless
    every term is square integrable (mu_k + nu_k < -2k - 1).
    """
    if k < 0:
        raise ParameterError(f"state index must be >= 0, got {k}")
    if not A <= -0.5:
        raise ParameterError(f"bound states require A <= -1/2, got A = {A}")
    if not epsilon_k < 0.0:
        raise ParameterError(f"bound states require eps < 0, got {epsilon_k}")
    if not (C > 0.0 and B >= C):
        raise ParameterError(f"association needs B >= C > 0, got B = {B}, C = {C}")
    basis = BasisParams(mu=math.sqrt(-epsilon_k), nu=-math.sqrt(-epsilon_k - 2.0 * A), N=k)
    return basis, h_polynomial_sequence(basis, B, C), _series_normalizations(basis)


def sample_wavefunction(k: int, epsilon_k: float, p: PotentialParams,
                        r_grid: np.ndarray) -> WavefunctionTable:
    """Evaluate psi_k on a strictly ascending positive grid.

    The prefactor is evaluated in log space (it spans hundreds of orders over
    the default grid).  x, ln(x - 1) and ln(x + 1) come from the grid pieces
    that V(r) and x_of_r share, computed once for the last grid and lambda.
    The grid is walked in blocks of SAMPLE_BLOCK points; in each, the
    Jacobi table and the series are built for that block alone and combined
    with the prefactor straight into its slice of psi: ln|psi| = ln|series|
    + ln(prefactor), exponentiated and given the series' sign.  Memory is
    psi plus about k + 4 block-sized rows.  Points with ln|psi| below -700
    flush to exact 0.0 and count as clamped; a zero series value gives an
    exact 0.0 and is not counted.  A block whose smallest ln|psi| is at
    least -700 has neither, so only the other blocks build the clamp mask.
    Where coth(lambda r) or the series is not a finite float64, a
    ParameterError names r and lambda.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ParameterError("r grid must be a non-empty 1-d array")
    if np.any(r[1:] <= r[:-1]):
        raise ParameterError("r grid must be positive and strictly ascending")
    grid = _grid(p.lam, r)
    basis, f, c = state_coefficients(k, epsilon_k, p.A, p.B, p.C)
    weights = c * f
    psi = np.empty(r.shape)
    ln_pref_buf = np.empty(min(r.size, SAMPLE_BLOCK))
    clamped = 0
    for start in range(0, r.size, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        out = psi[block]
        ln_pref = ln_pref_buf[:out.size]
        np.multiply(grid.ln_xm1[block], 0.5 * basis.mu, out=ln_pref)
        np.multiply(grid.ln_xp1[block], 0.5 * basis.nu, out=out)
        ln_pref += out
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            series = weights @ jacobi_sequence(basis.mu, basis.nu, k, grid.x[block])
            np.abs(series, out=out)
            if not out.max() < math.inf:           # inf, or NaN if any |series| is NaN
                raise ParameterError(
                    f"the series of state {k} overflows float64 at "
                    f"r = {r[start + np.argmin(np.isfinite(series))]:.6g}, lambda = {p.lam:.6g}")
            np.log(out, out=out)
            out += ln_pref                         # ln|psi|; -inf where series = 0
            # clamp bookkeeping only where some point underflows or the series is 0
            keep = None if out.min() >= LOG_UNDERFLOW else out >= LOG_UNDERFLOW
            np.exp(out, out=out)
            np.copysign(out, series, out=out)
        if keep is not None:
            clamped += int(np.count_nonzero(series) - np.count_nonzero(keep))
            out[np.logical_not(keep, out=keep)] = 0.0
    return WavefunctionTable(
        state_index=k,
        r_grid=r,
        psi=psi,
        epsilon=epsilon_k,
        mu_k=basis.mu,
        nu_k=basis.nu,
        terms_used=k + 1,
        clamped_count=clamped,
    )


def count_sign_changes(psi: np.ndarray) -> int:
    """Interior sign changes, ignoring exact zeros (underflowed samples)."""
    s = np.sign(psi)
    s = s[s != 0.0]
    return int(np.sum(s[1:] * s[:-1] < 0.0))
