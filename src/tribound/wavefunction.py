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
from .potential import PotentialParams, _coth_pieces
from .recursion import BasisParams, h_polynomial_sequence
from .special import jacobi_sequence, log_gamma_ratio

# Magnitudes with ln|psi| below this emit exact 0.0.
LOG_UNDERFLOW = -700.0

_LN2 = math.log(2.0)


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
    if A > -0.5:
        raise ParameterError(f"bound states require A <= -1/2, got A = {A}")
    if not epsilon_k < 0.0:
        raise ParameterError(f"bound states require eps < 0, got {epsilon_k}")
    if not epsilon_k + 2.0 * A < 0.0:
        raise ParameterError(f"eps + 2A must be negative, got {epsilon_k + 2.0 * A}")
    if not (C > 0.0 and B >= C):
        raise ParameterError(f"association needs B >= C > 0, got B = {B}, C = {C}")
    basis = BasisParams(mu=math.sqrt(-epsilon_k), nu=-math.sqrt(-epsilon_k - 2.0 * A), N=k)
    return basis, h_polynomial_sequence(basis, B, C), _series_normalizations(basis)


def sample_wavefunction(k: int, epsilon_k: float, p: PotentialParams,
                        r_grid: np.ndarray) -> WavefunctionTable:
    """Evaluate psi_k on a strictly ascending positive grid.

    The prefactor is evaluated in log space (it spans hundreds of orders over
    the default grid): ln(x - 1) = ln 2 - 2t - ln(1 - e^{-2t}) and
    ln(x + 1) = ln 2 - ln(1 - e^{-2t}) share the coth pieces of V(r).  It is
    combined with the series on the whole grid at once: ln|psi| = ln|series|
    + ln(prefactor), exponentiated and given the series' sign.  Points with
    ln|psi| below -700 flush to exact 0.0 and count as clamped; a zero series
    value gives an exact 0.0 and is not counted.  Where coth(lambda r) or the
    series is not a finite float64, a ParameterError names r and lambda.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ParameterError("r grid must be a non-empty 1-d array")
    if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise ParameterError("r grid must be positive and strictly ascending")
    basis, f, c = state_coefficients(k, epsilon_k, p.A, p.B, p.C)

    # The buffers of -2t and e^{-2t} become ln_pref and x in place.  Every
    # float operation keeps the order of the direct formulas (ln(x - 1) is
    # (ln 2 - 2t) - ln(em), not ln(x + 1) - 2t), so psi is bit-identical.
    ln_pref, x, em = _coth_pieces(p.lam, r)
    ln_em = np.log(em)
    x *= 2.0                                       # coth t = 1 + 2e^{-2t}/em
    x /= em
    x += 1.0
    ln_pref += _LN2                                # ln(x - 1)
    ln_pref -= ln_em
    np.subtract(_LN2, ln_em, out=ln_em)            # ln(x + 1)
    ln_pref *= 0.5 * basis.mu
    ln_em *= 0.5 * basis.nu
    ln_pref += ln_em

    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        poly = jacobi_sequence(basis.mu, basis.nu, k, x)
        series = (c * f) @ poly.reshape(k + 1, -1)
        psi = np.log(np.abs(series))
        psi += ln_pref                             # ln|psi|; -inf where series = 0
        keep = psi >= LOG_UNDERFLOW
        np.exp(psi, out=psi)
        np.copysign(psi, series, out=psi)
    finite = np.isfinite(series)
    if not np.all(finite):
        raise ParameterError(f"the series of state {k} overflows float64 at "
                             f"r = {r[np.argmin(finite)]:.6g}, lambda = {p.lam:.6g}")
    clamped = int(np.count_nonzero(series) - np.count_nonzero(keep))
    psi[~keep] = 0.0
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
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] * s[:-1] < 0.0))
