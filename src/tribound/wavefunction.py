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
from .potential import PotentialParams
from .recursion import EnergyParams, energy_params, expansion_coefficients
from .special import JacobiPair, jacobi_sequence, log_gamma_ratio

# Magnitudes with ln|psi| below this emit exact 0.0.
LOG_UNDERFLOW = -700.0


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


def default_r_grid(lam: float = 1.0, n: int = 2000) -> np.ndarray:
    """Logarithmic grid from 1e-3/lambda to 15/lambda.

    Resolves both the singular small-r region and the exponential tail.
    """
    return np.geomspace(1e-3 / lam, 15.0 / lam, n)


def _series_normalizations(energy: EnergyParams, n_max: int) -> np.ndarray:
    """c_n for n = 0..n_max from the gamma closed form, up to a global constant.

    c_n^2 = (2n + mu + nu + 1) Gamma(n+1) Gamma(n+mu+nu+1)
            / (Gamma(n+mu+1) Gamma(n+nu+1)).
    At physical (mu_k, nu_k) the squares share one common sign across n (it
    can be negative, in which case the common imaginary unit is absorbed in
    the overall normalization); a mixed-sign sequence signals an invalid
    state and is rejected.
    """
    pair = JacobiPair(energy.mu_k, energy.nu_k)
    ratios = [log_gamma_ratio(pair, n) for n in range(n_max + 1)]
    logs = np.array([r.log_abs for r in ratios])
    signs = np.array([r.sign for r in ratios])
    if np.any(signs != signs[0]):
        raise ParameterError(
            "series normalizations have mixed signs; state parameters invalid")
    return np.exp(0.5 * logs)


def state_coefficients(k: int, epsilon_k: float, A: float, B: float, C: float,
                       n_terms: int | None = None
                       ) -> tuple[EnergyParams, np.ndarray, np.ndarray]:
    """Energy parameters, series coefficients f_n and normalizations c_n.

    The series for state k runs over n = 0..k by default; n_terms overrides
    the length for experimentation, capped by square integrability
    (mu_k + nu_k < -2n - 1 for every term used).
    """
    if k < 0:
        raise ParameterError(f"state index must be >= 0, got {k}")
    n_max = k if n_terms is None else n_terms - 1
    if n_max < 0:
        raise ParameterError("series needs at least one term")
    energy = energy_params(epsilon_k, A)
    f = expansion_coefficients(energy, B, C, n_max)
    c = _series_normalizations(energy, n_max)
    return energy, f, c


def sample_wavefunction(k: int, epsilon_k: float, p: PotentialParams,
                        r_grid: np.ndarray, n_terms: int | None = None
                        ) -> WavefunctionTable:
    """Evaluate psi_k on a strictly ascending positive grid.

    The prefactor is evaluated in log space (it spans hundreds of orders over
    the default grid) and combined with the series value only where the
    latter is nonzero; anything below exp(-700) flushes to exact 0.0.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ParameterError("r grid must be a non-empty 1-d array")
    if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise ParameterError("r grid must be positive and strictly ascending")
    energy, f, c = state_coefficients(k, epsilon_k, p.A, p.B, p.C, n_terms)
    n_max = f.shape[0] - 1

    t = p.lam * r
    em = -np.expm1(-2.0 * t)                       # 1 - e^{-2t}
    x = 1.0 + 2.0 * np.exp(-2.0 * t) / em          # coth(t)
    ln_xm1 = math.log(2.0) - 2.0 * t - np.log(em)  # ln(x - 1)
    ln_xp1 = math.log(2.0) - np.log(em)            # ln(x + 1)
    ln_pref = 0.5 * energy.mu_k * ln_xm1 + 0.5 * energy.nu_k * ln_xp1

    poly = jacobi_sequence(JacobiPair(energy.mu_k, energy.nu_k), n_max, x)
    series = (c * f) @ poly.reshape(n_max + 1, -1)
    series = series.reshape(x.shape)

    psi = np.zeros_like(x)
    nz = series != 0.0
    ln_mag = ln_pref[nz] + np.log(np.abs(series[nz]))
    keep = ln_mag >= LOG_UNDERFLOW
    vals = np.zeros(ln_mag.shape)
    vals[keep] = np.sign(series[nz][keep]) * np.exp(ln_mag[keep])
    psi[nz] = vals
    return WavefunctionTable(
        state_index=k,
        r_grid=r,
        psi=psi,
        epsilon=epsilon_k,
        mu_k=energy.mu_k,
        nu_k=energy.nu_k,
        terms_used=n_max + 1,
        clamped_count=int(np.size(keep) - np.count_nonzero(keep)),
    )


def count_sign_changes(psi: np.ndarray) -> int:
    """Interior sign changes, ignoring exact zeros (underflowed samples)."""
    s = np.sign(psi)
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.sum(s[1:] * s[:-1] < 0.0))
