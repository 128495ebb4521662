"""Energy-independent matrix method: quadrature, assembly, generalized solve.

The spectrum is computed in a basis whose parameters (mu, nu) are free
computational choices rather than energy-dependent.  The coordinate operator
x is tridiagonal in that basis: the truncated matrix X has the recursion
coefficients F_n on its diagonal and D_n beside it.  Its eigendecomposition
(Golub-Welsch) gives Gauss nodes tau_n and an orthogonal transform Lambda,
and any multiplication operator w(x) is approximated by
Lambda diag(w(tau)) Lambda^T.
The Hamiltonian (in units lambda^2/2) and the overlap then assemble from a
few such pieces, and bound states come out of the generalized symmetric
eigenproblem H f = eps omega f.

The approximation is spectral, not entrywise: matrix elements of kernels
with a pole at the support edge (1/(1-x), 1/(1-x^2)) differ from the true
integrals at any fixed size, yet the eigenvalues converge as the size grows.
That convergence is what the plateau scan certifies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, SolverError
from .potential import PotentialParams
from .recursion import BasisParams, recursion_coeffs

# Eigenvalues above this are discarded as continuum-discretization artifacts.
BOUND_STATE_CUTOFF = -1e-10

# Contracts on the decompositions.
TRIDIAG_RESIDUAL_TOL = 1e-10
PAIR_RESIDUAL_TOL = 1e-8

# Refine eigenpairs whose residual exceeds this fraction of the contract.
_REFINE_TRIGGER = 0.01

# Successive relative change defining a plateau point.
PLATEAU_REL_CHANGE = 1e-6

# The kernels w(x) check-quadrature reports, in its order; assembly reads three.
_KERNELS = {
    "x": lambda x: x,
    "1/(1-x)": lambda x: 1.0 / (1.0 - x),
    "1/(1+x)": lambda x: 1.0 / (1.0 + x),
    "1/(x^2-1)": lambda x: 1.0 / (x * x - 1.0),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes tau and orthogonal eigenvector matrix Lambda of X.

    Column n of Lambda belongs to tau[n]; nodes ascend and all exceed 1
    (the weight lives on x >= 1).
    """

    tau: np.ndarray
    Lam: np.ndarray


@dataclass(frozen=True)
class AssembledSystem:
    """Exactly symmetric Hamiltonian (pre-scaled by 2/lambda^2) and overlap, plus their rule."""

    H: np.ndarray
    omega: np.ndarray
    rule: QuadratureRule


@dataclass(frozen=True)
class BoundSpectrum:
    """Negative eigenvalues eps_k = 2 E_k / lambda^2 and bookkeeping.

    report_units lists -eps_k (energies in units of -lambda^2/2), descending.
    basis is the basis solved in (None when the eigenvalues came from
    elsewhere, as in a bare bound_states call).
    """

    epsilons: np.ndarray
    report_units: np.ndarray
    discarded_count: int = 0
    # max ||H f - eps omega f|| / max(||H||, 1) over the pairs the 1e-8
    # contract checks: those that can be bound states and those that never
    # needed refinement (see _generalized_eigen)
    max_residual: float = 0.0
    basis: BasisParams | None = None

    def __len__(self) -> int:
        return self.epsilons.shape[0]


def quadrature_rule(basis: BasisParams) -> QuadratureRule:
    """Gauss rule of the basis: eigendecomposition of its tridiagonal X.

    Delegates to LAPACK's tridiagonal solver on the recursion coefficients
    and enforces the residual contract
    ||X Lam - Lam diag(tau)||_max < 1e-10 max(||X||_max, 1).

    Each call builds a fresh rule; its tau and Lam are read-only, because
    _kernels shares the rule of each recent basis with every solve on it.
    """
    import scipy.linalg

    c = recursion_coeffs(basis)
    try:
        tau, lam = scipy.linalg.eigh_tridiagonal(c.F, c.D)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed to converge: {exc}") from exc
    x_lam = c.F[:, None] * lam
    x_lam[:-1] += c.D[:, None] * lam[1:]
    x_lam[1:] += c.D[:, None] * lam[:-1]
    x_lam -= lam * tau
    residual = np.abs(x_lam, out=x_lam).max()
    scale = max(np.abs(c.F).max(), np.abs(c.D).max(initial=0.0))
    if residual > TRIDIAG_RESIDUAL_TOL * max(scale, 1.0):
        raise SolverError(
            f"tridiagonal eigensolve residual {residual:.3e} exceeds contract")
    tau.flags.writeable = lam.flags.writeable = False
    return QuadratureRule(tau=tau, Lam=lam)


def quadrature_matrix(rule: QuadratureRule, w: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Lambda diag(w(tau)) Lambda^T, the spectral approximation of w(x).

    The result is exactly w(X) for the truncated coordinate matrix X of the
    rule's basis.  It is entrywise exact for w(x) = x (and any linear w),
    where it returns X itself.  For w = 1/p it is p(X)^-1, not the integral
    of w between basis states; with a pole at the support edge the two
    differ by O(1) at small sizes, while the assembled eigenvalues converge
    as the size grows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        wt = np.asarray(w(rule.tau), dtype=float)
    if not np.all(np.isfinite(wt)):
        bad = int(np.argmax(~np.isfinite(wt)))
        raise ParameterError(f"kernel is not finite at node tau = {rule.tau[bad]}")
    return (rule.Lam * wt) @ rule.Lam.T


@dataclass(frozen=True)
class _Kernels:
    """The potential-independent pieces of one basis, read-only: its rule,
    w(X) for 1/(1-x) and 1/(1+x), and the symmetrized overlap w(X) for 1/(x^2-1)."""

    rule: QuadratureRule
    q_minus: np.ndarray
    q_plus: np.ndarray
    omega: np.ndarray


@lru_cache(maxsize=16)
def _kernels(basis: BasisParams) -> _Kernels:
    """The rule and kernels of the basis, built once for every potential and convention.

    The solver's one per-basis cache, shared read-only for the last 16 bases
    (at least a plateau grid).  A rule that breaks its contract or has a node
    at the pole, or a kernel that is not finite, raises and is not kept.
    """
    rule = quadrature_rule(basis)
    tau = rule.tau
    if np.any(tau - 1.0 < 1e-12):
        raise SolverError(f"quadrature node at the kernel pole x = 1 (min tau = {tau.min()})")
    q_minus = quadrature_matrix(rule, _KERNELS["1/(1-x)"])
    q_plus = quadrature_matrix(rule, _KERNELS["1/(1+x)"])
    omega = quadrature_matrix(rule, _KERNELS["1/(x^2-1)"])
    omega += omega.T
    omega *= 0.5
    for m in (q_minus, q_plus, omega):
        m.flags.writeable = False
    return _Kernels(rule=rule, q_minus=q_minus, q_plus=q_plus, omega=omega)


def assemble_system(basis: BasisParams, p: PotentialParams,
                    consistent_potential: bool = False) -> AssembledSystem:
    """Hamiltonian (times 2/lambda^2) and overlap in the computational basis.

    H_nm = [1/4 - B - (n + (mu+nu+1)/2)^2] delta_nm + C X_nm
           + (mu^2/2) <1/(1-x)>_nm + ((nu^2 + A)/2) <1/(1+x)>_nm,
    omega_nm = <1/(x^2-1)>_nm,
    with <w>_nm the quadrature matrices.  tau_n > 1 keeps every kernel finite
    and makes omega positive definite.

    The rule and the three kernels depend on the basis alone: _kernels keeps
    those of the last 16 bases, read-only, so a solve on a basis already seen
    assembles H in O(N^2), and rule and omega are the basis's shared arrays
    (a write raises).

    The default 1/(1+x) coefficient (nu^2 + A)/2 is the tabulated reference
    convention, which corresponds to the potential with the coth strength
    halved: substituting U(x) = A(x-1) + (1-x^2)(B-Cx) into the wave
    operator gives -U/(1-x^2) = A/(1+x) - B + Cx, i.e. the full A on the
    1/(1+x) pole, so the operator-consistent coefficient is (nu^2 + 2A)/2.
    Pass consistent_potential=True for the spectrum of V(r) exactly as
    potential_value evaluates it (validated against an independent
    finite-difference solution of the radial equation).
    """
    if not p.C > 0.0:
        raise ParameterError(f"C must be positive (at C <= 0 the core does not repel and the "
                             f"levels diverge with the basis size), got C = {p.C:.6g}")
    mu, nu = basis.mu, basis.nu
    c = recursion_coeffs(basis)
    k = _kernels(basis)
    a_pole = 2.0 * p.A if consistent_potential else p.A
    n = np.arange(basis.size, dtype=float)
    diag = 0.25 - p.B - (n + 0.5 * (mu + nu + 1.0)) ** 2
    # rounding as the sum diag + C X + (mu^2/2) <.> + ((nu^2+a)/2) <.>
    h = k.q_minus * (mu * mu / 2.0)
    h.flat[::basis.size + 1] += diag + p.C * c.F
    h.flat[1::basis.size + 1] += p.C * c.D
    h.flat[basis.size::basis.size + 1] += p.C * c.D
    h += ((nu * nu + a_pole) / 2.0) * k.q_plus
    h += h.T
    h *= 0.5
    return AssembledSystem(H=h, omega=k.omega, rule=k.rule)


def _refine_pair(h: np.ndarray, omega: np.ndarray, lam: float,
                 f: np.ndarray) -> tuple[float, np.ndarray]:
    """One or two steps of inverse iteration plus Rayleigh-quotient update."""
    import scipy.linalg

    shifted = np.empty_like(h)
    for _ in range(2):
        np.subtract(h, np.multiply(omega, lam, out=shifted), out=shifted)
        try:
            # h - lam omega is exactly symmetric: its Fortran-order view is the
            # same matrix, which lu_factor overwrites instead of copying
            lu, piv = scipy.linalg.lu_factor(shifted.T, overwrite_a=True, check_finite=False)
            f_new = scipy.linalg.lu_solve((lu, piv), omega @ f, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            break
        norm = np.linalg.norm(f_new)
        if not np.isfinite(norm) or norm == 0.0:
            break
        f = f_new / norm
        denom = f @ omega @ f
        if denom <= 0.0 or not np.isfinite(denom):
            break
        lam = float(f @ h @ f) / float(denom)
    return lam, f


def _generalized_eigen(sys: AssembledSystem) -> tuple[np.ndarray, float]:
    """Eigenvalues (ascending) and the max relative residual of the checked pairs.

    omega = Lam diag(g) Lam^T exactly, g = 1/(tau^2 - 1) > 0, so the
    whitening S = Lam diag(sqrt g) inverts in closed form and reduces
    H f = eps omega f to an ordinary symmetric problem; this stays accurate
    where a numerical factorization of the ill-conditioned omega does not.

    Each pair k with residual r = H f - eps omega f has a true eigenvalue
    within b = ||r||_{omega^-1} / ||f||_omega of eps (Parlett, The Symmetric
    Eigenvalue Problem), and both norms are diagonal in the rule's basis.
    A pair with eps - b below BOUND_STATE_CUTOFF can be a bound state: it is
    refined if its residual approaches the 1e-8 ||H|| contract, and then
    checked against the contract.  Pairs below the refinement trigger are
    checked as they are.  A pair that needs refinement but lies wholly above
    the cutoff is a continuum artifact: it is neither refined nor checked,
    and its eigenvalue, returned unrefined, is discarded by bound_states.
    """
    import scipy.linalg

    h, omega, rule = sys.H, sys.omega, sys.rule
    if np.any(rule.tau ** 2 <= 1.0):
        raise SolverError("overlap factorization needs all tau > 1")
    g_isqrt = np.sqrt(rule.tau ** 2 - 1.0)
    # in place, rounding as 0.5 (R + R^T) with R = diag(g_isqrt) Lam^T H Lam diag(g_isqrt)
    reduced = rule.Lam.T @ h @ rule.Lam
    reduced *= g_isqrt[:, None]
    reduced *= g_isqrt
    reduced += reduced.T
    reduced *= 0.5
    try:
        eigs, y = np.linalg.eigh(reduced)
        del reduced
        h_norm = np.abs(np.linalg.eigvalsh(h)).max()   # ||H||_2 of a symmetric H
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolve failed: {exc}") from exc
    vecs = (rule.Lam * g_isqrt) @ y
    del y
    col_norm = np.linalg.norm(vecs, axis=0)
    vecs /= col_norm

    tol = PAIR_RESIDUAL_TOL * max(h_norm, 1.0)
    res_block = omega @ vecs
    res_block *= eigs
    np.subtract(h @ vecs, res_block, out=res_block)   # H V - omega V diag(eps)
    residuals = np.linalg.norm(res_block, axis=0)
    # b = ||r||_{omega^-1} / ||f||_omega, omega^-1 = Lam diag(tau^2 - 1) Lam^T, ||f||_omega
    # = ||y|| / col_norm = 1 / col_norm; a b that overflows (inf, NaN) stays a candidate
    with np.errstate(over="ignore", invalid="ignore"):
        res_block = rule.Lam.T @ res_block   # frees R; scaled to diag(g_isqrt) Lam^T R
        res_block *= g_isqrt[:, None]
        radius = np.linalg.norm(res_block, axis=0) * col_norm
    candidate = ~(eigs - radius >= BOUND_STATE_CUTOFF)
    triggered = residuals > _REFINE_TRIGGER * tol
    # an exactly singular shift (an overflowed pair) gives inf or NaN, which
    # _refine_pair rejects; scipy's LinAlgWarning would only repeat it on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for k in np.nonzero(candidate & triggered)[0]:
            lam_k, f_k = _refine_pair(h, omega, float(eigs[k]), vecs[:, k].copy())
            res_k = np.linalg.norm(h @ f_k - lam_k * (omega @ f_k))
            if res_k < residuals[k]:
                eigs[k], residuals[k] = lam_k, res_k
    worst = residuals[candidate | ~triggered].max(initial=0.0)
    if not np.isfinite(worst):
        raise SolverError(f"generalized eigenpair residual overflows float64 "
                          f"(||H|| = {h_norm:.3e})")
    if worst > tol:
        raise SolverError(
            f"generalized eigenpair residual {worst:.3e} exceeds "
            f"{tol:.3e} after refinement")
    return np.sort(eigs, kind="stable"), float(worst / max(h_norm, 1.0))


def bound_states(eigs: Sequence[float], max_residual: float = 0.0) -> BoundSpectrum:
    """Keep eigenvalues below the bound-state cutoff; count what was dropped.

    Non-negative (and barely negative) eigenvalues are discretized-continuum
    artifacts of the finite basis, not physical states.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    keep = eigs[eigs < BOUND_STATE_CUTOFF]
    return BoundSpectrum(
        epsilons=keep,
        report_units=-keep,
        discarded_count=int(eigs.size - keep.size),
        max_residual=max_residual,
    )


def solve_bound_states(p: PotentialParams, size: int, mu: float = 1.5,
                       consistent_potential: bool = False) -> BoundSpectrum:
    """End-to-end spectrum for a basis of `size` functions.

    nu is the stability-plateau choice -2*size - mu - 2 (BasisParams.from_size),
    and the spectrum carries that basis.  See assemble_system for the meaning
    of consistent_potential.
    """
    basis = BasisParams.from_size(mu, size)
    # strengths near the float64 limit overflow H or its residuals: a NaN or
    # infinite residual raises SolverError in _generalized_eigen, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        sys = assemble_system(basis, p, consistent_potential=consistent_potential)
        eigs, max_res = _generalized_eigen(sys)
    return replace(bound_states(eigs, max_residual=max_res), basis=basis)


@dataclass(frozen=True)
class PlateauStat:
    """Stability summary of one bound state over the mu grid.

    The plateau is the longest contiguous run of grid points with successive
    relative change below 1e-6; delta is max - min of -eps over that run
    (None when the grid cannot support one), mu_lo..mu_hi its extent.
    """

    state: int
    delta: float | None
    mu_lo: float
    mu_hi: float
    points: int


@dataclass(frozen=True)
class PlateauScan:
    """Spectra over a mu grid plus per-state plateau summaries."""

    mu_grid: np.ndarray
    spectra: list[BoundSpectrum]
    stats: list[PlateauStat] = field(default_factory=list)

    @property
    def state_count(self) -> int:
        return min((len(s) for s in self.spectra), default=0)

    def table(self) -> np.ndarray:
        """(len(grid), state_count) array of -eps_k values."""
        k = self.state_count
        return np.array([s.report_units[:k] for s in self.spectra])


def _longest_plateau(values: np.ndarray) -> tuple[int, int]:
    """Half-open index range [i, j) of the longest run with small successive change."""
    ok = np.abs(np.diff(values)) <= PLATEAU_REL_CHANGE * np.abs(values[:-1])
    best_lo, best_hi = 0, 1
    run_lo = 0
    for i, good in enumerate(ok):
        if not good:
            run_lo = i + 1
        elif (i + 2) - run_lo > best_hi - best_lo:
            best_lo, best_hi = run_lo, i + 2
    return best_lo, best_hi


def plateau_scan(p: PotentialParams, size: int, mu_grid: Sequence[float],
                 consistent_potential: bool = False) -> PlateauScan:
    """Scan the unphysical basis parameter mu and locate stability plateaus.

    Computes the bound spectrum at every grid point with
    nu = -2*size - mu - 2 (BasisParams.from_size); each spectrum carries its
    basis.  An empty plateau for a state is reported with delta = None rather
    than raised.
    """
    grid = np.asarray(mu_grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("mu grid must not be empty")
    if np.any(np.diff(grid) <= 0.0):
        raise ParameterError("mu grid must be strictly ascending")
    spectra = [solve_bound_states(p, size, mu=float(m),
                                  consistent_potential=consistent_potential)
               for m in grid]
    scan = PlateauScan(mu_grid=grid, spectra=spectra)
    for k, col in enumerate(scan.table().T):
        lo, hi = _longest_plateau(col)
        seg = col[lo:hi]
        scan.stats.append(PlateauStat(
            state=k, delta=float(seg.max() - seg.min()) if hi - lo > 1 else None,
            mu_lo=float(grid[lo]), mu_hi=float(grid[hi - 1]), points=hi - lo))
    return scan
