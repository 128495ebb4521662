"""Energy-independent matrix method: quadrature, assembly, generalized solve.

The spectrum is computed in a basis whose parameters (mu, nu) are free
computational choices rather than energy-dependent.  The coordinate operator
x is tridiagonal in that basis (matrix X); diagonalizing the truncated X
gives Gauss nodes tau_n and an orthogonal transform Lambda, and any
multiplication operator w(x) is approximated by Lambda diag(w(tau)) Lambda^T.
The Hamiltonian (in units lambda^2/2) and the overlap then assemble from a
few such pieces, and bound states come out of the generalized symmetric
eigenproblem H f = eps omega f.

The approximation is spectral, not entrywise: matrix elements of kernels
with a pole at the support edge (1/(1-x), 1/(1-x^2)) differ from the true
integrals at any fixed size, yet the eigenvalues converge as the size grows.
That convergence is what the plateau scan certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import ParameterError, SolverError
from .potential import PotentialParams, max_basis_index
from .recursion import BasisParams, auto_nu, recursion_coeffs

# Eigenvalues above this are discarded as continuum-discretization artifacts.
BOUND_STATE_CUTOFF = -1e-10

# Contracts on the decompositions.
TRIDIAG_RESIDUAL_TOL = 1e-10
PAIR_RESIDUAL_TOL = 1e-8

# Refine eigenpairs whose residual exceeds this fraction of the contract.
_REFINE_TRIGGER = 0.01

# Successive relative change defining a plateau point.
PLATEAU_REL_CHANGE = 1e-6


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes tau and orthogonal eigenvector matrix Lambda of X.

    Column n of Lambda belongs to tau[n]; nodes ascend and all exceed 1
    (the weight lives on x >= 1).
    """

    tau: np.ndarray
    Lam: np.ndarray

    @property
    def size(self) -> int:
        return self.tau.shape[0]


@dataclass(frozen=True)
class AssembledSystem:
    """Hamiltonian (pre-scaled by 2/lambda^2) and overlap, plus their rule."""

    H: np.ndarray
    omega: np.ndarray
    rule: QuadratureRule | None = None


@dataclass(frozen=True)
class BoundSpectrum:
    """Negative eigenvalues eps_k = 2 E_k / lambda^2 and bookkeeping.

    report_units lists -eps_k (energies in units of -lambda^2/2), descending.
    """

    epsilons: np.ndarray
    report_units: np.ndarray
    basis_size: int
    mu_used: float
    nu_used: float
    discarded_count: int = 0
    max_residual: float = 0.0

    def __len__(self) -> int:
        return self.epsilons.shape[0]


def build_x_matrix(basis: BasisParams) -> np.ndarray:
    """Tridiagonal matrix of the coordinate operator in the basis."""
    coeffs = recursion_coeffs(basis)
    x = np.diag(coeffs.F)
    if basis.size > 1:
        x += np.diag(coeffs.D, 1) + np.diag(coeffs.D, -1)
    return x


def symtridiag_eig(x: np.ndarray) -> QuadratureRule:
    """Full eigendecomposition of a symmetric tridiagonal matrix.

    Delegates to LAPACK's tridiagonal solver and enforces the residual
    contract ||X Lam - Lam diag(tau)||_max < 1e-10 ||X||_max.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {x.shape}")
    m = x.shape[0]
    if m > 2 and np.abs(x - np.diag(np.diag(x)) - np.diag(np.diag(x, 1), 1)
                        - np.diag(np.diag(x, -1), -1)).max() > 0.0:
        raise ParameterError("matrix is not tridiagonal")
    if np.abs(np.diag(x, 1) - np.diag(x, -1)).max(initial=0.0) > 0.0:
        raise ParameterError("matrix is not symmetric")
    if m == 1:
        return QuadratureRule(tau=np.diag(x).copy(), Lam=np.ones((1, 1)))
    try:
        tau, lam = scipy.linalg.eigh_tridiagonal(np.diag(x).copy(), np.diag(x, 1).copy())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"tridiagonal eigensolve failed to converge: {exc}") from exc
    scale = np.abs(x).max()
    residual = np.abs(x @ lam - lam * tau).max()
    if residual > TRIDIAG_RESIDUAL_TOL * max(scale, 1.0):
        raise SolverError(
            f"tridiagonal eigensolve residual {residual:.3e} exceeds contract")
    return QuadratureRule(tau=tau, Lam=lam)


def quadrature_rule(basis: BasisParams) -> QuadratureRule:
    """Gauss rule of the basis: eigendecomposition of its X matrix."""
    return symtridiag_eig(build_x_matrix(basis))


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
    if wt.shape != rule.tau.shape:
        wt = np.broadcast_to(wt, rule.tau.shape).astype(float)
    if not np.all(np.isfinite(wt)):
        bad = int(np.argmax(~np.isfinite(wt)))
        raise ParameterError(f"kernel is not finite at node tau = {rule.tau[bad]}")
    return (rule.Lam * wt) @ rule.Lam.T


def assemble_system(basis: BasisParams, p: PotentialParams,
                    consistent_potential: bool = False) -> AssembledSystem:
    """Hamiltonian (times 2/lambda^2) and overlap in the computational basis.

    H_nm = [1/4 - B - (n + (mu+nu+1)/2)^2] delta_nm + C X_nm
           + (mu^2/2) <1/(1-x)>_nm + ((nu^2 + A)/2) <1/(1+x)>_nm,
    omega_nm = <1/(x^2-1)>_nm,
    with <w>_nm the quadrature matrices.  tau_n > 1 keeps every kernel finite
    and makes omega positive definite.

    The default 1/(1+x) coefficient (nu^2 + A)/2 is the tabulated reference
    convention, which corresponds to the potential with the coth strength
    halved: substituting U(x) = A(x-1) + (1-x^2)(B-Cx) into the wave
    operator gives -U/(1-x^2) = A/(1+x) - B + Cx, i.e. the full A on the
    1/(1+x) pole, so the operator-consistent coefficient is (nu^2 + 2A)/2.
    Pass consistent_potential=True for the spectrum of V(r) exactly as
    potential_value evaluates it (validated against an independent
    finite-difference solution of the radial equation).
    """
    mu, nu = basis.mu, basis.nu
    rule = quadrature_rule(basis)
    tau = rule.tau
    if np.any(tau <= 1.0):
        raise SolverError(f"quadrature node <= 1 (min tau = {tau.min()})")
    if np.any(np.abs(1.0 - tau) < 1e-12) or np.any(np.abs(1.0 + tau) < 1e-12):
        raise SolverError("quadrature node collides with a kernel pole at x = +-1")
    a_pole = 2.0 * p.A if consistent_potential else p.A
    n = np.arange(basis.size, dtype=float)
    diag = 0.25 - p.B - (n + 0.5 * (mu + nu + 1.0)) ** 2
    h = (np.diag(diag)
         + p.C * build_x_matrix(basis)
         + (mu * mu / 2.0) * quadrature_matrix(rule, lambda t: 1.0 / (1.0 - t))
         + ((nu * nu + a_pole) / 2.0) * quadrature_matrix(rule, lambda t: 1.0 / (1.0 + t)))
    omega = quadrature_matrix(rule, lambda t: 1.0 / (t * t - 1.0))
    h = 0.5 * (h + h.T)
    omega = 0.5 * (omega + omega.T)
    return AssembledSystem(H=h, omega=omega, rule=rule)


def _refine_pair(h: np.ndarray, omega: np.ndarray, lam: float,
                 f: np.ndarray) -> tuple[float, np.ndarray]:
    """One or two steps of inverse iteration plus Rayleigh-quotient update."""
    for _ in range(2):
        shifted = h - lam * omega
        try:
            lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
            f_new = scipy.linalg.lu_solve((lu, piv), omega @ f, check_finite=False)
        except (np.linalg.LinAlgError, ValueError, scipy.linalg.LinAlgError):
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


def _generalized_eigen(sys: AssembledSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues (ascending), eigenvectors (columns, unit 2-norm), max residual.

    Reduces H f = eps omega f to an ordinary symmetric problem through a
    factorization omega = S S^T, back-transforms, and refines any pair whose
    residual ||H f - eps omega f|| approaches the 1e-8 ||H|| contract (the
    plain reduction loses accuracy when omega is ill conditioned at large
    sizes).
    """
    h, omega = sys.H, sys.omega
    m = h.shape[0]
    if sys.rule is not None:
        # omega = Lam diag(g) Lam^T exactly, g = 1/(tau^2 - 1) > 0, so the
        # whitening S = Lam diag(sqrt g) inverts in closed form; this stays
        # accurate where a Cholesky reduction of the ill-conditioned omega
        # does not.
        if np.any(sys.rule.tau ** 2 <= 1.0):
            raise SolverError("overlap factorization needs all tau > 1")
        g_isqrt = np.sqrt(sys.rule.tau ** 2 - 1.0)
        reduced = (g_isqrt[:, None] * (sys.rule.Lam.T @ h @ sys.rule.Lam)
                   * g_isqrt[None, :])
        back = sys.rule.Lam * g_isqrt
    else:
        try:
            s = np.linalg.cholesky(omega)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"overlap matrix is not positive definite: {exc}") from exc
        inv_s_h = scipy.linalg.solve_triangular(s, h, lower=True, check_finite=False)
        reduced = scipy.linalg.solve_triangular(s, inv_s_h.T, lower=True,
                                                check_finite=False)
        back = scipy.linalg.solve_triangular(s.T, np.eye(m), lower=False,
                                             check_finite=False)
    reduced = 0.5 * (reduced + reduced.T)
    try:
        eigs, y = np.linalg.eigh(reduced)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigensolve failed: {exc}") from exc
    vecs = back @ y
    vecs /= np.linalg.norm(vecs, axis=0)

    h_norm = np.linalg.norm(h, 2)
    tol = PAIR_RESIDUAL_TOL * max(h_norm, 1.0)
    residuals = np.linalg.norm(h @ vecs - (omega @ vecs) * eigs, axis=0)
    for k in np.nonzero(residuals > _REFINE_TRIGGER * tol)[0]:
        lam_k, f_k = _refine_pair(h, omega, float(eigs[k]), vecs[:, k].copy())
        res_k = np.linalg.norm(h @ f_k - lam_k * (omega @ f_k))
        if res_k < residuals[k]:
            eigs[k], vecs[:, k], residuals[k] = lam_k, f_k, res_k
    if residuals.max() > tol:
        raise SolverError(
            f"generalized eigenpair residual {residuals.max():.3e} exceeds "
            f"{tol:.3e} after refinement")
    order = np.argsort(eigs, kind="stable")
    return eigs[order], vecs[:, order], float(residuals.max() / max(h_norm, 1.0))


def generalized_spectrum(sys: AssembledSystem) -> np.ndarray:
    """All generalized eigenvalues of (H, omega), ascending.

    Values are eps = 2E/lambda^2 because H is stored pre-scaled.
    """
    eigs, _, _ = _generalized_eigen(sys)
    return eigs


def bound_states(eigs: Sequence[float], basis: BasisParams,
                 max_residual: float = 0.0) -> BoundSpectrum:
    """Keep eigenvalues below the bound-state cutoff; count what was dropped.

    Non-negative (and barely negative) eigenvalues are discretized-continuum
    artifacts of the finite basis, not physical states.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    keep = eigs[eigs < BOUND_STATE_CUTOFF]
    return BoundSpectrum(
        epsilons=keep,
        report_units=-keep,
        basis_size=basis.size,
        mu_used=basis.mu,
        nu_used=basis.nu,
        discarded_count=int(eigs.size - keep.size),
        max_residual=max_residual,
    )


def solve_bound_states(p: PotentialParams, size: int, mu: float = 1.5,
                       nu: float | None = None,
                       consistent_potential: bool = False) -> BoundSpectrum:
    """End-to-end spectrum for a basis of `size` functions.

    nu defaults to the stability-plateau choice -2*size - mu - 2.  See
    assemble_system for the meaning of consistent_potential.
    """
    if nu is None:
        nu = auto_nu(mu, size)
    basis = BasisParams.from_size(mu, nu, size)
    sys = assemble_system(basis, p, consistent_potential=consistent_potential)
    eigs, _, max_res = _generalized_eigen(sys)
    return bound_states(eigs, basis, max_residual=max_res)


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
    nu = auto_nu(mu, size) = -2*size - mu - 2.  An empty plateau for a state
    is reported with delta = None rather than raised.
    """
    grid = np.asarray(mu_grid, dtype=float)
    if grid.size == 0:
        raise ParameterError("mu grid must not be empty")
    if np.any(np.diff(grid) <= 0.0):
        raise ParameterError("mu grid must be strictly ascending")
    spectra = [solve_bound_states(p, size, mu=float(m), nu=auto_nu(float(m), size),
                                  consistent_potential=consistent_potential)
               for m in grid]
    scan = PlateauScan(mu_grid=grid, spectra=spectra)
    stats: list[PlateauStat] = []
    table = scan.table()
    for k in range(scan.state_count):
        col = table[:, k]
        if grid.size < 2:
            stats.append(PlateauStat(state=k, delta=None, mu_lo=float(grid[0]),
                                     mu_hi=float(grid[0]), points=1))
            continue
        lo, hi = _longest_plateau(col)
        if hi - lo < 2:
            stats.append(PlateauStat(state=k, delta=None, mu_lo=float(grid[lo]),
                                     mu_hi=float(grid[lo]), points=1))
            continue
        seg = col[lo:hi]
        stats.append(PlateauStat(state=k, delta=float(seg.max() - seg.min()),
                                 mu_lo=float(grid[lo]), mu_hi=float(grid[hi - 1]),
                                 points=hi - lo))
    return PlateauScan(mu_grid=grid, spectra=spectra, stats=stats)


def physical_state_bound(p: PotentialParams) -> int | None:
    """Upper bound on the number of bound states, max_basis_index(A) + 1."""
    n = max_basis_index(p.A)
    return None if n is None else n + 1
