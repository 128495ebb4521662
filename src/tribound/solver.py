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

The three LAPACK routines the solve calls, dstevd for the rule and
dgetrf/dgetrs for refinement, come from scipy's LAPACK extension, loaded
without the scipy.linalg package or scipy's initializer (_scipy_extension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
class BoundSpectrum:
    """Negative eigenvalues eps_k = 2 E_k / lambda^2 and bookkeeping.

    report_units lists -eps_k (energies in units of -lambda^2/2), descending;
    basis is the basis solved in.
    """

    epsilons: np.ndarray
    report_units: np.ndarray
    discarded_count: int
    # max ||H f - eps omega f|| / max(||H||, 1) over the pairs the 1e-8
    # contract checks: those that can be bound states and those that never
    # needed refinement (see _generalized_eigen)
    max_residual: float
    basis: BasisParams

    def __len__(self) -> int:
        return self.epsilons.shape[0]


def _scipy_extension(name: str):
    """scipy's compiled module `name` (say scipy.linalg._flapack), without its package.

    Importing scipy.linalg or scipy.integrate takes over ten times as long
    as loading one of their extensions, so an extension not yet loaded is
    loaded on its own from its folder, found by scipy's import spec without
    running scipy's initializer, and registered in sys.modules once it has
    loaded.  A later import of its package, or `from scipy.linalg import
    _flapack`, gets that instance, though such an import leaves the package
    attribute (scipy.linalg._flapack, scipy.integrate._quadpack) unbound.
    Without scipy or the file, or if the file will not load on its own, the
    module is imported the standard way, package and all.
    """
    import sys

    if name in sys.modules:
        return sys.modules[name]
    import importlib
    import importlib.machinery as machinery
    import importlib.util
    import os

    scipy = importlib.util.find_spec("scipy")
    if scipy and scipy.submodule_search_locations:
        folder = os.path.join(scipy.submodule_search_locations[0], *name.split(".")[1:-1])
        extensions = machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES
        spec = machinery.FileFinder(folder, extensions).find_spec(name)
        if spec:
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                pass
            else:
                sys.modules[name] = module
                return module
    return importlib.import_module(name)


def _lapack():
    """scipy.linalg._flapack: dstevd, dgetrf, dgetrs."""
    return _scipy_extension("scipy.linalg._flapack")


def quadrature_rule(basis: BasisParams) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule (tau, Lam) of the basis: eigendecomposition of its tridiagonal X.

    Column n of Lam belongs to tau[n]; nodes ascend and all exceed 1 (the
    weight lives on x >= 1).  Calls LAPACK's dstevd on the recursion
    coefficients, the driver scipy.linalg.eigh_tridiagonal picks for a full
    spectrum, and enforces the residual contract
    ||X Lam - Lam diag(tau)||_max < 1e-10 max(||X||_max, 1).

    Each call builds a fresh rule; its tau and Lam are read-only, because
    _kernels shares the rule of each recent basis with every solve on it.
    """
    F, D = recursion_coeffs(basis)
    # the wrapper wants len(e) >= 1; a one-node X ignores e
    tau, lam, info = _lapack().dstevd(F, D if D.size else np.zeros(1))
    if info != 0:
        raise SolverError(f"tridiagonal eigensolve failed to converge: dstevd info = {info}")
    x_lam = F[:, None] * lam
    x_lam[:-1] += D[:, None] * lam[1:]
    x_lam[1:] += D[:, None] * lam[:-1]
    x_lam -= lam * tau
    residual = np.abs(x_lam, out=x_lam).max()
    scale = max(np.abs(F).max(), np.abs(D).max(initial=0.0))
    if residual > TRIDIAG_RESIDUAL_TOL * max(scale, 1.0):
        raise SolverError(
            f"tridiagonal eigensolve residual {residual:.3e} exceeds contract")
    tau.flags.writeable = lam.flags.writeable = False
    return tau, lam


def quadrature_matrix(rule: tuple[np.ndarray, np.ndarray],
                      w: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Lam diag(w(tau)) Lam^T for the rule (tau, Lam), the spectral approximation of w(x).

    The result is exactly w(X) for the truncated coordinate matrix X of the
    rule's basis.  It is entrywise exact for w(x) = x (and any linear w),
    where it returns X itself.  For w = 1/p it is p(X)^-1, not the integral
    of w between basis states; with a pole at the support edge the two
    differ by O(1) at small sizes, while the assembled eigenvalues converge
    as the size grows.
    """
    tau, lam = rule
    with np.errstate(divide="ignore", invalid="ignore"):
        wt = np.asarray(w(tau), dtype=float)
    if not np.all(np.isfinite(wt)):
        bad = int(np.argmax(~np.isfinite(wt)))
        raise ParameterError(f"kernel is not finite at node tau = {tau[bad]}")
    return (lam * wt) @ lam.T


@dataclass(frozen=True)
class _Kernels:
    """The potential-independent pieces of one basis, read-only: its recursion
    coefficients (F, D), its Gauss rule (tau, Lam), w(X) for 1/(1-x) and
    1/(1+x), and the symmetrized overlap omega = w(X) for 1/(x^2-1)."""

    F: np.ndarray
    D: np.ndarray
    tau: np.ndarray
    Lam: np.ndarray
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
    F, D = recursion_coeffs(basis)
    tau, lam = rule = quadrature_rule(basis)
    if np.any(tau - 1.0 < 1e-12):
        raise SolverError(f"quadrature node at the kernel pole x = 1 (min tau = {tau.min()})")
    q_minus = quadrature_matrix(rule, _KERNELS["1/(1-x)"])
    q_plus = quadrature_matrix(rule, _KERNELS["1/(1+x)"])
    omega = quadrature_matrix(rule, _KERNELS["1/(x^2-1)"])
    omega += omega.T
    omega *= 0.5
    for m in (F, D, q_minus, q_plus, omega):
        m.flags.writeable = False
    return _Kernels(F, D, tau, lam, q_minus, q_plus, omega)


def assemble_system(basis: BasisParams, p: PotentialParams) -> np.ndarray:
    """Exactly symmetric Hamiltonian (times 2/lambda^2) of V(r) in the computational basis.

    H_nm = [1/4 - B - (n + (mu+nu+1)/2)^2] delta_nm + C X_nm
           + (mu^2/2) <1/(1-x)>_nm + ((nu^2 + 2A)/2) <1/(1+x)>_nm,
    omega_nm = <1/(x^2-1)>_nm,
    with <w>_nm the quadrature matrices.  tau_n > 1 keeps every kernel finite
    and makes omega positive definite.  Substituting
    U(x) = A(x-1) + (1-x^2)(B-Cx) into the wave operator gives
    -U/(1-x^2) = A/(1+x) - B + Cx, which with the nu^2 from the basis puts
    (nu^2 + 2A)/2 on the 1/(1+x) pole.

    The recursion coefficients, the rule and the three kernels, omega among
    them, depend on the basis alone: _kernels keeps those of the last 16
    bases, read-only, so a solve on a basis already seen assembles H in
    O(N^2).  H is the caller's own.
    """
    if not p.C > 0.0:
        raise ParameterError(f"C must be positive (at C <= 0 the core does not repel and the "
                             f"levels diverge with the basis size), got C = {p.C:.6g}")
    mu, nu = basis.mu, basis.nu
    k = _kernels(basis)
    n = np.arange(basis.size, dtype=float)
    diag = 0.25 - p.B - (n + 0.5 * (mu + nu + 1.0)) ** 2
    # rounding as the sum diag + C X + (mu^2/2) <.> + ((nu^2+2A)/2) <.>
    h = k.q_minus * (mu * mu / 2.0)
    h.flat[::basis.size + 1] += diag + p.C * k.F
    h.flat[1::basis.size + 1] += p.C * k.D
    h.flat[basis.size::basis.size + 1] += p.C * k.D
    h += ((nu * nu + 2.0 * p.A) / 2.0) * k.q_plus
    h += h.T
    h *= 0.5
    return h


def _refine_pair(h: np.ndarray, omega: np.ndarray, lam: float,
                 f: np.ndarray) -> tuple[float, np.ndarray]:
    """One or two steps of inverse iteration plus Rayleigh-quotient update.

    Each step factors H - lam omega with LAPACK's dgetrf and solves with
    dgetrs (from _lapack), the two routines scipy.linalg.lu_factor and
    lu_solve call, so the bits are theirs without their per-call dispatch.
    dgesv would be faster still, but under a multi-threaded OpenBLAS its
    bits differ from dgetrf + dgetrs.  An exactly singular shift (nonzero
    dgetrf info; dgetrs's info flags only an illegal argument) or a
    non-finite step ends the iteration and keeps the last pair, with no
    warning.
    """
    lapack = _lapack()
    shifted = np.empty_like(h)
    for _ in range(2):
        np.subtract(h, np.multiply(omega, lam, out=shifted), out=shifted)
        # h - lam omega is exactly symmetric: its Fortran-order view is the
        # same matrix, which dgetrf overwrites instead of copying
        lu, piv, info = lapack.dgetrf(shifted.T, overwrite_a=True)
        if info != 0:
            break
        f_new, _ = lapack.dgetrs(lu, piv, omega @ f, overwrite_b=True)
        norm = math.sqrt(f_new @ f_new)   # np.linalg.norm of a 1-d vector, undispatched
        if not math.isfinite(norm) or norm == 0.0:
            break
        f_new /= norm
        denom = f_new @ omega @ f_new
        if denom <= 0.0 or not np.isfinite(denom):
            break
        f, lam = f_new, float(f_new @ h @ f_new) / float(denom)
    return lam, f


def _generalized_eigen(h: np.ndarray, kernels: _Kernels) -> tuple[np.ndarray, float]:
    """Eigenvalues in eigh's order, refined in place, and the max relative residual of
    the checked pairs of H f = eps omega f, omega and its rule from the basis's kernels.

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
    Every residual norm is taken of R times a power of two near 1/||H||, so
    finite norms keep their bits and only a non-finite H, reduced matrix or
    product makes one overflow, silently under the caller's np.errstate.
    """
    omega, lam = kernels.omega, kernels.Lam
    g_isqrt = np.sqrt(kernels.tau ** 2 - 1.0)   # _kernels keeps only rules with every tau > 1
    # in place, rounding as 0.5 (R + R^T) with R = diag(g_isqrt) Lam^T H Lam diag(g_isqrt)
    reduced = lam.T @ h @ lam
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
    vecs = (lam * g_isqrt) @ y
    del y
    col_norm = np.linalg.norm(vecs, axis=0)
    vecs /= col_norm

    tol = PAIR_RESIDUAL_TOL * max(h_norm, 1.0)
    unit = 2.0 ** -np.frexp(max(h_norm, 1.0))[1]
    res_block = omega @ vecs
    res_block *= eigs
    np.subtract(h @ vecs, res_block, out=res_block)   # H V - omega V diag(eps)
    res_block *= unit
    residuals = np.linalg.norm(res_block, axis=0) / unit
    # b = ||r||_{omega^-1} / ||f||_omega, omega^-1 = Lam diag(tau^2 - 1) Lam^T, ||f||_omega
    # = ||y|| / col_norm = 1 / col_norm; a b that overflows (inf, NaN) stays a candidate
    res_block = lam.T @ res_block   # frees R; scaled to diag(g_isqrt) Lam^T R
    res_block *= g_isqrt[:, None]
    radius = np.linalg.norm(res_block, axis=0) / unit * col_norm
    candidate = ~(eigs - radius >= BOUND_STATE_CUTOFF)
    triggered = residuals > _REFINE_TRIGGER * tol
    for k in np.nonzero(candidate & triggered)[0]:
        lam_k, f_k = _refine_pair(h, omega, float(eigs[k]), vecs[:, k].copy())
        r_k = (h @ f_k - lam_k * (omega @ f_k)) * unit
        res_k = math.sqrt(r_k @ r_k) / unit
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
    return eigs, float(worst / max(h_norm, 1.0))


def bound_states(eigs: Sequence[float], basis: BasisParams,
                 max_residual: float) -> BoundSpectrum:
    """The spectrum solved in basis: the eigenvalues below the bound-state
    cutoff, and a count of the rest.

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
        basis=basis,
    )


def solve_bound_states(p: PotentialParams, size: int, mu: float = 1.5,
                       consistent_potential: bool = False) -> BoundSpectrum:
    """End-to-end spectrum for a basis of `size` functions.

    nu is the stability-plateau choice -2*size - mu - 2 (BasisParams.from_size),
    and the spectrum carries that basis.  consistent_potential=True solves
    V(r) exactly as potential_value evaluates it (validated against an
    independent finite-difference solution of the radial equation).  The
    default is the tabulated reference convention: V with the coth strength
    halved, A/2 in place of A.  2 (A/2) is A in binary arithmetic, so its
    1/(1+x) coefficient is (nu^2 + A)/2 bit for bit (A/2 drops a bit only
    below the normal range, far under the last bit of nu^2).
    """
    basis = BasisParams.from_size(mu, size)
    solved = p if consistent_potential else PotentialParams(0.5 * p.A, p.B, p.C, p.lam)
    # strengths near the float64 limit overflow H or its residuals: a NaN or
    # infinite residual raises SolverError in _generalized_eigen, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        h = assemble_system(basis, solved)
        eigs, max_res = _generalized_eigen(h, _kernels(basis))
    return bound_states(eigs, basis, max_res)


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
    """Spectra over a mu grid; the table and the plateau summaries derive from them."""

    mu_grid: np.ndarray
    spectra: list[BoundSpectrum]

    @property
    def state_count(self) -> int:
        return min((len(s) for s in self.spectra), default=0)

    def table(self) -> np.ndarray:
        """(len(grid), state_count) array of -eps_k values."""
        k = self.state_count
        return np.array([s.report_units[:k] for s in self.spectra])

    @property
    def stats(self) -> list[PlateauStat]:
        """The plateau of each state over the grid, one per column of table()."""
        stats = []
        for k, col in enumerate(self.table().T):
            lo, hi = _longest_plateau(col)
            seg = col[lo:hi]
            stats.append(PlateauStat(
                state=k, delta=float(seg.max() - seg.min()) if hi - lo > 1 else None,
                mu_lo=float(self.mu_grid[lo]), mu_hi=float(self.mu_grid[hi - 1]), points=hi - lo))
        return stats


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
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("mu grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise ParameterError("mu grid must be strictly ascending")
    return PlateauScan(mu_grid=grid, spectra=[
        solve_bound_states(p, size, mu=float(m), consistent_potential=consistent_potential)
        for m in grid])
