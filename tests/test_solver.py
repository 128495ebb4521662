"""Quadrature rule, system assembly and the generalized eigensolve."""

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tribound import solver
from tribound.errors import ParameterError, SolverError
from tribound.oracle import direct_matrix
from tribound.potential import PotentialParams, max_basis_index
from tribound.recursion import BasisParams, recursion_coeffs
from tribound.solver import (
    _generalized_eigen,
    assemble_system,
    bound_states,
    plateau_scan,
    quadrature_matrix,
    quadrature_rule,
    solve_bound_states,
)

REFERENCE_POTENTIAL = PotentialParams(A=-300.0, B=5.0, C=3.0)


def sized_basis(size, mu=1.5):
    return BasisParams.from_size(mu, size)


def x_matrix(basis):
    """Dense coordinate matrix X: F_n on the diagonal, D_n beside it."""
    F, D = recursion_coeffs(basis)
    return np.diag(F) + np.diag(D, 1) + np.diag(D, -1)


def solved_potential(p, consistent):
    """The potential a solve assembles: p itself, or p at A/2 in the reference convention."""
    return p if consistent else PotentialParams(A=0.5 * p.A, B=p.B, C=p.C, lam=p.lam)


def assembled(basis, p=REFERENCE_POTENTIAL, consistent=False):
    """H and the basis's kernels, as solve_bound_states hands them to the eigensolve."""
    return assemble_system(basis, solved_potential(p, consistent)), solver._kernels(basis)


def diagonal_pencil(h, g):
    """(H, kernels with omega = diag(g)) and the rule that factors omega: Lam = I,
    tau = sqrt(1 + 1/g); the pencil has no recursion coefficients or potential kernels."""
    g = np.asarray(g, dtype=float)
    kernels = solver._Kernels(F=None, D=None, tau=np.sqrt(1.0 + 1.0 / g), Lam=np.eye(g.size),
                              q_minus=None, q_plus=None, omega=np.diag(g))
    return np.asarray(h, dtype=float), kernels


def patch_dstevd(monkeypatch, wrap):
    """Route the Gauss rule's dstevd through wrap(dstevd, d, e); refinement's
    dgetrf and dgetrs stay as solver._lapack returns them."""
    lapack = solver._lapack()
    stand_in = SimpleNamespace(dstevd=lambda d, e: wrap(lapack.dstevd, d, e),
                               dgetrf=lapack.dgetrf, dgetrs=lapack.dgetrs)
    monkeypatch.setattr(solver, "_lapack", lambda: stand_in)


def perturbed_lam(dstevd, d, e):
    """dstevd with every entry of Lam moved by 1e-6, which breaks the rule's contract."""
    tau, lam, info = dstevd(d, e)
    return tau, lam + 1e-6, info


class TestXMatrix:
    def test_scalar_basis(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=0)
        x = x_matrix(basis)
        F, _ = recursion_coeffs(basis)
        assert x.shape == (1, 1) and x[0, 0] == F[0]

    def test_first_diagonal_entry(self):
        x = x_matrix(BasisParams(mu=1.5, nu=-25.5, N=10))
        assert x[0, 0] == pytest.approx(648.0 / 528.0, rel=1e-14)

    def test_matches_integration_oracle(self):
        basis = sized_basis(4)
        x = x_matrix(basis)
        direct = direct_matrix(basis, lambda x_: x_)
        assert np.abs(x - direct).max() < 1e-8


class TestSymtridiagEig:
    """The Gauss rule: symmetric tridiagonal eigendecomposition of X."""

    def test_one_by_one(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=0)
        tau, lam = quadrature_rule(basis)
        assert tau.tolist() == recursion_coeffs(basis)[0].tolist()
        assert lam.tolist() == [[1.0]]

    def test_rule_contracts(self):
        basis = sized_basis(10)
        x = x_matrix(basis)
        tau, lam = quadrature_rule(basis)
        m = tau.size
        assert np.abs(lam.T @ lam - np.eye(m)).max() < 1e-10
        assert np.abs((lam * tau) @ lam.T - x).max() < 1e-10
        assert np.all(np.diff(tau) > 0.0)
        assert tau.min() > 1.0

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 100])
    def test_bits_of_eigh_tridiagonal_stevd(self, size):
        # the rule calls dstevd itself: the driver eigh_tridiagonal picks for
        # a full spectrum, with the same bits
        basis = sized_basis(size)
        tau, lam = quadrature_rule(basis)
        want_tau, want_lam = scipy.linalg.eigh_tridiagonal(*recursion_coeffs(basis),
                                                           lapack_driver="stevd")
        assert tau.tobytes() == want_tau.tobytes() and lam.tobytes() == want_lam.tobytes()

    def test_nonconvergence_is_a_solver_error(self, monkeypatch):
        patch_dstevd(monkeypatch, lambda dstevd, d, e: (*dstevd(d, e)[:2], 3))
        with pytest.raises(SolverError, match="^tridiagonal eigensolve failed to converge: "
                                              "dstevd info = 3$"):
            quadrature_rule(sized_basis(10))

    def test_residual_contract_enforced(self, monkeypatch):
        patch_dstevd(monkeypatch, perturbed_lam)
        with pytest.raises(SolverError, match="exceeds contract"):
            quadrature_rule(sized_basis(10))

    def test_node_positivity_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu = rng.uniform(-0.9, 3.0)
            size = int(rng.integers(1, 30))
            margin = rng.uniform(1.5, 30.0)
            nu = -2.0 * size - 1.0 - mu - margin
            tau, _ = quadrature_rule(BasisParams(mu=mu, nu=nu, N=size - 1))
            assert tau.min() > 1.0


SIX_SOLVES = [(PotentialParams(A=A, B=B, C=C), consistent)
              for A, B, C in ((-300.0, 5.0, 3.0), (-20.0, 5.0, 3.0), (-2000.0, 1.0, 0.5))
              for consistent in (False, True)]


def clear_shared():
    """Empty the solver's one per-basis cache, which holds rules and kernels."""
    solver._kernels.cache_clear()


class TestSharedRule:
    """quadrature_rule builds a fresh read-only rule on every call; _kernels
    keeps one per basis, with its three kernel matrices, and shares it."""

    def test_shared_rule_bit_identical_to_fresh(self):
        basis = sized_basis(50)
        tau, lam = quadrature_rule(basis)
        again_tau, again_lam = quadrature_rule(BasisParams.from_size(1.5, 50))
        assert again_tau is not tau and again_lam is not lam
        assert np.array_equal(again_tau, tau) and np.array_equal(again_lam, lam)
        shared = solver._kernels(basis)
        assert solver._kernels(BasisParams.from_size(1.5, 50)) is shared
        clear_shared()
        fresh = solver._kernels(basis)
        assert fresh.tau is not shared.tau and fresh.Lam is not shared.Lam
        assert np.array_equal(fresh.tau, tau) and np.array_equal(fresh.Lam, lam)

    def test_rule_arrays_refuse_writes(self):
        tau, lam = quadrature_rule(sized_basis(10))
        with pytest.raises(ValueError):
            tau[0] = 2.0
        with pytest.raises(ValueError):
            lam *= 2.0
        assert quadrature_rule(sized_basis(10))[1][0, 0] == lam[0, 0]

    def test_solves_on_one_basis_share_one_rule(self, monkeypatch):
        calls = []

        def counted(dstevd, d, e):
            calls.append(d.size)
            return dstevd(d, e)

        fresh = []
        for p, consistent in SIX_SOLVES:
            clear_shared()
            fresh.append(solve_bound_states(p, 50, consistent_potential=consistent))
        clear_shared()
        patch_dstevd(monkeypatch, counted)
        for (p, consistent), want in zip(SIX_SOLVES, fresh):
            got = solve_bound_states(p, 50, consistent_potential=consistent)
            assert got.epsilons.tobytes() == want.epsilons.tobytes()
            assert got.discarded_count == want.discarded_count
            assert got.max_residual == want.max_residual
            assert solver._kernels.cache_info().misses == 1
        assert calls == [50]

    def test_failed_contract_not_kept(self, monkeypatch):
        patch_dstevd(monkeypatch, perturbed_lam)
        with pytest.raises(SolverError, match="exceeds contract"):
            quadrature_rule(sized_basis(10))
        monkeypatch.undo()
        tau, lam = quadrature_rule(sized_basis(10))
        assert np.abs((lam * tau) @ lam.T - x_matrix(sized_basis(10))).max() < 1e-10

    def test_solves_on_one_basis_build_the_kernels_once(self, monkeypatch):
        sizes = []
        build = solver.quadrature_matrix

        def counted(rule, w):
            sizes.append(rule[0].size)
            return build(rule, w)

        monkeypatch.setattr(solver, "quadrature_matrix", counted)
        for p, consistent in SIX_SOLVES:
            solve_bound_states(p, 50, consistent_potential=consistent)
        assert sizes == [50, 50, 50]
        # each solve looks the basis up twice: in assemble_system and for the eigensolve
        info = solver._kernels.cache_info()
        assert (info.misses, info.hits) == (1, 11)

    def test_kernel_arrays_refuse_writes(self):
        basis = sized_basis(10)
        got, kernels = assembled(basis)
        for m in (kernels.F, kernels.D, kernels.tau, kernels.Lam, kernels.q_minus,
                  kernels.q_plus, kernels.omega):
            with pytest.raises(ValueError):
                m[0] = 2.0
        got[:] = 0.0   # H is the caller's own array
        h, omega = one_expression_assembly(basis, REFERENCE_POTENTIAL, False)
        again, kernels = assembled(basis)
        assert np.array_equal(again, h) and np.array_equal(kernels.omega, omega)

    def test_failed_contract_keeps_no_kernels(self, monkeypatch):
        patch_dstevd(monkeypatch, perturbed_lam)
        with pytest.raises(SolverError, match="exceeds contract"):
            assemble_system(sized_basis(10), REFERENCE_POTENTIAL)
        assert solver._kernels.cache_info().currsize == 0
        monkeypatch.undo()
        got, kernels = assembled(sized_basis(10))
        h, omega = one_expression_assembly(sized_basis(10), REFERENCE_POTENTIAL, False)
        assert np.array_equal(got, h) and np.array_equal(kernels.omega, omega)

    def test_node_at_pole_keeps_no_kernels(self, monkeypatch):
        # a node at the pole, and one below it, where the overlap is not definite
        basis = sized_basis(4)
        tau, lam = quadrature_rule(basis)
        for low in (1.0, 0.0):
            bad = (np.concatenate(([low], tau[1:])), lam)
            monkeypatch.setattr(solver, "quadrature_rule", lambda b: bad)
            with pytest.raises(SolverError, match="quadrature node at the kernel pole"):
                assemble_system(basis, REFERENCE_POTENTIAL)
            assert solver._kernels.cache_info().currsize == 0


class TestQuadratureMatrix:
    def test_unit_kernel_gives_identity(self):
        rule = quadrature_rule(sized_basis(8))
        q = quadrature_matrix(rule, lambda t: np.ones_like(t))
        assert np.abs(q - np.eye(8)).max() < 1e-12

    def test_coordinate_kernel_reconstructs_x(self):
        basis = sized_basis(8)
        rule = quadrature_rule(basis)
        q = quadrature_matrix(rule, lambda t: t)
        assert np.abs(q - x_matrix(basis)).max() < 1e-12

    def test_polynomial_exactness_against_oracle(self):
        # Gauss rule of size M integrates degree <= 2M-1 exactly, so entries
        # with n + m + deg(w) <= 2M - 1 match the direct integrals; the far
        # corner of the square kernel lies outside that budget.
        basis = sized_basis(5)
        rule = quadrature_rule(basis)
        q = quadrature_matrix(rule, lambda t: t * t)
        direct = direct_matrix(basis, lambda x: x * x)
        for n in range(5):
            for m in range(5):
                if n + m + 2 <= 2 * 5 - 1:
                    assert abs(q[n, m] - direct[n, m]) < 1e-9

    def test_pole_at_node_rejected(self):
        rule = quadrature_rule(sized_basis(4))
        bad_point = rule[0][1]
        with pytest.raises(ParameterError):
            quadrature_matrix(rule, lambda t: 1.0 / (t - bad_point))


class TestAssembly:
    def test_scalar_system_closed_form(self):
        basis = sized_basis(1)
        p = REFERENCE_POTENTIAL
        f0 = recursion_coeffs(basis)[0][0]
        h, kernels = assembled(basis, p)
        mu, nu = basis.mu, basis.nu
        h00 = (0.25 - p.B - (0.5 * (mu + nu + 1.0)) ** 2 + p.C * f0
               + (mu**2 / 2) / (1.0 - f0) + ((nu**2 + p.A) / 2) / (1.0 + f0))
        w00 = 1.0 / (f0**2 - 1.0)
        assert h[0, 0] == pytest.approx(h00, rel=1e-13)
        assert kernels.omega[0, 0] == pytest.approx(w00, rel=1e-13)
        assert _generalized_eigen(h, kernels)[0][0] == pytest.approx(h00 / w00, rel=1e-12)

    @pytest.mark.parametrize("size", [10, 20, 50, 100])
    def test_overlap_positive_definite(self, size):
        _, kernels = assembled(sized_basis(size))
        np.linalg.cholesky(kernels.omega)  # raises if not PD

    def test_symmetry(self):
        h, kernels = assembled(sized_basis(30))
        assert np.abs(h - h.T).max() < 1e-12 * max(1.0, np.abs(h).max())
        assert np.abs(kernels.omega - kernels.omega.T).max() < 1e-12


class TestGeneralizedSpectrum:
    def test_identity_pencil(self):
        pencil = diagonal_pencil(np.eye(4), np.ones(4))
        assert _generalized_eigen(*pencil)[0] == pytest.approx(np.ones(4), rel=1e-12)

    def test_one_by_one(self):
        pencil = diagonal_pencil([[6.0]], [2.0])
        assert _generalized_eigen(*pencil)[0][0] == pytest.approx(3.0, rel=1e-14)

    def test_table_energies_small_basis(self):
        eigs = _generalized_eigen(*assembled(sized_basis(10)))[0]
        neg = eigs[eigs < 0]
        want = [-249.6186960, -121.1023091, -54.5612094, -20.1791388, -4.8218491]
        assert neg == pytest.approx(want, abs=5e-7)

    def test_eigenpair_residual_contract(self):
        # the residual bound is enforced internally; large sizes exercise the
        # refinement path
        for size in (50, 150):
            _generalized_eigen(*assembled(sized_basis(size)))  # raises SolverError on violation

    def test_singular_shift_keeps_the_pair_silently(self):
        # H - 2 omega = diag(-1, 0, 1) is exactly singular: dgetrf reports it
        # and the pair comes back unchanged, with no LinAlgWarning
        f = np.array([0.6, 0.0, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, got = solver._refine_pair(np.diag([1.0, 2.0, 3.0]), np.eye(3), 2.0, f.copy())
        assert lam == 2.0 and np.array_equal(got, f)

    def test_indefinite_step_keeps_the_pair(self):
        # the step lands on (0, -1, 0), where f omega f = -1 <= 0: the old
        # eigenvalue comes back with the old vector, not the new one
        f = np.array([0.0, 1.0, 0.0])
        lam, got = solver._refine_pair(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -1.0, 1.0]),
                                       1.9, f.copy())
        assert lam == 1.9 and np.array_equal(got, f)


def one_expression_assembly(basis, p, consistent):
    """H and omega of assemble_system, each written as one expression."""
    mu, nu = basis.mu, basis.nu
    rule = quadrature_rule(basis)
    a_pole = 2.0 * p.A if consistent else p.A
    n = np.arange(basis.size, dtype=float)
    h = (np.diag(0.25 - p.B - (n + 0.5 * (mu + nu + 1.0)) ** 2)
         + p.C * x_matrix(basis)
         + (mu * mu / 2.0) * quadrature_matrix(rule, lambda t: 1.0 / (1.0 - t))
         + ((nu * nu + a_pole) / 2.0) * quadrature_matrix(rule, lambda t: 1.0 / (1.0 + t)))
    omega = quadrature_matrix(rule, lambda t: 1.0 / (t * t - 1.0))
    return 0.5 * (h + h.T), 0.5 * (omega + omega.T)


def copying_refine(h, omega, lam, f):
    """_refine_pair through scipy's lu_factor/lu_solve, with the shift built as
    h - lam*omega and copied: an independent reference for its dgetrf/dgetrs."""
    for _ in range(2):
        try:
            lu, piv = scipy.linalg.lu_factor(h - lam * omega, check_finite=False)
            f_new = scipy.linalg.lu_solve((lu, piv), omega @ f, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            break
        norm = np.linalg.norm(f_new)
        if not np.isfinite(norm) or norm == 0.0:
            break
        f_new = f_new / norm
        denom = f_new @ omega @ f_new
        if denom <= 0.0 or not np.isfinite(denom):
            break
        f = f_new
        lam = float(f @ h @ f) / float(denom)
    return lam, f


def reference_eigen(h, kernels, every_pair=False):
    """The eigensolve written directly, with the SVD 2-norm and two-GEMM radius.

    Checks that the closed-form ||f||_omega selects the same candidates, and
    returns the sorted eigenvalues, max_residual and the starting eigenvalue
    of each refined pair.  every_pair refines and checks every triggered
    pair, not only the bound-state candidates.
    """
    omega, lam = kernels.omega, kernels.Lam
    g_isqrt = np.sqrt(kernels.tau ** 2 - 1.0)
    reduced = g_isqrt[:, None] * (lam.T @ h @ lam) * g_isqrt[None, :]
    eigs, y = np.linalg.eigh(0.5 * (reduced + reduced.T))
    vecs = (lam * g_isqrt) @ y
    vecs /= np.linalg.norm(vecs, axis=0)
    h_norm = np.linalg.norm(h, 2)
    tol = solver.PAIR_RESIDUAL_TOL * max(h_norm, 1.0)
    res_block = h @ vecs - (omega @ vecs) * eigs
    residuals = np.linalg.norm(res_block, axis=0)
    scale = g_isqrt[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = np.sum((scale * (lam.T @ res_block)) ** 2, axis=0)
        radius = np.sqrt(numerator / np.sum((lam.T @ vecs / scale) ** 2, axis=0))
        # ||f||_omega = 1 / ||Lam diag(g_isqrt) y||, the solver's closed form
        closed = np.sqrt(numerator) * np.linalg.norm((lam * g_isqrt) @ y, axis=0)
    cutoff = solver.BOUND_STATE_CUTOFF
    assert np.array_equal(eigs - radius >= cutoff, eigs - closed >= cutoff)
    candidate = every_pair | ~(eigs - radius >= cutoff)
    triggered = residuals > solver._REFINE_TRIGGER * tol
    refined = []
    for k in np.nonzero(candidate & triggered)[0]:
        refined.append(float(eigs[k]))
        lam_k, f_k = copying_refine(h, omega, float(eigs[k]), vecs[:, k].copy())
        res_k = np.linalg.norm(h @ f_k - lam_k * (omega @ f_k))
        if res_k < residuals[k]:
            eigs[k], residuals[k] = lam_k, res_k
    worst = residuals[candidate | ~triggered].max(initial=0.0)
    assert worst <= tol
    return np.sort(eigs, kind="stable"), worst / max(h_norm, 1.0), refined


class TestDirectFormulas:
    """The in-place solve gives bit for bit what the direct formulas give with the same BLAS."""

    @pytest.mark.parametrize("consistent", [False, True], ids=["default", "consistent"])
    @pytest.mark.parametrize("size", [10, 50, 100, 200])
    @pytest.mark.parametrize("A", [-20.0, -300.0, -2000.0])
    def test_solve_matches_direct_formulas(self, A, size, consistent, monkeypatch):
        self.check_solve(A, sized_basis(size), consistent, monkeypatch)

    @pytest.mark.parametrize("consistent", [False, True], ids=["default", "consistent"])
    @pytest.mark.parametrize("mu", [1.0, 2.0])
    @pytest.mark.parametrize("A", [-20.0, -300.0, -2000.0])
    def test_plateau_ends_match_direct_formulas(self, A, mu, consistent, monkeypatch):
        self.check_solve(A, sized_basis(100, mu), consistent, monkeypatch)

    @staticmethod
    def check_solve(A, basis, consistent, monkeypatch):
        p = PotentialParams(A=A, B=5.0, C=3.0)
        got, kernels = assembled(basis, p, consistent)
        h, omega = one_expression_assembly(basis, p, consistent)
        assert np.array_equal(got, h)
        assert np.array_equal(kernels.omega, omega)

        refined = []
        refine = solver._refine_pair

        def checked(h, omega, lam, f):
            refined.append(lam)
            got = refine(h, omega, lam, f.copy())
            want = copying_refine(h, omega, lam, f)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            return got

        monkeypatch.setattr(solver, "_refine_pair", checked)
        eigs, max_res = _generalized_eigen(got, kernels)
        want_eigs, want_res, want_refined = reference_eigen(got, kernels)
        assert np.array_equal(eigs, want_eigs)
        assert max_res == pytest.approx(want_res, rel=1e-13, abs=0.0)
        assert refined == want_refined

    @pytest.mark.parametrize("size", [10, 100])
    def test_potentials_on_a_warm_basis_match_direct_formulas(self, size):
        basis = sized_basis(size)
        for A, consistent in ((-300.0, False), (-2000.0, True), (-20.0, False)):
            p = PotentialParams(A=A, B=5.0, C=3.0)
            got = assemble_system(basis, solved_potential(p, consistent))
            h, omega = one_expression_assembly(basis, p, consistent)
            assert np.array_equal(got, h)
        info = solver._kernels.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert np.array_equal(solver._kernels(basis).omega, omega)

    @pytest.mark.parametrize("size", [10, 50, 100])
    @pytest.mark.parametrize("A", [-20.0, -300.0, -2000.0])
    def test_default_convention_is_the_consistent_solve_at_half_A(self, A, size):
        default = solve_bound_states(PotentialParams(A=A, B=5.0, C=3.0), size)
        halved = solve_bound_states(PotentialParams(A=0.5 * A, B=5.0, C=3.0), size,
                                    consistent_potential=True)
        assert default.epsilons.tobytes() == halved.epsilons.tobytes()
        assert repr(default.max_residual) == repr(halved.max_residual)


class TestBoundStateSelection:
    """Only pairs that can be bound states are refined and checked."""

    @pytest.mark.parametrize("consistent", [False, True], ids=["default", "consistent"])
    @pytest.mark.parametrize("size", [10, 50, 100])
    @pytest.mark.parametrize("A", [-20.0, -300.0, -2000.0])
    def test_levels_match_refining_every_pair(self, A, size, consistent):
        p = PotentialParams(A=A, B=5.0, C=3.0)
        for mu in (1.0, 1.5, 3.0):
            got = solve_bound_states(p, size, mu=mu, consistent_potential=consistent)
            basis = sized_basis(size, mu)
            eigs = reference_eigen(*assembled(basis, p, consistent), every_pair=True)[0]
            want = bound_states(eigs, basis, 0.0)
            assert np.array_equal(got.epsilons, want.epsilons)
            assert got.discarded_count == want.discarded_count

    def test_refines_only_bound_state_candidates(self, monkeypatch):
        calls = []
        refine = solver._refine_pair

        def counted(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(solver, "_refine_pair", counted)
        spectrum = solve_bound_states(REFERENCE_POTENTIAL, 100)
        assert len(spectrum) == 5
        assert 0 < len(calls) <= 5

    @pytest.mark.parametrize("consistent", [False, True], ids=["default", "consistent"])
    def test_float64_ceiling_refused(self, consistent):
        with pytest.raises(SolverError, match="after refinement"):
            solve_bound_states(REFERENCE_POTENTIAL, 400, consistent_potential=consistent)

    def test_deep_well_ceiling_never_drops_a_state(self):
        # Selecting by the raw eigh eigenvalue drops the unrefined pair of the
        # 0.709 level here (it sits at +0.05, error radius 1.69) and returns 16.
        try:
            spectrum = solve_bound_states(PotentialParams(A=-2000.0, B=5.0, C=3.0), 400)
        except SolverError:
            return
        assert len(spectrum) == 17


class TestBoundStates:
    def test_all_positive_input_empty(self):
        spectrum = bound_states([0.5, 1.0, 2.0], sized_basis(3), 0.0)
        assert len(spectrum) == 0 and spectrum.discarded_count == 3

    def test_filtering_and_ordering(self):
        spectrum = bound_states([3.0, -1.0, -7.0, 1e-12], sized_basis(4), 0.0)
        assert spectrum.epsilons.tolist() == [-7.0, -1.0]
        assert spectrum.report_units.tolist() == [7.0, 1.0]
        assert spectrum.discarded_count == 2
        assert len(spectrum) + spectrum.discarded_count == 4

    def test_count_within_physical_bound(self):
        assert max_basis_index(REFERENCE_POTENTIAL.A) + 1 == 12
        for size in (10, 50, 100):
            spectrum = solve_bound_states(REFERENCE_POTENTIAL, size)
            assert len(spectrum) <= 12

    def test_lambda_invariance(self):
        specs = [solve_bound_states(PotentialParams(A=-300.0, B=5.0, C=3.0, lam=lam), 40)
                 for lam in (0.5, 1.0, 2.0)]
        for other in specs[1:]:
            assert np.max(np.abs(other.epsilons - specs[0].epsilons)) < 1e-12

    def test_shallow_potential_has_no_bound_states(self):
        spectrum = solve_bound_states(PotentialParams(A=-0.4, B=5.0, C=3.0), 30)
        assert len(spectrum) == 0


NOT_SQUARE_INTEGRABLE = (": at mu <= 0 the basis functions are not square-integrable "
                         "as r -> infinity")


# With the rule nu, mu + nu = -2*size - 2 exactly; float64 loses the size term
# once mu is large, and the library must name mu, not the cancelled sum.  At
# mu <= 0 the overlap integral diverges, where the Gauss rule would still
# return levels.
@pytest.mark.parametrize("call, message", [
    (lambda: solve_bound_states(REFERENCE_POTENTIAL, 10, mu=1e300),
     "mu = 1e+300 is too large for a basis of 10 functions"),
    (lambda: plateau_scan(REFERENCE_POTENTIAL, 100, [1e17, 2e17]),
     "mu = 1e+17 is too large for a basis of 100 functions"),
    (lambda: solve_bound_states(REFERENCE_POTENTIAL, 100, mu=-0.5),
     "mu must be positive, got -0.5" + NOT_SQUARE_INTEGRABLE),
    (lambda: solve_bound_states(REFERENCE_POTENTIAL, 100, mu=0.0),
     "mu must be positive, got 0.0" + NOT_SQUARE_INTEGRABLE),
], ids=["solve_bound_states", "plateau_scan", "solve_bound_states-mu--0.5",
        "solve_bound_states-mu-0"])
def test_auto_nu_basis_error_names_mu(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


# Strengths near the float64 limit overflow the whitened eigenproblem or the
# residual products: the solve raises SolverError naming the overflow, with no
# numpy warning (the test settings turn a RuntimeWarning into an error).  At
# C = 1e305 the residuals are NaN, and the solve used to return no states with
# max_residual NaN.
@pytest.mark.parametrize("A, B, C", [
    (-300.0, 5.0, 1e304), (-1e308, 5.0, 3.0), (-300.0, 1e305, 3.0), (-300.0, -1e305, 3.0),
    (-300.0, 5.0, 1e305),
], ids=["C", "A", "B", "-B", "C-nan"])
def test_overflowing_strength_is_solver_error(A, B, C):
    with pytest.raises(SolverError, match=r"^generalized eigenpair residual overflows float64 "):
        solve_bound_states(PotentialParams(A=A, B=B, C=C), 21)


# Strengths of 1e300 leave H finite, and the residual norms, taken at a
# power-of-two scale, stay finite too: these solves used to be refused.
@pytest.mark.parametrize("A, B, C", [
    (-300.0, 5.0, 1e300), (-1e300, 5.0, 3.0), (-300.0, 1e300, 3.0), (-300.0, -1e300, 3.0),
], ids=["C", "A", "B", "-B"])
def test_finite_huge_strength_is_solved(A, B, C):
    spectrum = solve_bound_states(PotentialParams(A=A, B=B, C=C), 21)
    assert spectrum.max_residual <= 1e-8
    assert np.all(np.isfinite(spectrum.epsilons)) and np.all(np.diff(spectrum.epsilons) >= 0.0)


# log-uniform magnitudes over [1e-3, 1e308]
LOG_UNIFORM = st.floats(-3.0, 308.0).map(lambda e: 10.0**e)
SIGNED_LOG_UNIFORM = st.tuples(st.sampled_from((-1.0, 1.0)), LOG_UNIFORM).map(
    lambda t: t[0] * t[1])


# Any strength up to the float64 limit gives a spectrum that meets the pair
# contract, or a clean error; a numpy or scipy warning (LinAlgWarning is a
# RuntimeWarning) fails the test through the suite's warning filter.
@settings(max_examples=200, deadline=None)
@given(A=SIGNED_LOG_UNIFORM, B=SIGNED_LOG_UNIFORM, C=LOG_UNIFORM, size=st.integers(2, 60),
       mu=st.floats(1.0, 2.0), consistent=st.booleans())
def test_extreme_strength_solves_or_refuses(A, B, C, size, mu, consistent):
    try:
        spectrum = solve_bound_states(PotentialParams(A=A, B=B, C=C), size, mu=mu,
                                      consistent_potential=consistent)
    except (SolverError, ParameterError):
        return
    assert spectrum.max_residual <= 1e-8
    assert np.all(np.isfinite(spectrum.epsilons)) and np.all(np.diff(spectrum.epsilons) >= 0.0)


# A size that is not an integer is refused by name before any assembly.
@pytest.mark.parametrize("call", [
    lambda: solve_bound_states(REFERENCE_POTENTIAL, 2.5),
    lambda: solve_bound_states(REFERENCE_POTENTIAL, 10.0),
    lambda: plateau_scan(REFERENCE_POTENTIAL, 10.0, [1.5]),
    lambda: solve_bound_states(REFERENCE_POTENTIAL, "10"),
    lambda: solve_bound_states(REFERENCE_POTENTIAL, None),
    lambda: plateau_scan(REFERENCE_POTENTIAL, None, [1.5]),
    lambda: solve_bound_states(REFERENCE_POTENTIAL, True),
], ids=["solve_bound_states-2.5", "solve_bound_states-10.0", "plateau_scan-10.0",
        "solve_bound_states-str", "solve_bound_states-None", "plateau_scan-None",
        "solve_bound_states-True"])
def test_non_integer_size_refused(call):
    with pytest.raises(ParameterError, match=r"^basis size must be an integer, got "):
        call()


class TestSolvedBasis:
    @pytest.mark.parametrize("mu, size", [(1.5, 20), (3.0, 35)])
    def test_spectrum_carries_its_basis(self, mu, size):
        spectrum = solve_bound_states(REFERENCE_POTENTIAL, size, mu=mu)
        assert spectrum.basis == BasisParams.from_size(mu, size)

    def test_plateau_spectra_carry_their_grid_mu(self):
        grid = [1.3, 1.5, 1.7]
        scan = plateau_scan(REFERENCE_POTENTIAL, 20, grid)
        assert [s.basis.mu for s in scan.spectra] == grid
        assert all(s.basis.size == 20 for s in scan.spectra)


# At C <= 0 the 1/r^3 core does not repel: the levels grow without bound as
# the basis grows, so assembly refuses the potential instead.
@pytest.mark.parametrize("C", [-3.0, 0.0])
def test_non_positive_C_refused(C):
    with pytest.raises(ParameterError, match=r"^C must be positive .*, got C = "):
        assemble_system(sized_basis(10), PotentialParams(A=-300.0, B=5.0, C=C))


class TestPlateauScan:
    def test_single_point_grid(self):
        scan = plateau_scan(REFERENCE_POTENTIAL, 20, [1.5])
        assert len(scan.spectra) == 1
        assert all(s.delta is None for s in scan.stats)

    def test_invalid_grid(self):
        with pytest.raises(ParameterError):
            plateau_scan(REFERENCE_POTENTIAL, 20, [])
        with pytest.raises(ParameterError):
            plateau_scan(REFERENCE_POTENTIAL, 20, [2.0, 1.0])

    @pytest.mark.parametrize("grid", [[[1.0, 1.5]], 1.5], ids=["2-d", "scalar"])
    def test_grid_not_one_dimensional(self, grid):
        with pytest.raises(ParameterError, match=r"^mu grid must be a non-empty 1-d array$"):
            plateau_scan(REFERENCE_POTENTIAL, 10, grid)

    def test_small_scan_structure(self):
        grid = [1.3, 1.5, 1.7]
        scan = plateau_scan(REFERENCE_POTENTIAL, 30, grid)
        assert scan.state_count == 5
        assert scan.table().shape == (3, 5)
        assert [s.state for s in scan.stats] == [0, 1, 2, 3, 4]
        # deterministic ordering by mu regardless of execution order
        assert scan.mu_grid.tolist() == grid

    def test_stats_derive_from_spectra(self):
        # a scan whose spectra are replaced has the statistics of its new spectra
        scan = plateau_scan(REFERENCE_POTENTIAL, 20, [1.3, 1.5, 1.7])
        flat = dataclasses.replace(scan, spectra=[scan.spectra[1]] * 3)
        assert flat.state_count == scan.state_count > 0
        assert [s.delta for s in flat.stats] == [0.0] * flat.state_count
        assert np.ptp(flat.table(), axis=0).tolist() == [s.delta for s in flat.stats]
        assert all((s.mu_lo, s.mu_hi, s.points) == (1.3, 1.7, 3) for s in flat.stats)
