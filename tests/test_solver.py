"""Quadrature rule, system assembly and the generalized eigensolve."""

import numpy as np
import pytest
import scipy.linalg

from tribound import solver
from tribound.errors import ParameterError, SolverError
from tribound.oracle import direct_matrix
from tribound.potential import PotentialParams, max_basis_index
from tribound.recursion import BasisParams, recursion_coeffs
from tribound.solver import (
    _generalized_eigen,
    AssembledSystem,
    QuadratureRule,
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
    c = recursion_coeffs(basis)
    return np.diag(c.F) + np.diag(c.D, 1) + np.diag(c.D, -1)


def diagonal_pencil(h, g):
    """(H, omega = diag(g)) with the rule that factors omega: Lam = I, tau = sqrt(1 + 1/g)."""
    g = np.asarray(g, dtype=float)
    rule = QuadratureRule(tau=np.sqrt(1.0 + 1.0 / g), Lam=np.eye(g.size))
    return AssembledSystem(H=np.asarray(h, dtype=float), omega=np.diag(g), rule=rule)


class TestXMatrix:
    def test_scalar_basis(self):
        basis = BasisParams(mu=1.5, nu=-25.5, N=0)
        x = x_matrix(basis)
        c = recursion_coeffs(basis)
        assert x.shape == (1, 1) and x[0, 0] == c.F[0]

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
        rule = quadrature_rule(basis)
        assert rule.tau.tolist() == recursion_coeffs(basis).F.tolist()
        assert rule.Lam.tolist() == [[1.0]]

    def test_rule_contracts(self):
        basis = sized_basis(10)
        x = x_matrix(basis)
        rule = quadrature_rule(basis)
        m = rule.tau.size
        assert np.abs(rule.Lam.T @ rule.Lam - np.eye(m)).max() < 1e-10
        assert np.abs((rule.Lam * rule.tau) @ rule.Lam.T - x).max() < 1e-10
        assert np.all(np.diff(rule.tau) > 0.0)
        assert rule.tau.min() > 1.0

    def test_residual_contract_enforced(self, monkeypatch):
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

        def perturbed(d, e):
            tau, lam = eigh_tridiagonal(d, e)
            return tau, lam + 1e-6

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
        with pytest.raises(SolverError, match="exceeds contract"):
            quadrature_rule(sized_basis(10))

    def test_node_positivity_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu = rng.uniform(-0.9, 3.0)
            size = int(rng.integers(1, 30))
            margin = rng.uniform(1.5, 30.0)
            nu = -2.0 * size - 1.0 - mu - margin
            rule = quadrature_rule(BasisParams(mu=mu, nu=nu, N=size - 1))
            assert rule.tau.min() > 1.0


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
        rule = quadrature_rule(basis)
        again = quadrature_rule(BasisParams.from_size(1.5, 50))
        assert again is not rule
        assert np.array_equal(again.tau, rule.tau) and np.array_equal(again.Lam, rule.Lam)
        shared = solver._kernels(basis).rule
        assert solver._kernels(BasisParams.from_size(1.5, 50)).rule is shared
        clear_shared()
        fresh = solver._kernels(basis).rule
        assert fresh is not shared
        assert np.array_equal(fresh.tau, rule.tau) and np.array_equal(fresh.Lam, rule.Lam)

    def test_rule_arrays_refuse_writes(self):
        rule = quadrature_rule(sized_basis(10))
        with pytest.raises(ValueError):
            rule.tau[0] = 2.0
        with pytest.raises(ValueError):
            rule.Lam *= 2.0
        assert quadrature_rule(sized_basis(10)).Lam[0, 0] == rule.Lam[0, 0]

    def test_solves_on_one_basis_share_one_rule(self, monkeypatch):
        calls = []
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

        def counted(d, e):
            calls.append(d.size)
            return eigh_tridiagonal(d, e)

        fresh = []
        for p, consistent in SIX_SOLVES:
            clear_shared()
            fresh.append(solve_bound_states(p, 50, consistent_potential=consistent))
        clear_shared()
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
        for (p, consistent), want in zip(SIX_SOLVES, fresh):
            got = solve_bound_states(p, 50, consistent_potential=consistent)
            assert got.epsilons.tobytes() == want.epsilons.tobytes()
            assert got.discarded_count == want.discarded_count
            assert got.max_residual == want.max_residual
            sys = assemble_system(got.basis, p, consistent_potential=consistent)
            assert sys.rule is solver._kernels(got.basis).rule
        assert calls == [50]

    def test_failed_contract_not_kept(self, monkeypatch):
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

        def perturbed(d, e):
            tau, lam = eigh_tridiagonal(d, e)
            return tau, lam + 1e-6

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
        with pytest.raises(SolverError, match="exceeds contract"):
            quadrature_rule(sized_basis(10))
        monkeypatch.undo()
        rule = quadrature_rule(sized_basis(10))
        assert np.abs((rule.Lam * rule.tau) @ rule.Lam.T - x_matrix(sized_basis(10))).max() < 1e-10

    def test_solves_on_one_basis_build_the_kernels_once(self, monkeypatch):
        sizes = []
        build = solver.quadrature_matrix

        def counted(rule, w):
            sizes.append(rule.tau.size)
            return build(rule, w)

        monkeypatch.setattr(solver, "quadrature_matrix", counted)
        for p, consistent in SIX_SOLVES:
            solve_bound_states(p, 50, consistent_potential=consistent)
        assert sizes == [50, 50, 50]
        info = solver._kernels.cache_info()
        assert (info.misses, info.hits) == (1, 5)

    def test_kernel_arrays_refuse_writes(self):
        basis = sized_basis(10)
        sys = assemble_system(basis, REFERENCE_POTENTIAL)
        kernels = solver._kernels(basis)
        assert sys.omega is kernels.omega
        for m in (kernels.q_minus, kernels.q_plus, kernels.omega):
            with pytest.raises(ValueError):
                m[0, 0] = 2.0
        sys.H[:] = 0.0   # H is the caller's own array
        h, omega = one_expression_assembly(basis, REFERENCE_POTENTIAL, False)
        again = assemble_system(basis, REFERENCE_POTENTIAL)
        assert np.array_equal(again.H, h) and np.array_equal(again.omega, omega)

    def test_failed_contract_keeps_no_kernels(self, monkeypatch):
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

        def perturbed(d, e):
            tau, lam = eigh_tridiagonal(d, e)
            return tau, lam + 1e-6

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
        with pytest.raises(SolverError, match="exceeds contract"):
            assemble_system(sized_basis(10), REFERENCE_POTENTIAL)
        assert solver._kernels.cache_info().currsize == 0
        monkeypatch.undo()
        sys = assemble_system(sized_basis(10), REFERENCE_POTENTIAL)
        h, omega = one_expression_assembly(sized_basis(10), REFERENCE_POTENTIAL, False)
        assert np.array_equal(sys.H, h) and np.array_equal(sys.omega, omega)

    def test_node_at_pole_keeps_no_kernels(self, monkeypatch):
        basis = sized_basis(4)
        rule = quadrature_rule(basis)
        at_pole = QuadratureRule(tau=np.concatenate(([1.0], rule.tau[1:])), Lam=rule.Lam)
        monkeypatch.setattr(solver, "quadrature_rule", lambda b: at_pole)
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
        bad_point = rule.tau[1]
        with pytest.raises(ParameterError):
            quadrature_matrix(rule, lambda t: 1.0 / (t - bad_point))


class TestAssembly:
    def test_scalar_system_closed_form(self):
        basis = sized_basis(1)
        p = REFERENCE_POTENTIAL
        c = recursion_coeffs(basis)
        f0 = c.F[0]
        sys = assemble_system(basis, p)
        mu, nu = basis.mu, basis.nu
        h00 = (0.25 - p.B - (0.5 * (mu + nu + 1.0)) ** 2 + p.C * f0
               + (mu**2 / 2) / (1.0 - f0) + ((nu**2 + p.A) / 2) / (1.0 + f0))
        w00 = 1.0 / (f0**2 - 1.0)
        assert sys.H[0, 0] == pytest.approx(h00, rel=1e-13)
        assert sys.omega[0, 0] == pytest.approx(w00, rel=1e-13)
        assert _generalized_eigen(sys)[0][0] == pytest.approx(h00 / w00, rel=1e-12)

    @pytest.mark.parametrize("size", [10, 20, 50, 100])
    def test_overlap_positive_definite(self, size):
        sys = assemble_system(sized_basis(size), REFERENCE_POTENTIAL)
        np.linalg.cholesky(sys.omega)  # raises if not PD

    def test_symmetry(self):
        sys = assemble_system(sized_basis(30), REFERENCE_POTENTIAL)
        assert np.abs(sys.H - sys.H.T).max() < 1e-12 * max(1.0, np.abs(sys.H).max())
        assert np.abs(sys.omega - sys.omega.T).max() < 1e-12


class TestGeneralizedSpectrum:
    def test_identity_pencil(self):
        sys = diagonal_pencil(np.eye(4), np.ones(4))
        assert _generalized_eigen(sys)[0] == pytest.approx(np.ones(4), rel=1e-12)

    def test_one_by_one(self):
        sys = diagonal_pencil([[6.0]], [2.0])
        assert _generalized_eigen(sys)[0][0] == pytest.approx(3.0, rel=1e-14)

    def test_non_definite_overlap_rejected(self):
        sys = diagonal_pencil(np.eye(2), [1.0, -1.0])
        with pytest.raises(SolverError):
            _generalized_eigen(sys)

    def test_table_energies_small_basis(self):
        sys = assemble_system(sized_basis(10), REFERENCE_POTENTIAL)
        eigs = _generalized_eigen(sys)[0]
        neg = eigs[eigs < 0]
        want = [-249.6186960, -121.1023091, -54.5612094, -20.1791388, -4.8218491]
        assert neg == pytest.approx(want, abs=5e-7)

    def test_eigenpair_residual_contract(self):
        # the residual bound is enforced internally; large sizes exercise the
        # refinement path
        for size in (50, 150):
            sys = assemble_system(sized_basis(size), REFERENCE_POTENTIAL)
            _generalized_eigen(sys)  # raises SolverError on violation


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
    """_refine_pair with the shift built as h - lam*omega and copied by lu_factor."""
    for _ in range(2):
        try:
            lu, piv = scipy.linalg.lu_factor(h - lam * omega, check_finite=False)
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


def reference_eigen(sys, every_pair=False):
    """The eigensolve written directly, with the SVD 2-norm and two-GEMM radius.

    Checks that the closed-form ||f||_omega selects the same candidates, and
    returns the sorted eigenvalues, max_residual and the starting eigenvalue
    of each refined pair.  every_pair refines and checks every triggered
    pair, not only the bound-state candidates.
    """
    h, omega, rule = sys.H, sys.omega, sys.rule
    g_isqrt = np.sqrt(rule.tau ** 2 - 1.0)
    reduced = g_isqrt[:, None] * (rule.Lam.T @ h @ rule.Lam) * g_isqrt[None, :]
    eigs, y = np.linalg.eigh(0.5 * (reduced + reduced.T))
    vecs = (rule.Lam * g_isqrt) @ y
    vecs /= np.linalg.norm(vecs, axis=0)
    h_norm = np.linalg.norm(h, 2)
    tol = solver.PAIR_RESIDUAL_TOL * max(h_norm, 1.0)
    res_block = h @ vecs - (omega @ vecs) * eigs
    residuals = np.linalg.norm(res_block, axis=0)
    scale = g_isqrt[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        numerator = np.sum((scale * (rule.Lam.T @ res_block)) ** 2, axis=0)
        radius = np.sqrt(numerator / np.sum((rule.Lam.T @ vecs / scale) ** 2, axis=0))
        # ||f||_omega = 1 / ||Lam diag(g_isqrt) y||, the solver's closed form
        closed = np.sqrt(numerator) * np.linalg.norm((rule.Lam * g_isqrt) @ y, axis=0)
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
        p = PotentialParams(A=A, B=5.0, C=3.0)
        basis = sized_basis(size)
        sys = assemble_system(basis, p, consistent_potential=consistent)
        h, omega = one_expression_assembly(basis, p, consistent)
        assert np.array_equal(sys.H, h)
        assert np.array_equal(sys.omega, omega)

        refined = []
        refine = solver._refine_pair

        def checked(h, omega, lam, f):
            refined.append(lam)
            got = refine(h, omega, lam, f.copy())
            want = copying_refine(h, omega, lam, f)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            return got

        monkeypatch.setattr(solver, "_refine_pair", checked)
        eigs, max_res = _generalized_eigen(sys)
        want_eigs, want_res, want_refined = reference_eigen(sys)
        assert np.array_equal(eigs, want_eigs)
        assert max_res == pytest.approx(want_res, rel=1e-13, abs=0.0)
        assert refined == want_refined

    @pytest.mark.parametrize("size", [10, 100])
    def test_potentials_on_a_warm_basis_match_direct_formulas(self, size):
        basis = sized_basis(size)
        for A, consistent in ((-300.0, False), (-2000.0, True), (-20.0, False)):
            p = PotentialParams(A=A, B=5.0, C=3.0)
            sys = assemble_system(basis, p, consistent_potential=consistent)
            h, omega = one_expression_assembly(basis, p, consistent)
            assert np.array_equal(sys.H, h)
            assert np.array_equal(sys.omega, omega)
        info = solver._kernels.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestBoundStateSelection:
    """Only pairs that can be bound states are refined and checked."""

    @pytest.mark.parametrize("consistent", [False, True], ids=["default", "consistent"])
    @pytest.mark.parametrize("size", [10, 50, 100])
    @pytest.mark.parametrize("A", [-20.0, -300.0, -2000.0])
    def test_levels_match_refining_every_pair(self, A, size, consistent):
        p = PotentialParams(A=A, B=5.0, C=3.0)
        for mu in (1.0, 1.5, 3.0):
            got = solve_bound_states(p, size, mu=mu, consistent_potential=consistent)
            sys = assemble_system(sized_basis(size, mu), p, consistent_potential=consistent)
            want = bound_states(reference_eigen(sys, every_pair=True)[0])
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
        spectrum = bound_states([0.5, 1.0, 2.0])
        assert len(spectrum) == 0 and spectrum.discarded_count == 3

    def test_filtering_and_ordering(self):
        spectrum = bound_states([3.0, -1.0, -7.0, 1e-12])
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


# With the rule nu, mu + nu = -2*size - 2 exactly; float64 loses the size term
# once mu is large, and the library must name mu, not the cancelled sum.
@pytest.mark.parametrize("call, message", [
    (lambda: solve_bound_states(REFERENCE_POTENTIAL, 10, mu=1e300),
     "mu = 1e+300 is too large for a basis of 10 functions"),
    (lambda: plateau_scan(REFERENCE_POTENTIAL, 100, [1e17, 2e17]),
     "mu = 1e+17 is too large for a basis of 100 functions"),
], ids=["solve_bound_states", "plateau_scan"])
def test_auto_nu_basis_error_names_mu(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


# Strengths near the float64 limit overflow the eigenpair residuals: the solve
# raises SolverError naming the overflow, with no numpy warning (the test
# settings turn a RuntimeWarning into an error).  At C = 1e305 the residuals
# were NaN, and the solve used to return no states with max_residual NaN.
@pytest.mark.parametrize("A, B, C", [
    (-300.0, 5.0, 1e300), (-1e300, 5.0, 3.0), (-300.0, 1e300, 3.0), (-300.0, -1e300, 3.0),
    (-300.0, 5.0, 1e305),
], ids=["C", "A", "B", "-B", "C-nan"])
def test_overflowing_strength_is_solver_error(A, B, C):
    with pytest.raises(SolverError, match=r"^generalized eigenpair residual overflows float64 "):
        solve_bound_states(PotentialParams(A=A, B=B, C=C), 21)


# A size that is not an integer is refused by name before any assembly.
@pytest.mark.parametrize("call", [
    lambda: solve_bound_states(REFERENCE_POTENTIAL, 2.5),
    lambda: solve_bound_states(REFERENCE_POTENTIAL, 10.0),
    lambda: plateau_scan(REFERENCE_POTENTIAL, 10.0, [1.5]),
], ids=["solve_bound_states-2.5", "solve_bound_states-10.0", "plateau_scan-10.0"])
def test_non_integer_size_refused(call):
    with pytest.raises(ParameterError, match=r"^basis size must be an integer, got "):
        call()


class TestSolvedBasis:
    @pytest.mark.parametrize("mu, size", [(1.5, 20), (3.0, 35)])
    def test_spectrum_carries_its_basis(self, mu, size):
        spectrum = solve_bound_states(REFERENCE_POTENTIAL, size, mu=mu)
        assert spectrum.basis == BasisParams.from_size(mu, size)

    def test_bare_bound_states_has_no_basis(self):
        assert bound_states([-2.0, 1.0]).basis is None

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

    def test_small_scan_structure(self):
        grid = [1.3, 1.5, 1.7]
        scan = plateau_scan(REFERENCE_POTENTIAL, 30, grid)
        assert scan.state_count == 5
        assert scan.table().shape == (3, 5)
        assert [s.state for s in scan.stats] == [0, 1, 2, 3, 4]
        # deterministic ordering by mu regardless of execution order
        assert scan.mu_grid.tolist() == grid
