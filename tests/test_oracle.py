"""Direct-integration oracle: self-tests and cross-checks with the quadrature."""

import math

import numpy as np
import pytest

from tribound import oracle
from tribound.errors import ParameterError, SolverError
from tribound.oracle import direct_matrix, direct_matrix_element
from tribound.recursion import BasisParams, jacobi_sequence, recursion_coeffs
from tribound.solver import quadrature_matrix, quadrature_rule
from tribound.recursion import normalization_c


def basis_of_size(size, mu=1.5):
    return BasisParams.from_size(mu, size)


class TestSelfConsistency:
    def test_unit_kernel_gives_identity(self):
        # int (x-1)^mu (x+1)^nu P_n P_m dx with the c-normalization is the
        # orthonormality statement; this validates c_n and the integrator.
        # mu = 1 makes the auto nu an integer, where c_n takes the gamma
        # ratio at its poles as a finite product.
        for mu in (1.5, 1.0):
            got = direct_matrix(basis_of_size(4, mu), lambda x: 1.0)
            assert np.abs(got - np.eye(4)).max() < 1e-9

    def test_result_fields(self):
        basis = basis_of_size(3)
        res = direct_matrix_element(basis, lambda x: x, 0, 1)
        assert res.evaluations > 0
        assert res.abs_error_estimate <= 1e-10 * max(1.0, abs(res.value))

    def test_index_bounds(self):
        basis = basis_of_size(3)
        with pytest.raises(ParameterError):
            direct_matrix_element(basis, lambda x: x, 0, 3)
        # an index that is not an integer is refused before the range check
        for n, shown in ((0.5, "0.5"), (True, "the bool True")):
            with pytest.raises(ParameterError, match=rf"^matrix index n must be an integer, "
                               rf"got {shown}$"):
                direct_matrix_element(basis, lambda x: x, n, 0)
        with pytest.raises(ParameterError, match=r"^matrix index m must be an integer, got 1.0$"):
            direct_matrix_element(basis, lambda x: x, 0, 1.0)
        with pytest.raises(ParameterError, match=r"^index n must be an integer, got 0.5$"):
            normalization_c(0.5, -10.0, 0.5)
        with pytest.raises(ParameterError, match=r"^direct integration is supported for "
                           r"basis degree <= 8 "):
            direct_matrix(basis_of_size(10), lambda x: x)

    def test_divergent_kernel_flagged(self):
        # (x-1)^(mu-3) is not integrable at the lower endpoint for mu = 1.5
        basis = basis_of_size(2)
        with pytest.raises(SolverError):
            direct_matrix_element(basis, lambda x: (x - 1.0) ** -3.0, 0, 0)


class TestAgainstQuadrature:
    def test_coordinate_kernel_exact(self):
        for size in (2, 4, 5):
            basis = basis_of_size(size)
            F, D = recursion_coeffs(basis)
            x = np.diag(F) + np.diag(D, 1) + np.diag(D, -1)
            direct = direct_matrix(basis, lambda t: t)
            assert np.abs(x - direct).max() < 1e-8

    def test_off_support_pole_converges_on_fixed_block(self):
        # matrix elements of 1/(1+x) (pole away from the support) on a fixed
        # low-order block converge geometrically as the rule grows
        mu, nu = 1.5, -25.5
        w = lambda x: 1.0 / (1.0 + x)
        direct = direct_matrix(BasisParams(mu=mu, nu=nu, N=1), w)
        errs = []
        for size in (2, 4, 6, 8):
            rule = quadrature_rule(BasisParams(mu=mu, nu=nu, N=size - 1))
            q = quadrature_matrix(rule, w)
            errs.append(np.abs(q[:2, :2] - direct).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-7

    def test_edge_pole_improves_with_rule_size(self):
        # with the pole at the support edge the convergence is slow but the
        # fixed-block discrepancy still shrinks monotonically
        mu, nu = 1.5, -25.5
        w = lambda x: 1.0 / (1.0 - x)
        direct = direct_matrix(BasisParams(mu=mu, nu=nu, N=1), w)
        errs = []
        for size in (2, 4, 6, 8, 10):
            rule = quadrature_rule(BasisParams(mu=mu, nu=nu, N=size - 1))
            q = quadrature_matrix(rule, w)
            errs.append(np.abs(q[:2, :2] - direct).max())
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_overlap_kernel_scalar_case(self):
        # closed form for the 1x1 overlap: <0|1/(x^2-1)|0> =
        # (mu+nu)(mu+nu+1)/(4 mu (-nu)) from ratios of beta integrals.  In
        # t = ln(x-1) the integrand decays like e^(mu t) toward the pole, so at
        # small mu the part below the integration window outgrows the 1e-10
        # contract: the oracle must then raise, never return a value outside it.
        nu = -25.5
        for mu in (1.5, 0.6, 0.5, 0.45):
            basis = BasisParams(mu=mu, nu=nu, N=0)
            want = (mu + nu) * (mu + nu + 1.0) / (4.0 * mu * (-nu))
            try:
                got = direct_matrix_element(basis, lambda x: 1.0 / (x * x - 1.0), 0, 0)
            except SolverError:
                assert mu < 1.0, "the default mu must integrate"
                continue
            assert abs(got.value - want) <= 1e-10 * max(1.0, abs(want)), mu

    def test_miss_just_above_the_contract_raises(self):
        # Below t = -43 the 1x1 overlap integrand is c_0^2 e^(mu t)
        # (2 + e^t)^(nu - 1), so the part missed below the window is
        # c_0^2 2^(nu-1) e^(-43 mu) / mu to relative order e^-43.  At
        # mu = 0.57 that is 1.09 times the contract: an edge-read decay rate
        # underestimates it by about 16% and the value would pass unflagged.
        mu, nu = 0.57, -25.5
        want = (mu + nu) * (mu + nu + 1.0) / (4.0 * mu * (-nu))
        tol = 1e-10 * max(1.0, abs(want))
        miss = normalization_c(mu, nu, 0) ** 2 * 2.0 ** (nu - 1.0) * math.exp(-43.0 * mu) / mu
        assert tol < miss < 1.2 * tol
        with pytest.raises(SolverError, match="misses"):
            direct_matrix_element(BasisParams(mu=mu, nu=nu, N=0),
                                  lambda x: 1.0 / (x * x - 1.0), 0, 0)


class TestNodeMemo:
    """Each node's x, ln(x + 1) and Jacobi table are built once per basis."""

    def test_memo_is_invisible(self):
        basis = basis_of_size(5, mu=2.5)
        w = lambda x: 1.0 / (1.0 + x)
        oracle._node.cache_clear()
        cold = direct_matrix_element(basis, w, 1, 3)
        direct_matrix(basis, lambda x: x)   # another kernel fills the memo
        hits = oracle._node.cache_info().hits
        warm = direct_matrix_element(basis, w, 1, 3)
        assert oracle._node.cache_info().hits > hits
        assert (warm.value.hex(), warm.abs_error_estimate.hex(), warm.evaluations) == \
            (cold.value.hex(), cold.abs_error_estimate.hex(), cold.evaluations)

    def test_table_rows_do_not_depend_on_its_length(self):
        # an element (n, m) reads rows of the table up to N, where it used to
        # run the recursion only to max(n, m)
        basis = basis_of_size(9)
        for t in (-40.0, -3.0, 0.0, 0.7, 12.0):
            node = oracle._node(basis, t)
            for k in range(basis.size):
                short = jacobi_sequence(basis.mu, basis.nu, k, float(node.x))
                assert node.jacobi[:k + 1].tobytes() == short.tobytes()

    def test_cached_table_is_read_only(self):
        table = oracle._node(basis_of_size(3), 0.25).jacobi
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0.0

    def test_kernel_that_raises_is_a_solver_error(self):
        def kernel(x):
            raise ZeroDivisionError("kernel failed")
        with pytest.raises(SolverError, match="^direct integration failed: kernel failed$") as err:
            direct_matrix_element(basis_of_size(2), kernel, 0, 1)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_quadpack_input_error_is_a_solver_error(self, monkeypatch):
        # error code 6 (invalid input) returns no usable value
        class StandIn:
            @staticmethod
            def _qagpe(*args):
                return 0.0, 0.0, {"neval": 0}, 6
        monkeypatch.setattr(oracle, "_scipy_extension", lambda name: StandIn)
        with pytest.raises(SolverError, match="^direct integration failed: QUADPACK error code 6$"):
            direct_matrix_element(basis_of_size(2), lambda x: x, 0, 0)
