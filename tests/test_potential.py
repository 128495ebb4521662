"""Potential evaluation, coordinate maps and shape classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tribound.errors import ParameterError, SolverError
from tribound.potential import (
    PotentialParams,
    classify_shape,
    max_basis_index,
    potential_value,
    r_of_x,
    u_of_x,
    x_of_r,
)
from tribound.recursion import jacobi_sequence, log_gamma_ratio, normalization_c, signed_log_gamma
from tribound.solver import solve_bound_states
from tribound.wavefunction import sample_wavefunction


class TestPotentialValue:
    def test_vanishes_at_infinity(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        assert abs(potential_value(p, 50.0)) < 1e-40

    def test_leading_singularity_is_inverse_cube(self):
        p = PotentialParams(A=0.0, B=0.0, C=1.0)
        for r in (1e-4, 1e-5, 1e-6):
            assert potential_value(p, r) == pytest.approx(0.5 / r**3, rel=1e-6)

    def test_r_form_equals_x_form(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        x = x_of_r(1.0, 1.0)
        assert potential_value(p, 1.0) == pytest.approx(0.5 * u_of_x(p, x), rel=1e-12)

    def test_r_form_equals_x_form_random_parameters(self):
        # pointwise relative agreement where x = coth(lambda r) is resolvable
        # (lambda r <= 6); beyond that x collapses toward 1.0 in float64 and
        # only agreement relative to the potential's overall scale survives.
        rng = np.random.default_rng(11)
        t_near = np.geomspace(1e-3, 6.0, 40)
        t_far = np.linspace(6.0, 18.0, 20)
        for _ in range(20):
            p = PotentialParams(A=rng.uniform(-50, 10), B=rng.uniform(-10, 10),
                                C=rng.uniform(0.1, 5), lam=rng.uniform(0.3, 3.0))
            r = t_near / p.lam
            v_r = potential_value(p, r)
            v_x = 0.5 * p.lam**2 * u_of_x(p, x_of_r(p.lam, r))
            # relative 1e-12, with a floor so zero crossings of V do not
            # turn rounding into an infinite relative error
            scale = np.abs(v_r) + np.abs(v_x) + 1e-10 * np.max(np.abs(v_r))
            assert np.max(np.abs(v_r - v_x) / scale) < 1e-12
            r = t_far / p.lam
            v_r = potential_value(p, r)
            v_x = 0.5 * p.lam**2 * u_of_x(p, x_of_r(p.lam, r))
            overall = np.abs(potential_value(p, 1.0 / p.lam))
            assert np.max(np.abs(v_r - v_x)) < 1e-12 * max(overall, 1.0)

    def test_factorized_form(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        for x in (1.0, 1.5, 3.0, 10.0):
            factored = (x - 1.0) * (p.A + (x + 1.0) * (p.C * x - p.B))
            assert u_of_x(p, x) == pytest.approx(factored, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("x, shown", [(1e200, r"1e\+200"), (math.nan, "nan"),
                                          ([2.0, 1e200, 3.0], r"1e\+200")],
                             ids=["overflow", "nan", "array"])
    def test_u_refuses_non_finite_by_x(self, x, shown):
        # no numpy overflow warning escapes first: the suite turns it into an error
        with pytest.raises(ParameterError,
                           match=rf"^U\(x\) is not a finite float64 at x = {shown}$"):
            u_of_x(PotentialParams(A=-300.0, B=5.0, C=3.0), x)

    def test_exponential_decay_rate(self):
        # V(r) e^{2 lambda r} -> (lambda^2/2)(2A - 4B + 4C), nonzero here
        p = PotentialParams(A=-300.0, B=5.0, C=3.0)
        limit = 0.5 * (2 * p.A - 4 * p.B + 4 * p.C)
        for r in (15.0, 20.0, 25.0):
            assert potential_value(p, r) * math.exp(2 * r) == pytest.approx(limit, rel=1e-10)

    def test_rejects_nonpositive_r(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        with pytest.raises(ParameterError):
            potential_value(p, 0.0)
        with pytest.raises(ParameterError):
            potential_value(p, -1.0)

    def test_empty_r_gives_empty_arrays(self):
        # like r_of_x and u_of_x; sample_wavefunction still refuses an empty grid
        v = potential_value(PotentialParams(A=-300.0, B=5.0, C=3.0), np.array([]))
        x = x_of_r(1.0, [])
        assert v.shape == x.shape == r_of_x(1.0, []).shape == (0,)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            PotentialParams(A=1.0, B=1.0, C=1.0, lam=0.0)
        with pytest.raises(ParameterError):
            PotentialParams(A=math.nan, B=1.0, C=1.0)
        with pytest.raises(ParameterError):
            PotentialParams(A=1.0, B=1.0, C=0.0).gamma


class TestCoordinateMap:
    def test_known_point(self):
        r = 0.5 * math.log(3.0)  # arccoth(2)
        assert x_of_r(1.0, r) == pytest.approx(2.0, rel=1e-14)

    def test_small_r_blows_up(self):
        assert x_of_r(1.0, 1e-8) > 1e7

    def test_monotone_decreasing_to_one(self):
        r = np.geomspace(1e-3, 15.0, 200)
        x = x_of_r(1.0, r)
        assert np.all(np.diff(x) < 0.0)
        assert x[-1] > 1.0 and x[-1] - 1.0 < 1e-12
        # saturation: beyond the resolvable range x reaches exactly 1.0
        assert x_of_r(1.0, 25.0) == 1.0

    def test_round_trip(self):
        # 1e-12 relative holds while x - 1 is well resolved (lambda r <= 6);
        # the trip degrades like e^{2 lambda r} eps beyond that.
        for lam in (0.5, 1.0, 2.0):
            r = np.geomspace(1e-3 / lam, 6.0 / lam, 1000)
            back = r_of_x(lam, x_of_r(lam, r))
            assert np.max(np.abs(back - r) / r) < 1e-12
            r = np.linspace(6.0 / lam, 9.0 / lam, 100)
            back = r_of_x(lam, x_of_r(lam, r))
            assert np.max(np.abs(back - r) / r) < 1e-9

    def test_inverse_domain(self):
        with pytest.raises(ParameterError):
            r_of_x(1.0, 1.0)
        with pytest.raises(ParameterError):
            r_of_x(1.0, 0.5)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_lambda_refused_as_potential_params_does(self, lam):
        message = f"lambda must be positive, got {lam}"
        with pytest.raises(ParameterError, match=message):
            PotentialParams(A=-300.0, B=5.0, C=3.0, lam=lam)
        with pytest.raises(ParameterError, match=message):
            r_of_x(lam, 2.0)
        r = np.array([1.0, 2.0])
        x_of_r(1.0, r)  # a cached grid with another lambda is no escape
        for arg in (r, 1.0):
            with pytest.raises(ParameterError, match=message):
                x_of_r(lam, arg)


def direct_coth_pieces(p, r):
    """x_of_r and potential_value by the direct formulas, each piece computing
    its own exp(-2t) and expm1(-2t): the reference that the shared pieces
    must match bit for bit."""
    r = np.asarray(r, dtype=float)
    t = p.lam * r
    em = -np.expm1(-2.0 * t)
    x = 1.0 + 2.0 * np.exp(-2.0 * t) / em
    q = np.exp(-2.0 * t)
    coth_m1 = 2.0 * q / em
    inv_sinh2 = 4.0 * q / em**2
    cosh_over_sinh3 = 4.0 * q * (1.0 + q) / em**3
    v = 0.5 * p.lam**2 * (p.A * coth_m1 - p.B * inv_sinh2 + p.C * cosh_over_sinh3)
    return (x, v) if x.shape else (float(x), float(v))


@pytest.mark.parametrize("p", [
    PotentialParams(A=-300.0, B=5.0, C=3.0),
    PotentialParams(A=-20.0, B=5.0, C=3.0, lam=0.7),
    PotentialParams(A=-2000.0, B=40.0, C=1.0, lam=2.5),
    PotentialParams(A=1.5, B=-2.0, C=7.0, lam=1e-3),
])
def test_shared_coth_pieces_bit_identical_to_direct_form(p):
    for r in (np.geomspace(1e-6, 400.0, 5000), np.linspace(0.05, 10.0, 400),
              np.geomspace(1e-3, 15.0, 10**5)):
        x, v = direct_coth_pieces(p, r)
        assert np.array_equal(x_of_r(p.lam, r), x)
        assert np.array_equal(potential_value(p, r), v)
    for r in (1e-8, 0.3, 1.0, 17.0, 350.0):
        x, v = direct_coth_pieces(p, r)
        got_x, got_v = x_of_r(p.lam, r), potential_value(p, r)
        assert type(got_x) is float and type(got_v) is float
        assert (got_x, got_v) == (x, v)


class TestClassifyShape:
    def test_single_admissible_crossing(self):
        # gamma = 2, xi = -2: x_+ = (1 + sqrt(17))/2, the x_- root is < 1
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        report = classify_shape(p)
        assert len(report.crossings) == 1
        want = 0.5 * (1.0 + math.sqrt(17.0))
        assert report.crossings[0].x == pytest.approx(want, rel=1e-14)
        # independent root finder on U(x) over (1, 50]
        found = brentq(lambda x: u_of_x(p, x), 1.0 + 1e-9, 50.0, xtol=1e-12)
        assert report.crossings[0].x == pytest.approx(found, abs=1e-9)
        assert report.admits_bound_states and report.satisfies_B_ge_C

    def test_two_extrema_no_crossing(self):
        # gamma = 7, xi = 17: discriminant of the crossing equation is -4
        p = PotentialParams(A=17.0, B=7.0, C=1.0)
        report = classify_shape(p)
        assert report.crossings == []
        assert len(report.extrema) == 2
        assert report.extrema[0].x == 2.0
        assert report.extrema[1].x == 8.0 / 3.0
        assert not report.admits_bound_states  # A = 17 > -1/2

    def test_reported_points_satisfy_conditions(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        report = classify_shape(p)
        for c in report.crossings:
            assert abs(u_of_x(p, c.x)) < 1e-9
        h = 1e-6
        for e in report.extrema:
            du = (u_of_x(p, e.x + h) - u_of_x(p, e.x - h)) / (2 * h)
            assert abs(du) < 1e-9 * max(1.0, abs(p.A))
            # same stationarity seen through V(r)
            dv = (potential_value(p, e.r + h) - potential_value(p, e.r - h)) / (2 * h)
            assert abs(dv) < 1e-5
            assert e.value == pytest.approx(u_of_x(p, e.x), rel=1e-13)

    def test_extremum_value_matches_potential(self):
        p = PotentialParams(A=-6.0, B=6.0, C=3.0)
        report = classify_shape(p)
        e = report.extrema[0]
        assert 0.5 * p.lam**2 * e.value == pytest.approx(potential_value(p, e.r), rel=1e-10)

    def test_admissibility_boundary(self):
        assert classify_shape(PotentialParams(A=-0.5, B=2.0, C=1.0)).admits_bound_states
        assert not classify_shape(PotentialParams(A=-0.499, B=2.0, C=1.0)).admits_bound_states

    def test_requires_nonzero_C(self):
        with pytest.raises(ParameterError):
            classify_shape(PotentialParams(A=-6.0, B=6.0, C=0.0))

    def test_extremum_value_overflow_refused(self):
        # B/C = 1e150 passes the ratio bound, but U at the extremum x ~ 2B/(3C) overflows
        with pytest.raises(ParameterError,
                           match=r"^U\(x\) is not a finite float64 at x = 6\.66667e\+149$"):
            classify_shape(PotentialParams(A=0.0, B=1e150, C=1.0))


class TestMaxBasisIndex:
    def test_table_parameters(self):
        assert max_basis_index(-300.0) == 11

    def test_boundary(self):
        assert max_basis_index(-0.5) == 0

    def test_below_threshold(self):
        assert max_basis_index(-0.4) is None

    @pytest.mark.parametrize("A", [math.nan, -math.inf, math.inf])
    def test_non_finite_refused(self, A):
        with pytest.raises(ParameterError, match="A must be finite"):
            max_basis_index(A)


# log-uniform over [1e-320, 1e300]: denormal lambda r up to overflowing lambda^2
LOG_UNIFORM = st.floats(-320.0, 300.0).map(lambda e: 10.0**e)


@pytest.fixture(scope="module")
def reference_ground_eps():
    return float(solve_bound_states(PotentialParams(A=-300.0, B=5.0, C=3.0), 20).epsilons[0])


def shape_radii(p):
    shape = classify_shape(p)
    return [v.r for v in (*shape.crossings, *shape.extrema)]


@given(lam=LOG_UNIFORM, r=LOG_UNIFORM)
def test_extreme_lambda_r_finite_or_refused(reference_ground_eps, lam, r):
    # every value is a finite float64, or the call raises ParameterError;
    # a numpy warning fails the test through the suite's warning filter
    p = PotentialParams(A=-300.0, B=5.0, C=3.0, lam=lam)
    calls = (
        lambda: potential_value(p, r),
        lambda: x_of_r(lam, r),
        lambda: shape_radii(p),
        lambda: sample_wavefunction(0, reference_ground_eps, p, np.array([r])).psi,
    )
    for call in calls:
        try:
            values = call()
        except ParameterError:
            continue
        assert np.all(np.isfinite(values))


# log-uniform magnitudes over [1e-300, 1e300], either sign
SIGNED_LOG_UNIFORM = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)).map(
    lambda t: t[0] * 10.0**t[1])


@given(A=SIGNED_LOG_UNIFORM, B=SIGNED_LOG_UNIFORM, C=SIGNED_LOG_UNIFORM)
def test_extreme_shape_ratios_finite_or_refused(A, B, C):
    # gamma, xi and every root, radius and extremum value are finite, and
    # each radius maps back to its x; or the call raises ParameterError
    p = PotentialParams(A=A, B=B, C=C)
    try:
        ratios = (p.gamma, p.xi)
        shape = classify_shape(p)
    except ParameterError:
        return
    assert all(math.isfinite(v) for v in ratios)
    for point in (*shape.crossings, *shape.extrema):
        assert math.isfinite(point.x) and 0.0 < point.r < math.inf
        assert x_of_r(p.lam, point.r) == pytest.approx(point.x, rel=1e-12)
    assert all(math.isfinite(e.value) for e in shape.extrema)


# 0, +-5e-324 (the smallest denormal), log-uniform magnitudes up to 1e300
# either sign, and NaN
RAW_FLOAT = st.one_of(
    st.sampled_from((0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan)),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-323.3, 300.0)).map(
        lambda t: t[0] * 10.0**t[1]))


@settings(max_examples=400, deadline=None)
@given(A=RAW_FLOAT, B=RAW_FLOAT, C=RAW_FLOAT, lam=RAW_FLOAT, mu=RAW_FLOAT, nu=RAW_FLOAT,
       x=RAW_FLOAT, n=st.integers(0, 40))
def test_public_helpers_finite_or_refused_without_warning(A, B, C, lam, mu, nu, x, n):
    # each call returns finite values (jacobi_sequence may return +-inf or NaN
    # rows) or raises ParameterError or SolverError, and emits no warning
    def shape_values():
        shape = classify_shape(PotentialParams(A, B, C, lam))
        return [v for pt in (*shape.crossings, *shape.extrema) for v in vars(pt).values()]

    calls = {
        "u_of_x": lambda: u_of_x(PotentialParams(A, B, C), x),
        "jacobi_sequence": lambda: jacobi_sequence(mu, nu, n, x),
        "r_of_x": lambda: r_of_x(lam, x),
        "x_of_r": lambda: x_of_r(lam, x),
        "signed_log_gamma": lambda: signed_log_gamma(x),
        "log_gamma_ratio": lambda: log_gamma_ratio(mu, nu, n),
        "normalization_c": lambda: normalization_c(mu, nu, n),
        "max_basis_index": lambda: float(max_basis_index(A) or 0),
        "classify_shape": shape_values,
    }
    for name, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except (ParameterError, SolverError):
                continue
        if name == "jacobi_sequence":
            assert values.shape == (n + 1,) and values[0] == 1.0
        else:
            assert np.all(np.isfinite(values)), name
