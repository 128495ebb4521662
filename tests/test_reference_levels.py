"""Every kept level of solve_bound_states against an independent 40-digit reference.

The reference solves the same discrete problem as the solver, the Galerkin
pencil H f = eps omega f of a basis of `size` weighted Jacobi functions, in
mpmath at 40 significant digits.  It shares no code with tribound beyond the
basis parameters of BasisParams.from_size: the recursion coefficients F_n and
D_n are written out here, their tridiagonal matrix X gives the Gauss rule
(tau, Lam), and every kernel is diagonal at the nodes, so the pencil is the
node-space pencil K z = eps G z with f = Lam z,

    K = -Lam^T diag((n + s)^2) Lam
        + diag(1/4 - B + C tau + (mu^2/2)/(1 - tau) + ((nu^2 + 2A)/2)/(1 + tau)),
    G = diag(1/(tau^2 - 1)),   s = (mu + nu + 1)/2,

solved as the ordinary symmetric problem W K W, W = diag(sqrt(tau^2 - 1)).
The default convention solves A/2 in place of A.

The float64 solve keeps an unrefined eigenvalue of the whitened problem when
its residual is small, which is off by up to a few 1e-9 relative, so the
tolerance is 1e-8.  Giving those pairs their Rayleigh quotient (ROADMAP item
1) brings every level here within about 1e-12, and tightens this test to it.

Run as a script, it prints the worst relative error of each configuration.
"""

import mpmath
import pytest

from tribound import PotentialParams, solve_bound_states
from tribound.recursion import BasisParams
from tribound.solver import BOUND_STATE_CUTOFF

DIGITS = 40
LEVEL_RTOL = 1e-8
B, C = 5.0, 3.0

# (A, consistent convention, mu, basis size)
CONFIGURATIONS = [
    (-300.0, False, 1.5, 30),
    (-300.0, True, 1.5, 20),
    (-2000.0, False, 1.5, 30),
    (-20.0, True, 3.0, 30),
    (-300.0, True, 0.5, 20),
]


def reference_eigenvalues(A, consistent, mu, size):
    """Every eigenvalue of the basis's pencil at DIGITS digits, ascending."""
    basis = BasisParams.from_size(mu, size)
    with mpmath.workdps(DIGITS):
        mu, nu = mpmath.mpf(basis.mu), mpmath.mpf(basis.nu)
        a = mpmath.mpf(A) if consistent else mpmath.mpf(A) / 2
        x = mpmath.zeros(size, size)
        for n in range(size):
            s = 2 * n + mu + nu
            x[n, n] = (nu ** 2 - mu ** 2) / (s * (s + 2))
            if n + 1 < size:
                x[n, n + 1] = x[n + 1, n] = 2 / (s + 2) * mpmath.sqrt(
                    (n + 1) * (n + mu + 1) * (n + nu + 1) * (n + mu + nu + 1)
                    / ((s + 1) * (s + 3)))
        tau, lam = mpmath.eigsy(x)
        tau = [tau[i] for i in range(size)]
        kinetic = mpmath.diag([(n + (mu + nu + 1) / 2) ** 2 for n in range(size)])
        nodal = mpmath.diag([mpmath.mpf(1) / 4 - B + C * t + (mu ** 2 / 2) / (1 - t)
                             + ((nu ** 2 + 2 * a) / 2) / (1 + t) for t in tau])
        w = mpmath.diag([mpmath.sqrt(t ** 2 - 1) for t in tau])
        k = nodal - lam.T * kinetic * lam
        return sorted(mpmath.eigsy(w * k * w, eigvals_only=True))


def level_errors(A, consistent, mu, size):
    """(kept float64 levels, reference levels below the cutoff, relative errors)."""
    spectrum = solve_bound_states(PotentialParams(A, B, C), size, mu=mu,
                                  consistent_potential=consistent)
    want = [e for e in reference_eigenvalues(A, consistent, mu, size) if e < BOUND_STATE_CUTOFF]
    got = [float(e) for e in spectrum.epsilons]
    errors = [float(abs((g - e) / e)) for g, e in zip(got, want)]
    return got, want, errors


@pytest.mark.parametrize(
    "A, consistent, mu, size", CONFIGURATIONS,
    ids=[f"A{A:g}-{'consistent' if c else 'default'}-mu{mu:g}-N{n}"
         for A, c, mu, n in CONFIGURATIONS])
def test_levels_match_the_40_digit_pencil(A, consistent, mu, size):
    got, want, errors = level_errors(A, consistent, mu, size)
    assert len(got) == len(want)
    assert max(errors) < LEVEL_RTOL


if __name__ == "__main__":
    for A, consistent, mu, size in CONFIGURATIONS:
        got, want, errors = level_errors(A, consistent, mu, size)
        print(f"- A = {A:g}, {'consistent' if consistent else 'default'}, mu = {mu:g}, "
              f"N = {size}: {len(got)} levels (reference {len(want)}), "
              f"worst relative error {max(errors):.3g}")
