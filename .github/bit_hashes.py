"""Print three SHA-256 digests of the `tribound` found on PYTHONPATH, one a line.

    sweep         480 solves: each a solve's level bytes, max_residual repr and
                  discarded_count, or its error text
    wavefunction  every state of 18 solves on two grids: each a state's psi
                  bytes and clamped_count, or the error text of a refused
                  solve or state
    quadrature    stdout of `tribound check-quadrature --max-degree 8`: every
                  direct element of sizes 2-8, through the Gauss-rule gaps

A change that claims bit identity prints the same three digests as its parent
commit with the same numpy, scipy and BLAS.  A solve's last bits depend on the
BLAS thread count at N >= 100, so run both at one thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python .github/bit_hashes.py
"""

import hashlib
import subprocess
import sys

import numpy as np

import tribound
from tribound import (ParameterError, PotentialParams, SolverError, sample_wavefunction,
                      solve_bound_states)


def sweep() -> str:
    digest = hashlib.sha256()
    for A in (-1.0, -20.0, -300.0, -2000.0):
        for N in (1, 2, 5, 10, 20, 30, 50, 100, 150, 200, 300, 400):
            for consistent in (False, True):
                for mu in (0.5, 1.0, 1.5, 3.0, 10.0):
                    try:
                        s = solve_bound_states(PotentialParams(A=A, B=5.0, C=3.0), N, mu=mu,
                                               consistent_potential=consistent)
                        row = (s.epsilons.tobytes() + repr(s.max_residual).encode()
                               + str(s.discarded_count).encode())
                    except (ParameterError, SolverError) as exc:
                        row = str(exc).encode()
                    digest.update(row)
    return digest.hexdigest()


def wavefunction() -> str:
    grids = (np.geomspace(1e-3, 15.0, 3000), np.linspace(0.01, 40.0, 20001))
    digest = hashlib.sha256()
    for A in (-20.0, -300.0, -2000.0):
        for B, C in ((5.0, 3.0), (50.0, 3.0), (12.0, 0.1)):
            p = PotentialParams(A=A, B=B, C=C)
            for consistent in (False, True):
                try:
                    eps = solve_bound_states(p, 60, consistent_potential=consistent).epsilons
                except (ParameterError, SolverError) as exc:
                    digest.update(str(exc).encode())
                    continue
                for k, e in enumerate(eps.tolist()):
                    for r in grids:
                        try:
                            t = sample_wavefunction(k, e, p, r)
                            row = t.psi.tobytes() + str(t.clamped_count).encode()
                        except (ParameterError, SolverError) as exc:
                            row = str(exc).encode()
                        digest.update(row)
    return digest.hexdigest()


def quadrature() -> str:
    # a fresh interpreter, as the console script runs it, with this one's environment
    code = "import sys; from tribound.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, "check-quadrature", "--max-degree", "8"],
                         capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


if __name__ == "__main__":
    print(f"hashing the tribound of {tribound.__file__}", file=sys.stderr)
    for name, digest in (("sweep", sweep), ("wavefunction", wavefunction),
                         ("quadrature", quadrature)):
        print(name, digest())
