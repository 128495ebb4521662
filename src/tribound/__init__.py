"""Bound states of a short-range potential with 1/r, 1/r^2 and 1/r^3 singularities.

A finite square-integrable basis of weighted Jacobi polynomials in
x = coth(lambda r) renders the wave operator tridiagonal; the spectrum comes
from a Gauss-quadrature-assembled generalized eigenproblem and wavefunctions
from finite series whose coefficients obey a three-term recursion.

Importing the package loads numpy only: the first Gauss rule or refinement
loads scipy's LAPACK extension (not the scipy.linalg package, nor scipy's
package initializer), the first direct integral scipy's QUADPACK extension
(not the scipy.integrate package; its callback layer imports scipy); only an
extension that will not load on its own is imported with its package.
"""

from .errors import ParameterError, SolverError
from .oracle import direct_matrix
from .potential import (
    Crossing,
    Extremum,
    PotentialParams,
    ShapeReport,
    classify_shape,
    max_basis_index,
    potential_value,
    r_of_x,
    u_of_x,
    x_of_r,
)
from .recursion import (
    BasisParams,
    h_polynomial_sequence,
    jacobi_sequence,
)
from .solver import (
    BoundSpectrum,
    PlateauScan,
    PlateauStat,
    plateau_scan,
    solve_bound_states,
)
from .wavefunction import (
    WavefunctionTable,
    count_sign_changes,
    sample_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "BasisParams",
    "BoundSpectrum",
    "Crossing",
    "Extremum",
    "ParameterError",
    "PlateauScan",
    "PlateauStat",
    "PotentialParams",
    "ShapeReport",
    "SolverError",
    "WavefunctionTable",
    "classify_shape",
    "count_sign_changes",
    "direct_matrix",
    "h_polynomial_sequence",
    "jacobi_sequence",
    "max_basis_index",
    "plateau_scan",
    "potential_value",
    "r_of_x",
    "sample_wavefunction",
    "solve_bound_states",
    "u_of_x",
    "x_of_r",
]
