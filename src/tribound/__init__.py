"""Bound states of a short-range potential with 1/r, 1/r^2 and 1/r^3 singularities.

A finite square-integrable basis of weighted Jacobi polynomials in
x = coth(lambda r) renders the wave operator tridiagonal; the spectrum comes
from a Gauss-quadrature-assembled generalized eigenproblem and wavefunctions
from finite series whose coefficients obey a three-term recursion.
"""

import importlib

from .errors import ParameterError, SolverError
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
    auto_nu,
    h_polynomial_sequence,
    recursion_coeffs,
)
from .special import jacobi_sequence
from .wavefunction import (
    WavefunctionTable,
    count_sign_changes,
    sample_wavefunction,
)

# The solver imports scipy.linalg and the oracle scipy.integrate; neither is
# imported until one of its names (or the submodule itself) is first looked up.
_LAZY_LAYERS = {
    "solver": (
        "AssembledSystem",
        "BoundSpectrum",
        "PlateauScan",
        "PlateauStat",
        "QuadratureRule",
        "assemble_system",
        "bound_states",
        "plateau_scan",
        "quadrature_matrix",
        "quadrature_rule",
        "solve_bound_states",
    ),
    "oracle": ("direct_matrix",),
}
_LAZY = {name: layer for layer, names in _LAZY_LAYERS.items() for name in names}


def __getattr__(name: str):
    """Import a lazy name's layer on first access (PEP 562) and keep the name."""
    if name in _LAZY_LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(layer, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BasisParams",
    "BoundSpectrum",
    "Crossing",
    "Extremum",
    "ParameterError",
    "PlateauScan",
    "PlateauStat",
    "PotentialParams",
    "QuadratureRule",
    "ShapeReport",
    "SolverError",
    "WavefunctionTable",
    "assemble_system",
    "auto_nu",
    "bound_states",
    "classify_shape",
    "count_sign_changes",
    "direct_matrix",
    "h_polynomial_sequence",
    "jacobi_sequence",
    "max_basis_index",
    "plateau_scan",
    "potential_value",
    "quadrature_matrix",
    "quadrature_rule",
    "r_of_x",
    "recursion_coeffs",
    "sample_wavefunction",
    "solve_bound_states",
    "u_of_x",
    "x_of_r",
]
