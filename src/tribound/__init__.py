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
    AssociatedParams,
    BasisParams,
    EnergyParams,
    RecursionCoeffs,
    associated_params,
    auto_nu,
    energy_params,
    expansion_coefficients,
    h_polynomial_sequence,
    nu_energy_independent,
    recursion_coeffs,
)
from .special import (
    JacobiPair,
    SignedLogMagnitude,
    jacobi_derivative,
    jacobi_eval,
    jacobi_sequence,
    normalization_c,
    signed_log_gamma,
)
from .wavefunction import (
    WavefunctionTable,
    count_sign_changes,
    default_r_grid,
    sample_wavefunction,
    state_coefficients,
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
        "build_x_matrix",
        "generalized_spectrum",
        "physical_state_bound",
        "plateau_scan",
        "quadrature_matrix",
        "quadrature_rule",
        "solve_bound_states",
        "symtridiag_eig",
    ),
    "oracle": ("IntegrationResult", "direct_matrix", "direct_matrix_element"),
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
    "AssociatedParams",
    "BasisParams",
    "BoundSpectrum",
    "Crossing",
    "EnergyParams",
    "Extremum",
    "IntegrationResult",
    "JacobiPair",
    "ParameterError",
    "PlateauScan",
    "PlateauStat",
    "PotentialParams",
    "QuadratureRule",
    "RecursionCoeffs",
    "ShapeReport",
    "SignedLogMagnitude",
    "SolverError",
    "WavefunctionTable",
    "assemble_system",
    "associated_params",
    "auto_nu",
    "bound_states",
    "build_x_matrix",
    "classify_shape",
    "count_sign_changes",
    "default_r_grid",
    "direct_matrix",
    "direct_matrix_element",
    "energy_params",
    "expansion_coefficients",
    "generalized_spectrum",
    "h_polynomial_sequence",
    "jacobi_derivative",
    "jacobi_eval",
    "jacobi_sequence",
    "max_basis_index",
    "normalization_c",
    "nu_energy_independent",
    "physical_state_bound",
    "plateau_scan",
    "potential_value",
    "quadrature_matrix",
    "quadrature_rule",
    "r_of_x",
    "recursion_coeffs",
    "sample_wavefunction",
    "signed_log_gamma",
    "solve_bound_states",
    "state_coefficients",
    "symtridiag_eig",
    "u_of_x",
    "x_of_r",
]
