"""Shared test settings: property tests draw the same examples on every run,
and every test starts with no shared Gauss rule, kernels or grid pieces."""

import pytest
from hypothesis import settings

from tribound import potential, solver

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def fresh_quadrature_rules():
    """Empty the caches of solver.quadrature_rule and solver._kernels, so no
    test sees another's rules or kernels."""
    solver.quadrature_rule.cache_clear()
    solver._kernels.cache_clear()


@pytest.fixture(autouse=True)
def fresh_grid_pieces():
    """Empty potential._grid's last grid, so no test sees another's pieces."""
    potential._last_grid = None
