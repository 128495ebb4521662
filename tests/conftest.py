"""Shared test settings: property tests draw the same examples on every run,
and every test starts with no shared Gauss rule and no shared grid pieces."""

import pytest
from hypothesis import settings

from tribound import potential, solver

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def fresh_quadrature_rules():
    """Empty solver.quadrature_rule's cache, so no test sees another's rules."""
    solver.quadrature_rule.cache_clear()


@pytest.fixture(autouse=True)
def fresh_grid_pieces():
    """Empty potential._grid's last grid, so no test sees another's pieces."""
    potential._last_grid = None
