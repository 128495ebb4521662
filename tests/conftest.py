"""Shared test settings: property tests draw the same examples on every run,
and every test starts with no shared Gauss rule."""

import pytest
from hypothesis import settings

from tribound import solver

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def fresh_quadrature_rules():
    """Empty solver.quadrature_rule's cache, so no test sees another's rules."""
    solver.quadrature_rule.cache_clear()
