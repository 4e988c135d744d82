"""Fixtures shared by the test modules."""

import pytest

from alghull import gf, padic
from alghull import relations as rel


def _clear_caches():
    gf.distinct_degree_groups.cache_clear()
    padic._automatic_selection.cache_clear()
    padic._root_context.cache_clear()
    padic.cached_roots.cache_clear()
    rel.clear_caches()


@pytest.fixture(autouse=True)
def cold_relation_searches():
    """Every test starts with the memoized relation searches empty, so a
    test that counts or patches the search's steps sees them run."""
    rel.clear_caches()


@pytest.fixture
def cold_contexts():
    """gf's memoised factorisations, padic's prime selections, root
    contexts and cached lifts, and the relation searches run on them,
    start empty, as in a fresh process, and are emptied again afterwards."""
    _clear_caches()
    yield
    _clear_caches()
