"""Fixtures shared by the test modules."""

import pytest

from alghull import padic


def _clear_caches():
    padic._automatic_selection.cache_clear()
    padic._root_context.cache_clear()
    padic.cached_roots.cache_clear()


@pytest.fixture
def cold_contexts():
    """padic's prime selections, root contexts and cached lifts start
    empty, as in a fresh process, and are emptied again afterwards."""
    _clear_caches()
    yield
    _clear_caches()
