"""Fixtures shared by the test modules."""

import pytest

from frachelm import green


@pytest.fixture
def cold_panels():
    """``green._tail_panel`` with an empty cache, emptied again afterwards, so
    a test that patches the panel degree leaves none of its panels behind."""
    green._tail_panel.cache_clear()
    yield green._tail_panel
    green._tail_panel.cache_clear()
