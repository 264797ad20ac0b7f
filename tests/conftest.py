"""Fixtures shared by the test modules."""

from contextlib import contextmanager

import pytest

from frachelm import green


@pytest.fixture
def cold_panels():
    """``green._tail_panel`` with an empty cache, emptied again afterwards, so
    a test that patches the panel degree leaves none of its panels behind."""
    green._tail_panel.cache_clear()
    yield green._tail_panel
    green._tail_panel.cache_clear()


@pytest.fixture
def no_panels():
    """A context in which ``green._tail_panel`` refuses every panel, value or
    derivative, so each tail is one direct call and no panel is built or
    read: ``with no_panels(): ...`` switches the radial table off."""
    @contextmanager
    def off():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(green, "_tail_panel", lambda *key: None)
            yield
    return off
