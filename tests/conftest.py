import functools

import pytest

from cind.gallery import build_fixture


@pytest.fixture(scope="session")
def gallery_fixture():
    """``build_fixture`` that builds each gallery fixture once per session.
    Tests only read a fixture, so they can share it."""
    return functools.cache(build_fixture)
