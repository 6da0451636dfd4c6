import os

import pytest


@pytest.fixture()
def set_umask():
    """os.umask for the test: the process umask in force before the test is
    put back after it."""
    old = os.umask(0o022)
    os.umask(old)
    yield os.umask
    os.umask(old)
