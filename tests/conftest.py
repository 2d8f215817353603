"""Shared fixtures: a fresh buffer pool per test.

Every hypothesis property runs under the ``deterministic`` profile: its
examples are drawn from a seed derived from the test itself, and no
example database is read or written, so two runs of the suite test the
same examples and a property's verdict never depends on what an earlier
run happened to find.  Each test keeps its own ``max_examples``.
"""

import pytest
from hypothesis import settings

from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture()
def pool():
    """Generously sized buffer pool over an in-memory disk."""
    return BufferPool(InMemoryDiskManager(), capacity=256)


@pytest.fixture()
def tiny_pool():
    """Deliberately small pool (4 frames) to exercise eviction paths."""
    return BufferPool(InMemoryDiskManager(), capacity=4)
