"""Paged storage engine: the substrate every index in this library runs on.

The paper's experiments are driven by counted disk-page I/Os (their headline
metric is ``I/Os x 10 ms + CPU time``).  This package provides exactly that
substrate:

* :class:`~repro.storage.page.Page` — a fixed-capacity page holding records.
* :class:`~repro.storage.disk.DiskManager` — page allocation and persistence;
  an in-memory page map (the one every index serves from: the counted I/Os
  are transfers between it and the pool) and a file-backed one that decodes
  every read, a byte round-trip target for tests.
* :class:`~repro.storage.buffer.BufferPool` — an LRU buffer with pin/unpin
  semantics and exact physical read/write counters.
* :class:`~repro.storage.stats.IOStats` / :class:`~repro.storage.stats.CostModel`
  — the paper's estimated-time metric.
* :mod:`~repro.storage.serialization` — fixed-width ``struct`` codecs used by
  checkpoints, the file-backed manager and capacity computations
  (records-per-page for a 4 KB page, the paper's setting).
* :mod:`~repro.storage.wal` / :mod:`~repro.storage.checkpoint` — durability:
  the write-ahead log and the page-image snapshots it is truncated against.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, FileDiskManager, InMemoryDiskManager
from repro.storage.page import Page
from repro.storage.stats import CostModel, IOStats

__all__ = [
    "BufferPool",
    "CostModel",
    "DiskManager",
    "FileDiskManager",
    "InMemoryDiskManager",
    "IOStats",
    "Page",
]
