"""Competitor construction and measured replays (paper section 5 methodology).

Each competitor gets its own in-memory disk and LRU buffer pool so I/O
budgets never mix.  Page capacities are derived from the paper's 4-byte
record layouts and a configurable page size: the paper's 4 KB pages give
``b = 169`` for MVSBT records (24 bytes: the value is the ``(sum, count)``
pair) and ``b = 254`` for MVBT leaf records (16 bytes); scaled-down runs
shrink the page instead of distorting the record widths, preserving the
fan-out ratios between competitors.

Costs are reported as :class:`MeasuredCost`: physical/logical I/Os plus CPU
seconds, and the paper's estimated time (``I/Os x 10 ms + CPU``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence

from repro.baselines.mvbt_rta import MVBTRTABaseline
from repro.baselines.naive_scan import HeapFileScanBaseline
from repro.core.aggregates import Aggregate, SUM
from repro.obs import collect as _collect
from repro.core.model import Rectangle
from repro.core.rta import RTAIndex
from repro.mvbt.config import MVBTConfig
from repro.mvbt.entries import PAPER_LEAF_ENTRY_BYTES
from repro.mvsbt.records import PAPER_LEAF_RECORD_BYTES
from repro.mvsbt.tree import MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.serialization import records_per_page
from repro.storage.stats import CostModel, CpuTimer, IOStats
from repro.workloads.generator import UpdateEvent, WorkloadDataset


@dataclass(frozen=True)
class BenchSettings:
    """Shared experiment parameters (paper defaults, scaled page size).

    ``page_bytes`` is the single scale knob for structure granularity: the
    paper's 4096 gives paper fan-outs; the default 512 keeps every ratio
    while letting CPython finish the full suite in minutes.
    """

    page_bytes: int = 512
    buffer_pages: int = 64
    io_latency_s: float = 0.010
    strong_factor: float = 0.9

    # cached_property works on frozen dataclasses (it writes the instance
    # __dict__ directly, bypassing the frozen __setattr__), so each derived
    # value is computed once per settings object instead of per access.

    @cached_property
    def mvsbt_capacity(self) -> int:
        """Records per MVSBT page at this page size (the paper's ``b``)."""
        return records_per_page(PAPER_LEAF_RECORD_BYTES, self.page_bytes)

    @cached_property
    def mvbt_capacity(self) -> int:
        """Entries per MVBT page at this page size."""
        return records_per_page(PAPER_LEAF_ENTRY_BYTES, self.page_bytes)

    @cached_property
    def cost_model(self) -> CostModel:
        """The paper's estimated-time model, built once per settings."""
        return CostModel(io_latency_s=self.io_latency_s)


@dataclass(frozen=True)
class MeasuredCost:
    """One measured phase: I/O counters, CPU seconds, estimated time."""

    stats: IOStats
    cpu_s: float
    estimated_s: float
    operations: int

    @property
    def ios(self) -> int:
        return self.stats.total_ios

    @property
    def per_operation_ios(self) -> float:
        return self.ios / self.operations if self.operations else 0.0

    @property
    def per_operation_s(self) -> float:
        return self.estimated_s / self.operations if self.operations else 0.0


def fresh_pool(settings: BenchSettings,
               buffer_pages: Optional[int] = None) -> BufferPool:
    """A private pool over a fresh in-memory disk (one per competitor)."""
    return BufferPool(InMemoryDiskManager(),
                      capacity=buffer_pages or settings.buffer_pages)


def build_rta_index(settings: BenchSettings, dataset: WorkloadDataset,
                    buffer_pages: Optional[int] = None,
                    **config_overrides) -> RTAIndex:
    """The paper's approach: the two-MVSBT (LKS, LKLT) form of its
    space/query comparison, each record carrying SUM and COUNT."""
    config = MVSBTConfig(
        capacity=settings.mvsbt_capacity,
        strong_factor=config_overrides.pop("strong_factor",
                                           settings.strong_factor),
        **config_overrides,
    )
    return RTAIndex(fresh_pool(settings, buffer_pages), config,
                    key_space=dataset.config.key_space)


def build_mvbt_baseline(settings: BenchSettings, dataset: WorkloadDataset,
                        buffer_pages: Optional[int] = None) -> MVBTRTABaseline:
    """The naive competitor: retrieve from one MVBT, aggregate on the fly."""
    config = MVBTConfig(capacity=settings.mvbt_capacity)
    return MVBTRTABaseline(fresh_pool(settings, buffer_pages), config,
                           key_space=dataset.config.key_space)


def build_heap_baseline(settings: BenchSettings, dataset: WorkloadDataset,
                        buffer_pages: Optional[int] = None) -> HeapFileScanBaseline:
    """[Tum92] full-scan baseline over a heap file."""
    return HeapFileScanBaseline(fresh_pool(settings, buffer_pages),
                                capacity=settings.mvbt_capacity,
                                key_space=dataset.config.key_space)


def measure_updates(index, events: Iterable[UpdateEvent],
                    settings: BenchSettings) -> MeasuredCost:
    """Replay an update stream, measuring I/Os and CPU for the whole batch."""
    pool: BufferPool = index.pool
    before = pool.stats.snapshot()
    count = 0
    with CpuTimer() as timer:
        for event in events:
            if event.op == "insert":
                index.insert(event.key, event.value, event.time)
            else:
                index.delete(event.key, event.time)
            count += 1
    pool.flush_all()
    stats = pool.stats.delta(before)
    cost = MeasuredCost(
        stats=stats, cpu_s=timer.elapsed,
        estimated_s=settings.cost_model.estimate(stats, timer.elapsed),
        operations=count,
    )
    _record_phase("bench.updates", index, cost)
    return cost


def measure_queries(index, rectangles: Sequence[Rectangle],
                    settings: BenchSettings,
                    aggregate: Aggregate = SUM,
                    cold_buffer: bool = True) -> MeasuredCost:
    """Run a query batch (paper: 100 rectangles of one size and shape).

    ``cold_buffer`` clears the LRU buffer first so the batch starts cold and
    warms up across queries, exactly the situation Figure 4c sweeps.
    """
    pool: BufferPool = index.pool
    if cold_buffer:
        pool.clear()
    before = pool.stats.snapshot()
    with CpuTimer() as timer:
        for rect in rectangles:
            index.query(rect.range, rect.interval, aggregate)
    stats = pool.stats.delta(before)
    cost = MeasuredCost(
        stats=stats, cpu_s=timer.elapsed,
        estimated_s=settings.cost_model.estimate(stats, timer.elapsed),
        operations=len(rectangles),
    )
    _record_phase("bench.queries", index, cost, aggregate=aggregate.name,
                  cold_buffer=cold_buffer)
    return cost


def _record_phase(name: str, index, cost: MeasuredCost, **attrs) -> None:
    """Feed one measured phase to the active trace collector, if any.

    With no collector installed (``python -m repro.bench`` without
    ``--trace``) this is one global load and a branch — measured numbers
    are untouched either way, since recording happens after measurement.
    """
    collector = _collect.active()
    if collector is None:
        return
    collector.record(name, cost.stats, cost.cpu_s, cost.operations,
                     competitor=type(index).__name__,
                     estimated_s=cost.estimated_s, **attrs)


def space_pages(index) -> int:
    """Live pages on the competitor's disk — the Figure 4a space metric."""
    return index.pool.disk.live_page_count
