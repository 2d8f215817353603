"""Chunked ingestion of chronological update streams.

Replaying a warehouse event stream one event at a time writes a hot page
back every time the pool evicts it, only for the next event to dirty it
again.  The :class:`BatchLoader` batches where the I/O is, in the spirit of
the persistent buffer tree: it opens a *batch window* on every buffer pool
behind a target, streams a chronologically ordered batch through the
target's normal ``insert``/``delete`` API, and closes each chunk with one
coalesced write-back per touched page
(:meth:`~repro.storage.buffer.BufferPool.flush_batch`).

The trees have no window of their own: a single ``insert``, a commit group
and a load all run the same insert kernel, so page contents are
**bit-identical** to event-at-a-time ingestion — the loader changes when
dirty pages are *written*, never what is stored — and query answers and
query-phase I/O counts are unchanged.  The metamorphic tests in
``tests/core/test_ingest.py`` enforce exactly that.

A load of at least :data:`BUFFERED_MIN_EVENTS` events additionally opens
the MVSBT buffer-tree window
(:meth:`~repro.mvsbt.tree.MVSBT.begin_buffered`): batching into a
persistent index pays once the batch is large enough to amortize the
buffers, which is a property of the input — so the loader reads it off
the input, and nothing outside this module can say otherwise.  The window
changes the update-phase page transfers and leaves closed historical
pages columnar; logical content, tree counters and every answer are the
same on both sides of the constant.

Supported targets (duck-typed, so wrappers compose):

* :class:`~repro.core.rta.RTAIndex` — every (LKS, LKLT) MVSBT pair;
* :class:`~repro.core.warehouse.TemporalWarehouse` — the tuple MVBT's pool
  plus the RTA index's pool and MVSBTs;
* :class:`~repro.baselines.mvbt_rta.MVBTRTABaseline` and
  :class:`~repro.baselines.naive_scan.HeapFileScanBaseline` — their pool;
* a bare ``MVSBT``/``MVBT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, NamedTuple, Sequence

from repro.obs.tracer import NULL_TRACER
from repro.storage.buffer import BufferPool

#: Events applied between two coalesced flushes; large enough to amortize
#: the window bookkeeping, small enough to bound dirty-page residency.
DEFAULT_BATCH_SIZE = 1024

#: Smallest load that opens the buffer-tree window.  Below it the window's
#: fixed cost (sealing the frontier, restoring it at close) outweighs the
#: amortized descents; the sweep that places it is ``EXPERIMENTS.md`` A12.
BUFFERED_MIN_EVENTS = 256


class LoadEvent(NamedTuple):
    """The minimal wire form of one update event.

    A plain tuple subtype so event batches cross process boundaries (the
    ``repro.serve`` LOAD op, the procpool worker pipe) as pickle-light
    payloads while still quacking like
    :class:`~repro.workloads.generator.UpdateEvent` for the loader.
    ``value`` is ignored for deletes.
    """

    op: str
    key: int
    value: float
    time: int


def coerce_events(events: Sequence[Any]) -> List[LoadEvent]:
    """Normalize an event batch to :class:`LoadEvent` rows.

    Accepts :class:`LoadEvent`, any object with ``op``/``key``/``value``/
    ``time`` attributes, or bare ``(op, key, value, time)`` sequences (the
    JSON protocol decodes to lists).  Raises :class:`ValueError` on a
    malformed row before anything is applied.
    """
    out: List[LoadEvent] = []
    for row in events:
        if isinstance(row, LoadEvent):
            out.append(row)
        elif hasattr(row, "op"):
            out.append(LoadEvent(row.op, row.key,
                                 getattr(row, "value", 0.0), row.time))
        else:
            try:
                op, key, value, time = row
            except (TypeError, ValueError):
                raise ValueError(f"malformed load event {row!r}") from None
            out.append(LoadEvent(str(op), int(key), float(value), int(time)))
    for event in out:
        if event.op not in ("insert", "delete"):
            raise ValueError(f"unknown event op {event.op!r}")
    return out


@dataclass
class IngestReport:
    """Summary of one :meth:`BatchLoader.load` run."""

    #: Total events applied.
    events: int = 0
    #: Events applied via ``target.insert``.
    inserts: int = 0
    #: Events applied via ``target.delete``.
    deletes: int = 0
    #: Number of chunks (each ended by one coalesced flush).
    batches: int = 0
    #: Dirty pages written across all ``flush_batch`` calls.
    flushed_pages: int = 0
    #: Events absorbed while at least one buffer-tree ingest window was
    #: open (a load of :data:`BUFFERED_MIN_EVENTS` or more); summable
    #: across shard reports.
    buffered_events: int = 0


class BatchLoader:
    """Apply a chronologically ordered event batch through a target index.

    Parameters
    ----------
    target:
        Any object exposing ``insert(key, value, t)`` / ``delete(key, t)``;
        its underlying trees and buffer pools are discovered automatically.
    batch_size:
        Events applied between two coalesced write-backs.

    :meth:`load` picks the ingest path from the size of the batch it is
    handed: at least :data:`BUFFERED_MIN_EVENTS` events open a buffer-tree
    window (:meth:`~repro.mvsbt.tree.MVSBT.begin_buffered`) on every
    logical-mode MVSBT behind the target — updates are absorbed into
    bounded in-page buffers and flushed downward in sorted batches, and
    the write-back happens once, at window close, instead of once per
    chunk.  A smaller load opens the pools' write-coalescing window only.
    Answers are byte-identical either way.

    The loader is also a context manager: entering opens the pools'
    windows for manual event application (size unknown, so no buffer-tree
    window), leaving closes them and flushes.
    """

    def __init__(self, target: Any,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.target = target
        self.batch_size = batch_size
        self._pools = _discover_pools(target)

    # -- window management ------------------------------------------------------

    def __enter__(self) -> "BatchLoader":
        for pool in self._pools:
            pool.begin_batch()
        return self

    def __exit__(self, *exc: object) -> None:
        for pool in self._pools:
            pool.end_batch()

    def _begin_buffered(self) -> List[Any]:
        """Open the buffer-tree window on every tree that takes one;
        returns those trees (call inside the pools' windows)."""
        opened: List[Any] = []
        for tree in _discover_mvsbts(self.target):
            try:
                tree.begin_buffered()
            except ValueError:
                # No window for this tree: it is already inside one
                # (inserts keep routing through that buffer) or runs the
                # physical value mode (direct path).
                continue
            opened.append(tree)
        return opened

    # -- bulk application -------------------------------------------------------

    def load(self, events: Iterable[Any]) -> IngestReport:
        """Apply ``events`` (non-decreasing ``time``) in coalesced chunks.

        Each event needs ``op`` (``"insert"``/``"delete"``), ``key``,
        ``value`` and ``time`` attributes (:class:`~repro.workloads.generator.UpdateEvent`
        qualifies).  All-or-nothing on the batch's shape: raises
        :class:`ValueError` on an out-of-order timestamp or unknown ``op``
        before anything is applied.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        last_time = None
        for event in events:
            if event.op not in ("insert", "delete"):
                raise ValueError(f"unknown event op {event.op!r}")
            if last_time is not None and event.time < last_time:
                raise ValueError(
                    f"event stream not chronological: t={event.time} "
                    f"after t={last_time}"
                )
            last_time = event.time
        tracer = self._tracer()
        if tracer.enabled:
            with tracer.span("ingest.load", batch_size=self.batch_size):
                return self._load(events)
        return self._load(events)

    def _tracer(self):
        """The tracer shared by the discovered pools (null when detached)."""
        return self._pools[0].tracer if self._pools else NULL_TRACER

    def _load(self, events: Sequence[Any]) -> IngestReport:
        """The chunking loop behind :meth:`load`."""
        report = IngestReport()
        with self:
            buffered = self._begin_buffered() \
                if len(events) >= BUFFERED_MIN_EVENTS else []
            try:
                # A buffered window defers all write-back to its close;
                # a per-chunk flush would write sealed pages that the
                # very next chunk dirties again.
                for lo in range(0, len(events), self.batch_size):
                    self._apply_chunk(events[lo:lo + self.batch_size],
                                      report, flush=not buffered)
                if buffered:
                    report.buffered_events = report.events
            finally:
                # Finalizing dirties the frontier pages it restores, so
                # the buffered windows close inside the pools' windows
                # and the closing write-back is counted here.
                if buffered:
                    for tree in buffered:
                        tree.end_buffered()
                    with self._tracer().span("ingest.flush"):
                        self._flush_pools(report)
        return report

    def _apply_chunk(self, chunk: Sequence[Any], report: IngestReport,
                     flush: bool) -> None:
        tracer = self._tracer()
        if tracer.enabled:
            with tracer.span("ingest.chunk", events=len(chunk)):
                self._apply_events(chunk, report)
                if flush:
                    with tracer.span("ingest.flush"):
                        self._flush_pools(report)
            return
        self._apply_events(chunk, report)
        if flush:
            self._flush_pools(report)

    def _apply_events(self, chunk: Sequence[Any],
                      report: IngestReport) -> None:
        """Route one chunk's events through the target's update API."""
        target = self.target
        for event in chunk:
            if event.op == "insert":
                target.insert(event.key, event.value, event.time)
                report.inserts += 1
            else:
                target.delete(event.key, event.time)
                report.deletes += 1
        report.events += len(chunk)
        report.batches += 1

    def _flush_pools(self, report: IngestReport) -> None:
        """One coalesced write-back per discovered pool."""
        for pool in self._pools:
            report.flushed_pages += pool.flush_batch()


def batch_replay(target: Any, events: Iterable[Any],
                 batch_size: int = DEFAULT_BATCH_SIZE) -> IngestReport:
    """One-shot convenience: ``BatchLoader(target, batch_size).load(events)``."""
    return BatchLoader(target, batch_size).load(events)


def _owners(target: Any) -> List[Any]:
    """``target`` and the indexes it wraps (duck-typed, order-stable):
    a warehouse's tuple MVBT and RTA index, a baseline's wrapped tree."""
    owners = [target]
    for name in ("tuples", "aggregates", "tree"):
        inner = getattr(target, name, None)
        if inner is not None:
            owners.append(inner)
    return owners


def _discover_mvsbts(target: Any) -> List[Any]:
    """Trees behind ``target`` that can open a buffered-ingest window."""
    trees: List[Any] = []
    for owner in _owners(target):
        if hasattr(owner, "begin_buffered"):
            trees.append(owner)
        elif callable(getattr(owner, "trees", None)):
            trees.extend(owner.trees())
    return trees


def _discover_pools(target: Any) -> List[BufferPool]:
    """Unique buffer pools behind ``target``."""
    pools: dict[int, BufferPool] = {}
    for owner in _owners(target):
        pool = getattr(owner, "pool", None)
        if isinstance(pool, BufferPool):
            pools.setdefault(id(pool), pool)
    return list(pools.values())
