"""Key-range sharding: N :class:`TemporalWarehouse` shards behind one API.

Two execution backends share one routing and gather layer:

* :class:`ShardRouter` — the backend-agnostic core.  It owns the partition
  boundaries, routes updates to the owning shard, scatters aggregate
  queries over the shards whose range intersects the query rectangle, and
  gathers: SUM/COUNT add, AVG recombines per-shard SUM and COUNT totals
  (never per-shard averages), MIN/MAX take the extremum of non-empty
  shards.  Additive gathers are exact — each tuple lives in exactly one
  shard, so the per-shard partial aggregates partition the
  single-warehouse answer.  The gather arithmetic (including iteration
  order) lives *only* here, which is what makes answers byte-identical
  across backends.  Backends supply two hooks: ``_shard_query(index,
  method, *args)`` and ``_shard_write(index, method, *args)``; a backend
  that can answer from validated cache entries without blocking also
  overrides ``probe`` (default: :data:`MISS`).
* :class:`ShardedWarehouse` — the in-process backend: one
  :class:`TemporalWarehouse` per range in this process, shared-thread
  execution.  :class:`~repro.serve.procpool.ProcessShardedWarehouse` is
  the process-per-shard backend; it implements the same hooks over a
  request/response pipe.

Concurrency (``thread_safe=True``, the mode :mod:`repro.serve.server`
runs) is single-writer / multi-reader *per shard*: updates take the
shard's :class:`~repro.serve.rwlock.ReadWriteLock` exclusive, queries take
it shared, and each shard's buffer pools additionally enable internal
locking so concurrent readers cannot race the LRU bookkeeping
(:meth:`~repro.storage.buffer.BufferPool.enable_locking`).  Scatter-gather
locks one shard at a time; cross-shard stability comes from ``AS OF``
snapshot semantics — a query whose rectangle ends at or before the
snapshot time only touches closed (immutable) versions, so its answer
cannot reflect a partially applied update (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import Aggregate, AVG, COUNT, MAX, MIN, SUM
from repro.core.cache import CacheConfig, CacheSnapshot, ResultCache
from repro.core.ingest import DEFAULT_BATCH_SIZE, IngestReport, coerce_events
from repro.core.model import Interval, KeyRange, MAX_KEY, TemporalTuple
from repro.core.rta import RTAResult
from repro.core.warehouse import ALL_KEY, QueryPlan, TemporalWarehouse
from repro.errors import QueryError, ShardRoutingError
from repro.serve.mvcc import DEFAULT_READ_RETRIES, MVCCStats, ShardEpoch
from repro.serve.rwlock import ReadWriteLock
from repro.serve.telemetry import current_context

_LAYOUT_FILE = "layout.json"


class _Miss:
    """Type of :data:`MISS` (``None`` is a legal AVG answer)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: What :meth:`ShardRouter.probe` returns when the router cannot answer
#: from already-validated cache entries alone.
MISS = _Miss()


@dataclass(frozen=True)
class ShardPlan:
    """One shard's contribution to a scatter-gather EXPLAIN."""

    shard: int
    key_range: KeyRange
    plan: QueryPlan


class _ShardedAggregates:
    """Duck-types the slice of :class:`~repro.core.rta.RTAIndex` the TQL
    executor uses (``timeline``), gathering bucket-wise over shards."""

    def __init__(self, owner: "ShardRouter") -> None:
        self._owner = owner

    def timeline(self, key_range: KeyRange, interval: Interval,
                 buckets: int, aggregate: Aggregate = SUM
                 ) -> List[Tuple[Interval, Optional[float]]]:
        """Time-bucketed rollup, bucket boundaries identical to
        :meth:`repro.core.rta.RTAIndex.timeline`."""
        if buckets < 1:
            raise QueryError("timeline needs at least one bucket")
        span = interval.length
        if buckets > span:
            raise QueryError(
                f"cannot split {span} instants into {buckets} buckets"
            )
        edges = [
            interval.start + span * i // buckets for i in range(buckets + 1)
        ]
        return [
            (Interval(lo, hi),
             self._owner.aggregate(key_range, Interval(lo, hi), aggregate))
            for lo, hi in zip(edges, edges[1:])
        ]


class ShardRouter:
    """Routing and exact scatter-gather over key-range partitions.

    Subclasses own the shards (local objects or worker processes) and
    implement:

    * ``_shard_query(index, method, *args)`` — invoke ``method`` on shard
      ``index``'s :class:`TemporalWarehouse` under shared (read) access;
    * ``_shard_write(index, method, *args)`` — the same under exclusive
      (write) access;
    * ``now`` — the most recent time any shard has seen.

    Arguments cross the hook as plain model dataclasses
    (:class:`KeyRange`, :class:`Interval`) plus :class:`Aggregate`
    descriptors; remote backends serialize descriptors by name (their
    ``combine`` lambdas never cross a process boundary).
    """

    key_space: Tuple[int, int]
    boundaries: List[int]

    # -- backend hooks -----------------------------------------------------------------

    def _shard_query(self, index: int, method: str, *args: Any) -> Any:
        raise NotImplementedError

    def _shard_write(self, index: int, method: str, *args: Any) -> Any:
        raise NotImplementedError

    @property
    def now(self) -> int:
        """The most recent time any shard has seen."""
        raise NotImplementedError

    # -- routing -----------------------------------------------------------------------

    @staticmethod
    def _split(key_space: Tuple[int, int], shards: int) -> List[int]:
        lo, hi = key_space
        if shards < 1:
            raise ValueError("need at least one shard")
        if hi - lo < shards:
            raise ValueError(
                f"key space {key_space} is smaller than {shards} shards"
            )
        return [lo + (hi - lo) * i // shards for i in range(shards + 1)]

    @property
    def shard_count(self) -> int:
        return len(self.boundaries) - 1

    def shard_index(self, key: int) -> int:
        """The shard owning ``key``; raises on out-of-domain keys."""
        lo, hi = self.key_space
        if not lo <= key < hi:
            raise ShardRoutingError(
                f"key {key} outside key space [{lo}, {hi})"
            )
        return bisect_right(self.boundaries, key) - 1

    def parts_for(self, key_range: KeyRange) -> List[Tuple[int, KeyRange]]:
        """``(shard index, clipped key range)`` pairs the range touches.

        Ranges beyond the key space clip silently (those keys hold no
        tuples), so queries never fail on routing — only updates do.
        """
        parts: List[Tuple[int, KeyRange]] = []
        low, high = key_range.low, key_range.high
        for index, (lo, hi) in enumerate(
                zip(self.boundaries, self.boundaries[1:])):
            lo, hi = max(lo, low), min(hi, high)
            if lo < hi:
                parts.append((index, KeyRange(lo, hi)))
        return parts

    # -- update API --------------------------------------------------------------------

    def insert(self, key: int, value: float, t: int) -> None:
        """Insert a tuple alive from ``t`` into the owning shard."""
        self._shard_write(self.shard_index(key), "insert", key, value, t)

    def delete(self, key: int, t: int) -> float:
        """Logically delete the alive tuple with ``key`` at ``t``."""
        return self._shard_write(self.shard_index(key), "delete", key, t)

    def update(self, key: int, value: float, t: int) -> None:
        """Replace the alive tuple's value at ``t`` (one shard, atomic
        under that shard's exclusive access)."""
        self._shard_write(self.shard_index(key), "update", key, value, t)

    def apply_shard_batch(self, index: int,
                          ops: Sequence[Tuple]) -> List[Tuple[str, Any]]:
        """Apply one commit group's ops on shard ``index`` in one
        exclusive acquisition (see
        :meth:`repro.core.warehouse.TemporalWarehouse.apply_batch`).

        The caller has already routed every op to ``index``; backends
        whose routing can shift underneath a queued group (the cluster's
        online splits) override this and re-route by key at commit time.
        """
        return self._shard_write(index, "apply_batch", list(ops))

    def load_events(self, events: Sequence[Any],
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    mode: str = "direct") -> IngestReport:
        """Bulk-apply a chronologically sorted update batch, shard-wise.

        Events are ``(op, key, value, time)`` tuples or any objects with
        those attributes (see :func:`repro.core.ingest.coerce_events`).
        The batch is partitioned by shard key range and each partition is
        driven through the shard's :class:`~repro.core.ingest.BatchLoader`
        — a per-shard subsequence of a sorted stream is itself sorted, so
        partitioning preserves the loader's chronological contract.
        ``mode="buffered"`` selects the buffer-tree ingest path inside
        each shard warehouse (byte-identical answers, amortized CPU).
        Backends may drive the per-shard loads concurrently
        (:meth:`_load_shards`); the merged :class:`IngestReport` is
        returned either way.
        """
        coerced = coerce_events(events)
        last = None
        for event in coerced:
            if last is not None and event.time < last:
                raise QueryError(
                    f"LOAD batch not chronological: t={event.time} "
                    f"after t={last}"
                )
            last = event.time
        partitions: Dict[int, List[Any]] = {}
        for event in coerced:
            partitions.setdefault(self.shard_index(event.key),
                                  []).append(event)
        reports = self._load_shards(sorted(partitions.items()), batch_size,
                                    mode)
        merged = IngestReport()
        for report in reports:
            merged.events += report.events
            merged.inserts += report.inserts
            merged.deletes += report.deletes
            merged.batches += report.batches
            merged.flushed_pages += report.flushed_pages
            merged.buffered_events += report.buffered_events
        return merged

    def _load_shards(self, partitions: List[Tuple[int, List[Any]]],
                     batch_size: int, mode: str) -> List[IngestReport]:
        """Drive each shard's loader; sequential by default, backends with
        real parallelism override."""
        return [
            self._shard_write(index, "load_events", events, batch_size,
                              mode)
            for index, events in partitions
        ]

    # -- query API ---------------------------------------------------------------------

    def aggregate(self, key_range: KeyRange, interval: Interval,
                  aggregate: Aggregate = SUM) -> Optional[float]:
        """Scatter-gather aggregate of one key-time rectangle."""
        parts = self.parts_for(key_range)
        if aggregate.name == AVG.name:
            total = self.aggregate_all(key_range, interval)
            return total.avg
        if aggregate.name in (MIN.name, MAX.name):
            extrema = [
                self._shard_query(i, "aggregate", part, interval, aggregate)
                for i, part in parts
            ]
            extrema = [x for x in extrema if x is not None]
            if not extrema:
                return None
            return min(extrema) if aggregate.name == MIN.name else max(extrema)
        if aggregate.name not in (SUM.name, COUNT.name):
            raise QueryError(f"unknown aggregate {aggregate.name!r}")
        return sum(
            self._shard_query(i, "aggregate", part, interval, aggregate)
            for i, part in parts
        )

    def aggregate_all(self, key_range: KeyRange,
                      interval: Interval) -> RTAResult:
        """SUM, COUNT and AVG gathered from per-shard totals."""
        return self._gather_all(
            self._shard_query(i, "aggregate_all", part, interval)
            for i, part in self.parts_for(key_range))

    @staticmethod
    def _gather_all(partials) -> RTAResult:
        """Per-shard :class:`RTAResult` partials, in shard order, as one
        total — the single copy of the AVG gather arithmetic."""
        total_sum = 0.0
        total_count = 0.0
        for partial in partials:
            total_sum += partial.sum
            total_count += partial.count
        return RTAResult(sum=total_sum, count=total_count)

    def probe(self, key_range: KeyRange, interval: Interval,
              aggregate: Aggregate) -> Any:
        """The rectangle's answer if it can be had *right now* from
        cache entries alone, else :data:`MISS`.

        A contract for callers that must not block (the server's event
        loop): O(parts) dictionary work, no traversal, no wait on a lock
        a writer can hold for long, and the value is byte-identical to
        what :meth:`aggregate` would return at this instant.  The
        default is :data:`MISS` — backends whose caches live inside
        worker processes cannot answer without an RPC.
        """
        return MISS

    def aggregate_batch(self, queries) -> List[Any]:
        """Scatter-gather many aggregate queries with one batch per shard.

        ``queries`` is a sequence of ``(key_range, interval, aggregate)``
        triples.  Each query's rectangle is split over the shards it
        touches exactly as :meth:`aggregate` does, but all sub-queries
        landing on one shard travel together through
        :meth:`_shard_query_batch` — one shard acquisition, one MVSBT
        sweep — and the gather arithmetic (iteration order included) is
        the same code shape as the serial path, so answers are
        byte-identical.  AVG queries ship per-part ``aggregate_all``
        sub-queries (aggregate ``None``) and recombine SUM/COUNT totals,
        never per-shard averages.  A failing query yields its exception
        instance in its slot; the rest of the batch is unaffected.
        """
        queries = list(queries)
        shard_requests: Dict[int, List[Tuple]] = {}
        recipes: List[Tuple] = []
        for key_range, interval, aggregate in queries:
            name = getattr(aggregate, "name", None)
            if name == AVG.name:
                kind, sub = "avg", None  # per-part aggregate_all
            elif name in (MIN.name, MAX.name):
                kind, sub = name, aggregate
            elif name in (SUM.name, COUNT.name):
                kind, sub = "sum", aggregate
            else:
                recipes.append(("error",
                                QueryError(f"unknown aggregate {name!r}")))
                continue
            slots: List[Tuple[int, int]] = []
            for i, part in self.parts_for(key_range):
                requests = shard_requests.setdefault(i, [])
                slots.append((i, len(requests)))
                requests.append((part, interval, sub))
            recipes.append((kind, slots))
        shard_results: Dict[int, List[Any]] = {
            i: self._shard_query_batch(i, requests)
            for i, requests in sorted(shard_requests.items())
        }
        out: List[Any] = []
        for recipe in recipes:
            kind = recipe[0]
            if kind == "error":
                out.append(recipe[1])
                continue
            partials = [shard_results[i][slot] for i, slot in recipe[1]]
            failed = next((p for p in partials
                           if isinstance(p, BaseException)), None)
            if failed is not None:
                out.append(failed)
                continue
            if kind == "avg":
                out.append(self._gather_all(partials).avg)
            elif kind in (MIN.name, MAX.name):
                extrema = [x for x in partials if x is not None]
                if not extrema:
                    out.append(None)
                else:
                    out.append(min(extrema) if kind == MIN.name
                               else max(extrema))
            else:
                out.append(sum(partials))
        return out

    def _shard_query_batch(self, index: int, requests: List[Tuple]
                           ) -> List[Any]:
        """Answer one shard's batched sub-queries, errors in-band.

        Base implementation degrades to serial :meth:`_shard_query`
        calls so every backend supports :meth:`aggregate_batch`;
        backends with a real batch kernel override it.  An aggregate of
        ``None`` requests ``aggregate_all`` for that sub-query.
        """
        out: List[Any] = []
        for key_range, interval, aggregate in requests:
            try:
                if aggregate is None:
                    out.append(self._shard_query(index, "aggregate_all",
                                                 key_range, interval))
                else:
                    out.append(self._shard_query(index, "aggregate",
                                                 key_range, interval,
                                                 aggregate))
            except Exception as exc:
                out.append(exc)
        return out

    def batch_snapshot(self) -> Dict[str, int]:
        """Batch-sweep counters merged across every shard."""
        from repro.core.batch import BatchScanStats

        totals = BatchScanStats()
        for index in range(self.shard_count):
            snapshot = self._shard_query(index, "batch_snapshot")
            if snapshot:
                totals.merge(snapshot)
        return totals.as_dict()

    def sum(self, key_range: KeyRange, interval: Interval) -> float:
        """Scatter-gather SUM."""
        return self.aggregate(key_range, interval, SUM)

    def count(self, key_range: KeyRange, interval: Interval) -> float:
        """Scatter-gather COUNT."""
        return self.aggregate(key_range, interval, COUNT)

    def avg(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """AVG from gathered SUM and COUNT totals; ``None`` when empty."""
        return self.aggregate(key_range, interval, AVG)

    def min(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """Minimum over non-empty shards; ``None`` when all are empty."""
        return self.aggregate(key_range, interval, MIN)

    def max(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """Maximum over non-empty shards; ``None`` when all are empty."""
        return self.aggregate(key_range, interval, MAX)

    # -- tuple retrieval ---------------------------------------------------------------

    def snapshot(self, key_range: KeyRange,
                 t: int) -> List[Tuple[int, float]]:
        """Alive ``(key, value)`` pairs at ``t``; shard order is key order,
        so concatenation is already sorted."""
        out: List[Tuple[int, float]] = []
        for i, part in self.parts_for(key_range):
            out.extend(self._shard_query(i, "snapshot", part, t))
        return out

    def tuples_in(self, key_range: KeyRange,
                  interval: Interval) -> List[TemporalTuple]:
        """Every logical tuple whose key and lifespan hit the rectangle."""
        out: List[TemporalTuple] = []
        for i, part in self.parts_for(key_range):
            out.extend(self._shard_query(i, "tuples_in", part, interval))
        return out

    def history(self, key: int) -> List[TemporalTuple]:
        """All versions a key ever had (routes to the owning shard)."""
        return self._shard_query(self.shard_index(key), "history", key)

    # -- planner -----------------------------------------------------------------------

    def explain(self, key_range: KeyRange, interval: Interval,
                aggregate: Aggregate = SUM) -> List[ShardPlan]:
        """Each intersecting shard's planner decision for the rectangle."""
        return [
            ShardPlan(shard=i, key_range=part,
                      plan=self._shard_query(i, "explain", part, interval,
                                             aggregate))
            for i, part in self.parts_for(key_range)
        ]

    # -- read-path caching -------------------------------------------------------------

    def cache_snapshot(self) -> CacheSnapshot:
        """Cache counters merged across all shards (one row per layer)."""
        snapshot = CacheSnapshot()
        for index in range(self.shard_count):
            snapshot.merge(self._shard_query(index, "cache_snapshot"))
        return snapshot

    # -- maintenance -------------------------------------------------------------------

    def page_count(self) -> int:
        """Total pages across all shards."""
        return sum(self._shard_query(index, "page_count")
                   for index in range(self.shard_count))

    def check_invariants(self) -> None:
        """Audit every shard."""
        for index in range(self.shard_count):
            self._shard_query(index, "check_invariants")

    def checkpoint(self) -> None:
        """Checkpoint every shard (under its exclusive access)."""
        for index in range(self.shard_count):
            self._shard_write(index, "checkpoint")


class ShardedWarehouse(ShardRouter):
    """N key-range-partitioned warehouses answering as one, in-process.

    Parameters
    ----------
    shards:
        Number of partitions (boundaries split the key space evenly).
    key_space:
        Half-open key domain, divided among the shards.
    thread_safe:
        Install per-shard readers-writer locks and buffer-pool locking;
        required whenever more than one thread touches the instance.
    mvcc:
        Serve reads through the epoch-validated optimistic path (see
        :mod:`repro.serve.mvcc`): queries traverse with **no lock held**
        and validate the shard's seqlock epoch at exit, retrying
        (bounded) and falling back to the read lock only on conflict.
        Requires ``thread_safe``; ignored without it.
    page_capacity / buffer_pages / strong_factor / start_time / buffer_policy:
        Forwarded to every underlying :class:`TemporalWarehouse`.
    """

    def __init__(self, shards: int = 4,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 page_capacity: int = 32, buffer_pages: int = 64,
                 strong_factor: float = 0.9, start_time: int = 1,
                 thread_safe: bool = False,
                 buffer_policy: str = "lru",
                 mvcc: bool = False) -> None:
        self.key_space = key_space
        self.boundaries = self._split(key_space, shards)
        self.shards: List[TemporalWarehouse] = [
            TemporalWarehouse(key_space=(lo, hi),
                              page_capacity=page_capacity,
                              buffer_pages=buffer_pages,
                              strong_factor=strong_factor,
                              start_time=start_time,
                              buffer_policy=buffer_policy)
            for lo, hi in zip(self.boundaries, self.boundaries[1:])
        ]
        self._durable_dir: Optional[str] = None
        self._finish_init(thread_safe, mvcc)

    def _finish_init(self, thread_safe: bool, mvcc: bool = False) -> None:
        self.aggregates = _ShardedAggregates(self)
        self.thread_safe = thread_safe
        self.mvcc = bool(mvcc and thread_safe)
        self.locks: List[ReadWriteLock] = [
            ReadWriteLock() for _ in self.shards
        ]
        self.epochs: List[ShardEpoch] = [
            ShardEpoch() for _ in self.shards
        ]
        self.mvcc_stats = MVCCStats()
        self.read_retries = DEFAULT_READ_RETRIES
        if thread_safe:
            for shard in self.shards:
                shard.tuples.pool.enable_locking()
                shard.aggregates.pool.enable_locking()

    # -- backend hooks -----------------------------------------------------------------

    def _shard_query(self, index: int, method: str, *args: Any) -> Any:
        fn = getattr(self.shards[index], method)
        if self.mvcc:
            def run():
                return self._optimistic_query(index, fn, args)
        elif self.thread_safe:
            def run():
                with self.locks[index].read_locked():
                    return fn(*args)
        else:
            def run():
                return fn(*args)
        ctx = current_context()
        if ctx is None:
            return run()
        return self._shard_telemetered(ctx, index, method, run)

    def _shard_write(self, index: int, method: str, *args: Any) -> Any:
        fn = getattr(self.shards[index], method)
        if self.thread_safe:
            def run():
                with self.locks[index].write_locked():
                    if not self.mvcc:
                        return fn(*args)
                    # Seqlock bracket: odd while the trees mutate, even
                    # once the write (or batch) is fully applied.
                    epoch = self.epochs[index]
                    epoch.begin_write()
                    try:
                        return fn(*args)
                    finally:
                        epoch.end_write()
        else:
            def run():
                return fn(*args)
        ctx = current_context()
        if ctx is None:
            return run()
        return self._shard_telemetered(ctx, index, method, run)

    def _shard_query_batch(self, index: int, requests: List[Tuple]
                           ) -> List[Any]:
        """One shard's sub-batch through the warehouse batch kernel."""
        shard = self.shards[index]
        if self.mvcc:
            def run():
                return self._optimistic_query_batch(index, requests)
        elif self.thread_safe:
            def run():
                with self.locks[index].read_locked():
                    return shard.aggregate_batch(requests)
        else:
            def run():
                return shard.aggregate_batch(requests)
        ctx = current_context()
        if ctx is None:
            return run()
        return self._shard_telemetered(ctx, index, "aggregate_batch", run)

    def _optimistic_query_batch(self, index: int,
                                requests: List[Tuple]) -> List[Any]:
        """One seqlock hop for a whole batch, per-query fallback isolation.

        The shard epoch is captured once, the entire batch sweep runs
        with no lock held, and a single validation covers every answer —
        N queries, one epoch check.  A torn read does *not* retry the
        batch wholesale: each query re-runs through its own
        :meth:`_optimistic_query` (own retry budget, own read-lock
        fallback), so one conflicting writer costs re-execution, never a
        batch-wide retry storm.  Cache stores made during the sweep are
        parked in the calling thread's deferred section and committed
        only after the batch validates, exactly as the serial path does.
        """
        from repro.core.cache import (begin_deferred_stores,
                                      commit_deferred_stores,
                                      discard_deferred_stores)

        shard = self.shards[index]
        epoch = self.epochs[index]
        bstats = shard.batch_stats
        started = epoch.read_begin()
        if started % 2 == 0:
            begin_deferred_stores()
            try:
                results = shard.aggregate_batch(requests)
            except Exception:
                discard_deferred_stores()
                if bstats is not None:
                    bstats.note_epoch_validation()
                if epoch.read_validate(started):
                    raise  # deterministic failure, not a torn read
            else:
                if bstats is not None:
                    bstats.note_epoch_validation()
                if epoch.read_validate(started):
                    commit_deferred_stores()
                    self.mvcc_stats.note_optimistic()
                    return results
                discard_deferred_stores()
        # Torn (or a write was mid-bracket at capture): isolate the
        # fallback per query so one conflict cannot fail its batchmates.
        if bstats is not None:
            bstats.note_epoch_fallback(len(requests))
        out: List[Any] = []
        for key_range, interval, aggregate in requests:
            try:
                if aggregate is None:
                    out.append(self._optimistic_query(
                        index, shard.aggregate_all, (key_range, interval)))
                else:
                    out.append(self._optimistic_query(
                        index, shard.aggregate,
                        (key_range, interval, aggregate)))
            except Exception as exc:
                out.append(exc)
        return out

    def _optimistic_query(self, index: int, fn, args) -> Any:
        """One read with **no lock held**, validated by the shard epoch.

        Capture the seqlock word, traverse, validate: unchanged-and-even
        means the traversal saw one consistent version and its answer is
        exactly what the read lock would have produced.  Conflicts retry
        (bounded) and finally fall back to the read lock, so a write
        storm cannot starve a reader forever.  Three subtleties:

        * cache stores made during the traversal are parked thread-
          locally and committed only after validation — a torn read must
          never publish into a shared cache (closed entries are pinned
          forever);
        * an exception with the epoch *unchanged* is deterministic (a
          genuine :class:`~repro.errors.QueryError`, say) and re-raised
          immediately — only epoch-changed exceptions count as
          conflicts;
        * retries yield the GIL briefly so the in-flight writer can
          finish its bracket.
        """
        from repro.core.cache import (begin_deferred_stores,
                                      commit_deferred_stores,
                                      discard_deferred_stores)

        epoch = self.epochs[index]
        stats = self.mvcc_stats
        retries = 0
        try:
            for attempt in range(self.read_retries + 1):
                if attempt:
                    retries += 1
                    stats.note_retry()
                    time.sleep(0 if attempt < 3 else 0.0002)
                started = epoch.read_begin()
                if started % 2:
                    continue  # a write is mid-bracket right now
                begin_deferred_stores()
                try:
                    result = fn(*args)
                except Exception:
                    discard_deferred_stores()
                    if epoch.read_validate(started):
                        raise  # deterministic failure, not a torn read
                    continue
                if epoch.read_validate(started):
                    commit_deferred_stores()
                    stats.note_optimistic()
                    return result
                discard_deferred_stores()
            # Retry budget exhausted: take the read lock (blocks behind
            # the writer, guarantees progress).
            stats.note_fallback()
            ctx = current_context()
            if ctx is not None:
                ctx.mvcc_fallbacks += 1
            with self.locks[index].read_locked():
                return fn(*args)
        finally:
            if retries:
                ctx = current_context()
                if ctx is not None:
                    ctx.mvcc_retries += retries

    def probe(self, key_range: KeyRange, interval: Interval,
              aggregate: Aggregate) -> Any:
        """Answer from the shards' result caches as a latch-free reader.

        SUM/COUNT gather the per-part entries :meth:`aggregate` stores,
        AVG the per-part :data:`~repro.core.warehouse.ALL_KEY` partials;
        everything else (MIN/MAX, no MVCC, no cache) is a :data:`MISS`.
        Each touched shard's seqlock word is captured first — odd means a
        write is mid-bracket, so its ``write_epoch`` cannot be trusted —
        and every part is ``peek``-ed before any is looked up, so a
        partial hit leaves hit/miss counters and LRU recency exactly as
        the pooled path will find them.  Only then does each part pay a
        real ``lookup`` and re-validate its shard's word: unchanged means
        no write landed between reading ``write_epoch`` and reading the
        entry, so an open-present entry is current (Sela & Petrank's
        validated aggregate read) and a closed one always was.  The
        gather below is the code :meth:`aggregate` / :meth:`aggregate_all`
        run, so the answer is byte-identical.
        """
        if not self.mvcc:
            return MISS
        name = aggregate.name
        if name == AVG.name:
            name = ALL_KEY
        elif name not in (SUM.name, COUNT.name):
            return MISS
        looks = []
        for index, part in self.parts_for(key_range):
            shard = self.shards[index]
            cache = shard.result_cache
            if cache is None:
                return MISS
            started = self.epochs[index].read_begin()
            if started % 2:
                return MISS
            write_epoch = shard.write_epoch
            key = ResultCache.key(name, part, interval)
            if not cache.peek(key, write_epoch):
                return MISS
            looks.append((index, cache, key, write_epoch, started))
        partials = []
        for index, cache, key, write_epoch, started in looks:
            hit = cache.lookup(key, write_epoch)
            if hit is None or not self.epochs[index].read_validate(started):
                return MISS
            partials.append(hit[0])
        if name == ALL_KEY:
            return self._gather_all(partials).avg
        return sum(partials)

    def _shard_telemetered(self, ctx, index: int, method: str, run) -> Any:
        """One shard call (``run`` already wraps locking or the
        optimistic path) under an active request context.

        Always attributes wall time to the shard; when the request is
        sampled, additionally appends a ``shard.<method>`` span record.
        A tracer is *not* attached here — the shard warehouses are shared
        across reader threads and a tracer's span stack would race — so
        thread-backend traces carry per-shard-call timing, not page-level
        children (the process backend's single-threaded workers do carry
        them).
        """
        from repro.serve.telemetry import shard_record

        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            return run()
        finally:
            ctx.note_shard(index, time.perf_counter() - started)
            if ctx.sampled:
                ctx.add_record(shard_record(
                    f"shard.{method}", index,
                    time.process_time() - cpu_started, ctx,
                    backend="thread"))

    @property
    def now(self) -> int:
        """The most recent time any shard has seen."""
        return max(shard.now for shard in self.shards)

    # -- observability -----------------------------------------------------------------

    def explain_trace(self, key_range: KeyRange, interval: Interval,
                      aggregate: Aggregate = SUM) -> List[Dict[str, Any]]:
        """Per-shard EXPLAIN with span trees, thread-backend edition.

        Same row shape as
        :meth:`repro.serve.procpool.ProcessShardedWarehouse.explain_trace`
        (``shard``, ``key_range``, ``plan``, ``result``, ``record``,
        ``cache``), so the slow-query log works identically under both
        executors.  Tracing must attach to the shard's pools, which is
        only safe with no concurrent readers — each shard is therefore
        traced under its *write* lock, making this a diagnostics path,
        not a hot one.
        """
        from repro.obs.explain import explain_query
        from repro.obs.tracefile import span_to_record

        rows: List[Dict[str, Any]] = []
        for index, part in self.parts_for(key_range):
            shard = self.shards[index]

            def run(shard=shard, part=part):
                report = explain_query(shard, part, interval, aggregate)
                return {"plan": report.plan, "result": report.result,
                        "record": span_to_record(report.root),
                        "cache": report.cache}
            if self.thread_safe:
                with self.locks[index].write_locked():
                    payload = run()
            else:
                payload = run()
            rows.append(dict(payload, shard=index, key_range=part))
        return rows

    # -- read-path caching -------------------------------------------------------------

    def enable_cache(self, config: Optional[CacheConfig] = None) -> None:
        """Attach the layered read-path cache on every shard.

        Per-shard caches keep epoch bookkeeping local to the single writer
        of each shard; a write to one shard never invalidates another
        shard's cached aggregates.  Cache bookkeeping is thread-safe iff
        this sharded warehouse is.
        """
        for shard in self.shards:
            shard.enable_cache(config, thread_safe=self.thread_safe)

    def disable_cache(self) -> None:
        """Detach every shard's read-path cache."""
        for shard in self.shards:
            shard.disable_cache()

    # -- durability --------------------------------------------------------------------

    @classmethod
    def open_durable(cls, directory: str, shards: int = 4,
                     key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                     page_capacity: int = 32, buffer_pages: int = 64,
                     strong_factor: float = 0.9, start_time: int = 1,
                     thread_safe: bool = False,
                     fsync: bool = False,
                     buffer_policy: str = "lru",
                     mvcc: bool = False) -> "ShardedWarehouse":
        """Open (or create) a crash-recoverable sharded warehouse.

        The shard layout (count and boundaries) is frozen in
        ``layout.json`` on first open; reopens ignore the ``shards`` and
        ``key_space`` arguments in favor of the stored layout, because
        re-partitioning on-disk shards is not supported.
        ``buffer_policy`` applies to freshly created shards; shards
        restored from a checkpoint keep the default eviction policy.
        """
        key_space, boundaries = load_or_freeze_layout(directory, shards,
                                                      key_space)

        import os

        warehouse = cls.__new__(cls)
        warehouse.key_space = key_space
        warehouse.boundaries = boundaries
        warehouse.shards = [
            TemporalWarehouse.open_durable(
                os.path.join(directory, shard_dir_name(i)),
                buffer_pages=buffer_pages, fsync=fsync,
                key_space=(lo, hi), page_capacity=page_capacity,
                strong_factor=strong_factor, start_time=start_time,
                buffer_policy=buffer_policy)
            for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
        ]
        warehouse._durable_dir = directory
        warehouse._finish_init(thread_safe, mvcc)
        return warehouse

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return all(shard.closed for shard in self.shards)

    def close(self) -> None:
        """Close every shard (idempotent)."""
        for shard in self.shards:
            shard.close()


def shard_dir_name(index: int) -> str:
    """On-disk directory name of shard ``index`` (shared by backends)."""
    return f"shard-{index:02d}"


def load_or_freeze_layout(directory: str, shards: int,
                          key_space: Tuple[int, int]
                          ) -> Tuple[Tuple[int, int], List[int]]:
    """Read ``layout.json`` (or write it on first open) and return the
    frozen ``(key_space, boundaries)``.

    Both durable backends go through this, so a directory created by one
    executor reopens identically under the other.
    """
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    layout_path = os.path.join(directory, _LAYOUT_FILE)
    if os.path.exists(layout_path):
        with open(layout_path) as fh:
            layout = json.load(fh)
        return tuple(layout["key_space"]), list(layout["boundaries"])
    boundaries = ShardRouter._split(key_space, shards)
    with open(layout_path, "w") as fh:
        json.dump({"key_space": list(key_space),
                   "boundaries": boundaries}, fh)
    return key_space, boundaries
