"""Key-range sharding: one router, one routing table, one shard handle.

The whole layer is one picture — router → topology → handle:

* :class:`ShardRouter` — the only router.  It owns an immutable
  :class:`Topology` snapshot (which shard id serves which key range) and a
  ``{shard id: handle}`` map, routes updates to the owning shard, scatters
  aggregate queries over the shards whose range intersects the query
  rectangle, and gathers: SUM/COUNT add, AVG recombines per-shard SUM and
  COUNT totals (never per-shard averages), MIN/MAX take the extremum of
  non-empty shards.  Additive gathers are exact — each tuple lives in
  exactly one shard, so the per-shard partial aggregates partition the
  single-warehouse answer.  The gather arithmetic (including iteration
  order) lives *only* here, which is what makes answers byte-identical
  across backends.
* A **shard handle** is how the router reaches one shard: ``read``,
  ``write``, ``call_async`` (a write whose answer is awaited later — the
  fan-out primitive), ``probe``, ``now``, ``dead``, ``close`` and
  ``publish_metrics``.  Two implementations exist and no
  third: :class:`LocalShard` below (a warehouse in this process, reached
  through the seqlock read protocol) and
  :class:`~repro.serve.procpool.WorkerGroup` (worker processes behind a
  pipe, with replica fail-over).  Only a :class:`LocalShard` also offers
  ``attempt``, a read on the calling thread that never waits — what
  :meth:`ShardRouter.attempt` (the server's event-loop read lane) runs.
* :class:`ShardedWarehouse` — the in-process construction: one
  :class:`LocalShard` per range.
  :class:`~repro.serve.procpool.ProcessShardedWarehouse` and
  :class:`~repro.serve.cluster.ClusterWarehouse` build worker groups
  instead; none of them re-implements routing.

Every write path holds the router's topology lock **shared** from
routing decision through shard acknowledgement, and reads take no router
lock at all — the discipline (and why it is deadlock-free) is argued
once, in :mod:`repro.serve.cluster`, whose split/merge are the only
takers of the exclusive side.  On a static table the fence costs one
uncontended shared acquisition.

Concurrency inside a :class:`LocalShard` (``thread_safe=True``, the mode
:mod:`repro.serve.server` runs) is single-writer / multi-reader *per
shard*: updates take the shard's
:class:`~repro.serve.rwlock.ReadWriteLock` exclusive inside a seqlock
bracket, queries traverse with no lock held and validate the shard's
epoch at exit (:mod:`repro.serve.mvcc`), and each shard's buffer pools
enable internal locking so concurrent readers cannot race the LRU
bookkeeping (:meth:`~repro.storage.buffer.BufferPool.enable_locking`).
Scatter-gather visits one shard at a time; cross-shard stability comes
from ``AS OF`` snapshot semantics — a query whose rectangle ends at or
before the snapshot time only touches closed (immutable) versions, so its
answer cannot reflect a partially applied update (see
``docs/SERVING.md``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import Aggregate, AVG, COUNT, MAX, MIN, SUM
from repro.core.cache import (
    CacheConfig,
    CacheSnapshot,
    ResultCache,
    begin_deferred_stores,
    commit_deferred_stores,
    discard_deferred_stores,
)
from repro.core.ingest import DEFAULT_BATCH_SIZE, IngestReport, coerce_events
from repro.core.model import Interval, KeyRange, MAX_KEY, TemporalTuple
from repro.core.rta import RTAResult
from repro.core.warehouse import RTA_ENTRY, QueryPlan, TemporalWarehouse
from repro.errors import (
    ProtocolError,
    QueryError,
    ShardDownError,
    ShardRedirectError,
    ShardRoutingError,
)
from repro.serve.mvcc import DEFAULT_READ_RETRIES, MVCCStats, ShardEpoch
from repro.serve.rwlock import ReadWriteLock
from repro.serve.telemetry import current_context, shard_record

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


class Topology:
    """An immutable routing snapshot: swapped as one reference, so
    lock-free readers see either the old map or the new one, never a
    half-updated mix.

    A static backend is simply a topology that is never swapped; its
    shard ids are the positions ``0..n-1``.
    """

    __slots__ = ("version", "entries", "boundaries")

    def __init__(self, version: int,
                 entries: List[Tuple[int, int, int]]) -> None:
        self.version = version
        #: ``(sid, lo, hi)`` per shard, ascending by ``lo``, contiguous.
        self.entries = entries
        self.boundaries = [lo for _, lo, _ in entries]
        self.boundaries.append(entries[-1][2])


def split_evenly(key_space: Tuple[int, int], shards: int) -> List[int]:
    """Boundaries dividing ``key_space`` into ``shards`` equal ranges."""
    lo, hi = key_space
    if shards < 1:
        raise ValueError("need at least one shard")
    if hi - lo < shards:
        raise ValueError(
            f"key space {key_space} is smaller than {shards} shards"
        )
    return [lo + (hi - lo) * i // shards for i in range(shards + 1)]


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


class LocalShard:
    """The in-thread shard handle: one :class:`TemporalWarehouse`, its
    :class:`~repro.serve.rwlock.ReadWriteLock` and its
    :class:`~repro.serve.mvcc.ShardEpoch`.

    Two modes.  Unlocked (``thread_safe=False``, single-threaded library
    use): every call goes straight to the warehouse.  Thread-safe: reads
    are optimistic — they traverse with **no lock held** and validate the
    seqlock epoch at exit, retrying (bounded) and falling back to the read
    lock so a write storm cannot starve them; writes take the lock
    exclusive inside a seqlock bracket.  This class is the one place the
    latch-free read protocol lives (capture the version word, traverse,
    validate, publish cache stores only after validation).
    """

    #: Bounded-retry budget before an optimistic read takes the read lock.
    read_retries = DEFAULT_READ_RETRIES

    def __init__(self, sid: int, warehouse: TemporalWarehouse,
                 thread_safe: bool, stats: MVCCStats) -> None:
        self.sid = sid
        self.warehouse = warehouse
        #: Also what the router passes to ``enable_cache``: cache
        #: bookkeeping is thread-safe iff the shard is.
        self.thread_safe = thread_safe
        self.lock = ReadWriteLock()
        self.epoch = ShardEpoch()
        #: Optimistic-read counters, shared by every shard of one router.
        self.stats = stats
        self._lock_published = False
        if thread_safe:
            warehouse.tuples.pool.enable_locking()
            warehouse.aggregates.pool.enable_locking()

    # -- the handle surface ------------------------------------------------------------

    def read(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Invoke ``method`` on the warehouse under shared access."""
        fn = getattr(self.warehouse, method)
        if self.thread_safe:
            return self._spanned(method, self._optimistic, fn, args)
        return self._spanned(method, fn, *args)

    def write(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Invoke ``method`` under exclusive access: every mutation, and
        the diagnostics that must not share the shard (``explain_trace``
        attaches a tracer to the pools, whose span stack would race
        concurrent readers)."""
        fn = getattr(self.warehouse, method)
        if self.thread_safe:
            return self._spanned(method, self._bracketed, fn, args)
        return self._spanned(method, fn, *args)

    def call_async(self, method: str, *args: Any) -> "Future":
        """:meth:`write` behind the fan-out interface.  There is no second
        thread of control in-process, so the work runs here and the
        future comes back already settled."""
        future: Future = Future()
        try:
            future.set_result(self.write(method, args))
        except Exception as exc:  # noqa: BLE001 — delivered by .result()
            future.set_exception(exc)
        return future

    def probe(self, name: str, part: KeyRange, interval: Interval) -> Any:
        """Phase one of a latch-free read of the result-cache entry
        ``name``: :data:`MISS`, or a zero-argument callable that
        completes it.

        The seqlock word is captured first — odd means a write is
        mid-bracket, so ``write_epoch`` cannot be trusted — and the entry
        is only ``peek``-ed (no counters, no recency).  The returned
        callable pays the real ``lookup`` and re-validates the word:
        unchanged means no write landed between reading ``write_epoch``
        and reading the entry, so an open-present entry is current (Sela &
        Petrank's validated aggregate read) and a closed one always was.
        """
        warehouse = self.warehouse
        cache = warehouse.result_cache
        if cache is None:
            return MISS
        epoch = self.epoch
        started = epoch.read_begin()
        if started % 2:
            return MISS
        write_epoch = warehouse.write_epoch
        key = ResultCache.key(name, part, interval)
        if not cache.peek(key, write_epoch):
            return MISS

        def finish() -> Any:
            hit = cache.lookup(key, write_epoch)
            if hit is None or not epoch.read_validate(started):
                return MISS
            return hit[0]
        return finish

    def attempt(self, method: str, args: Tuple[Any, ...]) -> Any:
        """``method`` run once on the calling thread with no lock held:
        its answer, or :data:`MISS` when the seqlock cannot vouch for it
        (a write mid-bracket at capture, or one that landed during the
        traversal).  Never sleeps and never waits for the shard lock —
        what a MISS costs is the caller's decision."""
        return self._spanned(method, self._attempt,
                             getattr(self.warehouse, method), args)

    @property
    def now(self) -> int:
        """The most recent time this shard has seen."""
        return self.warehouse.now

    @property
    def dead(self) -> bool:
        """True once the warehouse is closed."""
        return self.warehouse.closed

    def close(self) -> None:
        """Close the warehouse (idempotent)."""
        self.warehouse.close()

    def publish_metrics(self, registry) -> None:
        """This shard's rows: lock contention (wired on first call, live
        from then on), the write epoch, and the optimistic-read counters.

        ``repro_shard_write_epoch{shard=N}`` is the cache-validation
        epoch every update bumps — the baseline the MVCC counters diff
        against.
        """
        labels = {"shard": str(self.sid)}
        if not self._lock_published:
            self._lock_published = True
            self.lock.attach_metrics(registry, labels)
        registry.gauge(
            "repro_shard_write_epoch",
            "per-shard write epoch (bumped once per update or commit "
            "group)", labels).set(self.warehouse.write_epoch)
        for name, value in self.stats.as_dict().items():
            registry.gauge(f"repro_mvcc_reads_{name}",
                           f"MVCC reader counter: {name}", {}).set(value)

    # -- the protocols behind it -------------------------------------------------------

    def _spanned(self, method: str, fn, *args: Any) -> Any:
        """Run one shard call; when the request is sampled, append its
        ``shard.<method>`` span record.

        A tracer is *not* attached here — the warehouse is shared across
        reader threads and a tracer's span stack would race — so
        in-thread traces carry per-shard-call timing, not page-level
        children (single-threaded workers do carry them).
        """
        ctx = current_context()
        if ctx is None or not ctx.sampled:
            return fn(*args)
        cpu_started = time.process_time()
        try:
            return fn(*args)
        finally:
            ctx.add_record(shard_record(
                f"shard.{method}", self.sid,
                time.process_time() - cpu_started, ctx, backend="thread"))

    def _bracketed(self, fn, args) -> Any:
        with self.lock.write_locked():
            # Seqlock bracket: odd while the trees mutate, even once the
            # write (or batch) is fully applied.
            self.epoch.begin_write()
            try:
                return fn(*args)
            finally:
                self.epoch.end_write()

    def _attempt(self, fn, args) -> Any:
        """One read with **no lock held**, validated by the shard epoch —
        the seqlock protocol, in this one place.

        Capture the seqlock word (odd: a write is mid-bracket, so
        :data:`MISS` at once), traverse, validate: unchanged-and-even
        means the traversal saw one consistent version and its answer is
        exactly what the read lock would have produced.  Two subtleties:

        * cache stores made during the traversal are parked thread-
          locally and committed only after validation — a torn read must
          never publish into a shared cache (closed entries are pinned
          forever);
        * an exception with the epoch *unchanged* is deterministic (a
          genuine :class:`~repro.errors.QueryError`, say) and re-raised
          — only epoch-changed exceptions (a
          :class:`~repro.errors.ConcurrentAccessError` from a buffered
          load's window, say) are conflicts, answered :data:`MISS`.
        """
        epoch = self.epoch
        started = epoch.read_begin()
        if started % 2:
            return MISS
        begin_deferred_stores()
        try:
            result = fn(*args)
        except Exception:
            discard_deferred_stores()
            if epoch.read_validate(started):
                raise  # deterministic failure, not a torn read
            return MISS
        if epoch.read_validate(started):
            commit_deferred_stores()
            self.stats.note_optimistic()
            return result
        discard_deferred_stores()
        return MISS

    def _optimistic(self, fn, args) -> Any:
        """:meth:`_attempt` until it validates: conflicts retry (bounded,
        yielding the GIL briefly so the in-flight writer can finish its
        bracket) and finally fall back to the read lock, so a write
        storm cannot starve a reader forever."""
        stats = self.stats
        retries = 0
        try:
            for attempt in range(self.read_retries + 1):
                if attempt:
                    retries += 1
                    stats.note_retry()
                    time.sleep(0 if attempt < 3 else 0.0002)
                result = self._attempt(fn, args)
                if result is not MISS:
                    return result
            # Retry budget exhausted: take the read lock (blocks behind
            # the writer, guarantees progress).
            stats.note_fallback()
            ctx = current_context()
            if ctx is not None:
                ctx.mvcc_fallbacks += 1
            with self.lock.read_locked():
                return fn(*args)
        finally:
            if retries:
                ctx = current_context()
                if ctx is not None:
                    ctx.mvcc_retries += retries


class ShardRouter:
    """Routing and exact scatter-gather over key-range partitions.

    Built from a key space, a :class:`Topology` and a ``{sid: handle}``
    map by one of the three constructions; everything a caller can ask
    of a sharded warehouse is implemented here, once, against the handle
    surface described in the module docstring.

    Arguments cross a handle as plain model dataclasses
    (:class:`KeyRange`, :class:`Interval`) plus :class:`Aggregate`
    descriptors; worker handles serialize descriptors by name (their
    ``combine`` lambdas never cross a process boundary).
    """

    def __init__(self, key_space: Tuple[int, int], topology: Topology,
                 handles: Dict[int, Any]) -> None:
        self.key_space = key_space
        self.aggregates = _ShardedAggregates(self)
        self._topology = topology
        self._handles = handles
        #: Writers shared / topology swaps exclusive (see module docs).
        self._topology_lock = ReadWriteLock()
        #: Serializes checkpoints against topology changes (a checkpoint
        #: truncates the WAL a split would still be shipping from).
        self._admin_lock = threading.Lock()
        self._closed = False

    # -- routing -----------------------------------------------------------------------

    @property
    def boundaries(self) -> List[int]:
        """Current partition boundaries (a snapshot; splits change it)."""
        return self._topology.boundaries

    @property
    def shard_count(self) -> int:
        return len(self._topology.entries)

    def shard_ids(self) -> List[int]:
        """Current shard ids, in key order — dense positions only on a
        static table (splits mint ids, merges retire them)."""
        return [sid for sid, _lo, _hi in self._topology.entries]

    def shard_index(self, key: int) -> int:
        """The id of the shard owning ``key``; raises on out-of-domain
        keys."""
        lo, hi = self.key_space
        if not lo <= key < hi:
            raise ShardRoutingError(
                f"key {key} outside key space [{lo}, {hi})"
            )
        topo = self._topology
        return topo.entries[bisect_right(topo.boundaries, key) - 1][0]

    def parts_for(self, key_range: KeyRange) -> List[Tuple[int, KeyRange]]:
        """``(shard id, clipped key range)`` pairs the range touches.

        Ranges beyond the key space clip silently (those keys hold no
        tuples), so queries never fail on routing — only updates do.
        """
        parts: List[Tuple[int, KeyRange]] = []
        low, high = key_range.low, key_range.high
        for sid, lo, hi in self._topology.entries:
            lo, hi = max(lo, low), min(hi, high)
            if lo < hi:
                parts.append((sid, KeyRange(lo, hi)))
        return parts

    def handle(self, sid: int) -> Any:
        """The handle serving shard ``sid``."""
        handle = self._handles.get(sid)
        if handle is None:
            raise ShardRedirectError(
                f"shard group {sid} was retired by a topology change; "
                "re-route against the current topology and retry")
        return handle

    def _on(self, sid: int, call, *args: Any) -> Any:
        """One handle call; under a request context its wall time (lock
        waits and RPC included) is attributed to the shard.  Handles add
        their own span record when the request is sampled."""
        ctx = current_context()
        if ctx is None:
            return call(*args)
        started = time.perf_counter()
        try:
            return call(*args)
        finally:
            ctx.note_shard(sid, time.perf_counter() - started)

    def _read(self, sid: int, method: str, *args: Any) -> Any:
        return self._on(sid, self.handle(sid).read, method, args)

    def _exclusive(self, sid: int, method: str, *args: Any) -> Any:
        return self._on(sid, self.handle(sid).write, method, args)

    # -- update API --------------------------------------------------------------------

    def _routed_write(self, key: int, method: str, *args: Any) -> Any:
        """Route one DML statement under the topology read lock.

        Holding the lock shared from routing through acknowledgement is
        what makes a topology swap (exclusive) a true barrier: a write
        either lands wholly before the swap (and a split ships it to the
        child) or routes against the new topology.
        """
        with self._topology_lock.read_locked():
            return self._exclusive(self.shard_index(key), method, *args)

    def insert(self, key: int, value: float, t: int) -> None:
        """Insert a tuple alive from ``t`` into the owning shard."""
        self._routed_write(key, "insert", key, value, t)

    def delete(self, key: int, t: int) -> float:
        """Logically delete the alive tuple with ``key`` at ``t``."""
        return self._routed_write(key, "delete", key, t)

    def update(self, key: int, value: float, t: int) -> None:
        """Replace the alive tuple's value at ``t`` (one shard, atomic
        under that shard's exclusive access)."""
        self._routed_write(key, "update", key, value, t)

    def apply_shard_batch(self, sid: int,
                          ops: Sequence[Tuple]) -> List[Tuple[str, Any]]:
        """Apply one commit group's ops, re-routing each by key (see
        :meth:`repro.core.warehouse.TemporalWarehouse.apply_batch`).

        ``sid`` is the routing hint the server computed at *enqueue*
        time; a split or merge may have moved keys since, so every op is
        re-routed under the topology read lock (the same fencing as
        :meth:`_routed_write`).  Ops are partitioned per shard with their
        original positions, each partition is applied as one
        ``apply_batch`` in one exclusive acquisition (order within a
        partition matches arrival order, so per-key ordering is
        preserved), and the per-op results are reassembled in the
        original order.  On a static table the partition is the whole
        group and the hint was already right.
        """
        del sid  # routing hint only — re-resolved per op below
        with self._topology_lock.read_locked():
            by_sid: Dict[int, List[Tuple[int, Any]]] = {}
            for pos, op in enumerate(ops):
                by_sid.setdefault(self.shard_index(op[1]), []).append(
                    (pos, op))
            results: List[Any] = [None] * len(ops)
            for owner in sorted(by_sid):
                entries = by_sid[owner]
                applied = self._exclusive(
                    owner, "apply_batch", [op for _pos, op in entries])
                for (pos, _op), res in zip(entries, applied):
                    results[pos] = res
            return results

    def load_events(self, events: Sequence[Any],
                    batch_size: int = DEFAULT_BATCH_SIZE) -> IngestReport:
        """Bulk-apply a chronologically sorted update batch, shard-wise.

        Events are ``(op, key, value, time)`` tuples or any objects with
        those attributes (see :func:`repro.core.ingest.coerce_events`).
        The batch is partitioned by shard key range and each partition is
        driven through the shard's :class:`~repro.core.ingest.BatchLoader`
        — a per-shard subsequence of a sorted stream is itself sorted, so
        partitioning preserves the loader's chronological contract.
        Each shard warehouse picks the ingest path for the part it
        receives (buffer-tree windows from
        :data:`~repro.core.ingest.BUFFERED_MIN_EVENTS` events up;
        byte-identical answers either way).
        Every partition is handed to its shard before any answer is
        awaited, so worker shards load concurrently; the whole fan-out
        runs under the topology read lock — the drain barrier that fences
        splits away from buffered-ingest windows.  Returns the merged
        :class:`IngestReport`.
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
        with self._topology_lock.read_locked():
            partitions: Dict[int, List[Any]] = {}
            for event in coerced:
                partitions.setdefault(self.shard_index(event.key),
                                      []).append(event)
            pending = [
                (sid, self._on(sid, self.handle(sid).call_async,
                               "load_events", part, batch_size))
                for sid, part in sorted(partitions.items())
            ]
            merged = IngestReport()
            failure: Optional[BaseException] = None
            for sid, future in pending:
                try:
                    report = self._on(sid, future.result)
                except Exception as exc:  # noqa: BLE001 — await them all
                    failure = failure or exc
                    continue
                merged.events += report.events
                merged.inserts += report.inserts
                merged.deletes += report.deletes
                merged.batches += report.batches
                merged.flushed_pages += report.flushed_pages
                merged.buffered_events += report.buffered_events
        if failure is not None:
            raise failure
        return merged

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
                self._read(i, "aggregate", part, interval, aggregate)
                for i, part in parts
            ]
            extrema = [x for x in extrema if x is not None]
            if not extrema:
                return None
            return min(extrema) if aggregate.name == MIN.name else max(extrema)
        if aggregate.name not in (SUM.name, COUNT.name):
            raise QueryError(f"unknown aggregate {aggregate.name!r}")
        return sum((self._read(i, "aggregate", part, interval, aggregate)
                    for i, part in parts), 0.0)

    def aggregate_all(self, key_range: KeyRange,
                      interval: Interval) -> RTAResult:
        """SUM, COUNT and AVG gathered from per-shard totals."""
        return self._gather_all(
            self._read(i, "aggregate_all", part, interval)
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
              aggregate: Aggregate,
              parts: Optional[List[Tuple[int, KeyRange]]] = None) -> Any:
        """The rectangle's answer if it can be had *right now* from
        cache entries alone, else :data:`MISS`.  ``parts`` is the
        caller's own ``parts_for(key_range)`` when it has use for the
        split itself (the server counts a read against every shard it
        touches); the range is not resolved a second time then.

        A contract for callers that must not block (the server's event
        loop): O(parts) dictionary work, no traversal, no wait on a lock
        a writer can hold for long, and the value is byte-identical to
        what :meth:`aggregate` would return at this instant.  SUM, COUNT
        and AVG gather the per-part
        :data:`~repro.core.warehouse.RTA_ENTRY` partials — one entry per
        rectangle, whichever of the three stored it; everything else
        (MIN/MAX, no cache, a shard whose cache lives in a worker
        process) is a :data:`MISS`.  Every part is probed
        (peek only) before any is looked up, so a partial hit leaves
        hit/miss counters and LRU recency exactly as the pooled path will
        find them; the gather below is the code :meth:`aggregate` /
        :meth:`aggregate_all` run, so the answer is byte-identical.
        """
        if aggregate.name not in (SUM.name, COUNT.name, AVG.name):
            return MISS
        looks = []
        if parts is None:
            parts = self.parts_for(key_range)
        for sid, part in parts:
            handle = self._handles.get(sid)
            look = MISS if handle is None else handle.probe(RTA_ENTRY, part,
                                                            interval)
            if look is MISS:
                return MISS
            looks.append(look)
        partials = []
        for look in looks:
            partial = look()
            if partial is MISS:
                return MISS
            partials.append(partial)
        return self._additive(partials, aggregate)

    def attempt(self, key_range: KeyRange, interval: Interval,
                aggregate: Aggregate,
                parts: Optional[List[Tuple[int, KeyRange]]] = None) -> Any:
        """What :meth:`probe` widens to when the cache cannot answer:
        :data:`MISS` unless the rectangle is SUM/COUNT/AVG and every part
        lives on an in-thread :class:`LocalShard`, else a zero-argument
        callable that computes it on the calling thread.

        The callable runs each part's ``aggregate_all`` as one
        :meth:`LocalShard.attempt` — Equation (1), two pair descents,
        ``O(log_b n)`` pages each by Theorem 1, so bounded whatever the
        rectangle — and gathers exactly as :meth:`probe` does, so the
        answer is byte-identical to :meth:`aggregate`'s.  The first part
        that cannot be vouched for now makes the whole answer
        :data:`MISS` (parts already read keep their validated cache
        stores).  Nothing here sleeps, takes a shard lock or crosses a
        pipe; the only wait is a buffer-pool call.
        """
        if aggregate.name not in (SUM.name, COUNT.name, AVG.name):
            return MISS
        if parts is None:
            parts = self.parts_for(key_range)
        handles = [(sid, self._handles.get(sid), part) for sid, part in parts]
        if not all(isinstance(handle, LocalShard) for _, handle, _ in handles):
            return MISS

        def run() -> Any:
            partials = []
            for sid, handle, part in handles:
                partial = self._on(sid, handle.attempt, "aggregate_all",
                                   (part, interval))
                if partial is MISS:
                    return MISS
                partials.append(partial)
            return self._additive(partials, aggregate)
        return run

    def _additive(self, partials: List[RTAResult],
                  aggregate: Aggregate) -> Optional[float]:
        """SUM, COUNT or AVG of per-part :class:`RTAResult` partials,
        added as :meth:`aggregate` / :meth:`aggregate_all` add them."""
        if aggregate.name == AVG.name:
            return self._gather_all(partials).avg
        return sum((partial.of(aggregate) for partial in partials), 0.0)

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
            out.extend(self._read(i, "snapshot", part, t))
        return out

    def tuples_in(self, key_range: KeyRange,
                  interval: Interval) -> List[TemporalTuple]:
        """Every logical tuple whose key and lifespan hit the rectangle."""
        out: List[TemporalTuple] = []
        for i, part in self.parts_for(key_range):
            out.extend(self._read(i, "tuples_in", part, interval))
        return out

    def history(self, key: int) -> List[TemporalTuple]:
        """All versions a key ever had (routes to the owning shard)."""
        return self._read(self.shard_index(key), "history", key)

    # -- EXPLAIN and observability -----------------------------------------------------

    def explain(self, key_range: KeyRange, interval: Interval,
                aggregate: Aggregate = SUM) -> List[ShardPlan]:
        """Each intersecting shard's plan and estimates for the rectangle."""
        return [
            ShardPlan(shard=i, key_range=part,
                      plan=self._read(i, "explain", part, interval,
                                      aggregate))
            for i, part in self.parts_for(key_range)
        ]

    def explain_trace(self, key_range: KeyRange, interval: Interval,
                      aggregate: Aggregate = SUM) -> List[Dict[str, Any]]:
        """Per-shard EXPLAIN with span trees.

        Each intersecting shard traces the query where its warehouse
        lives (:meth:`~repro.core.warehouse.TemporalWarehouse.explain_trace`)
        and hands back schema-valid JSONL records, never live
        :class:`~repro.obs.tracer.Span` objects.  Rows carry ``shard``,
        ``key_range``, ``plan``, ``result``, ``record``, ``cache`` on
        every backend, so the slow-query log works identically under
        all of them.  Tracing attaches to the shard's pools, which is
        only safe with no concurrent readers — hence exclusive access,
        making this a diagnostics path, not a hot one.
        """
        return [
            dict(self._exclusive(sid, "explain_trace", part, interval,
                                 aggregate), shard=sid, key_range=part)
            for sid, part in self.parts_for(key_range)
        ]

    def publish_metrics(self, registry) -> None:
        """Publish every handle's rows into ``registry`` (called once at
        server start and again per scrape; must survive a dead shard)."""
        for handle in list(self._handles.values()):
            handle.publish_metrics(registry)

    # -- read-path caching -------------------------------------------------------------

    def enable_cache(self, config: Optional[CacheConfig] = None) -> None:
        """Attach the layered read-path cache on every shard.

        Per-shard caches keep epoch bookkeeping local to the single writer
        of each shard; a write to one shard never invalidates another
        shard's cached aggregates.  Cache bookkeeping takes locks only
        where the shard is shared by threads (worker processes are
        single-threaded, and only primaries cache).
        """
        config = config or CacheConfig()
        for sid, handle in list(self._handles.items()):
            self._exclusive(sid, "enable_cache", config, handle.thread_safe)

    def disable_cache(self) -> None:
        """Detach every shard's read-path cache."""
        for sid in list(self._handles):
            self._exclusive(sid, "disable_cache")

    def cache_snapshot(self) -> CacheSnapshot:
        """Cache counters merged across all shards (one row per layer)."""
        snapshot = CacheSnapshot()
        for sid in self.shard_ids():
            snapshot.merge(self._read(sid, "cache_snapshot"))
        return snapshot

    # -- maintenance -------------------------------------------------------------------

    def page_count(self) -> int:
        """Total pages across all shards."""
        return sum(self._read(sid, "page_count")
                   for sid in self.shard_ids())

    def check_invariants(self) -> None:
        """Audit every shard."""
        for sid in self.shard_ids():
            self._read(sid, "check_invariants")

    def checkpoint(self) -> None:
        """Checkpoint every live shard (each under its exclusive access),
        concurrently where shards are processes.

        Serialized against topology changes: truncation must not race a
        split still shipping the WAL tail.  Dead shards are skipped
        rather than failing the drain: their WALs already hold every
        acknowledged update, so recovery covers them.
        """
        with self._admin_lock:
            futures = []
            for handle in list(self._handles.values()):
                if handle.dead:
                    continue
                try:
                    futures.append(handle.call_async("checkpoint"))
                except ShardDownError:
                    continue
            for future in futures:
                try:
                    future.result()
                except ShardDownError:
                    continue

    @property
    def now(self) -> int:
        """The most recent time any shard has seen."""
        return max((handle.now for handle in list(self._handles.values())),
                   default=0)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Close every shard (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._handles.values()):
            handle.close()

    # -- admin verbs (the base router supports none) -----------------------------------

    def respawn(self, sid: int) -> int:
        """Replace a dead shard worker (worker backends only)."""
        raise ProtocolError('op "respawn" requires the process executor')

    def _cluster_only(self, op: str) -> Any:
        raise ProtocolError(f'op "{op}" requires the cluster backend '
                            '(--replicas or --autosplit)')

    def topology_info(self) -> Dict[str, Any]:
        """The routing table plus worker liveness (elastic cluster only)."""
        return self._cluster_only("topology")

    def split(self, gid: int, at: Optional[int] = None) -> Dict[str, Any]:
        """Split a shard group's range online (elastic cluster only)."""
        return self._cluster_only("split")

    def merge(self, gid_a: int, gid_b: int) -> Dict[str, Any]:
        """Merge two adjacent shard groups (elastic cluster only)."""
        return self._cluster_only("merge")

    def promote(self, gid: int,
                replica: Optional[int] = None) -> Dict[str, Any]:
        """Promote a replica to writer (elastic cluster only)."""
        return self._cluster_only("promote")


class ShardedWarehouse(ShardRouter):
    """N key-range-partitioned warehouses answering as one, in-process:
    the router over one :class:`LocalShard` per range.

    Parameters
    ----------
    shards:
        Number of partitions (boundaries split the key space evenly).
    key_space:
        Half-open key domain, divided among the shards.
    thread_safe:
        Serve through the optimistic read / locked write protocol of
        :class:`LocalShard` and enable buffer-pool locking; required
        whenever more than one thread touches the instance.
    page_capacity / buffer_pages / strong_factor / start_time:
        Forwarded to every underlying :class:`TemporalWarehouse`.
    """

    def __init__(self, shards: int = 4,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 page_capacity: int = 32, buffer_pages: int = 64,
                 strong_factor: float = 0.9, start_time: int = 1,
                 thread_safe: bool = False) -> None:
        boundaries = split_evenly(key_space, shards)
        self._adopt(key_space, boundaries, thread_safe, [
            TemporalWarehouse(key_space=(lo, hi),
                              page_capacity=page_capacity,
                              buffer_pages=buffer_pages,
                              strong_factor=strong_factor,
                              start_time=start_time)
            for lo, hi in zip(boundaries, boundaries[1:])
        ])

    def _adopt(self, key_space: Tuple[int, int], boundaries: List[int],
               thread_safe: bool,
               warehouses: List[TemporalWarehouse]) -> None:
        #: The shard warehouses, in key order (``shards[sid]``).
        self.shards = warehouses
        self.thread_safe = thread_safe
        self.mvcc_stats = MVCCStats()
        ShardRouter.__init__(
            self, key_space,
            Topology(1, [(sid, lo, hi) for sid, (lo, hi) in enumerate(
                zip(boundaries, boundaries[1:]))]),
            {sid: LocalShard(sid, warehouse, thread_safe, self.mvcc_stats)
             for sid, warehouse in enumerate(warehouses)})

    @classmethod
    def open_durable(cls, directory: str, shards: int = 4,
                     key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                     page_capacity: int = 32, buffer_pages: int = 64,
                     strong_factor: float = 0.9, start_time: int = 1,
                     thread_safe: bool = False,
                     fsync: bool = False) -> "ShardedWarehouse":
        """Open (or create) a crash-recoverable sharded warehouse.

        The shard layout (count and boundaries) is frozen in
        ``layout.json`` on first open; reopens ignore the ``shards`` and
        ``key_space`` arguments in favor of the stored layout, because
        re-partitioning on-disk shards is not supported.
        """
        import os

        key_space, boundaries = load_or_freeze_layout(directory, shards,
                                                      key_space)
        warehouse = cls.__new__(cls)
        warehouse._adopt(key_space, boundaries, thread_safe, [
            TemporalWarehouse.open_durable(
                os.path.join(directory, shard_dir_name(i)),
                buffer_pages=buffer_pages, fsync=fsync,
                key_space=(lo, hi), page_capacity=page_capacity,
                strong_factor=strong_factor, start_time=start_time)
            for i, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]))
        ])
        return warehouse


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
    boundaries = split_evenly(key_space, shards)
    with open(layout_path, "w") as fh:
        json.dump({"key_space": list(key_space),
                   "boundaries": boundaries}, fh)
    return key_space, boundaries
