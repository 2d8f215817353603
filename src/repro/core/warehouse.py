"""TemporalWarehouse: the complete system a deployment would run.

The paper's structures divide the labor: the **MVBT** stores the tuples
themselves (snapshot retrieval, key history, rectangle retrieval — and the
only way to compute non-additive aggregates like MIN/MAX, the paper's open
problem (ii)); the **two-MVSBT RTA index** answers additive aggregates in
logarithmic I/Os.  :class:`TemporalWarehouse` maintains both over one
update stream and picks each aggregate query's plan by rule, with no I/O:

* additive aggregates (SUM/COUNT/AVG) run Equation (1) on the MVSBT
  pair — six point queries as three pair descents, ~``3 x height`` page
  reads whatever the rectangle's size or the aggregate (Theorem 1);
* MIN/MAX have no known logarithmic index (open problem (ii)) and take
  the MVBT retrieve-then-aggregate plan at ~``log_b n + s/b`` reads for
  ``s`` qualifying tuples.

Retrieval would be cheaper for an additive aggregate over a near-empty
rectangle (the crossover the Figure 4b reproduction measures), but only
an estimate of ``s`` cheaper than Equation (1) itself could exploit
that, and the only exact one the index offers *is* Equation (1).
``explain()`` is therefore a diagnostic: it reports the plan the read
path runs plus both cost estimates, paying one reduction that no query
pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.aggregates import Aggregate, AVG, COUNT, MAX, MIN, SUM
from repro.core.batch import BatchScanStats
from repro.core.cache import CacheConfig, CacheSnapshot, ResultCache
from repro.core.model import Interval, KeyRange, MAX_KEY, TemporalTuple
from repro.core.rta import RTAIndex, RTAResult
from repro.errors import QueryError, StorageError
from repro.mvbt.config import MVBTConfig
from repro.mvbt.tree import MVBT
from repro.mvsbt.tree import MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

#: The plan of every aggregate the warehouse answers: additive ones run
#: Equation (1) on the MVSBTs, order aggregates retrieve from the MVBT.
_PLAN = {SUM.name: "mvsbt", COUNT.name: "mvsbt", AVG.name: "mvsbt",
         MIN.name: "mvbt-scan", MAX.name: "mvbt-scan"}
#: Result-cache key name of a rectangle's :class:`RTAResult` — the ONE
#: entry SUM, COUNT, AVG and :meth:`TemporalWarehouse.aggregate_all` share
#: (MIN/MAX answers are keyed by their own names).
RTA_ENTRY = "mvsbt"


def _plan_of(aggregate: Aggregate) -> str:
    """The plan an aggregate's reads run, chosen without any I/O."""
    plan = _PLAN.get(aggregate.name)
    if plan is None:
        raise QueryError(f"unknown aggregate {aggregate.name!r}")
    return plan


def _entry_of(aggregate: Optional[Aggregate]) -> str:
    """Result-cache key name of the entry that answers ``aggregate``
    (``None``: all the additive ones)."""
    if aggregate is None or _PLAN.get(aggregate.name) == "mvsbt":
        return RTA_ENTRY
    return aggregate.name


@dataclass(frozen=True)
class QueryPlan:
    """What :meth:`TemporalWarehouse.explain` reports for one query."""

    plan: str                  # "mvsbt" or "mvbt-scan"
    reason: str
    mvsbt_cost_reads: float
    mvbt_cost_reads: float
    estimated_tuples: float

    def __str__(self) -> str:
        return (
            f"{self.plan} ({self.reason}; est. mvsbt={self.mvsbt_cost_reads:.0f} "
            f"reads, mvbt-scan={self.mvbt_cost_reads:.0f} reads, "
            f"~{self.estimated_tuples:.0f} tuples)"
        )


class TemporalWarehouse:
    """A transaction-time warehouse with tuple storage and fast aggregates.

    Parameters
    ----------
    key_space:
        Half-open key domain of the tuples.
    page_capacity:
        Records per page for both structures (the paper derives ~200-250
        from 4 KB pages; tests use small values).
    buffer_pages:
        LRU buffer frames per structure.
    strong_factor:
        MVSBT strong factor (paper: 0.9).
    """

    #: Observability hook set by :func:`repro.obs.attach_metrics`; a class
    #: attribute (not set in ``__init__``) because :meth:`load` builds
    #: warehouses via ``cls.__new__``.
    metrics = None
    #: Optional :class:`repro.core.cache.ResultCache` set by
    #: :meth:`enable_cache`; class attribute for the same ``cls.__new__``
    #: reason, and so the uncached query path pays one ``is None`` check.
    result_cache = None
    #: Write epoch open-present cache entries validate against; bumped by
    #: every update.  Class attribute so loaded warehouses start at 0.
    write_epoch = 0
    #: Accounting for :meth:`aggregate_batch` sweeps; class attribute so
    #: ``cls.__new__``-built warehouses degrade to unaccounted batches.
    batch_stats = None
    #: Records applied so far by the :meth:`load_events` in flight on a
    #: durable warehouse (one WAL append per load); ``None`` otherwise.
    _load_log = None

    def __init__(self, key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 page_capacity: int = 32, buffer_pages: int = 64,
                 strong_factor: float = 0.9, start_time: int = 1) -> None:
        self.batch_stats = BatchScanStats()
        self.key_space = key_space
        self.tuples = MVBT(
            BufferPool(InMemoryDiskManager(), capacity=buffer_pages),
            MVBTConfig(capacity=page_capacity),
            key_space=key_space, start_time=start_time,
        )
        self.aggregates = RTAIndex(
            BufferPool(InMemoryDiskManager(), capacity=buffer_pages),
            MVSBTConfig(capacity=page_capacity,
                        strong_factor=strong_factor),
            key_space=key_space, start_time=start_time,
        )
        self._page_capacity = page_capacity
        self._wal = None
        self._durable_dir: Optional[str] = None

    # -- update API --------------------------------------------------------------------

    def insert(self, key: int, value: float, t: int) -> None:
        """Insert a tuple alive from ``t`` (1TNF and time order enforced)."""
        self.tuples.insert(key, value, t)
        self.aggregates.insert(key, value, t)
        self.write_epoch += 1
        if self._wal is not None:
            self._log("insert", key, value, t)

    def delete(self, key: int, t: int) -> float:
        """Logically delete the alive tuple with ``key`` at ``t``."""
        value = self.tuples.delete(key, t)
        self.aggregates.delete(key, t)
        self.write_epoch += 1
        if self._wal is not None:
            self._log("delete", key, value, t)
        return value

    def _log(self, op: str, key: int, value: float, t: int) -> None:
        """One applied update to the WAL — or, inside :meth:`load_events`,
        to the batch the load appends when it returns."""
        if self._load_log is not None:
            self._load_log.append((op, key, value, t))
        else:
            self._wal.append(op, key, value, t)

    def update(self, key: int, value: float, t: int) -> None:
        """Replace the alive tuple's value at ``t``."""
        self.delete(key, t)
        self.insert(key, value, t)

    def apply_batch(self, ops) -> List[Tuple[str, object]]:
        """Apply one commit group's ops with a single WAL flush.

        ``ops`` is a sequence of ``("insert", key, value, t)`` /
        ``("delete", key, t)`` tuples in acknowledgement order.  Each op
        is applied with the same per-op semantics as :meth:`insert` /
        :meth:`delete` — a rejected op (chronology violation, duplicate
        key, missing key) does not abort the rest of the group, exactly
        as N serial calls would behave.  The batch then hits the WAL via
        one :meth:`~repro.storage.wal.WriteAheadLog.append_batch` call
        (one write + flush + fsync for the whole group — the group-commit
        amortization) and bumps :attr:`write_epoch` once, publishing the
        group to epoch-validated readers as a single version step.

        Returns one ``("ok", result)`` or ``("err", payload)`` pair per
        op, where ``result`` is ``None`` for inserts and the deleted
        value for deletes, and ``payload`` is an
        :func:`repro.errors.error_payload` dict (picklable, so batches
        survive the procpool RPC boundary).
        """
        from repro.errors import error_payload

        results: List[Tuple[str, object]] = []
        logged: List[Tuple[str, int, float, int]] = []
        applied = False
        for op in ops:
            kind = op[0]
            try:
                if kind == "insert":
                    _, key, value, t = op
                    self.tuples.insert(key, value, t)
                    self.aggregates.insert(key, value, t)
                    logged.append(("insert", key, value, t))
                    results.append(("ok", None))
                elif kind == "delete":
                    _, key, t = op
                    value = self.tuples.delete(key, t)
                    self.aggregates.delete(key, t)
                    logged.append(("delete", key, value, t))
                    results.append(("ok", value))
                else:
                    raise QueryError(f"unknown batch op {kind!r}")
                applied = True
            except Exception as exc:  # per-op isolation, like serial calls
                results.append(("err", error_payload(exc)))
        if applied:
            self.write_epoch += 1
            if self._wal is not None:
                self._wal.append_batch(logged)
        return results

    def load_events(self, events, batch_size: Optional[int] = None):
        """Bulk-apply a chronological event batch in coalesced chunks.

        Thin wrapper over :class:`~repro.core.ingest.BatchLoader`: the
        same insert kernel runs as for event-at-a-time ingestion, with
        write-backs coalesced inside the pools' batch windows, and a
        batch of :data:`~repro.core.ingest.BUFFERED_MIN_EVENTS` events or
        more goes through buffer-tree ingest windows on the aggregate
        MVSBTs (the tuple MVBT takes each event directly) — query
        *answers* are byte-identical on both sides of the constant, page
        I/O schedules are not.  The applied events reach the WAL in one
        :meth:`~repro.storage.wal.WriteAheadLog.append_batch` (same
        records, same order as ``insert``/``delete`` would log; if the
        load raises midway the applied prefix is still logged first, so
        memory and log never diverge) — a crash mid-load recovers by WAL
        replay.  Returns the :class:`~repro.core.ingest.IngestReport`.
        """
        from repro.core.ingest import (BatchLoader, DEFAULT_BATCH_SIZE,
                                       coerce_events)

        loader = BatchLoader(self, batch_size or DEFAULT_BATCH_SIZE)
        events = coerce_events(events)
        if self._wal is None:
            return loader.load(events)
        self._load_log = applied = []
        try:
            return loader.load(events)
        finally:
            self._load_log = None
            self._wal.append_batch(applied)

    def load_events_packed(self, blob: bytes,
                           batch_size: Optional[int] = None):
        """:meth:`load_events` over a :func:`~repro.storage.serialization.pack_events`
        blob — the procpool LOAD RPC ships one packed columnar buffer per
        shard instead of a list of per-event tuples."""
        from repro.storage.serialization import unpack_events

        return self.load_events(unpack_events(blob), batch_size)

    def __reduce__(self):
        # Warehouses hold buffer pools, file handles and lambdas; shipping
        # one through pickle (e.g. into a spawn-started worker) would be a
        # silent deep copy at best.  Procpool workers rebuild from a
        # ShardSpec instead.
        raise TypeError(
            "TemporalWarehouse is not picklable; pass a construction spec "
            "(see repro.serve.procpool.ShardSpec) and rebuild in the worker"
        )

    @property
    def now(self) -> int:
        return self.tuples.now

    # -- EXPLAIN -----------------------------------------------------------------------

    def explain(self, key_range: KeyRange, interval: Interval,
                aggregate: Aggregate = SUM) -> QueryPlan:
        """The plan :meth:`aggregate` runs, with both cost estimates.

        The plan follows from the aggregate alone (:func:`_plan_of`); the
        exact tuple count and the two read estimates are information
        for the reader and cost one reduction to produce.
        """
        plan = _plan_of(aggregate)
        tuples = self._estimate_tuples(key_range, interval)
        if plan == "mvsbt":
            reason = ("additive: Equation (1), three pair descents, "
                      "cost independent of rectangle size")
            mvsbt_cost = self._mvsbt_cost()
        else:
            reason = f"{aggregate.name} is not additive (open problem ii)"
            mvsbt_cost = float("inf")
        return QueryPlan(plan=plan, reason=reason,
                         mvsbt_cost_reads=mvsbt_cost,
                         mvbt_cost_reads=self._scan_cost(tuples),
                         estimated_tuples=tuples)

    def explain_trace(self, key_range: KeyRange, interval: Interval,
                      aggregate: Aggregate = SUM) -> dict:
        """:func:`repro.obs.explain_query` as a picklable payload —
        ``plan``, ``result``, the span tree as a JSONL ``record``, the
        ``cache`` outcome — so a shard router gets the same row from a
        warehouse in its own process and from one behind a pipe."""
        from repro.obs.explain import explain_query
        from repro.obs.tracefile import span_to_record

        report = explain_query(self, key_range, interval, aggregate)
        return {"plan": report.plan, "result": report.result,
                "record": span_to_record(report.root),
                "cache": report.cache}

    def _mvsbt_cost(self) -> float:
        # Three pair descents (between one and two root-to-leaf paths
        # each: the two keys share pages until they part), whichever
        # additive aggregate is asked; +1 for the root* lookup.
        return 3 * (self.aggregates.trees()[0].height() + 1)

    def _estimate_tuples(self, key_range: KeyRange,
                         interval: Interval) -> float:
        # One reduction, exact.
        return float(self.aggregates.count(key_range, interval))

    def _scan_cost(self, tuples: float) -> float:
        height = self.tuples.pool.fetch(self.tuples.root_id).meta["level"] + 1
        # log_b n descent plus one page per b/2 retrieved tuples (alive
        # entries fill at least half a page under the weak condition).
        return height + 1 + tuples / max(self._page_capacity // 2, 1)

    # -- query API ---------------------------------------------------------------------

    def aggregate(self, key_range: KeyRange, interval: Interval,
                  aggregate: Aggregate = SUM) -> Optional[float]:
        """The aggregate of one key-time rectangle.

        SUM/COUNT/AVG run Equation (1) on the MVSBTs and nothing else;
        MIN/MAX retrieve from the MVBT and return ``None`` on empty
        rectangles, as does AVG.

        With a result cache attached (:meth:`enable_cache`) repeated
        rectangles are answered without descending — SUM, COUNT and AVG
        of one rectangle from one entry, its :class:`RTAResult`.  The
        write epoch and the closed/open classification are both captured
        *before* execution, so an update racing the query can only make
        the stored entry read as stale — never serve a stale value.
        """
        answer = self._answer(key_range, interval, aggregate)
        return answer.of(aggregate) if type(answer) is RTAResult else answer

    def aggregate_all(self, key_range: KeyRange,
                      interval: Interval) -> RTAResult:
        """SUM, COUNT and AVG in one result (always the MVSBT plan) — the
        cache entry :meth:`aggregate` reads its additive answers from."""
        return self._answer(key_range, interval, None)

    def _answer(self, key_range: KeyRange, interval: Interval,
                aggregate: Optional[Aggregate]):
        """What the result cache holds for a query: the rectangle's
        :class:`RTAResult` for an additive aggregate (or ``None``, all of
        them), the answer itself for MIN/MAX."""
        plan = _plan_of(aggregate) if aggregate is not None else "mvsbt"
        name = aggregate.name if aggregate is not None else "ALL"
        tracer = self.aggregates.pool.tracer
        metrics = self.metrics
        cache = self.result_cache
        if cache is not None:
            epoch = self.write_epoch
            closed = interval.end <= self.now
            cache_key = ResultCache.key(_entry_of(aggregate), key_range,
                                        interval)
            hit = cache.lookup(cache_key, epoch)
            if hit is not None:
                if tracer.enabled:
                    with tracer.span("warehouse.aggregate", aggregate=name,
                                     key_range=str(key_range),
                                     interval=str(interval)) as span:
                        span.attrs["cache"] = "hit"
                if metrics is not None:
                    metrics.result_cache_hits.inc()
                return hit[0]
        if metrics is not None:
            ios_before = (self.tuples.pool.stats.total_ios
                          + self.aggregates.pool.stats.total_ios)
        if tracer.enabled:
            with tracer.span("warehouse.aggregate", aggregate=name,
                             key_range=str(key_range),
                             interval=str(interval)) as span:
                if cache is not None:
                    span.attrs["cache"] = "miss"
                span.attrs["plan"] = plan
                with tracer.span("warehouse.execute", plan=plan):
                    result = self._execute(plan, key_range, interval,
                                           aggregate)
        else:
            result = self._execute(plan, key_range, interval, aggregate)
        if cache is not None:
            cache.store(cache_key, result, closed=closed, epoch=epoch)
            if metrics is not None:
                metrics.result_cache_misses.inc()
        if metrics is not None:
            ios_after = (self.tuples.pool.stats.total_ios
                         + self.aggregates.pool.stats.total_ios)
            metrics.query_ios.observe(ios_after - ios_before)
            if plan == "mvsbt":
                metrics.plan_mvsbt.inc()
            else:
                metrics.plan_mvbt_scan.inc()
        return result

    def _execute(self, plan: str, key_range: KeyRange, interval: Interval,
                 aggregate: Optional[Aggregate]):
        """One uncached :meth:`_answer`."""
        if plan == "mvsbt":
            return self.aggregates.aggregate_all(key_range, interval)
        return self.run_plan(plan, key_range, interval, aggregate)

    def aggregate_batch(self, queries) -> List[object]:
        """Answer many aggregate queries through one batched read sweep.

        ``queries`` is a sequence of ``(key_range, interval, aggregate)``
        triples.  Returns a list with one entry per query holding exactly
        what :meth:`aggregate` would return for it — or, when that query
        would raise, the raised exception instance itself: a failing
        query fails only itself, and callers re-raise or report per
        query.  An aggregate of ``None`` requests :meth:`aggregate_all`
        semantics for that slot (an :class:`~repro.core.rta.RTAResult`
        — the sharded router's AVG gather needs the per-shard partials).

        Two passes: every distinct cache entry is looked up once —
        queries that read the same entry (the same triple, or
        SUM/COUNT/AVG of one rectangle) share its outcome, a hit or one
        executed slot whose answer fans out; then every
        additive survivor is answered by one
        :meth:`~repro.core.rta.RTAIndex.query_batch` sweep — identical
        boundary probes answered once — while MIN/MAX retrieve
        individually.  Cache stores happen after the sweep against the
        per-query epoch captured before execution (parking in the
        calling thread's deferred-store section when one is open).
        Answers are byte-identical to serial :meth:`aggregate` calls.
        """
        queries = list(queries)
        n = len(queries)
        results: List[object] = [None] * n
        errored = [False] * n
        metrics = self.metrics
        cache = self.result_cache
        stats = self.batch_stats
        if stats is not None:
            stats.note_batch(n)
        if metrics is not None:
            ios_before = (self.tuples.pool.stats.total_ios
                          + self.aggregates.pool.stats.total_ios)

        # Pass 1: one cache lookup per distinct entry (epoch and
        # closedness captured before any execution, as the serial path
        # does).  Read-hot batches repeat whole queries, and SUM/COUNT/AVG
        # of one rectangle read one entry, so every later position that
        # reads the same entry shares its first position's outcome — the
        # hit, or the executed slot's answer or error — and counts no
        # lookup of its own.
        pending: List[int] = []
        meta: dict = {}
        dup_of: dict = {}
        rep_for: dict = {}
        for qi, (key_range, interval, aggregate) in enumerate(queries):
            entry = (key_range, interval, _entry_of(aggregate))
            rep = rep_for.setdefault(entry, qi)
            if rep != qi:
                dup_of[qi] = rep
                continue
            if cache is not None:
                epoch = self.write_epoch
                closed = interval.end <= self.now
                cache_key = ResultCache.key(entry[2], key_range, interval)
                hit = cache.lookup(cache_key, epoch)
                if hit is not None:
                    results[qi] = hit[0]
                    if metrics is not None:
                        metrics.result_cache_hits.inc()
                    continue
                meta[qi] = (cache_key, epoch, closed)
            pending.append(qi)

        # Pass 2: validate, then execute.  Additive queries (and
        # aggregate_all slots, additive by construction) join the one
        # sweep, each for its rectangle's RTAResult; MIN/MAX retrieve.
        plans: dict = {}
        sweep: List[int] = []
        for qi in pending:
            key_range, interval, aggregate = queries[qi]
            try:
                plan = _plan_of(aggregate) if aggregate is not None \
                    else "mvsbt"
                self.aggregates._validate_rectangle(key_range, interval)
                if plan == "mvsbt":
                    sweep.append(qi)
                else:
                    results[qi] = self.run_plan(plan, key_range, interval,
                                                aggregate)
            except Exception as exc:
                results[qi] = exc
                errored[qi] = True
                continue
            plans[qi] = plan

        # One instant-ordered sweep answers every additive query; a
        # sweep-level failure degrades to per-query execution so one bad
        # query cannot take the batch down.
        if sweep:
            try:
                answers = self.aggregates.query_batch(
                    [queries[qi][:2] + (None,) for qi in sweep], stats)
                for qi, value in zip(sweep, answers):
                    results[qi] = value
            except Exception:
                for qi in sweep:
                    try:
                        results[qi] = self.aggregates.aggregate_all(
                            *queries[qi][:2])
                    except Exception as exc:
                        results[qi] = exc
                        errored[qi] = True

        for qi, rep in dup_of.items():
            results[qi] = results[rep]
            errored[qi] = errored[rep]

        if cache is not None:
            for qi in pending:
                if errored[qi] or qi not in meta:
                    continue
                cache_key, epoch, closed = meta[qi]
                cache.store(cache_key, results[qi], closed=closed,
                            epoch=epoch)
                if metrics is not None:
                    metrics.result_cache_misses.inc()
        if metrics is not None:
            ios_after = (self.tuples.pool.stats.total_ios
                         + self.aggregates.pool.stats.total_ios)
            metrics.query_ios.observe(ios_after - ios_before)
            for qi, plan in plans.items():
                if errored[qi]:
                    continue
                if plan == "mvsbt":
                    metrics.plan_mvsbt.inc()
                else:
                    metrics.plan_mvbt_scan.inc()
        # Every slot holds its cache entry's value; an additive query
        # reads its share of the rectangle's RTAResult.
        for qi, (_kr, _iv, aggregate) in enumerate(queries):
            if aggregate is not None and type(results[qi]) is RTAResult:
                results[qi] = results[qi].of(aggregate)
        return results

    def run_plan(self, plan: str, key_range: KeyRange, interval: Interval,
                 aggregate: Aggregate = SUM) -> Optional[float]:
        """Execute one aggregate query by the named plan.

        Split out of :meth:`aggregate` so EXPLAIN-style callers (see
        :func:`repro.obs.explain_query`) can report the plan and execute
        it under their own spans.  ``plan`` is :attr:`QueryPlan.plan`.
        """
        if plan == "mvsbt":
            return self.aggregates.query(key_range, interval, aggregate)
        self.aggregates._validate_rectangle(key_range, interval)
        rows = self.tuples.rectangle_query(
            key_range.low, key_range.high, interval.start, interval.end
        )
        if not rows:
            return None
        acc = aggregate.identity
        for (_k, _s, _e, value) in rows:
            acc = aggregate.combine(acc, aggregate.lift(value))
        return acc

    def sum(self, key_range: KeyRange, interval: Interval) -> float:
        """SUM via Equation (1)."""
        return self.aggregate(key_range, interval, SUM)

    def count(self, key_range: KeyRange, interval: Interval) -> float:
        """COUNT via Equation (1)."""
        return self.aggregate(key_range, interval, COUNT)

    def avg(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """AVG via Equation (1); ``None`` on an empty rectangle."""
        return self.aggregate(key_range, interval, AVG)

    def min(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """MIN via retrieval (open problem (ii)); ``None`` when empty."""
        return self.aggregate(key_range, interval, MIN)

    def max(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """MAX via retrieval (open problem (ii)); ``None`` when empty."""
        return self.aggregate(key_range, interval, MAX)

    # -- read-path caching -------------------------------------------------------------

    def enable_cache(self, config: Optional[CacheConfig] = None,
                     thread_safe: bool = False) -> None:
        """Attach the layered read-path cache (see :mod:`repro.core.cache`).

        Installs the warehouse-level result cache and a point-query memo
        on every MVSBT behind the RTA index.  ``thread_safe`` guards the
        result cache's bookkeeping for multi-reader servers (the memo's
        table needs no lock).  Idempotent; call
        :meth:`disable_cache` to restore the uncached read path.
        """
        config = config or CacheConfig()
        if config.result_entries:
            self.result_cache = ResultCache(config.result_entries,
                                            thread_safe)
        if config.memo_entries:
            self.aggregates.enable_memo(config.memo_entries)

    def disable_cache(self) -> None:
        """Detach every read-path cache layer."""
        self.result_cache = None
        self.aggregates.disable_memo()

    def cache_probe(self, key_range: KeyRange, interval: Interval,
                    aggregate: Aggregate = SUM) -> Optional[str]:
        """Would the rectangle be answered from the result cache right now?

        ``"hit"``/``"miss"`` with a cache attached, ``None`` without one.
        Non-mutating (no stats, no recency, no stale drops) — EXPLAIN uses
        it to report the cache outcome without perturbing the cache.
        """
        cache = self.result_cache
        if cache is None:
            return None
        hit = cache.peek(ResultCache.key(_entry_of(aggregate), key_range,
                                         interval), self.write_epoch)
        return "hit" if hit else "miss"

    def batch_snapshot(self) -> dict:
        """Counters of :attr:`batch_stats` (empty when unaccounted)."""
        return self.batch_stats.as_dict() if self.batch_stats is not None \
            else {}

    def cache_snapshot(self) -> CacheSnapshot:
        """Current counters of every cache layer behind this warehouse."""
        snapshot = CacheSnapshot()
        if self.result_cache is not None:
            snapshot.result = self.result_cache.stats.as_dict()
        memo = self.aggregates.memo_stats()
        if memo is not None:
            snapshot.memo = memo
        return snapshot

    # -- tuple retrieval ---------------------------------------------------------------

    def snapshot(self, key_range: KeyRange, t: int) -> List[Tuple[int, float]]:
        """(key, value) pairs alive at instant ``t`` with keys in range."""
        return self.tuples.range_snapshot(key_range.low, key_range.high, t)

    def tuples_in(self, key_range: KeyRange,
                  interval: Interval) -> List[TemporalTuple]:
        """Every logical tuple whose key and lifespan hit the rectangle."""
        rows = self.tuples.rectangle_query(
            key_range.low, key_range.high, interval.start, interval.end
        )
        return [TemporalTuple(k, Interval(s, e), v) for (k, s, e, v) in rows]

    def history(self, key: int) -> List[TemporalTuple]:
        """All versions a key ever had, in time order."""
        rows = self.tuples.rectangle_query(key, key + 1, 1,
                                           max(self.now + 1, 2))
        return [TemporalTuple(k, Interval(s, e), v) for (k, s, e, v) in rows]

    # -- maintenance -------------------------------------------------------------------

    def page_count(self) -> int:
        """Total pages across the tuple store and the aggregate trees."""
        return (self.tuples.pool.disk.live_page_count
                + self.aggregates.pool.disk.live_page_count)

    def check_invariants(self) -> None:
        """Audit both underlying structures."""
        self.tuples.check_invariants()
        self.aggregates.check_invariants()

    def save(self, directory: str) -> None:
        """Checkpoint both structures under ``directory``."""
        import os

        self.tuples.save(os.path.join(directory, "tuples"))
        self.aggregates.save(os.path.join(directory, "aggregates"))

    @classmethod
    def load(cls, directory: str, buffer_pages: int = 64,
             page_capacity: int = 32) -> "TemporalWarehouse":
        """Reopen a warehouse from :meth:`save` output."""
        import os

        warehouse = cls.__new__(cls)
        warehouse.tuples = MVBT.load(os.path.join(directory, "tuples"),
                                     buffer_pages)
        warehouse.aggregates = RTAIndex.load(
            os.path.join(directory, "aggregates"), buffer_pages)
        warehouse.key_space = warehouse.tuples.key_space
        warehouse._page_capacity = warehouse.tuples.config.capacity
        warehouse._wal = None
        warehouse._durable_dir = None
        warehouse.batch_stats = BatchScanStats()
        return warehouse

    # -- durability (checkpoint + write-ahead log) ---------------------------------------

    #: Pointer file naming the live checkpoint directory (atomic flip).
    _CURRENT_FILE = "CURRENT"
    #: Per-checkpoint metadata blob (the WAL sequence it covers).
    _CKPT_META_FILE = "warehouse.json"

    @classmethod
    def current_checkpoint(cls, directory: str
                           ) -> "Tuple[Optional[str], int]":
        """Resolve the live checkpoint of a durable directory.

        Returns ``(checkpoint_dir, covered_seq)`` for the checkpoint the
        ``CURRENT`` pointer names, or ``(None, 0)`` when the directory has
        never been checkpointed.  Read-only: safe to call from a process
        that does not own the directory (WAL-shipping replicas and shard
        cloning use it to rebase onto the owner's latest state).
        """
        import json
        import os

        current_path = os.path.join(directory, cls._CURRENT_FILE)
        if not os.path.exists(current_path):
            return None, 0
        with open(current_path) as fh:
            name = fh.read().strip()
        candidate = os.path.join(directory, "checkpoints", name)
        if not os.path.exists(os.path.join(candidate, "tuples")):
            return None, 0
        last_seq = 0
        meta_path = os.path.join(candidate, cls._CKPT_META_FILE)
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                last_seq = int(json.load(fh)["wal_last_seq"])
        return candidate, last_seq

    @classmethod
    def open_durable(cls, directory: str, buffer_pages: int = 64,
                     fsync: bool = False,
                     **fresh_kwargs) -> "TemporalWarehouse":
        """Open (or create) a crash-recoverable warehouse at ``directory``.

        If a checkpoint exists it is loaded and the update-log tail is
        replayed (checkpoint + WAL recovery); otherwise a fresh warehouse
        is created with ``fresh_kwargs``.  Every subsequent update is
        logged before acknowledgement; call :meth:`checkpoint`
        periodically to bound the log.

        Recovery is idempotent under any crash point: the live checkpoint
        is named by an atomically-replaced ``CURRENT`` pointer and records
        the WAL sequence it covers, so a kill -9 between "checkpoint
        written" and "log truncated" replays only the genuinely
        uncovered tail (no double-applied updates), while a kill -9
        mid-checkpoint leaves ``CURRENT`` pointing at the previous good
        checkpoint.
        """
        import os

        from repro.storage.wal import WriteAheadLog

        wal = WriteAheadLog(directory, fsync=fsync)
        try:
            checkpoint_dir, last_seq = cls.current_checkpoint(directory)
            if checkpoint_dir is None:
                # Legacy layout: a bare in-place "checkpoint" directory
                # whose WAL was truncated at checkpoint time (replay-all
                # is sound).
                legacy = os.path.join(directory, "checkpoint")
                if os.path.exists(os.path.join(legacy, "tuples")):
                    checkpoint_dir = legacy
            if checkpoint_dir is not None:
                warehouse = cls.load(checkpoint_dir, buffer_pages)
            else:
                warehouse = cls(**fresh_kwargs)
            wal.bump_seq(last_seq)
            # Replay is a load like any other (coalesced write-backs); the
            # log is attached only afterwards, so nothing is logged twice.
            warehouse.load_events(wal.replay(after_seq=last_seq))
        except BaseException:
            wal.close()     # a refused checkpoint must not leak the log
            raise
        warehouse._wal = wal
        warehouse._durable_dir = directory
        return warehouse

    def checkpoint(self) -> None:
        """Persist the current state and truncate the update log.

        Ordering is the crash-safety contract: (1) write the new
        checkpoint and its covered-WAL-sequence metadata under a fresh
        directory, (2) atomically repoint ``CURRENT`` at it, (3) truncate
        the log, (4) garbage-collect superseded checkpoints.  A crash
        before (2) keeps the old checkpoint live; one between (2) and (3)
        is healed by the sequence-skip in :meth:`open_durable`.
        """
        import json
        import os
        import shutil

        if self._wal is None or self._durable_dir is None:
            raise StorageError(
                "checkpoint() requires a warehouse opened via open_durable"
            )
        covered_seq = self._wal.last_seq
        name = f"ckpt-{covered_seq:020d}"
        checkpoints = os.path.join(self._durable_dir, "checkpoints")
        target = os.path.join(checkpoints, name)
        shutil.rmtree(target, ignore_errors=True)  # stale partial attempt
        self.save(target)
        with open(os.path.join(target, self._CKPT_META_FILE), "w") as fh:
            json.dump({"wal_last_seq": covered_seq}, fh)
        current = os.path.join(self._durable_dir, self._CURRENT_FILE)
        tmp = current + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(name + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, current)
        self._wal.truncate()
        for stale in os.listdir(checkpoints):
            if stale != name:
                shutil.rmtree(os.path.join(checkpoints, stale),
                              ignore_errors=True)
        legacy = os.path.join(self._durable_dir, "checkpoint")
        if os.path.exists(os.path.join(legacy, "tuples")):
            shutil.rmtree(legacy, ignore_errors=True)

    def wal_seq(self) -> int:
        """Highest WAL sequence number this warehouse has appended.

        ``0`` for in-memory warehouses.  The cluster router uses this as
        the acked-write watermark when deciding whether a WAL-shipped
        replica is caught up enough to serve a read-your-writes query.
        """
        return self._wal.last_seq if self._wal is not None else 0

    def attach_wal(self, directory: str, fsync: bool = False,
                   last_seq: int = 0) -> None:
        """Attach an update log, making this warehouse the durable writer
        for ``directory``.

        This is the promotion step of replica failover: a WAL-shipping
        replica that has applied the dead primary's log through
        ``last_seq`` attaches the same directory and continues the
        sequence numbering, so subsequent recoveries replay one unbroken
        history.  No-op protection is the caller's job — attaching two
        live writers to one directory corrupts the log.
        """
        from repro.storage.wal import WriteAheadLog

        wal = WriteAheadLog(directory, fsync=fsync)
        wal.bump_seq(last_seq)
        self._wal = wal
        self._durable_dir = directory
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run on a durable warehouse."""
        return self._closed

    #: Class attribute default so warehouses built via ``cls.__new__``
    #: (:meth:`load`) report ``closed`` correctly without extra wiring.
    _closed = False

    def close(self) -> None:
        """Release the update log handle, if any.  Idempotent."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._closed = True
