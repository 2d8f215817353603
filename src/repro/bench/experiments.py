"""One function per paper figure plus the ablations (DESIGN.md E1-E5, A1-A6).

Every function is pure — settings and scale in, :class:`Table` out — so the
``benchmarks/`` suites can assert result *shapes* and the harness can write
the rendered tables for EXPERIMENTS.md.  Absolute numbers differ from the
paper (Python, scaled page size and record counts); the reproduced claims
are the relative ones: who wins, how trends move, roughly by what factor.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.baselines.aggregation_tree import AggregationTree
from repro.baselines.balanced_tree import BalancedTemporalAggregate
from repro.bench.harness import (
    BenchSettings,
    build_heap_baseline,
    build_mvbt_baseline,
    build_rta_index,
    fresh_pool,
    measure_queries,
    measure_updates,
    space_pages,
)
from repro.core.rta import RTAIndex
from repro.mvsbt.tree import MVSBTConfig
from repro.bench.reporting import Table
from repro.core.aggregates import MIN, SUM
from repro.core.model import NOW
from repro.sbtree.tree import SBTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.stats import CpuTimer
from repro.workloads.datasets import PAPER_FAMILIES, paper_config
from repro.workloads.generator import (
    DatasetConfig,
    UpdateEvent,
    generate_dataset,
)
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)

DEFAULT_SCALE = 0.005
DEFAULT_QUERY_COUNT = 100


def _dataset(family: str, scale: float, seed: Optional[int] = None):
    if seed is None:
        return generate_dataset(paper_config(family, scale=scale))
    return generate_dataset(paper_config(family, scale=scale, seed=seed))


def _rectangles(dataset, qrs: float, shape: float = 1.0,
                count: int = DEFAULT_QUERY_COUNT, seed: int = 4001):
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=qrs, shape=shape, count=count,
        key_space=dataset.config.key_space,
        time_space=dataset.config.time_space, seed=seed,
    ))


# ---------------------------------------------------------------------------
# E1 — Figure 4a: space versus number of updates
# ---------------------------------------------------------------------------

def fig4a_space(settings: Optional[BenchSettings] = None,
                scale: float = DEFAULT_SCALE, points: int = 5,
                family: str = "uniform-long",
                seed: Optional[int] = None) -> Table:
    """Space of the MVBT versus the two-MVSBT approach as the warehouse grows.

    Paper result: the two-MVSBT approach costs a small constant factor more
    (about 2.5x there) — the ``O(log_b K)`` space overhead of Theorem 2.
    """
    settings = settings or BenchSettings()
    dataset = _dataset(family, scale, seed)
    table = Table(
        title=f"Figure 4a — space (pages), {family}, scale={scale}",
        columns=("updates", "mvbt_pages", "two_mvsbt_pages", "ratio"),
    )
    rta = build_rta_index(settings, dataset)
    mvbt = build_mvbt_baseline(settings, dataset)
    checkpoints = [
        len(dataset.events) * (i + 1) // points for i in range(points)
    ]
    done = 0
    for checkpoint in checkpoints:
        batch = dataset.events[done:checkpoint]
        measure_updates(rta, batch, settings)
        measure_updates(mvbt, batch, settings)
        done = checkpoint
        mvbt_pages = space_pages(mvbt)
        rta_pages = space_pages(rta)
        table.add(updates=done, mvbt_pages=mvbt_pages,
                  two_mvsbt_pages=rta_pages,
                  ratio=rta_pages / mvbt_pages)
    table.note("paper reports ~2.5x for the two-MVSBT approach")
    return table


# ---------------------------------------------------------------------------
# E2 — Figure 4b: query speedup versus query-rectangle size
# ---------------------------------------------------------------------------

def fig4b_speedup(settings: Optional[BenchSettings] = None,
                  scale: float = DEFAULT_SCALE,
                  qrs_points: Sequence[float] = (0.0001, 0.001, 0.01,
                                                 0.1, 0.5, 1.0),
                  shape: float = 1.0, count: int = DEFAULT_QUERY_COUNT,
                  family: str = "uniform-long",
                  seed: Optional[int] = None) -> Table:
    """Estimated query time of both approaches across QRS values.

    Paper result: the two-MVSBT cost is independent of QRS while the MVBT
    plan degrades with it — thousands of times slower at QRS=100%.
    """
    settings = settings or BenchSettings()
    dataset = _dataset(family, scale, seed)
    rta = build_rta_index(settings, dataset)
    mvbt = build_mvbt_baseline(settings, dataset)
    measure_updates(rta, dataset.events, settings)
    measure_updates(mvbt, dataset.events, settings)
    table = Table(
        title=(f"Figure 4b — RTA query cost vs QRS, {family}, "
               f"scale={scale}, shape R/I={shape}, {count} queries/point"),
        columns=("qrs", "mvsbt_est_s", "mvbt_est_s", "speedup",
                 "mvsbt_ios", "mvbt_ios"),
    )
    for qrs in qrs_points:
        rects = _rectangles(dataset, qrs, shape, count)
        rta_cost = measure_queries(rta, rects, settings, SUM)
        mvbt_cost = measure_queries(mvbt, rects, settings, SUM)
        table.add(
            qrs=qrs,
            mvsbt_est_s=rta_cost.estimated_s,
            mvbt_est_s=mvbt_cost.estimated_s,
            speedup=mvbt_cost.estimated_s / max(rta_cost.estimated_s, 1e-9),
            mvsbt_ios=rta_cost.ios,
            mvbt_ios=mvbt_cost.ios,
        )
    table.note("paper: speedup grows with QRS, >5000x at QRS=100%")
    return table


# ---------------------------------------------------------------------------
# E3 — Figure 4c: query cost versus buffer size (QRS = 1%)
# ---------------------------------------------------------------------------

def fig4c_buffer(settings: Optional[BenchSettings] = None,
                 scale: float = DEFAULT_SCALE,
                 buffer_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
                 qrs: float = 0.01, count: int = DEFAULT_QUERY_COUNT,
                 family: str = "uniform-long",
                 seed: Optional[int] = None) -> Table:
    """Query cost of both approaches across LRU buffer sizes at QRS=1%.

    Paper result: the two-MVSBT approach is clearly superior at every
    buffer size (its working set is tiny, so it barely benefits from more
    buffer, while the MVBT plan needs a large buffer to amortize rescans).
    Buffer sizes that would hold most of the MVBT outright are dropped —
    at the paper's scale the structures dwarf the buffer, and a buffer
    larger than the competitor voids the sweep's premise.
    """
    settings = settings or BenchSettings()
    dataset = _dataset(family, scale, seed)
    rta = build_rta_index(settings, dataset)
    mvbt = build_mvbt_baseline(settings, dataset)
    measure_updates(rta, dataset.events, settings)
    measure_updates(mvbt, dataset.events, settings)
    mvbt_space = space_pages(mvbt)
    kept = [size for size in buffer_sizes if size <= mvbt_space // 2]
    buffer_sizes = kept or list(buffer_sizes)[:3]
    rects = _rectangles(dataset, qrs, count=count)
    table = Table(
        title=(f"Figure 4c — query cost vs buffer pages, QRS={qrs:.0%}, "
               f"{family}, scale={scale}"),
        columns=("buffer_pages", "mvsbt_est_s", "mvbt_est_s", "speedup"),
    )
    for pages in buffer_sizes:
        for competitor in (rta, mvbt):
            competitor.pool.capacity = pages
        rta_cost = measure_queries(rta, rects, settings, SUM)
        mvbt_cost = measure_queries(mvbt, rects, settings, SUM)
        table.add(
            buffer_pages=pages,
            mvsbt_est_s=rta_cost.estimated_s,
            mvbt_est_s=mvbt_cost.estimated_s,
            speedup=mvbt_cost.estimated_s / max(rta_cost.estimated_s, 1e-9),
        )
    table.note("paper: two-MVSBT superior across all buffer sizes")
    return table


# ---------------------------------------------------------------------------
# E4 — update cost (the paper's "similar behavior" remark)
# ---------------------------------------------------------------------------

def update_cost(settings: Optional[BenchSettings] = None,
                scale: float = DEFAULT_SCALE,
                family: str = "uniform-long",
                seed: Optional[int] = None) -> Table:
    """Amortized per-update cost of both approaches.

    Paper: update time behaves like the space comparison — the two-MVSBT
    approach pays a small constant factor over the single MVBT.
    """
    settings = settings or BenchSettings()
    dataset = _dataset(family, scale, seed)
    table = Table(
        title=f"Update cost per operation, {family}, scale={scale}",
        columns=("method", "ops", "ios_per_op", "est_ms_per_op", "cpu_ms_per_op"),
    )
    for name, build in (("two-MVSBT", build_rta_index),
                        ("MVBT", build_mvbt_baseline)):
        index = build(settings, dataset)
        cost = measure_updates(index, dataset.events, settings)
        table.add(
            method=name, ops=cost.operations,
            ios_per_op=cost.per_operation_ios,
            est_ms_per_op=cost.per_operation_s * 1000,
            cpu_ms_per_op=cost.cpu_s / cost.operations * 1000,
        )
    return table


# ---------------------------------------------------------------------------
# E5 — dataset families (uniform/normal x long/short)
# ---------------------------------------------------------------------------

def dataset_families(settings: Optional[BenchSettings] = None,
                     scale: float = DEFAULT_SCALE, qrs: float = 0.01,
                     count: int = DEFAULT_QUERY_COUNT,
                     seed: Optional[int] = None) -> Table:
    """Space and query cost across the paper's four dataset families.

    Figure 4 shows the uniform/long-lived family; this sweep adds the
    other three.  Short-lived families have high temporal selectivity, so
    the naive plan is competitive at small QRS there — the ``speedup_full``
    column (QRS=100%) shows the MVSBT advantage that always materializes
    once rectangles grow.
    """
    settings = settings or BenchSettings()
    table = Table(
        title=f"Dataset families, scale={scale}, QRS={qrs:.0%} and 100%",
        columns=("family", "mvbt_pages", "two_mvsbt_pages", "space_ratio",
                 "mvsbt_query_s", "mvbt_query_s", "speedup",
                 "speedup_full"),
    )
    for family in PAPER_FAMILIES:
        dataset = _dataset(family, scale, seed)
        rta = build_rta_index(settings, dataset)
        mvbt = build_mvbt_baseline(settings, dataset)
        measure_updates(rta, dataset.events, settings)
        measure_updates(mvbt, dataset.events, settings)
        rects = _rectangles(dataset, qrs, count=count)
        rta_cost = measure_queries(rta, rects, settings, SUM)
        mvbt_cost = measure_queries(mvbt, rects, settings, SUM)
        full = _rectangles(dataset, 1.0, count=count)
        rta_full = measure_queries(rta, full, settings, SUM)
        mvbt_full = measure_queries(mvbt, full, settings, SUM)
        table.add(
            family=family,
            mvbt_pages=space_pages(mvbt),
            two_mvsbt_pages=space_pages(rta),
            space_ratio=space_pages(rta) / space_pages(mvbt),
            mvsbt_query_s=rta_cost.estimated_s,
            mvbt_query_s=mvbt_cost.estimated_s,
            speedup=mvbt_cost.estimated_s / max(rta_cost.estimated_s, 1e-9),
            speedup_full=(mvbt_full.estimated_s
                          / max(rta_full.estimated_s, 1e-9)),
        )
    table.note("short-lived families: fewer tuples per rectangle, so the "
               "MVBT is competitive at small QRS and loses at large QRS")
    return table


# ---------------------------------------------------------------------------
# A1 — strong factor sweep (open problem (i))
# ---------------------------------------------------------------------------

def ablation_strong_factor(settings: Optional[BenchSettings] = None,
                           scale: float = DEFAULT_SCALE,
                           factors: Sequence[float] = (0.3, 0.5, 0.7,
                                                       0.9, 1.0),
                           qrs: float = 0.01,
                           seed: Optional[int] = None) -> Table:
    """Effect of the strong factor ``f`` on space, update and query cost."""
    settings = settings or BenchSettings()
    dataset = _dataset("uniform-long", scale, seed)
    table = Table(
        title=f"Ablation — strong factor f (paper uses 0.9), scale={scale}",
        columns=("f", "pages", "update_ios_per_op", "query_est_s"),
    )
    rects = _rectangles(dataset, qrs)
    for factor in factors:
        rta = build_rta_index(settings, dataset, strong_factor=factor)
        update = measure_updates(rta, dataset.events, settings)
        query = measure_queries(rta, rects, settings, SUM)
        table.add(f=factor, pages=space_pages(rta),
                  update_ios_per_op=update.per_operation_ios,
                  query_est_s=query.estimated_s)
    return table


# ---------------------------------------------------------------------------
# A2 — logical splitting (section 4.2.1) on/off
# ---------------------------------------------------------------------------

def ablation_logical_split(settings: Optional[BenchSettings] = None,
                           scale: float = DEFAULT_SCALE,
                           qrs: float = 0.01,
                           seed: Optional[int] = None) -> Table:
    """Aggregation-in-a-page versus physically splitting every record."""
    settings = settings or BenchSettings()
    dataset = _dataset("uniform-long", scale, seed)
    table = Table(
        title=f"Ablation — logical splitting (4.2.1), scale={scale}",
        columns=("mode", "pages", "records_created", "update_ios_per_op",
                 "query_est_s"),
    )
    rects = _rectangles(dataset, qrs)
    for mode, overrides in (
        ("logical", {}),
        ("physical", dict(logical_split=False, record_merging=False)),
    ):
        rta = build_rta_index(settings, dataset, **overrides)
        update = measure_updates(rta, dataset.events, settings)
        query = measure_queries(rta, rects, settings, SUM)
        records = sum(
            tree.counters.records_created
            for tree in rta.trees()
        )
        table.add(mode=mode, pages=space_pages(rta),
                  records_created=records,
                  update_ios_per_op=update.per_operation_ios,
                  query_est_s=query.estimated_s)
    table.note("physical mode splits Theta(b) records per insertion")
    return table


# ---------------------------------------------------------------------------
# A3 — record merging (section 4.2.2) on/off
# ---------------------------------------------------------------------------

def ablation_merging(settings: Optional[BenchSettings] = None,
                     scale: float = DEFAULT_SCALE,
                     seed: Optional[int] = None) -> Table:
    """Space effect of record merging."""
    settings = settings or BenchSettings()
    dataset = _dataset("uniform-long", scale, seed)
    table = Table(
        title=f"Ablation — record merging (4.2.2), scale={scale}",
        columns=("merging", "pages", "records_created", "time_merges",
                 "key_merges"),
    )
    for merging in (True, False):
        rta = build_rta_index(settings, dataset, record_merging=merging)
        measure_updates(rta, dataset.events, settings)
        counters = [
            tree.counters
            for tree in rta.trees()
        ]
        table.add(
            merging=merging, pages=space_pages(rta),
            records_created=sum(c.records_created for c in counters),
            time_merges=sum(c.time_merges for c in counters),
            key_merges=sum(c.key_merges for c in counters),
        )
    return table


# ---------------------------------------------------------------------------
# A4 — page disposal (section 4.2.3) on/off under same-instant bursts
# ---------------------------------------------------------------------------

def ablation_disposal(settings: Optional[BenchSettings] = None,
                      scale: float = DEFAULT_SCALE,
                      burst: int = 64,
                      seed: Optional[int] = None) -> Table:
    """Space effect of page disposal when many updates share an instant.

    The update stream's timestamps are quantized into bursts of ``burst``
    consecutive events per instant — the workload the optimization targets.
    """
    settings = settings or BenchSettings()
    # Disposal pays off when many *distinct-key* updates share an instant:
    # a page created and killed within one instant holds nothing any
    # version can see.  Use a key-rich dataset (one record per key) and
    # quantize timestamps so each group of `burst` consecutive events
    # lands on one shared instant (the stream is time-sorted, so
    # group-leader times are non-decreasing and relative event order is
    # untouched).
    base = (paper_config("uniform-long", scale=scale) if seed is None
            else paper_config("uniform-long", scale=scale, seed=seed))
    config = DatasetConfig(
        n_records=base.n_records, n_keys=base.n_records,
        key_space=base.key_space, time_space=base.time_space,
        seed=base.seed,
    )
    dataset = generate_dataset(config)
    bursty = [
        UpdateEvent(event.op, event.key, event.value,
                    dataset.events[(i // burst) * burst].time)
        for i, event in enumerate(dataset.events)
    ]
    table = Table(
        title=(f"Ablation — page disposal (4.2.3), scale={scale}, "
               f"{burst} updates per instant"),
        columns=("disposal", "pages", "disposals"),
    )
    for disposal in (True, False):
        rta = build_rta_index(settings, dataset, page_disposal=disposal)
        for event in bursty:
            tree_insert_stream(rta, event)
        disposals = sum(
            tree.counters.disposals
            for tree in rta.trees()
        )
        table.add(disposal=disposal, pages=space_pages(rta),
                  disposals=disposals)
    return table


def tree_insert_stream(rta, event: UpdateEvent) -> None:
    """Replay one event into an RTA index (insert or delete)."""
    if event.op == "insert":
        rta.insert(event.key, event.value, event.time)
    else:
        rta.delete(event.key, event.time)


# ---------------------------------------------------------------------------
# A5 — Theorem 2 / Corollary 1 bound checks
# ---------------------------------------------------------------------------

def theorem2_bounds(settings: Optional[BenchSettings] = None,
                    scales: Sequence[float] = (0.001, 0.002, 0.005),
                    qrs: float = 0.01,
                    seed: Optional[int] = None) -> Table:
    """Measured costs against the paper's asymptotic bounds.

    Query: ``O(log_b n)`` I/Os.  Update: ``O(log_b K)`` I/Os.  Space:
    ``O((n/b) log_b K)`` pages.  The table reports measured-over-bound
    ratios, which must stay bounded (roughly constant) as ``n`` grows.
    """
    settings = settings or BenchSettings()
    b = settings.mvsbt_capacity
    table = Table(
        title=f"Theorem 2 bounds, b={b}",
        columns=("n", "K", "query_ios_per_q", "log_b_n",
                 "update_ios_per_op", "log_b_K", "pages",
                 "space_bound_pages"),
    )
    for scale in scales:
        dataset = _dataset("uniform-long", scale, seed)
        n = len(dataset.events)
        keys = dataset.unique_keys
        rta = build_rta_index(settings, dataset)
        update = measure_updates(rta, dataset.events, settings)
        rects = _rectangles(dataset, qrs)
        query = measure_queries(rta, rects, settings, SUM)
        table.add(
            n=n, K=keys,
            query_ios_per_q=query.stats.logical_reads / query.operations,
            log_b_n=math.log(max(n, 2), b),
            update_ios_per_op=update.stats.logical_reads / update.operations,
            log_b_K=math.log(max(keys, 2), b),
            pages=space_pages(rta),
            space_bound_pages=(n / b) * math.log(max(keys, 2), b),
        )
    return table


# ---------------------------------------------------------------------------
# A7 — range MIN/MAX, insert-only (toward open problem (ii))
# ---------------------------------------------------------------------------

def minmax_open_problem(settings: Optional[BenchSettings] = None,
                        scale: float = DEFAULT_SCALE,
                        qrs_points: Sequence[float] = (0.01, 0.25, 1.0),
                        count: int = 50,
                        seed: Optional[int] = None) -> Table:
    """Insert-only range-temporal MIN: segment-of-SB-trees index vs the
    retrieval fallbacks (MVBT rectangle query, heap scan).

    The paper leaves range MIN/MAX open; for the insert-only case the
    :class:`~repro.minmax.index.RangeMinMaxIndex` answers in
    polylogarithmic I/Os.  Expected shape: the fallbacks degrade with QRS
    while the index stays flat — the Figure 4b story transplanted to MIN.
    """
    from repro.minmax.index import RangeMinMaxIndex

    settings = settings or BenchSettings()
    config = (paper_config("uniform-long", scale=scale) if seed is None
              else paper_config("uniform-long", scale=scale, seed=seed))
    dataset = generate_dataset(config)
    # Insert-only: replay tuples (with their full validity intervals),
    # which all competitors support.
    index = RangeMinMaxIndex(
        BufferPool(InMemoryDiskManager(), capacity=settings.buffer_pages),
        mode="min", key_space=config.key_space, fanout=8,
        capacity=settings.mvsbt_capacity,
        time_domain=(1, config.time_space[1]),
    )
    mvbt = build_mvbt_baseline(settings, dataset)
    heap = build_heap_baseline(settings, dataset)
    for key, start, end, value in sorted(dataset.tuples,
                                         key=lambda t: t[1]):
        index.insert(key, value, start=start, end=end)
    for event in dataset.events:
        if event.op == "insert":
            mvbt.insert(event.key, event.value, event.time)
            heap.insert(event.key, event.value, event.time)
        else:
            mvbt.delete(event.key, event.time)
            heap.delete(event.key, event.time)

    table = Table(
        title=(f"Range MIN (insert-only), scale={scale}: "
               f"segment-of-SB-trees vs retrieval"),
        columns=("qrs", "index_est_s", "mvbt_est_s", "heap_est_s",
                 "index_ios", "mvbt_ios"),
    )
    model = settings.cost_model
    for qrs in qrs_points:
        rects = _rectangles(dataset, qrs, count=count)

        index.pool.clear()
        before = index.pool.stats.snapshot()
        with CpuTimer() as timer:
            for rect in rects:
                index.query(rect.range, rect.interval)
        index_stats = index.pool.stats.delta(before)
        index_est = model.estimate(index_stats, timer.elapsed)

        mvbt_cost = measure_queries(mvbt, rects, settings, MIN)
        heap_cost = measure_queries(heap, rects, settings, MIN)
        table.add(
            qrs=qrs,
            index_est_s=index_est,
            mvbt_est_s=mvbt_cost.estimated_s,
            heap_est_s=heap_cost.estimated_s,
            index_ios=index_stats.logical_reads,
            mvbt_ios=mvbt_cost.stats.logical_reads,
        )
    table.note("deletions void this index; the general case stays open")
    return table


# ---------------------------------------------------------------------------
# A9 — root* representation: paged B+-tree vs main-memory array
# ---------------------------------------------------------------------------

def rootstar_overhead(settings: Optional[BenchSettings] = None,
                      scale: float = DEFAULT_SCALE,
                      qrs: float = 0.01,
                      count: int = DEFAULT_QUERY_COUNT,
                      seed: Optional[int] = None) -> Table:
    """Query cost with root* on disk versus in memory.

    Theorem 2 charges ``O(log_b n)`` I/Os per point query to locate the
    root in a B+-tree root*; the paper remarks that a main-memory array
    reduces the query to ``O(log_b K)``.  This experiment measures both
    representations on the same workload — the paged mode must cost more,
    by a bounded logarithmic term.
    """
    settings = settings or BenchSettings()
    dataset = _dataset("uniform-long", scale, seed)
    table = Table(
        title=f"root* representation, scale={scale}, QRS={qrs:.0%}",
        columns=("rootstar", "roots", "query_est_s", "query_logical_reads",
                 "pages"),
    )
    rects = _rectangles(dataset, qrs, count=count)
    for paged in (False, True):
        index = RTAIndex(
            fresh_pool(settings),
            MVSBTConfig(capacity=settings.mvsbt_capacity,
                        strong_factor=settings.strong_factor),
            key_space=dataset.config.key_space, paged_roots=paged,
        )
        measure_updates(index, dataset.events, settings)
        cost = measure_queries(index, rects, settings, SUM)
        roots = sum(len(tree.roots) for tree in index.trees())
        table.add(
            rootstar="paged B+-tree" if paged else "in-memory array",
            roots=roots,
            query_est_s=cost.estimated_s,
            query_logical_reads=cost.stats.logical_reads,
            pages=space_pages(index),
        )
    table.note("paper: the in-memory array drops the O(log_b n) term")
    return table


# ---------------------------------------------------------------------------
# A8 — operational mix: interleaved updates and queries
# ---------------------------------------------------------------------------

def operational_mix(settings: Optional[BenchSettings] = None,
                    scale: float = DEFAULT_SCALE,
                    queries_per_1000_updates: Sequence[int] = (1, 10, 100),
                    qrs: float = 0.01,
                    seed: Optional[int] = None) -> Table:
    """End-to-end cost of a live warehouse: updates with periodic queries.

    The figure experiments measure updates and queries separately; a
    deployment pays for both.  The two-MVSBT approach spends more per
    update (it maintains two trees) and far less per query — so the
    winner depends on the query rate.  This sweep locates the crossover.
    """
    settings = settings or BenchSettings()
    dataset = _dataset("uniform-long", scale, seed)
    table = Table(
        title=(f"Operational mix, scale={scale}, QRS={qrs:.0%}: total "
               f"estimated seconds (updates + interleaved queries)"),
        columns=("queries_per_1000_updates", "two_mvsbt_s", "mvbt_s",
                 "winner"),
    )
    for rate in queries_per_1000_updates:
        rects = _rectangles(dataset, qrs,
                            count=max(1, rate * len(dataset.events) // 1000))
        totals = {}
        for name, build in (("two-MVSBT", build_rta_index),
                            ("MVBT", build_mvbt_baseline)):
            index = build(settings, dataset)
            pool = index.pool
            before = pool.stats.snapshot()
            rect_iter = iter(rects)
            period = max(1, 1000 // max(rate, 1))
            with CpuTimer() as timer:
                for i, event in enumerate(dataset.events):
                    if event.op == "insert":
                        index.insert(event.key, event.value, event.time)
                    else:
                        index.delete(event.key, event.time)
                    if i % period == period - 1:
                        rect = next(rect_iter, None)
                        if rect is not None:
                            index.sum(rect.range, rect.interval)
            pool.flush_all()
            totals[name] = settings.cost_model.estimate(
                pool.stats.delta(before), timer.elapsed
            )
        table.add(
            queries_per_1000_updates=rate,
            two_mvsbt_s=totals["two-MVSBT"],
            mvbt_s=totals["MVBT"],
            winner=("two-MVSBT" if totals["two-MVSBT"] <= totals["MVBT"]
                    else "MVBT"),
        )
    table.note("crossover: the MVSBT premium on updates pays off once "
               "queries are frequent enough")
    return table


# ---------------------------------------------------------------------------
# A6 — scalar prior-work context (section 2)
# ---------------------------------------------------------------------------

def scalar_context(settings: Optional[BenchSettings] = None,
                   n_intervals: int = 3000,
                   n_queries: int = 200,
                   seed: Optional[int] = None) -> Table:
    """Scalar temporal aggregation: SB-tree vs [KS95] vs [MLI00] vs scan.

    The disk-based SB-tree is measured in estimated time (I/Os + CPU); the
    main-memory structures in CPU only — reproducing the section 2
    narrative: [KS95] degenerates, [MLI00] is balanced but memory-bound,
    the SB-tree is both balanced and disk-resident.
    """
    settings = settings or BenchSettings()
    domain = (1, 10**6)
    # The LCG multiplies the state, so it must start non-zero.
    state = 13 if seed is None else max(1, seed % (2**31 - 1))
    intervals = []
    for _ in range(n_intervals):
        state = (state * 48271) % (2**31 - 1)
        start = state % (domain[1] - 1000) + 1
        length = state % 5000 + 1
        intervals.append((start, min(start + length, domain[1]),
                          float(state % 100)))
    # Sorted starts: the adversarial pattern for the aggregation tree.
    intervals.sort()
    probes = [domain[0] + i * (domain[1] - domain[0]) // (n_queries + 1)
              for i in range(1, n_queries + 1)]

    table = Table(
        title=(f"Scalar temporal aggregation context, {n_intervals} "
               f"intervals (sorted starts), {n_queries} point queries"),
        columns=("method", "update_s", "query_s", "depth", "disk_based"),
    )

    pool = BufferPool(InMemoryDiskManager(), capacity=settings.buffer_pages)
    sbtree = SBTree(pool, capacity=settings.mvsbt_capacity, domain=domain)
    before = pool.stats.snapshot()
    with CpuTimer() as timer:
        for start, end, value in intervals:
            sbtree.insert(start, end, value)
    pool.flush_all()
    update_s = settings.cost_model.estimate(pool.stats.delta(before),
                                            timer.elapsed)
    pool.clear()
    before = pool.stats.snapshot()
    with CpuTimer() as timer:
        for t in probes:
            sbtree.query(t)
    query_s = settings.cost_model.estimate(pool.stats.delta(before),
                                           timer.elapsed)
    table.add(method="SB-tree [YW01]", update_s=update_s, query_s=query_s,
              depth=sbtree.height, disk_based=True)

    agg_tree = AggregationTree(domain=domain)
    with CpuTimer() as timer:
        for start, end, value in intervals:
            agg_tree.insert(start, end, value)
    update_s = timer.elapsed
    with CpuTimer() as timer:
        for t in probes:
            agg_tree.aggregate(t)
    table.add(method="aggregation tree [KS95]", update_s=update_s,
              query_s=timer.elapsed, depth=agg_tree.depth(),
              disk_based=False)

    balanced = BalancedTemporalAggregate()
    with CpuTimer() as timer:
        for start, end, value in intervals:
            balanced.insert(start, end, value)
    update_s = timer.elapsed
    with CpuTimer() as timer:
        for t in probes:
            balanced.aggregate(t)
    table.add(method="balanced tree [MLI00]", update_s=update_s,
              query_s=timer.elapsed, depth=balanced.depth(),
              disk_based=False)

    table.note("[KS95] depth degenerates under sorted insertions")
    return table
