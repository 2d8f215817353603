"""Metamorphic tests for ingestion (``repro.core.ingest`` and the trees'
one insert kernel).

The contract under test: however a chronological update stream reaches
the trees — one ``insert``/``delete`` at a time, in ``apply_batch`` commit
groups, through :class:`~repro.core.ingest.BatchLoader`, or by WAL replay
after a kill — the result is *observationally identical* to the reference
kernels (Appendix A's transcription for the MVSBT, never-trusted mirrors
for the MVBT; see :func:`tests.oracles.reference_kernels`): bit-identical
page contents, identical tree counters, identical query answers, and
identical I/O counters.  A route may only change CPU cost and write
scheduling.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.harness import (
    BenchSettings,
    build_heap_baseline,
    build_mvbt_baseline,
    build_rta_index,
)
from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.ingest import BatchLoader, batch_replay
from repro.core.model import Interval, KeyRange, Rectangle
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.serialization import encode_page_image
from repro.workloads.datasets import paper_config
from repro.workloads.generator import (
    DatasetConfig,
    UpdateEvent,
    generate_dataset,
)
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)

from tests.oracles import reference_kernels
from tests.mvsbt.test_mvsbt_properties import update_streams
from tests.test_metamorphic import op_streams

SETTINGS = BenchSettings()

BUILDERS = {
    "two-mvsbt": lambda dataset: build_rta_index(SETTINGS, dataset,
                                                 aggregates=(SUM, COUNT)),
    "mvbt": lambda dataset: build_mvbt_baseline(SETTINGS, dataset),
    "heap": lambda dataset: build_heap_baseline(SETTINGS, dataset),
}


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(paper_config("uniform-long", scale=0.001))


@pytest.fixture(scope="module")
def rects(dataset):
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=0.05, count=12, key_space=dataset.config.key_space,
        time_space=dataset.config.time_space, seed=917,
    ))


def replay_sequential(target, events):
    """Event-at-a-time replay through the public update API."""
    for event in events:
        if event.op == "insert":
            target.insert(event.key, event.value, event.time)
        else:
            target.delete(event.key, event.time)


def build_reference(build, events):
    """A target fed event-at-a-time by the reference kernels."""
    reference = build()
    with reference_kernels():
        replay_sequential(reference, events)
    return reference


def dump_pages(pool):
    """Full on-disk image of a pool: {page_id: (kind, record reprs)}."""
    pool.flush_all()
    disk = pool.disk
    return {
        page_id: (disk.read(page_id).kind,
                  [repr(record) for record in disk.read(page_id).records])
        for page_id in sorted(disk.live_page_ids())
    }


def per_query_ios(index, rects, aggregate):
    """(answer, logical_reads, physical_reads) per rectangle, cold cache."""
    results = []
    for rect in rects:
        index.pool.clear()
        before = index.pool.stats.snapshot()
        answer = index.query(rect.range, rect.interval, aggregate)
        delta = index.pool.stats.delta(before)
        results.append((answer, delta.logical_reads, delta.reads))
    return results


# -- the four routes of a warehouse ------------------------------------------

PAGE_BYTES = 4096
#: MVSBT toggles the four-route twin runs under; the loader's chunk size
#: rides along so ``batch_size=1`` is one more input, not one more test.
CONFIGS = {
    "default": ({}, None),
    "no-merging": ({"record_merging": False}, None),
    "no-disposal": ({"page_disposal": False}, None),
    "bare": ({"record_merging": False, "page_disposal": False}, None),
    "batch-size-1": ({}, 1),
}


def warehouse_class(**toggles):
    """A warehouse whose aggregate MVSBTs run ``toggles`` — a subclass so
    ``open_durable`` rebuilds it the same way on recovery."""
    if not toggles:
        return TemporalWarehouse

    class Configured(TemporalWarehouse):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.aggregates = RTAIndex(
                BufferPool(InMemoryDiskManager(),
                           capacity=self.aggregates.pool.capacity),
                MVSBTConfig(capacity=self._page_capacity, **toggles),
                key_space=self.key_space, aggregates=(SUM, COUNT))

    return Configured


def observe(warehouse, read_logical=(0, 0)):
    """Everything a route may not change: per-pool update-phase logical
    reads, every tree's counters, and every page's image and header."""
    logical = tuple(
        pool.stats.logical_reads - spent for pool, spent in
        zip((warehouse.tuples.pool, warehouse.aggregates.pool),
            read_logical))
    trees = {"tuples": warehouse.tuples}
    for name, (lkst, lklt) in warehouse.aggregates.trees().items():
        trees[f"{name}.lkst"], trees[f"{name}.lklt"] = lkst, lklt
    counters = {name: tree.counters for name, tree in trees.items()}
    pages = {}
    for name, tree in trees.items():
        for pid in sorted(tree.page_ids()):
            page = tree.pool.fetch(pid)
            pages[name, pid] = (encode_page_image(page, PAGE_BYTES),
                                sorted(page.meta.items()))
    return logical, counters, pages


def feed_with_reads(warehouse, events, rects):
    """Route (a): one ``insert``/``delete`` per event, a read every 50
    events.  Returns the answers and the logical reads the reads cost."""
    answers = []
    spent = [0, 0]
    pools = (warehouse.tuples.pool, warehouse.aggregates.pool)
    for i, event in enumerate(events):
        if event.op == "insert":
            warehouse.insert(event.key, event.value, event.time)
        else:
            warehouse.delete(event.key, event.time)
        if i % 50 == 49:
            rect = rects[(i // 50) % len(rects)]
            interval = Interval(rect.interval.start,
                                max(rect.interval.end, warehouse.now + 1))
            before = [pool.stats.logical_reads for pool in pools]
            answers.append(repr(
                warehouse.aggregates.aggregate_all(rect.range, interval)))
            for slot, pool in enumerate(pools):
                spent[slot] += pool.stats.logical_reads - before[slot]
    return answers, tuple(spent)


def commit_groups(events):
    """The stream cut into ``apply_batch`` groups of cycling sizes."""
    sizes, cursor, turn = (1, 7, 64, 3), 0, 0
    while cursor < len(events):
        size = sizes[turn % len(sizes)]
        yield [("insert", e.key, e.value, e.time) if e.op == "insert"
               else ("delete", e.key, e.time)
               for e in events[cursor:cursor + size]]
        cursor += size
        turn += 1


def assert_four_routes_match(tmp_path, events, rects, key_space,
                             page_capacity, toggles=None, batch_size=None):
    cls = warehouse_class(**(toggles or {}))
    shape = dict(key_space=key_space, page_capacity=page_capacity)

    reference = cls(**shape)
    with reference_kernels():
        expected_answers, spent = feed_with_reads(reference, events, rects)
    expected = observe(reference, spent)
    reference.check_invariants()

    # (a) event-at-a-time with reads interleaved, on a durable warehouse
    # whose log then feeds (d).
    directory = str(tmp_path / "wh")
    single = cls.open_durable(directory, **shape)
    answers, spent = feed_with_reads(single, events, rects)
    assert answers == expected_answers
    assert observe(single, spent) == expected
    single.close()                  # the kill: no checkpoint, log only

    # (d) WAL replay of the whole stream.
    recovered = cls.open_durable(directory, **shape)
    assert observe(recovered) == expected
    recovered.check_invariants()
    recovered.close()

    # (b) apply_batch commit groups.
    grouped = cls(**shape)
    for group in commit_groups(events):
        assert all(status == "ok" for status, _ in grouped.apply_batch(group))
    assert observe(grouped) == expected

    # (c) load_events.
    loaded = cls(**shape)
    loaded.load_events(events, batch_size=batch_size)
    assert observe(loaded) == expected


class TestMetamorphicEquivalence:
    """Every route vs the reference kernels: same bits, same answers,
    same query I/O."""

    @pytest.mark.parametrize("name", ["two-mvsbt", "mvbt", "heap"])
    def test_page_images_identical(self, dataset, name):
        reference = build_reference(lambda: BUILDERS[name](dataset),
                                    dataset.events)
        batched = BUILDERS[name](dataset)
        batch_replay(batched, dataset.events, batch_size=256)
        assert dump_pages(batched.pool) == dump_pages(reference.pool)

    @pytest.mark.parametrize("name", ["two-mvsbt", "mvbt", "heap"])
    @pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG],
                             ids=lambda a: a.name)
    def test_query_answers_and_ios_identical(self, dataset, rects, name,
                                             aggregate):
        reference = build_reference(lambda: BUILDERS[name](dataset),
                                    dataset.events)
        batched = BUILDERS[name](dataset)
        batch_replay(batched, dataset.events, batch_size=256)
        assert (per_query_ios(batched, rects, aggregate)
                == per_query_ios(reference, rects, aggregate))

    @pytest.mark.parametrize("name", ["two-mvsbt", "mvbt", "heap"])
    def test_aggregate_all_identical(self, dataset, rects, name):
        reference = build_reference(lambda: BUILDERS[name](dataset),
                                    dataset.events)
        batched = BUILDERS[name](dataset)
        batch_replay(batched, dataset.events)
        for rect in rects:
            assert (batched.aggregate_all(rect.range, rect.interval)
                    == reference.aggregate_all(rect.range, rect.interval))

    def test_mvsbt_counters_identical(self, dataset):
        reference = build_reference(lambda: BUILDERS["two-mvsbt"](dataset),
                                    dataset.events)
        batched = BUILDERS["two-mvsbt"](dataset)
        batch_replay(batched, dataset.events, batch_size=128)
        for agg, (ref_lkst, ref_lklt) in reference.trees().items():
            bat_lkst, bat_lklt = batched.trees()[agg]
            assert bat_lkst.counters == ref_lkst.counters
            assert bat_lklt.counters == ref_lklt.counters

    def test_batch_size_one_is_still_identical(self, dataset):
        events = dataset.events[:400]
        reference = build_reference(lambda: BUILDERS["two-mvsbt"](dataset),
                                    events)
        batched = BUILDERS["two-mvsbt"](dataset)
        batch_replay(batched, events, batch_size=1)
        assert dump_pages(batched.pool) == dump_pages(reference.pool)

    def test_warehouse_target(self, dataset, rects):
        reference = build_reference(
            lambda: TemporalWarehouse(key_space=dataset.config.key_space),
            dataset.events)
        batched = TemporalWarehouse(key_space=dataset.config.key_space)
        batch_replay(batched, dataset.events, batch_size=512)
        assert (dump_pages(batched.tuples.pool)
                == dump_pages(reference.tuples.pool))
        assert (dump_pages(batched.aggregates.pool)
                == dump_pages(reference.aggregates.pool))
        for rect in rects:
            assert (batched.sum(rect.range, rect.interval)
                    == reference.sum(rect.range, rect.interval))
            assert (batched.avg(rect.range, rect.interval)
                    == reference.avg(rect.range, rect.interval))

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_four_routes_match_the_reference(self, tmp_path, dataset, rects,
                                             config):
        toggles, batch_size = CONFIGS[config]
        assert_four_routes_match(
            tmp_path, dataset.events, rects, dataset.config.key_space,
            page_capacity=8, toggles=toggles, batch_size=batch_size)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_four_routes_on_the_benchmark_dataset(self, tmp_path, seed):
        # benchmarks/stack/workloads.py's dataset and page capacity.
        key_space = time_space = (1, 1_000_001)
        events = generate_dataset(DatasetConfig(
            n_records=8_000, n_keys=800, key_space=key_space,
            time_space=time_space, seed=seed)).events
        rects = generate_query_rectangles(QueryRectangleConfig(
            qrs=0.1, count=40, key_space=key_space, time_space=time_space,
            seed=seed))
        assert_four_routes_match(tmp_path, events, rects, key_space,
                                 page_capacity=32)

    @settings(max_examples=25, deadline=None)
    @given(op_streams(), st.sampled_from(sorted(CONFIGS)))
    def test_four_routes_on_generated_streams(self, tmp_path_factory,
                                              stream, config):
        events, alive, t = [], set(), 1
        for op, key, dt, value in stream:
            t += dt
            if op == "insert" and key not in alive:
                events.append(UpdateEvent("insert", key, float(value), t))
                alive.add(key)
            elif op == "delete" and key in alive:
                events.append(UpdateEvent("delete", key, 0.0, t))
                alive.discard(key)
        toggles, batch_size = CONFIGS[config]
        assert_four_routes_match(
            tmp_path_factory.mktemp("routes"), events,
            [Rectangle(KeyRange(1, 120), Interval(1, 2))], (1, 120),
            page_capacity=4, toggles=toggles, batch_size=batch_size)

    @settings(max_examples=60, deadline=None)
    @given(update_streams(), st.sampled_from(sorted(CONFIGS)))
    @example([(10, 1, 3), (10, 0, -3), (10, 0, 2), (60, 0, -2)], "default")
    def test_bare_mvsbt_matches_the_reference(self, stream, config):
        # Signed deltas at one instant cancel to zero-delta records: the
        # lower-neighbour key merge no warehouse stream sets up.
        toggles = CONFIGS[config][0]

        def build():
            return MVSBT(BufferPool(InMemoryDiskManager(), capacity=2048),
                         MVSBTConfig(capacity=5, strong_factor=0.8,
                                     **toggles), key_space=(1, 120))

        def feed(tree):
            t = 1
            for key, dt, value in stream:
                t += dt
                tree.insert(key, t, float(value))
            return tree

        with reference_kernels():
            reference = feed(build())
        tree = feed(build())
        assert tree.counters == reference.counters
        assert dump_pages(tree.pool) == dump_pages(reference.pool)
        assert (tree.pool.stats.logical_reads
                == reference.pool.stats.logical_reads)


class TestBatchLoaderProtocol:
    """Loader bookkeeping, validation, and window lifecycle."""

    def test_report_counts(self, dataset):
        index = BUILDERS["two-mvsbt"](dataset)
        report = batch_replay(index, dataset.events, batch_size=300)
        inserts = sum(1 for e in dataset.events if e.op == "insert")
        assert report.events == len(dataset.events)
        assert report.inserts == inserts
        assert report.deletes == len(dataset.events) - inserts
        assert report.batches == -(-len(dataset.events) // 300)
        assert report.flushed_pages > 0

    def test_windows_closed_after_load(self, dataset):
        # The pools' write-coalescing windows; the trees have none.
        warehouse = TemporalWarehouse(key_space=dataset.config.key_space)
        loader = BatchLoader(warehouse)
        with loader:
            assert warehouse.tuples.pool.in_batch
            assert warehouse.aggregates.pool.in_batch
        loader.load(dataset.events[:100])
        assert not warehouse.tuples.pool.in_batch
        assert not warehouse.aggregates.pool.in_batch

    def test_rejects_out_of_order_events(self, dataset):
        index = BUILDERS["two-mvsbt"](dataset)
        events = [
            UpdateEvent("insert", key=10, value=1.0, time=5),
            UpdateEvent("insert", key=20, value=1.0, time=4),
        ]
        with pytest.raises(ValueError, match="chronological"):
            batch_replay(index, events)

    def test_rejects_unknown_op(self, dataset):
        index = BUILDERS["two-mvsbt"](dataset)
        events = [UpdateEvent("upsert", key=10, value=1.0, time=5)]
        with pytest.raises(ValueError, match="unknown event op"):
            batch_replay(index, events)

    def test_rejects_non_positive_batch_size(self, dataset):
        with pytest.raises(ValueError, match="batch size"):
            BatchLoader(BUILDERS["two-mvsbt"](dataset), batch_size=0)

    def test_coalescing_is_observable(self, dataset):
        # A pool far smaller than the working set must defer dirty
        # evictions inside the window and count them.
        index = build_rta_index(SETTINGS, dataset, buffer_pages=8)
        batch_replay(index, dataset.events)
        assert index.pool.stats.coalesced_writes > 0
