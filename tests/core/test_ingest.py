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

The loader has two sides, chosen by the size of the load alone
(:data:`~repro.core.ingest.BUFFERED_MIN_EVENTS`).  Below the constant all
of the above holds bit for bit.  At and above it the buffer-tree window
runs: closed historical pages stay columnar and page allocations
interleave differently across the trees of one pool, so the comparison
is the canonical tree dump, the counters, the live page count and every
answer — page transfers are the one thing the window changes.
"""

import os
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.harness import (
    BenchSettings,
    build_heap_baseline,
    build_mvbt_baseline,
    build_rta_index,
)
from repro.core.aggregates import AVG, COUNT, SUM
from repro.core import ingest
from repro.core.ingest import BatchLoader, batch_replay
from repro.core.model import Interval, KeyRange, Rectangle
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.errors import DuplicateKeyError
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.serialization import encode_page_image
from repro.storage.wal import LOG_FILE
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

from tests.oracles import canonical_tree_dump, reference_kernels
from tests.mvsbt.test_mvsbt_properties import update_streams
from tests.test_metamorphic import op_streams

SETTINGS = BenchSettings()

BUILDERS = {
    "two-mvsbt": lambda dataset: build_rta_index(SETTINGS, dataset),
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


def replay_below_the_constant(target, events, batch_size=1024):
    """The stream in loads one event short of the buffer-tree window."""
    step = ingest.BUFFERED_MIN_EVENTS - 1
    for lo in range(0, len(events), step):
        report = batch_replay(target, events[lo:lo + step], batch_size)
        assert report.buffered_events == 0


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
                key_space=self.key_space)

    return Configured


def named_trees(warehouse):
    trees = {"tuples": warehouse.tuples}
    trees["lks"], trees["lklt"] = warehouse.aggregates.trees()
    return trees


def raw_pages(trees):
    """{(tree, page id): (image, header)} — the strongest equality."""
    pages = {}
    for name, tree in trees.items():
        for pid in sorted(tree.page_ids()):
            page = tree.pool.fetch(pid)
            pages[name, pid] = (encode_page_image(page, PAGE_BYTES),
                                sorted(page.meta.items()))
    return pages


def observe(warehouse, read_logical=(0, 0)):
    """Everything a route may not change: per-pool update-phase logical
    reads, every tree's counters, and every page's image and header."""
    logical = tuple(
        pool.stats.logical_reads - spent for pool, spent in
        zip((warehouse.tuples.pool, warehouse.aggregates.pool),
            read_logical))
    trees = named_trees(warehouse)
    counters = {name: tree.counters for name, tree in trees.items()}
    return logical, counters, raw_pages(trees)


def observe_logical(warehouse):
    """What a buffer-tree window may not change either: every tree's
    counters, the tuple MVBT's raw pages (it takes each event directly),
    every MVSBT's canonical dump, and the live page count."""
    trees = named_trees(warehouse)
    counters = {name: tree.counters for name, tree in trees.items()}
    tuples = raw_pages({"tuples": trees.pop("tuples")})
    dumps = {name: canonical_tree_dump(tree, PAGE_BYTES)
             for name, tree in trees.items()}
    return (counters, tuples, dumps,
            warehouse.aggregates.pool.disk.live_page_count)


def read_after(warehouse, rects, applied):
    """The read the twin asks once ``applied`` events are in."""
    rect = rects[applied % len(rects)]
    interval = Interval(rect.interval.start,
                        max(rect.interval.end, warehouse.now + 1))
    return repr(warehouse.aggregates.aggregate_all(rect.range, interval))


def feed_with_reads(warehouse, events, rects):
    """Route (a): one ``insert``/``delete`` per event, a read every 50
    events and at every multiple of the loader's constant.  Returns
    ``{events applied: answer}`` and the logical reads the reads cost."""
    answers = {}
    spent = [0, 0]
    pools = (warehouse.tuples.pool, warehouse.aggregates.pool)
    for applied, event in enumerate(events, start=1):
        if event.op == "insert":
            warehouse.insert(event.key, event.value, event.time)
        else:
            warehouse.delete(event.key, event.time)
        if applied % 50 == 0 or applied % ingest.BUFFERED_MIN_EVENTS == 0:
            before = [pool.stats.logical_reads for pool in pools]
            answers[applied] = read_after(warehouse, rects, applied)
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
    expected_logical = observe_logical(reference)
    reference.check_invariants()
    constant = ingest.BUFFERED_MIN_EVENTS

    # (a) event-at-a-time with reads interleaved, on a durable warehouse
    # whose log then feeds (d).
    directory = str(tmp_path / "wh")
    single = cls.open_durable(directory, **shape)
    answers, spent = feed_with_reads(single, events, rects)
    assert answers == expected_answers
    assert observe(single, spent) == expected
    single.close()                  # the kill: no checkpoint, log only

    # (d) WAL replay of the whole stream: one load, so its size picks
    # the side like any other's.
    recovered = cls.open_durable(directory, **shape)
    if len(events) < constant:
        assert observe(recovered) == expected
    else:
        assert observe_logical(recovered) == expected_logical
    recovered.check_invariants()
    recovered.close()

    # (b) apply_batch commit groups.
    grouped = cls(**shape)
    for group in commit_groups(events):
        assert all(status == "ok" for status, _ in grouped.apply_batch(group))
    assert observe(grouped) == expected

    # (c) load_events, every load one event short of the constant: the
    # direct side, bit for bit.
    loaded = cls(**shape)
    for lo in range(0, len(events), constant - 1):
        report = loaded.load_events(events[lo:lo + constant - 1],
                                    batch_size=batch_size)
        assert report.buffered_events == 0
    assert observe(loaded) == expected

    # (c') load_events at the constant (the twin's reads interleaved) and
    # over the full stream in one load: the buffer-tree side.
    stepped, whole = cls(**shape), cls(**shape)
    for lo in range(0, len(events), constant):
        part = events[lo:lo + constant]
        report = stepped.load_events(part, batch_size=batch_size)
        if len(part) == constant:
            assert report.buffered_events == constant
            assert read_after(stepped, rects, lo + constant) \
                == expected_answers[lo + constant]
        else:
            assert report.buffered_events == 0
    report = whole.load_events(events, batch_size=batch_size)
    assert report.buffered_events == \
        (len(events) if len(events) >= constant else 0)
    assert report.flushed_pages > 0 or not events
    for buffered in (stepped, whole):
        assert observe_logical(buffered) == expected_logical
        buffered.check_invariants()


class TestMetamorphicEquivalence:
    """Every route vs the reference kernels: same bits, same answers,
    same query I/O."""

    @pytest.mark.parametrize("name", ["two-mvsbt", "mvbt", "heap"])
    def test_page_images_identical(self, dataset, name):
        reference = build_reference(lambda: BUILDERS[name](dataset),
                                    dataset.events)
        batched = BUILDERS[name](dataset)
        replay_below_the_constant(batched, dataset.events, batch_size=100)
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
        for tree, ref in zip(batched.trees(), reference.trees()):
            assert tree.counters == ref.counters

    def test_batch_size_one_is_still_identical(self, dataset):
        events = dataset.events[:400]
        reference = build_reference(lambda: BUILDERS["two-mvsbt"](dataset),
                                    events)
        batched = BUILDERS["two-mvsbt"](dataset)
        replay_below_the_constant(batched, events, batch_size=1)
        assert dump_pages(batched.pool) == dump_pages(reference.pool)

    def test_warehouse_target(self, dataset, rects):
        reference = build_reference(
            lambda: TemporalWarehouse(key_space=dataset.config.key_space),
            dataset.events)
        batched = TemporalWarehouse(key_space=dataset.config.key_space)
        replay_below_the_constant(batched, dataset.events, batch_size=512)
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
        # Generated streams are short: lower the constant so both sides
        # of the rule run on them too.
        with mock.patch.object(ingest, "BUFFERED_MIN_EVENTS", 8):
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

    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_a_rejected_load_applies_nothing(self, batch_size):
        # The shape of the whole batch is checked before the first window
        # opens, so the applied prefix cannot depend on the chunking.
        warehouse = TemporalWarehouse(key_space=(1, 100))
        now = warehouse.now
        for bad in ([("insert", 1, 1.0, 5), ("insert", 2, 1.0, 6),
                     ("insert", 3, 1.0, 4)],
                    [("insert", 1, 1.0, 5), ("upsert", 2, 1.0, 6)]):
            with pytest.raises(ValueError):
                warehouse.load_events(bad, batch_size=batch_size)
            assert warehouse.count(KeyRange(1, 100), Interval(1, 100)) == 0
            assert warehouse.now == now


class TestLoadLogsOnce:
    """A durable ``load_events`` reaches the WAL through one
    ``append_batch`` — same records, same order as event-at-a-time."""

    EVENTS = [("insert", 1, 1.5, 2), ("insert", 2, 2.5, 3),
              ("delete", 1, 0.0, 4), ("insert", 3, 3.5, 4)]

    @staticmethod
    def counting(warehouse):
        calls = {"append": 0, "append_batch": 0}
        wal = warehouse._wal
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(wal, name)):
                calls[_name] += 1
                return _inner(*args)
            setattr(wal, name, counted)
        return calls

    def test_one_append_same_records(self, tmp_path):
        loaded = TemporalWarehouse.open_durable(
            str(tmp_path / "loaded"), key_space=(1, 100))
        single = TemporalWarehouse.open_durable(
            str(tmp_path / "single"), key_space=(1, 100))
        calls = self.counting(loaded)
        loaded.load_events(self.EVENTS, batch_size=2)
        assert calls == {"append": 0, "append_batch": 1}
        replay_sequential(single, [UpdateEvent(*row) for row in self.EVENTS])
        logs = []
        for warehouse in (loaded, single):
            warehouse.close()
            with open(os.path.join(warehouse._durable_dir, LOG_FILE)) as fh:
                logs.append(fh.read())
        assert logs[0] == logs[1]
        # The delete's record carries the deleted value, as always.
        assert "3,delete,1,1.5,4" in logs[0]

    def test_applied_prefix_is_logged_when_the_load_raises(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=(1, 100))
        calls = self.counting(warehouse)
        with pytest.raises(DuplicateKeyError):           # 1TNF, mid-load
            warehouse.load_events(self.EVENTS[:2] + [("insert", 2, 9.0, 5),
                                                     ("insert", 4, 1.0, 6)])
        assert calls == {"append": 0, "append_batch": 1}
        assert warehouse.wal_seq() == 2
        # A single write after a load goes straight to the log again.
        warehouse.insert(5, 1.0, 7)
        assert calls["append"] == 1
        warehouse.close()
        recovered = TemporalWarehouse.open_durable(
            directory, key_space=(1, 100))
        calls = self.counting(recovered)
        assert recovered.count(KeyRange(1, 100), Interval(1, 100)) == 3
        assert recovered.wal_seq() == 3 and calls["append_batch"] == 0
        recovered.close()
