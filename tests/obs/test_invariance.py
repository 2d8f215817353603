"""Trace-invariance: observability must never change what it observes.

Twin runs of the same deterministic workload — one plain, one with a
tracer attached for the *whole* run (build and queries) — must agree on

* every answer, bit for bit,
* every ``IOStats`` counter (an enabled tracer adds zero physical I/Os),
* every page image on disk, byte for byte.

The default state (no tracer attached, every site guarded by the shared
``NULL_TRACER``) is exercised by the plain twin of each pair, so these
tests simultaneously pin the disabled path and the enabled path.
"""

import pytest

from repro.bench.harness import (
    BenchSettings,
    build_mvbt_baseline,
    build_rta_index,
)
from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.ingest import BatchLoader
from repro.core.warehouse import TemporalWarehouse
from repro.obs.attach import traced
from repro.sbtree.tree import SBTree
from repro.storage.serialization import encode_page_image
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)

SETTINGS = BenchSettings()
AGGREGATES = (SUM, COUNT, AVG)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(paper_config("uniform-long", scale=0.0008))


@pytest.fixture(scope="module")
def rects(dataset):
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=0.1, count=6, key_space=dataset.config.key_space,
        time_space=dataset.config.time_space, seed=4242,
    ))


def disk_fingerprint(pool):
    """Byte image + metadata of every live page, keyed by page id."""
    out = {}
    for page_id in sorted(pool.disk.live_page_ids()):
        page = pool.disk.read(page_id)
        out[page_id] = (
            encode_page_image(page, 8192),
            repr(sorted(page.meta.items())),
        )
    return out


def run_queries(index, rects):
    """Every aggregate over every rectangle, in a fixed order."""
    return [index.query(rect.range, rect.interval, aggregate)
            for aggregate in AGGREGATES for rect in rects]


def replay(index, dataset):
    for event in dataset.events:
        if event.op == "insert":
            index.insert(event.key, event.value, event.time)
        else:
            index.delete(event.key, event.time)


class TestTwinRuns:
    """One plain twin vs one fully-traced twin, per engine."""

    def check_twins(self, build, exercise):
        plain = build()
        plain_answers = exercise(plain)
        traced_twin = build()
        with traced(traced_twin) as tracer:
            traced_answers = exercise(traced_twin)
        assert tracer.roots, "tracer captured nothing — wiring broken?"
        assert traced_answers == plain_answers
        assert traced_twin.pool.stats == plain.pool.stats
        assert disk_fingerprint(traced_twin.pool) \
            == disk_fingerprint(plain.pool)

    def test_rta_index_mvsbt_path(self, dataset, rects):
        self.check_twins(
            build=lambda: build_rta_index(SETTINGS, dataset),
            exercise=lambda index: (replay(index, dataset),
                                    run_queries(index, rects))[1],
        )

    def test_mvbt_baseline_scan_path(self, dataset, rects):
        self.check_twins(
            build=lambda: build_mvbt_baseline(SETTINGS, dataset),
            exercise=lambda index: (replay(index, dataset),
                                    run_queries(index, rects))[1],
        )

    def test_sbtree_path(self):
        def build():
            from repro.storage.buffer import BufferPool
            from repro.storage.disk import InMemoryDiskManager
            pool = BufferPool(InMemoryDiskManager(), capacity=8)
            return SBTree(pool, capacity=4, domain=(1, 201))

        def exercise(tree):
            state = 12345
            for _ in range(60):
                state = (state * 48271) % (2**31 - 1)
                start = state % 150 + 1
                tree.insert(start, start + state % 40 + 1,
                            float(state % 17 - 8))
            return [tree.query(t) for t in range(1, 201, 7)]

        self.check_twins(build, exercise)


class TestWarehouseTwins:
    """The full warehouse: both plans, every aggregate."""

    def build(self, dataset):
        warehouse = TemporalWarehouse(key_space=dataset.config.key_space,
                                      page_capacity=SETTINGS.mvsbt_capacity)
        return warehouse

    def exercise(self, warehouse, dataset, rects):
        dataset.replay_into(warehouse)
        answers = []
        # MIN/MAX run the mvbt-scan plan alongside the additive mvsbt one.
        for aggregate in AGGREGATES + (MIN, MAX):
            for rect in rects:
                answers.append(warehouse.aggregate(rect.range, rect.interval,
                                                   aggregate))
            lo = dataset.config.key_space[0]
            from repro.core.model import Interval, KeyRange
            answers.append(warehouse.aggregate(KeyRange(lo, lo + 2),
                                               Interval(1, 3), aggregate))
        return answers

    def test_warehouse_twin_runs_agree(self, dataset, rects):
        plain = self.build(dataset)
        plain_answers = self.exercise(plain, dataset, rects)
        twin = self.build(dataset)
        with traced(twin) as tracer:
            traced_answers = self.exercise(twin, dataset, rects)
        assert tracer.roots
        assert traced_answers == plain_answers
        for pool_name in ("tuples", "aggregates"):
            plain_pool = getattr(plain, pool_name).pool
            traced_pool = getattr(twin, pool_name).pool
            assert traced_pool.stats == plain_pool.stats, pool_name
            assert disk_fingerprint(traced_pool) \
                == disk_fingerprint(plain_pool), pool_name


class TestBatchedIngestTwins:
    """Tracing the BatchLoader path perturbs nothing either."""

    def test_batched_ingest_invariance(self, dataset, rects):
        def build_and_load(trace):
            index = build_rta_index(SETTINGS, dataset)
            loader = BatchLoader(index, batch_size=64)
            if trace:
                with traced(index) as tracer:
                    loader.load(dataset.events)
                assert tracer.roots
            else:
                loader.load(dataset.events)
            index.pool.flush_all()
            return index

        plain = build_and_load(trace=False)
        traced_index = build_and_load(trace=True)
        assert traced_index.pool.stats == plain.pool.stats
        assert disk_fingerprint(traced_index.pool) \
            == disk_fingerprint(plain.pool)
        assert run_queries(traced_index, rects) == run_queries(plain, rects)
