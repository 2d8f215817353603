"""Metamorphic tests for buffered (buffer-tree) warehouse ingestion.

A load of at least ``BUFFERED_MIN_EVENTS`` events runs the buffer-tree
window — nothing else selects it.  Buffered twins (one whole-stream load)
vs direct twins fed the identical chronological stream event by event:
every aggregate answer (SUM/COUNT/AVG/MIN/MAX), every AS OF snapshot,
and the closed on-disk page images must be byte-identical.  EXPLAIN
plans are captured from both twins but *not* asserted equal — the
buffered path legitimately changes I/O statistics (sealed-page routing
reads fewer pages), so plan cost estimates and page counts may differ
while answers may not.  A kill mid-flush must recover every applied
event from the WAL.
"""

import pytest

from repro.bench.harness import BenchSettings, build_rta_index
from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.ingest import (
    BUFFERED_MIN_EVENTS,
    BatchLoader,
    batch_replay,
)
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)

from tests.oracles import canonical_tree_dump, close_window, open_window

SETTINGS = BenchSettings()
AGGREGATES = (SUM, COUNT, AVG, MIN, MAX)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(paper_config("uniform-long", scale=0.001))


@pytest.fixture(scope="module")
def rects(dataset):
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=0.05, count=12, key_space=dataset.config.key_space,
        time_space=dataset.config.time_space, seed=1729,
    ))


def replay_sequential(target, events):
    for event in events:
        if event.op == "insert":
            target.insert(event.key, event.value, event.time)
        else:
            target.delete(event.key, event.time)


def answers(warehouse, rects):
    """repr() of every aggregate over every rectangle — byte-level
    equality of the observable results."""
    out = []
    for rect in rects:
        for aggregate in AGGREGATES:
            out.append(repr(warehouse.aggregate(rect.range, rect.interval,
                                                aggregate)))
    return out


class TestBufferedWarehouseTwins:
    def test_rta_tree_structures_identical(self, dataset):
        reference = build_rta_index(SETTINGS, dataset)
        buffered = build_rta_index(SETTINGS, dataset)
        replay_sequential(reference, dataset.events)
        batch_replay(buffered, dataset.events)
        for tree, ref in zip(buffered.trees(), reference.trees()):
            assert canonical_tree_dump(tree) == canonical_tree_dump(ref)
            assert tree.counters == ref.counters
        assert (buffered.pool.disk.live_page_count
                == reference.pool.disk.live_page_count)

    def test_all_aggregates_identical(self, dataset, rects):
        reference = TemporalWarehouse(key_space=dataset.config.key_space)
        buffered = TemporalWarehouse(key_space=dataset.config.key_space)
        replay_sequential(reference, dataset.events)
        report = buffered.load_events(dataset.events)
        assert report.buffered_events == len(dataset.events)
        assert answers(buffered, rects) == answers(reference, rects)

    def test_as_of_snapshots_identical(self, dataset):
        reference = TemporalWarehouse(key_space=dataset.config.key_space)
        buffered = TemporalWarehouse(key_space=dataset.config.key_space)
        replay_sequential(reference, dataset.events)
        buffered.load_events(dataset.events)
        lo, hi = dataset.config.key_space
        whole = KeyRange(lo, hi)
        horizon = reference.now
        for at in range(1, horizon + 1, max(1, horizon // 12)):
            assert buffered.snapshot(whole, at) == reference.snapshot(
                whole, at)

    def test_explain_page_counts_reported_separately(self, dataset, rects):
        """Plans are captured from both twins; answers must match, plan
        statistics are allowed to differ (and are not asserted equal)."""
        reference = TemporalWarehouse(key_space=dataset.config.key_space)
        buffered = TemporalWarehouse(key_space=dataset.config.key_space)
        replay_sequential(reference, dataset.events)
        buffered.load_events(dataset.events)
        plans = []
        for rect in rects[:4]:
            ref_plan = reference.explain(rect.range, rect.interval, SUM)
            buf_plan = buffered.explain(rect.range, rect.interval, SUM)
            plans.append((ref_plan, buf_plan))
            assert repr(buffered.sum(rect.range, rect.interval)) == repr(
                reference.sum(rect.range, rect.interval))
        assert all(ref is not None and buf is not None
                   for ref, buf in plans)

    def test_mid_window_reads_stay_live(self, dataset, rects):
        """Queries issued while buffered windows are open observe every
        event applied so far — the drain barrier, end to end."""
        reference = TemporalWarehouse(key_space=dataset.config.key_space)
        buffered = TemporalWarehouse(key_space=dataset.config.key_space)
        events = dataset.events
        step = max(1, len(events) // 6)
        # Only a sized load opens the windows, so the test opens them
        # itself and feeds event by event.
        trees = buffered.aggregates.trees()
        for tree in trees:
            open_window(tree)
        for lo in range(0, len(events), step):
            chunk = events[lo:lo + step]
            replay_sequential(buffered, chunk)
            replay_sequential(reference, chunk)
            for rect in rects[:4]:
                assert repr(buffered.sum(rect.range, rect.interval)) \
                    == repr(reference.sum(rect.range, rect.interval))
        for tree in trees:
            close_window(tree)
        assert answers(buffered, rects) == answers(reference, rects)


class TestKillDuringFlush:
    def test_wal_replay_recovers_abandoned_window(self, tmp_path, dataset):
        """Crash mid-window: the buffered window is never closed, dirty
        pages and pending buffers are lost, but the WAL holds one record
        per applied event — replay must reconstruct every answer."""
        directory = str(tmp_path / "wh")
        key_space = dataset.config.key_space
        events = dataset.events[:800]
        durable = TemporalWarehouse.open_durable(
            directory, key_space=key_space, page_capacity=8)
        for tree in durable.aggregates.trees():
            open_window(tree)
        replay_sequential(durable, events)
        # Simulated kill: abandon the windows (never closed, no
        # checkpoint, no flush) and drop the log handle the way a dead
        # process would.
        durable.close()

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=key_space, page_capacity=8)
        reference = TemporalWarehouse(key_space=key_space, page_capacity=8)
        replay_sequential(reference, events)
        whole = KeyRange(*key_space)
        horizon = reference.now
        for t1 in range(1, horizon, max(1, horizon // 8)):
            interval = Interval(t1, horizon + 1)
            for aggregate in AGGREGATES:
                assert repr(recovered.aggregate(whole, interval, aggregate)) \
                    == repr(reference.aggregate(whole, interval, aggregate))
        assert recovered.snapshot(whole, horizon) == reference.snapshot(
            whole, horizon)
        recovered.close()

    def test_clean_close_after_buffered_load_checkpoints(self, tmp_path,
                                                         dataset):
        events = dataset.events[:400]
        directory = str(tmp_path / "wh")
        key_space = dataset.config.key_space
        durable = TemporalWarehouse.open_durable(
            directory, key_space=key_space, page_capacity=8)
        report = durable.load_events(events)
        assert report.buffered_events == len(events) >= BUFFERED_MIN_EVENTS
        durable.checkpoint()
        durable.close()

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=key_space, page_capacity=8)
        reference = TemporalWarehouse(key_space=key_space, page_capacity=8)
        replay_sequential(reference, events)
        whole = KeyRange(*key_space)
        interval = Interval(1, reference.now + 1)
        assert repr(recovered.sum(whole, interval)) == repr(
            reference.sum(whole, interval))
        assert repr(recovered.count(whole, interval)) == repr(
            reference.count(whole, interval))
        recovered.close()


class TestBufferedLoaderProtocol:
    def test_report_counts_buffered_events(self, dataset):
        index = build_rta_index(SETTINGS, dataset)
        report = batch_replay(index, dataset.events)
        assert report.events == len(dataset.events)
        assert report.buffered_events == len(dataset.events)

    def test_buffered_load_reports_its_closing_write_back(self, dataset):
        """The window-close flush is the loader's, so it is counted: the
        report accounts for every page the load wrote."""
        index = build_rta_index(SETTINGS, dataset)
        before = index.pool.stats.writes
        report = batch_replay(index, dataset.events)
        assert report.buffered_events == len(dataset.events)
        assert report.flushed_pages > 0
        assert not any(page.dirty for page in index.pool._frames.values())
        assert report.flushed_pages <= index.pool.stats.writes - before

    def test_direct_mode_reports_zero_buffered(self, dataset):
        index = build_rta_index(SETTINGS, dataset)
        below = dataset.events[:BUFFERED_MIN_EVENTS - 1]
        assert batch_replay(index, below).buffered_events == 0

    def test_the_constant_is_the_boundary(self, dataset):
        index = build_rta_index(SETTINGS, dataset)
        at = dataset.events[:BUFFERED_MIN_EVENTS]
        assert batch_replay(index, at).buffered_events == len(at)

    def test_manual_window_is_the_pools_only(self, dataset):
        index = build_rta_index(SETTINGS, dataset)
        with BatchLoader(index):
            assert index.pool.in_batch
            for tree in index.trees():
                assert tree._buffer is None

    def test_physical_mode_trees_stay_on_the_direct_path(self, dataset):
        index = build_rta_index(SETTINGS, dataset, logical_split=False,
                                record_merging=False)
        report = batch_replay(index, dataset.events)
        assert report.events == len(dataset.events)
        assert report.buffered_events == 0

    def test_windows_closed_after_buffered_load(self, dataset):
        index = build_rta_index(SETTINGS, dataset)
        batch_replay(index, dataset.events[:BUFFERED_MIN_EVENTS + 50])
        assert not index.pool.in_batch
        for tree in index.trees():
            assert tree._buffer is None
