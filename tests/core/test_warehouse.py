"""Tests for the TemporalWarehouse facade, its plan rule and EXPLAIN."""

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse

from tests.oracles import TupleStoreOracle

KEY_SPACE = (1, 1001)


@pytest.fixture()
def warehouse():
    return TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)


def loaded_warehouse(steps=200, seed=77, warehouse=None):
    if warehouse is None:
        warehouse = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
    oracle = TupleStoreOracle()
    alive = []
    state = seed
    for t in range(1, steps):
        state = (state * 48271) % (2**31 - 1)
        if alive and state % 3 == 0:
            key = alive.pop(state % len(alive))
            warehouse.delete(key, t)
            oracle.delete(key, t)
        else:
            key = state % 999 + 1
            if key not in alive:
                warehouse.insert(key, float(state % 23 - 11), t)
                oracle.insert(key, float(state % 23 - 11), t)
                alive.append(key)
    return warehouse, oracle


class TestUpdatesAndRetrieval:
    def test_insert_query_delete(self, warehouse):
        warehouse.insert(100, 5.0, t=10)
        assert warehouse.sum(KeyRange(1, 1000), Interval(10, 20)) == 5.0
        warehouse.delete(100, t=15)
        assert warehouse.sum(KeyRange(1, 1000), Interval(15, 20)) == 0.0

    def test_update(self, warehouse):
        warehouse.insert(100, 5.0, t=10)
        warehouse.update(100, 9.0, t=12)
        assert warehouse.snapshot(KeyRange(1, 1000), 11) == [(100, 5.0)]
        assert warehouse.snapshot(KeyRange(1, 1000), 12) == [(100, 9.0)]

    def test_history(self, warehouse):
        warehouse.insert(100, 1.0, t=5)
        warehouse.update(100, 2.0, t=10)
        warehouse.delete(100, t=20)
        versions = warehouse.history(100)
        assert [(v.interval.start, v.value) for v in versions] \
            == [(5, 1.0), (10, 2.0)]
        assert versions[1].interval.end == 20

    def test_tuples_in_rectangle(self, warehouse):
        warehouse.insert(100, 1.0, t=5)
        warehouse.insert(500, 2.0, t=8)
        warehouse.delete(100, t=10)
        hits = warehouse.tuples_in(KeyRange(1, 1000), Interval(9, 12))
        assert sorted(t.key for t in hits) == [100, 500]
        hits = warehouse.tuples_in(KeyRange(1, 200), Interval(10, 12))
        assert hits == []

    def test_now_advances(self, warehouse):
        warehouse.insert(1, 1.0, t=7)
        assert warehouse.now == 7


class TestAggregates:
    def test_additive_aggregates_match_oracle(self):
        warehouse, oracle = loaded_warehouse()
        for (k1, k2, t1, t2) in [(1, 1000, 1, 250), (200, 400, 50, 100),
                                 (1, 50, 100, 150)]:
            r, iv = KeyRange(k1, k2), Interval(t1, t2)
            assert warehouse.sum(r, iv) == pytest.approx(
                oracle.rta_sum(k1, k2, t1, t2))
            assert warehouse.count(r, iv) == oracle.rta_count(k1, k2, t1, t2)
            got = warehouse.avg(r, iv)
            want = oracle.rta_avg(k1, k2, t1, t2)
            assert (got is None and want is None) \
                or got == pytest.approx(want)

    def test_min_max_via_retrieval(self):
        warehouse, oracle = loaded_warehouse()
        k1, k2, t1, t2 = 1, 1000, 50, 150
        rows = oracle.rectangle_tuples(k1, k2, t1, t2)
        r, iv = KeyRange(k1, k2), Interval(t1, t2)
        assert warehouse.min(r, iv) == min(v for *_x, v in rows)
        assert warehouse.max(r, iv) == max(v for *_x, v in rows)

    def test_min_max_empty_rectangle(self, warehouse):
        warehouse.insert(100, 5.0, t=10)
        assert warehouse.min(KeyRange(500, 600), Interval(1, 5)) is None
        assert warehouse.max(KeyRange(500, 600), Interval(1, 5)) is None

    def test_aggregate_all(self, warehouse):
        warehouse.insert(100, 2.0, t=5)
        warehouse.insert(200, 6.0, t=5)
        result = warehouse.aggregate_all(KeyRange(1, 1000), Interval(1, 10))
        assert (result.sum, result.count, result.avg) == (8.0, 2.0, 4.0)


class TestPlanner:
    def test_min_max_always_scan(self, warehouse):
        warehouse.insert(100, 5.0, t=10)
        plan = warehouse.explain(KeyRange(1, 1000), Interval(1, 20), MIN)
        assert plan.plan == "mvbt-scan"
        assert "open problem" in plan.reason
        plan = warehouse.explain(KeyRange(1, 1000), Interval(1, 20), MAX)
        assert plan.plan == "mvbt-scan"

    def test_large_rectangle_takes_mvsbt_plan(self):
        warehouse, _ = loaded_warehouse(steps=250)
        plan = warehouse.explain(KeyRange(1, 1000), Interval(1, 300), SUM)
        assert plan.plan == "mvsbt"
        assert plan.mvsbt_cost_reads <= plan.mvbt_cost_reads

    def test_empty_rectangle_takes_mvsbt_plan(self):
        warehouse, _ = loaded_warehouse(steps=250)
        # Nothing qualifies; the plan is still Equation (1), and the
        # estimates EXPLAIN reports say retrieval would have been cheaper.
        r, iv = KeyRange(1, 2), Interval(999, 1000)
        for aggregate in (SUM, COUNT, AVG):
            plan = warehouse.explain(r, iv, aggregate)
            assert plan.plan == "mvsbt"
            assert "Equation (1)" in plan.reason
            assert plan.estimated_tuples == 0
            assert plan.mvbt_cost_reads < plan.mvsbt_cost_reads
        assert warehouse.sum(r, iv) == 0
        assert warehouse.count(r, iv) == 0
        assert warehouse.avg(r, iv) is None

    def test_plans_agree_on_answers(self):
        """Equation (1) must equal both the oracle and the fold over what
        the MVBT retrieves — also where retrieval would be cheaper."""
        warehouse, oracle = loaded_warehouse()
        rect_sets = [(1, 1000, 1, 250),
                     (1, 3, 240, 245)]      # selective
        for (k1, k2, t1, t2) in rect_sets:
            r, iv = KeyRange(k1, k2), Interval(t1, t2)
            assert warehouse.sum(r, iv) == pytest.approx(
                oracle.rta_sum(k1, k2, t1, t2))
            assert warehouse.sum(r, iv) == pytest.approx(
                sum(tup.value for tup in warehouse.tuples_in(r, iv)))

    def test_explain_is_printable(self):
        warehouse, _ = loaded_warehouse(steps=50)
        text = str(warehouse.explain(KeyRange(1, 1000), Interval(1, 50)))
        assert "reads" in text

    def test_unknown_aggregate_rejected(self, warehouse):
        from repro.core.aggregates import Aggregate
        bogus = Aggregate(name="MEDIAN", identity=0, combine=max,
                          additive=False, lift=lambda v: v)
        # MEDIAN is in neither the additive nor the order set.
        from repro.errors import QueryError
        with pytest.raises(QueryError):
            warehouse.explain(KeyRange(1, 10), Interval(1, 5), bogus)


@pytest.fixture()
def descents(monkeypatch):
    """Counts of ``MVSBT.query`` / ``query_pair`` calls."""
    from repro.mvsbt.tree import MVSBT
    calls = {"query": 0, "query_pair": 0}

    def counting(name):
        inner = getattr(MVSBT, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return inner(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(MVSBT, name, counting(name))
    return calls


class TestProbeBudget:
    """An additive read is Equation (1) and nothing else: its four point
    queries as two same-instant pair descents of the one tree pair
    (LKS at the window's last instant, LKLT at its first), whichever of
    SUM, COUNT and AVG is asked and however long the window, no planning
    probe, no MVBT page.  An insert is one MVSBT insertion, a delete
    one."""

    RECTANGLES = [(KeyRange(1, 1000), Interval(1, 250)),
                  (KeyRange(1, 3), Interval(240, 245)),      # selective
                  (KeyRange(1, 2), Interval(999, 1000))]     # empty

    @pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG],
                             ids=["SUM", "COUNT", "AVG"])
    def test_additive_read_is_equation_one_only(self, descents, aggregate):
        warehouse, _ = loaded_warehouse()
        for r, iv in self.RECTANGLES:
            descents.update(query=0, query_pair=0)
            tuple_reads = warehouse.tuples.pool.stats.logical_reads
            warehouse.aggregate(r, iv, aggregate)
            assert descents["query_pair"] == 2
            assert descents["query"] == 0
            assert warehouse.tuples.pool.stats.logical_reads == tuple_reads

    def test_one_tree_insert_per_insert_and_per_delete(self):
        warehouse, _ = loaded_warehouse(steps=40)
        lks, lklt = warehouse.aggregates.trees()

        def inserted():
            assert lks.counters.noop_insertions == 0
            assert lklt.counters.noop_insertions == 0
            return lks.counters.insertions, lklt.counters.insertions

        now = warehouse.now
        a, b = inserted()
        warehouse.insert(1000, 1.25, now + 1)
        assert inserted() == (a + 1, b)
        warehouse.delete(1000, now + 2)         # LKLT only
        assert inserted() == (a + 1, b + 1)
        warehouse.insert(1000, 0.0, now + 2)    # a zero value still counts
        warehouse.update(1000, -0.0, now + 3)   # one of each
        assert inserted() == (a + 3, b + 2)

    @pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG],
                             ids=["SUM", "COUNT", "AVG"])
    def test_each_pair_shares_at_least_its_root(self, aggregate):
        """Exact counters: a reduction fetches at most what its four solo
        descents would, minus one shared root page per pair."""
        warehouse, _ = loaded_warehouse()
        stats = warehouse.aggregates.pool.stats
        lks, lklt = warehouse.aggregates.trees()
        for r, iv in self.RECTANGLES[:2]:
            k1, k2, t1, t3 = r.low, r.high, iv.start, iv.end - 1
            before = stats.logical_reads
            for tree, t in ((lks, t3), (lklt, t1)):
                tree.query(k2, t)
                tree.query(k1, t)
            serial = stats.logical_reads - before
            before = stats.logical_reads
            warehouse.aggregate(r, iv, aggregate)
            assert stats.logical_reads - before <= serial - 2

    @pytest.mark.parametrize("aggregate", [MIN, MAX], ids=["MIN", "MAX"])
    def test_min_max_never_descend_an_mvsbt(self, descents, aggregate):
        warehouse, _ = loaded_warehouse()
        for r, iv in self.RECTANGLES:
            warehouse.aggregate(r, iv, aggregate)
        assert descents == {"query": 0, "query_pair": 0}


class TestSelectiveRectangles:
    """The rectangles an additive aggregate used to answer by retrieval
    (few or no qualifying tuples) get Equation (1)'s answer: equal to the
    oracle, before and after a reopen."""

    def check(self, warehouse, oracle, rectangles):
        queries = [(r, iv, aggregate) for r, iv in rectangles
                   for aggregate in (SUM, COUNT, AVG)]
        serial = [warehouse.aggregate(*query) for query in queries]
        for r, iv in rectangles:
            box = (r.low, r.high, iv.start, iv.end)
            assert oracle.rta_count(*box) <= 5
            assert warehouse.sum(r, iv) == oracle.rta_sum(*box)
            assert warehouse.count(r, iv) == oracle.rta_count(*box)
            assert warehouse.avg(r, iv) == oracle.rta_avg(*box)
        return repr(serial)

    def test_oracle_and_serial_agree_across_reopen(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse, oracle = loaded_warehouse(
            warehouse=TemporalWarehouse.open_durable(
                directory, key_space=KEY_SPACE, page_capacity=8))
        now = warehouse.now
        updated, alive = sorted(oracle._alive)[:2]
        warehouse.update(updated, 7.0, now + 1)
        oracle.delete(updated, now + 1)
        oracle.insert(updated, 7.0, now + 1)
        dead = next(k for k, _s, e, _v in oracle.tuples if e <= now)
        rectangles = [
            (KeyRange(1, 2), Interval(999, 1000)),                # empty
            (KeyRange(alive, alive + 1), Interval(1, now + 1)),   # one key
            (KeyRange(dead, dead + 1), Interval(1, now + 1)),
            (KeyRange(updated, updated + 1), Interval(now, now + 9)),
            (KeyRange(1, 40), Interval(now // 2, now // 2 + 1)),  # one instant
            (KeyRange(990, KEY_SPACE[1]), Interval(1, now)),      # k_hi max
            (KeyRange(1, 1000), Interval(1, 5)),                  # t_lo == 1
            (KeyRange(400, 420), Interval(now - 1, now + 50)),    # t_hi > now
        ]
        before = self.check(warehouse, oracle, rectangles)
        assert oracle.rta_count(updated, updated + 1, now, now + 9) == 2
        warehouse.checkpoint()
        warehouse.close()
        reopened = TemporalWarehouse.open_durable(directory)
        try:
            assert self.check(reopened, oracle, rectangles) == before
        finally:
            reopened.close()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        warehouse, oracle = loaded_warehouse(steps=120)
        warehouse.check_invariants()
        warehouse.save(str(tmp_path / "wh"))
        reopened = TemporalWarehouse.load(str(tmp_path / "wh"))
        r, iv = KeyRange(1, 1000), Interval(1, 200)
        assert reopened.sum(r, iv) == warehouse.sum(r, iv)
        assert reopened.count(r, iv) == warehouse.count(r, iv)
        assert reopened.snapshot(r, 100) == warehouse.snapshot(r, 100)
        # And it keeps accepting the stream.
        reopened.insert(1000, 42.0, t=500)
        assert reopened.sum(KeyRange(1000, 1001), Interval(500, 501)) == 42.0

    def test_page_count_counts_both_structures(self):
        warehouse, _ = loaded_warehouse(steps=100)
        assert warehouse.page_count() \
            == (warehouse.tuples.pool.disk.live_page_count
                + warehouse.aggregates.pool.disk.live_page_count)


def mvsbt_pages(warehouse):
    """Every reachable page of the two aggregate trees."""
    pool = warehouse.aggregates.pool
    return [pool.fetch(pid) for tree in warehouse.aggregates.trees()
            for pid in sorted(tree.page_ids())]


def stream(n_records=900, seed=5):
    """An ``ingest_bulk``-shaped stream: a bulk prefix and a write tail."""
    from repro.workloads.generator import DatasetConfig, generate_dataset
    events = generate_dataset(DatasetConfig(
        n_records=n_records, n_keys=90, key_space=KEY_SPACE,
        time_space=(1, 100_001), seed=seed)).events
    return events[:-120], events[-120:]


def apply_tail(warehouse, tail):
    for event in tail:
        if event.op == "insert":
            warehouse.insert(event.key, event.value, event.time)
        else:
            warehouse.delete(event.key, event.time)


class TestSealedDecode:
    """A reopened warehouse holds each dead MVSBT page as the columnar
    block a buffered load would have left and each alive one as record
    objects; the bytes are the same either way."""

    @pytest.fixture(params=["buffered-load", "single-writes"])
    def cycle(self, request, tmp_path):
        """(reopened warehouse, never-closed twin, write tail, checkpoint
        directory) after open_durable → load → checkpoint → close →
        reopen.  A load of this size opens the buffer-tree window (dead
        pages already columnar); single writes leave them as objects."""
        from repro.core import ingest
        loaded, tail = stream()
        directory = str(tmp_path / "wh")
        twin = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        for target in (warehouse, twin):
            if request.param == "buffered-load":
                assert len(loaded) >= ingest.BUFFERED_MIN_EVENTS
                report = target.load_events(loaded)
                assert report.buffered_events == len(loaded)
            else:
                apply_tail(target, loaded)
        warehouse.checkpoint()
        warehouse.close()
        checkpoint, _ = TemporalWarehouse.current_checkpoint(directory)
        reopened = TemporalWarehouse.open_durable(directory)
        yield reopened, twin, tail, checkpoint
        reopened.close()

    def test_dead_pages_are_blocks_alive_pages_are_objects(self, cycle):
        from repro.core.model import NOW
        from repro.mvsbt.columnar import ColumnarBlock
        reopened, _twin, _tail, _ = cycle
        pages = mvsbt_pages(reopened)
        dead = [page for page in pages if page.meta["death"] != NOW]
        assert dead and len(dead) < len(pages)
        for page in pages:
            if page.meta["death"] != NOW:
                assert page.records is None
                assert type(page.cache) is ColumnarBlock
            else:
                assert page.records is not None
                assert type(page.cache) is not ColumnarBlock
        # The tuple store's MVBT pages are nobody's to seal.
        tuples = reopened.tuples
        assert all(tuples.pool.fetch(pid).records is not None
                   for pid in tuples.page_ids())

    def test_checkpoint_of_the_reopened_warehouse_is_byte_identical(
            self, cycle, tmp_path):
        import os
        reopened, _twin, _tail, checkpoint = cycle
        again = str(tmp_path / "again")
        reopened.save(again)
        for part in ("aggregates", "tuples"):
            for name in ("pages.dat", "meta.json"):
                with open(os.path.join(checkpoint, part, name), "rb") as fh:
                    written = fh.read()
                with open(os.path.join(again, part, name), "rb") as fh:
                    assert fh.read() == written, (part, name)

    def test_answers_invariants_and_the_write_tail(self, cycle):
        reopened, twin, tail, _ = cycle
        rectangles = [(KeyRange(1, 1000), Interval(1, twin.now + 1)),
                      (KeyRange(200, 700), Interval(twin.now // 3,
                                                    twin.now // 2)),
                      (KeyRange(1, 2), Interval(5, 6))]

        def answers(warehouse):
            return repr([warehouse.aggregate(r, iv, aggregate)
                         for r, iv in rectangles
                         for aggregate in (SUM, COUNT, AVG)])

        assert answers(reopened) == answers(twin)
        apply_tail(reopened, tail)
        apply_tail(twin, tail)
        rectangles.append((KeyRange(1, 1000),
                           Interval(twin.now - 50, twin.now + 1)))
        assert answers(reopened) == answers(twin)
        reopened.check_invariants()

    def test_reading_an_alive_page_between_two_inserts(self, cycle):
        """Regression: whatever a read leaves on a frontier page, the next
        insert's mirror lookup must not mistake it for an alive mirror
        (``pageops.mirror`` took any object with a matching ``version``)."""
        reopened, twin, tail, _ = cycle
        everything = KeyRange(*KEY_SPACE)
        for event in tail:
            apply_tail(reopened, [event])
            apply_tail(twin, [event])
            open_present = Interval(event.time, event.time + 1)
            for aggregate in (SUM, COUNT):
                assert repr(reopened.aggregate(everything, open_present,
                                               aggregate)) \
                    == repr(twin.aggregate(everything, open_present,
                                           aggregate))
        reopened.check_invariants()

    def test_shared_values_keep_type_sign_and_payload(self, tmp_path):
        """Equal values come back as one object, and ``0.0 == -0.0``,
        ``1 == 1.0`` and ``nan != nan`` are exactly the equalities that
        must not decide which: pages holding ``-0.0`` beside ``0.0``, the
        key/instant ``1`` beside the value ``1.0`` and a NaN with a
        payload must re-pack to the bytes they were read from."""
        import math
        import os
        import struct
        (nan,) = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0ABC))
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, -0.0, 1)
        warehouse.insert(3, 0.0, 2)
        warehouse.insert(4, nan, 3)
        for t in range(4, 80):          # enough churn for pages to die
            warehouse.insert(t + 1, float(t % 5), t)
            if t % 3 == 0:
                warehouse.delete(t - 2, t)
        warehouse.checkpoint()
        warehouse.close()
        checkpoint, _ = TemporalWarehouse.current_checkpoint(directory)
        reopened = TemporalWarehouse.open_durable(directory)
        try:
            assert any(page.records is None for page in mvsbt_pages(reopened))
            again = str(tmp_path / "again")
            reopened.save(again)
            for part in ("aggregates", "tuples"):
                with open(os.path.join(checkpoint, part, "pages.dat"),
                          "rb") as fh:
                    written = fh.read()
                with open(os.path.join(again, part, "pages.dat"),
                          "rb") as fh:
                    assert fh.read() == written, part
            values = {}
            for version in (reopened.history(key) for key in (1, 2, 3, 4)):
                (tup,) = version
                assert type(tup.key) is int and type(tup.value) is float
                values[tup.key] = tup.value
            assert values[1] == 1.0
            assert math.copysign(1.0, values[2]) == -1.0
            assert math.copysign(1.0, values[3]) == 1.0
            assert struct.pack("<d", values[4]) == struct.pack("<d", nan)
        finally:
            reopened.close()

