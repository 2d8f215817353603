"""Unit tests for the RTA index (Theorem 1 reduction over two MVSBTs)."""

import random

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import NOW, Interval, KeyRange
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.errors import DuplicateKeyError, KeyNotFoundError, QueryError
from repro.mvsbt.tree import MVSBTConfig

from repro.core.rta import RTAResult

from tests.oracles import TupleStoreOracle, canonical_tree_dump

KEY_SPACE = (1, 1001)


@pytest.fixture()
def index(pool):
    return RTAIndex(pool, MVSBTConfig(capacity=8), key_space=KEY_SPACE)


class TestBasics:
    def test_empty_index(self, index):
        r, iv = KeyRange(1, 1000), Interval(1, 100)
        assert index.sum(r, iv) == 0.0
        assert index.count(r, iv) == 0.0
        assert index.avg(r, iv) is None

    def test_single_tuple_alive(self, index):
        index.insert(100, 7.0, t=5)
        r, iv = KeyRange(50, 200), Interval(1, 100)
        assert index.sum(r, iv) == 7.0
        assert index.count(r, iv) == 1.0
        assert index.avg(r, iv) == 7.0

    def test_key_range_excludes(self, index):
        index.insert(100, 7.0, t=5)
        assert index.sum(KeyRange(101, 200), Interval(1, 100)) == 0.0
        assert index.sum(KeyRange(1, 100), Interval(1, 100)) == 0.0
        assert index.sum(KeyRange(100, 101), Interval(1, 100)) == 7.0

    def test_time_interval_excludes(self, index):
        index.insert(100, 7.0, t=50)
        assert index.sum(KeyRange(1, 1000), Interval(1, 50)) == 0.0
        assert index.sum(KeyRange(1, 1000), Interval(1, 51)) == 7.0
        assert index.sum(KeyRange(1, 1000), Interval(60, 70)) == 7.0

    def test_deleted_tuple_counts_while_intersecting(self, index):
        index.insert(100, 7.0, t=10)
        index.delete(100, t=20)   # alive over [10, 20)
        r = KeyRange(1, 1000)
        assert index.sum(r, Interval(15, 30)) == 7.0   # overlaps life
        assert index.sum(r, Interval(20, 30)) == 0.0   # starts at death
        assert index.sum(r, Interval(1, 10)) == 0.0    # ends at birth
        assert index.sum(r, Interval(19, 20)) == 7.0   # last alive instant

    def test_avg_of_mixed_values(self, index):
        index.insert(100, 2.0, t=5)
        index.insert(200, 4.0, t=5)
        index.insert(300, 9.0, t=5)
        r, iv = KeyRange(1, 250), Interval(1, 10)
        assert index.count(r, iv) == 2.0
        assert index.avg(r, iv) == 3.0

    def test_aggregate_all(self, index):
        index.insert(100, 2.0, t=5)
        index.insert(200, 4.0, t=5)
        result = index.aggregate_all(KeyRange(1, 1000), Interval(1, 10))
        assert result.sum == 6.0
        assert result.count == 2.0
        assert result.avg == 3.0

    def test_query_by_aggregate_descriptor(self, index):
        index.insert(100, 2.0, t=5)
        r, iv = KeyRange(1, 1000), Interval(1, 10)
        assert index.query(r, iv, SUM) == 2.0
        assert index.query(r, iv, COUNT) == 1.0
        assert index.query(r, iv, AVG) == 2.0

    def test_update_changes_value_from_t(self, index):
        index.insert(100, 2.0, t=5)
        index.update(100, 10.0, t=8)
        r = KeyRange(1, 1000)
        assert index.sum(r, Interval(5, 8)) == 2.0
        assert index.sum(r, Interval(8, 9)) == 10.0
        # A window spanning the update sees both versions of the tuple
        # (they are distinct tuples in the transaction-time model).
        assert index.count(r, Interval(5, 9)) == 2.0


class TestValidation:
    def test_1tnf_enforced(self, index):
        index.insert(100, 1.0, t=5)
        with pytest.raises(DuplicateKeyError):
            index.insert(100, 2.0, t=6)

    def test_delete_unknown_key(self, index):
        with pytest.raises(KeyNotFoundError):
            index.delete(100, t=5)

    def test_non_additive_aggregate_rejected(self, index):
        """Before any descent."""
        index.insert(100, 1.0, t=5)
        reads = index.pool.stats.logical_reads
        for aggregate in (MIN, MAX):
            with pytest.raises(QueryError, match="not maintained"):
                index.query(KeyRange(1, 10), Interval(1, 5), aggregate)
        assert index.pool.stats.logical_reads == reads

    def test_key_outside_space(self, index):
        with pytest.raises(QueryError):
            index.insert(0, 1.0, t=5)
        with pytest.raises(QueryError):
            index.insert(1001, 1.0, t=5)

    def test_query_rectangle_outside_space(self, index):
        with pytest.raises(QueryError):
            index.sum(KeyRange(1, 5000), Interval(1, 10))
        with pytest.raises(QueryError):
            index.sum(KeyRange(1, 10), Interval(0, 10))

    @pytest.mark.parametrize("loaded", [False, True], ids=["empty", "loaded"])
    def test_a_rectangle_past_now_is_a_query_error(self, loaded):
        """``NOW`` (2**62) is the end of time: a window reaching past it
        has no last instant a tree covers.  Every read surface refuses it
        as a query error, the same way as one starting before time 1."""
        from repro.tql.executor import execute

        warehouse = TemporalWarehouse(key_space=(1, 101))
        if loaded:
            for t in range(1, 40):
                warehouse.insert(t, float(t), t)
        kr, past_now = KeyRange(1, 5), Interval(1, 10**30)
        for aggregate in (SUM, COUNT, AVG, MIN, MAX):
            with pytest.raises(QueryError, match="ends after NOW"):
                warehouse.aggregate(kr, past_now, aggregate)
        with pytest.raises(QueryError, match="ends after NOW"):
            warehouse.aggregate_all(kr, Interval(1, NOW + 1))
        with pytest.raises(QueryError, match="ends after NOW"):
            execute(warehouse, "SELECT TIMELINE(SUM, 4) WHERE key "
                               f"IN [1, 5) AND time DURING [1, {10**30})")
        # The sentinel itself is the last end there is.
        assert warehouse.sum(kr, Interval(1, NOW)) \
            == (10.0 if loaded else 0.0)

    def test_delete_without_tracking_needs_value(self, pool):
        index = RTAIndex(pool, key_space=KEY_SPACE, track_values=False)
        index.insert(100, 3.0, t=5)
        with pytest.raises(KeyNotFoundError):
            index.delete(100, t=8)
        index.delete(100, t=8, value=3.0)
        assert index.sum(KeyRange(1, 1000), Interval(8, 9)) == 0.0


class TestBoundaries:
    def test_extreme_keys(self, index):
        index.insert(1, 1.0, t=5)       # lowest legal key
        index.insert(1000, 2.0, t=5)    # highest legal key
        full = KeyRange(1, 1001)
        assert index.sum(full, Interval(1, 10)) == 3.0
        assert index.sum(KeyRange(1000, 1001), Interval(1, 10)) == 2.0
        assert index.sum(KeyRange(1, 2), Interval(1, 10)) == 1.0

    def test_single_instant_window(self, index):
        index.insert(100, 5.0, t=10)
        index.delete(100, t=20)
        assert index.sum(KeyRange(1, 1000), Interval(10, 11)) == 5.0
        assert index.sum(KeyRange(1, 1000), Interval(9, 10)) == 0.0

    def test_whole_space_query(self, index):
        for i in range(1, 20):
            index.insert(i * 50, float(i), t=i)
        assert index.sum(KeyRange(1, 1001), Interval(1, 10**7)) \
            == sum(range(1, 20))

    def test_negative_values(self, index):
        index.insert(100, -5.0, t=5)
        index.insert(200, 3.0, t=5)
        assert index.sum(KeyRange(1, 1000), Interval(1, 10)) == -2.0
        assert index.count(KeyRange(1, 1000), Interval(1, 10)) == 2.0


class TestAgainstOracle:
    def _run_stream(self, index, oracle, n_steps=300, seed=23):
        alive = []
        state = seed
        for t in range(1, n_steps):
            state = (state * 48271) % (2**31 - 1)
            if alive and state % 3 == 0:
                key = alive.pop(state % len(alive))
                index.delete(key, t)
                oracle.delete(key, t)
            else:
                key = state % 999 + 1
                if key not in alive:
                    value = float(state % 17 - 8)
                    index.insert(key, value, t)
                    oracle.insert(key, value, t)
                    alive.append(key)

    def test_sum_count_avg_match_oracle(self, pool):
        index = RTAIndex(pool, MVSBTConfig(capacity=8), key_space=KEY_SPACE)
        oracle = TupleStoreOracle()
        self._run_stream(index, oracle)
        index.check_invariants()
        rectangles = [
            (1, 1000, 1, 300), (100, 300, 50, 80), (400, 900, 200, 210),
            (1, 50, 1, 299), (700, 701, 100, 150), (500, 600, 299, 300),
            (1, 1000, 150, 151),
        ]
        for (k1, k2, t1, t2) in rectangles:
            r, iv = KeyRange(k1, k2), Interval(t1, t2)
            assert index.sum(r, iv) == pytest.approx(
                oracle.rta_sum(k1, k2, t1, t2)), (k1, k2, t1, t2)
            assert index.count(r, iv) == oracle.rta_count(k1, k2, t1, t2)
            expected_avg = oracle.rta_avg(k1, k2, t1, t2)
            got_avg = index.avg(r, iv)
            if expected_avg is None:
                assert got_avg is None
            else:
                assert got_avg == pytest.approx(expected_avg)

    def test_additivity_over_rectangle_partition(self, pool):
        """Metamorphic: SUM over a rectangle equals the sum over any
        partition of it (both in key and in time)."""
        index = RTAIndex(pool, MVSBTConfig(capacity=8), key_space=KEY_SPACE)
        oracle = TupleStoreOracle()
        self._run_stream(index, oracle, n_steps=150, seed=99)
        whole = index.sum(KeyRange(1, 1001), Interval(40, 120))
        by_key = (index.sum(KeyRange(1, 500), Interval(40, 120))
                  + index.sum(KeyRange(500, 1001), Interval(40, 120)))
        assert whole == pytest.approx(by_key)
        # Time partitions only add up for COUNT/SUM if no tuple straddles
        # the cut; use disjoint single-instant windows over distinct keys
        # instead: verified via the oracle in the test above.

    def test_count_invariant_under_value_scaling(self, pool):
        a = RTAIndex(pool, key_space=KEY_SPACE)
        b = RTAIndex(pool, key_space=KEY_SPACE)
        for i in range(1, 40):
            a.insert(i * 20, float(i), t=i)
            b.insert(i * 20, float(i) * 1000, t=i)
        r, iv = KeyRange(1, 1000), Interval(1, 50)
        assert a.count(r, iv) == b.count(r, iv)

    def test_page_count_positive(self, index):
        for i in range(1, 40):
            index.insert(i * 20, 1.0, t=i)
        assert index.page_count() >= 2  # at least one page per MVSBT
        lkst, lklt = index.trees()
        assert index.page_count() == lkst.page_count() + lklt.page_count()


#: Dyadic, so a sum is exact in any order and ``repr`` can be compared
#: with the oracle's; both zeros are values a tuple may carry.
EDGE_VALUES = [0.0, -0.0, 0.0, 0.25, -1.5, 3.0, 1.5, -0.25]


def edge_stream(steps=420, seed=31):
    """``(method, key, value, t)`` calls over 40 keys that exercise what
    one ``(sum, count)`` record makes reachable: zero-valued tuples (a
    SUM-only tree skipped them as no-ops, the pair must insert them),
    ``update`` at one instant — to another value, to the same one, and
    across a zero — and a key deleted and reinserted, at the same instant
    and later."""
    rng = random.Random(seed)
    alive, calls, t = {}, [], 1
    for _ in range(steps):
        t += rng.choice([0, 0, 1, 2])
        key = rng.randint(1, 40)
        value = rng.choice(EDGE_VALUES)
        if key not in alive:
            calls.append(("insert", key, value, t))
            alive[key] = value
        elif rng.random() < 0.4:
            calls.append(("update", key,
                          alive[key] if rng.random() < 0.3 else value, t))
            alive[key] = calls[-1][2]
        else:
            calls.append(("delete", key, None, t))
            del alive[key]
            if rng.random() < 0.5:      # ... and straight back in
                t += rng.choice([0, 1])
                calls.append(("insert", key, value, t))
                alive[key] = value
    return calls


def apply_calls(warehouse, calls):
    for method, key, value, t in calls:
        if method == "delete":
            warehouse.delete(key, t)
        else:
            getattr(warehouse, method)(key, value, t)


def edge_oracle(calls):
    oracle = TupleStoreOracle()
    for method, key, value, t in calls:
        if method != "insert":
            oracle.delete(key, t)
        if method != "delete":
            oracle.insert(key, value, t)
    return oracle


def edge_rectangles(calls):
    """Whole-space and narrow rectangles; one-instant windows at the
    instants of updates and reinsertions, and around them."""
    now = calls[-1][3]
    rectangles = [(1, 41, 1, now + 1), (1, 41, now, now + 1),
                  (5, 25, now // 3, now // 2), (40, 41, 1, now + 5)]
    for method, key, _value, t in calls[::7]:
        rectangles.append((1, 41, t, t + 1))
        rectangles.append((key, key + 1, t, t + 1))
        rectangles.append((key, key + 1, max(t - 1, 1), t + 2))
    return rectangles


def edge_answers(index, rectangles):
    out = []
    for k1, k2, t1, t2 in rectangles:
        r, iv = KeyRange(k1, k2), Interval(t1, t2)
        out.append(repr((index.sum(r, iv), index.count(r, iv),
                         index.avg(r, iv), index.aggregate_all(r, iv))))
    return out


class TestMergedPairEdges:
    """SUM and COUNT share one record, so a value of ``0.0`` is no longer
    a no-op and an ``update`` to the same value is an insertion whose
    delta is zero in both halves.  Every route to the same state —
    memory, checkpoint and reopen, WAL replay, and a checkpoint with a
    WAL tail — must answer the oracle's SUM, COUNT and AVG to the bit."""

    CALLS = edge_stream()

    def expected(self, rectangles):
        oracle = edge_oracle(self.CALLS)
        out = []
        for box in rectangles:
            total, count = float(oracle.rta_sum(*box)), oracle.rta_count(*box)
            avg = total / count if count else None
            out.append(repr((total, float(count), avg,
                             RTAResult(sum=total, count=float(count)))))
        return out

    @pytest.fixture(params=["memory", "checkpoint", "wal", "checkpoint+wal"])
    def warehouse(self, request, tmp_path):
        route, directory = request.param, str(tmp_path / "wh")
        kwargs = dict(key_space=(1, 41), page_capacity=6)
        if route == "memory":
            warehouse = TemporalWarehouse(**kwargs)
            apply_calls(warehouse, self.CALLS)
            yield warehouse
            return
        warehouse = TemporalWarehouse.open_durable(directory, **kwargs)
        cut = {"checkpoint": len(self.CALLS), "wal": 0,
               "checkpoint+wal": len(self.CALLS) // 2}[route]
        apply_calls(warehouse, self.CALLS[:cut])
        if cut:
            warehouse.checkpoint()
        apply_calls(warehouse, self.CALLS[cut:])
        warehouse.close()
        # With no checkpoint the WAL replays into a fresh warehouse.
        reopened = TemporalWarehouse.open_durable(directory, **kwargs)
        yield reopened
        reopened.close()

    def test_the_stream_holds_every_edge(self):
        calls = self.CALLS
        zeros = [c for c in calls if c[0] != "delete"
                 and repr(c[2]) in ("0.0", "-0.0")]
        assert {repr(c[2]) for c in zeros} == {"0.0", "-0.0"}
        assert sum(c[0] == "update" for c in calls) > 20
        by_key = {}
        same_value = reinserted_at_once = 0
        for a, b in zip(calls, calls[1:]):
            reinserted_at_once += (a[0] == "delete" and b[0] == "insert"
                                   and a[1] == b[1] and a[3] == b[3])
        for method, key, value, _t in calls:
            same_value += (method == "update"
                           and repr(by_key.get(key)) == repr(value))
            by_key[key] = value
        assert same_value > 0 and reinserted_at_once > 0

    def test_every_route_answers_the_oracle_to_the_bit(self, warehouse):
        rectangles = edge_rectangles(self.CALLS)
        assert any(t2 - t1 == 1 for _k1, _k2, t1, t2 in rectangles)
        index = warehouse.aggregates
        assert edge_answers(index, rectangles) == self.expected(rectangles)
        warehouse.check_invariants()

    def test_a_zero_value_is_an_insertion(self, warehouse):
        """No insertion of the stream was dropped as a no-op — a tuple of
        value ``0.0`` moves COUNT — and the trees are their own twins
        whichever way the state was reached."""
        twin = TemporalWarehouse(key_space=(1, 41), page_capacity=6)
        apply_calls(twin, self.CALLS)
        for tree, want in zip(warehouse.aggregates.trees(),
                              twin.aggregates.trees()):
            assert tree.counters.noop_insertions == 0
            assert canonical_tree_dump(tree) == canonical_tree_dump(want)
