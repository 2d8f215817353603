"""ShardedWarehouse: routing and scatter-gather exactness.

The acceptance property: for SUM/COUNT/AVG/MIN/MAX, a sharded warehouse
with N ∈ {1, 2, 4} shards answers bit-identically to one
:class:`TemporalWarehouse` over the same workload.  Values are
integer-valued floats, for which float addition is exact, so "identical"
means ``==`` with no tolerance.
"""

import random

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError, ShardRoutingError
from repro.serve.sharded import ShardedWarehouse

KEY_SPACE = (1, 401)


def apply_workload(target, events):
    for op, key, value, t in events:
        if op == "insert":
            target.insert(key, value, t)
        else:
            target.delete(key, t)


def random_workload(seed, keys=KEY_SPACE, events=300):
    """A valid 1TNF update stream with integer values.

    Never deletes a key at its own insertion instant: a zero-length
    tuple is counted by the MVSBT reduction but can never be retrieved,
    so the two plans would (legitimately) disagree on it.
    """
    rng = random.Random(seed)
    alive = {}  # key -> insertion time
    out = []
    t = 1
    for _ in range(events):
        deletable = sorted(k for k, born in alive.items() if born < t)
        if deletable and rng.random() < 0.3:
            key = rng.choice(deletable)
            del alive[key]
            out.append(("delete", key, 0.0, t))
        else:
            key = rng.randint(keys[0], keys[1] - 1)
            if key in alive:
                continue
            alive[key] = t
            out.append(("insert", key, float(rng.randint(1, 50)), t))
        if rng.random() < 0.5:
            t += 1
    return out


class TestRouting:
    def test_boundaries_partition_key_space(self):
        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE)
        assert sharded.boundaries[0] == KEY_SPACE[0]
        assert sharded.boundaries[-1] == KEY_SPACE[1]
        assert sharded.shard_count == 4
        # Every key maps to exactly one shard whose range contains it.
        for key in range(KEY_SPACE[0], KEY_SPACE[1]):
            index = sharded.shard_index(key)
            lo, hi = (sharded.boundaries[index],
                      sharded.boundaries[index + 1])
            assert lo <= key < hi

    def test_out_of_domain_key_rejected(self):
        sharded = ShardedWarehouse(shards=2, key_space=KEY_SPACE)
        with pytest.raises(ShardRoutingError):
            sharded.insert(KEY_SPACE[1], 1.0, 1)
        with pytest.raises(ShardRoutingError):
            sharded.shard_index(0)

    def test_query_ranges_clip_silently(self):
        sharded = ShardedWarehouse(shards=2, key_space=KEY_SPACE)
        sharded.insert(5, 3.0, 1)
        # A range wider than the key space still answers (no routing error).
        assert sharded.sum(KeyRange(1, 10**6), Interval(1, 5)) == 3.0
        # A range entirely outside holds nothing.
        assert sharded.sum(KeyRange(KEY_SPACE[1], 10**6),
                           Interval(1, 5)) == 0.0
        assert sharded.min(KeyRange(KEY_SPACE[1], 10**6),
                           Interval(1, 5)) is None

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedWarehouse(shards=50, key_space=(1, 20))
        with pytest.raises(ValueError):
            ShardedWarehouse(shards=0)


class TestScatterGatherExactness:
    """The acceptance property test, N in {1, 2, 4}."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [7, 21])
    def test_bit_identical_to_single_warehouse(self, shards, seed):
        events = random_workload(seed)
        single = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8,
                                   buffer_pages=32)
        sharded = ShardedWarehouse(shards=shards, key_space=KEY_SPACE,
                                   page_capacity=8, buffer_pages=32)
        apply_workload(single, events)
        apply_workload(sharded, events)
        assert sharded.now == single.now

        rng = random.Random(seed + 1)
        aggregates = (SUM, COUNT, AVG, MIN, MAX)
        for _ in range(40):
            lo = rng.randint(1, KEY_SPACE[1] - 2)
            hi = rng.randint(lo + 1, KEY_SPACE[1])
            t0 = rng.randint(1, max(single.now, 1))
            t1 = rng.randint(t0 + 1, single.now + 1)
            key_range, interval = KeyRange(lo, hi), Interval(t0, t1)
            for aggregate in aggregates:
                expected = single.aggregate(key_range, interval, aggregate)
                actual = sharded.aggregate(key_range, interval, aggregate)
                assert actual == expected, (
                    f"{aggregate.name} over {key_range} x {interval}: "
                    f"sharded={actual!r} single={expected!r}"
                )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_snapshot_history_tuples_match(self, shards):
        events = random_workload(11)
        single = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
        sharded = ShardedWarehouse(shards=shards, key_space=KEY_SPACE,
                                   page_capacity=8)
        apply_workload(single, events)
        apply_workload(sharded, events)

        r = KeyRange(*KEY_SPACE)
        for t in (1, single.now // 2, single.now):
            t = max(t, 1)
            assert sharded.snapshot(r, t) == single.snapshot(r, t)
        interval = Interval(1, single.now + 1)
        by_key = lambda tup: (tup.key, tup.interval.start)
        assert (sorted(sharded.tuples_in(r, interval), key=by_key)
                == sorted(single.tuples_in(r, interval), key=by_key))
        touched = {key for op, key, _v, _t in events}
        for key in sorted(touched)[:20]:
            assert sharded.history(key) == single.history(key)

    @pytest.mark.parametrize("aggregate", [SUM, COUNT, AVG])
    def test_timeline_matches(self, aggregate):
        events = random_workload(13)
        single = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE,
                                   page_capacity=8)
        apply_workload(single, events)
        apply_workload(sharded, events)
        r = KeyRange(50, 350)
        interval = Interval(1, single.now + 1)
        buckets = min(6, interval.length)
        assert (sharded.aggregates.timeline(r, interval, buckets, aggregate)
                == single.aggregates.timeline(r, interval, buckets,
                                              aggregate))

    def test_timeline_validation_matches_rta(self):
        sharded = ShardedWarehouse(shards=2, key_space=KEY_SPACE)
        sharded.insert(10, 1.0, 1)
        with pytest.raises(QueryError):
            sharded.aggregates.timeline(KeyRange(1, 10), Interval(1, 5), 0)
        with pytest.raises(QueryError):
            sharded.aggregates.timeline(KeyRange(1, 10), Interval(1, 3), 9)


class TestExplainAndMaintenance:
    def test_explain_reports_intersecting_shards_only(self):
        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE)
        for key in range(1, 40):
            sharded.insert(key, 1.0, key)
        plans = sharded.explain(KeyRange(1, 150), Interval(1, 10))
        assert [p.shard for p in plans] == [0, 1]
        assert plans[0].key_range.high <= sharded.boundaries[1]
        # Nearly empty parts included: additive plans are never retrieval.
        for aggregate in (SUM, COUNT, AVG):
            assert [p.plan.plan for p in sharded.explain(
                KeyRange(1, 150), Interval(1, 10), aggregate)] \
                == ["mvsbt", "mvsbt"]

    def test_invariants_and_page_count(self):
        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE,
                                   page_capacity=8)
        apply_workload(sharded, random_workload(3))
        sharded.check_invariants()
        assert sharded.page_count() > 0


class TestDurability:
    def test_open_durable_round_trip(self, tmp_path):
        events = random_workload(17)
        sharded = ShardedWarehouse.open_durable(str(tmp_path), shards=4,
                                                key_space=KEY_SPACE,
                                                page_capacity=8)
        apply_workload(sharded, events)
        expected = sharded.sum(KeyRange(*KEY_SPACE),
                               Interval(1, sharded.now + 1))
        sharded.checkpoint()
        sharded.close()
        assert sharded.closed

        reopened = ShardedWarehouse.open_durable(str(tmp_path))
        assert reopened.sum(KeyRange(*KEY_SPACE),
                            Interval(1, reopened.now + 1)) == expected
        reopened.close()

    def test_layout_frozen_across_reopen(self, tmp_path):
        sharded = ShardedWarehouse.open_durable(str(tmp_path), shards=4,
                                                key_space=KEY_SPACE)
        boundaries = sharded.boundaries
        sharded.close()
        # Conflicting shard/key-space arguments are ignored on reopen.
        reopened = ShardedWarehouse.open_durable(str(tmp_path), shards=2,
                                                 key_space=(1, 50))
        assert reopened.boundaries == boundaries
        assert reopened.key_space == KEY_SPACE
        reopened.close()

    def test_recovery_without_checkpoint_replays_wal(self, tmp_path):
        sharded = ShardedWarehouse.open_durable(str(tmp_path), shards=2,
                                                key_space=KEY_SPACE)
        sharded.insert(10, 5.0, 1)
        sharded.insert(300, 7.0, 2)
        # Simulate a crash: no checkpoint, no close.
        del sharded

        recovered = ShardedWarehouse.open_durable(str(tmp_path))
        assert recovered.sum(KeyRange(*KEY_SPACE), Interval(1, 3)) == 12.0
        recovered.close()
