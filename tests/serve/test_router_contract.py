"""One contract for the one router, over all three constructions.

``ShardedWarehouse`` (in-thread handles), ``ProcessShardedWarehouse``
(worker groups) and ``ClusterWarehouse`` (worker groups with a replica)
only *build* shard handles; every method below is
:class:`~repro.serve.sharded.ShardRouter` code.  So one scenario — each
construction durable, driven, closed and reopened once — must produce
transcripts that are byte-identical to each other and agree with the
brute-force oracle, and every admin verb a construction does not support
must raise the typed ``PROTOCOL`` error.
"""

from types import SimpleNamespace

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.cache import CacheConfig, CacheSnapshot
from repro.core.model import Interval, KeyRange
from repro.errors import ProtocolError, QueryError
from repro.serve.cluster import ClusterWarehouse
from repro.serve.procpool import ProcessShardedWarehouse
from repro.serve.sharded import ShardedWarehouse
from tests.oracles import TupleStoreOracle

KEY_SPACE = (1, 401)
SHAPE = dict(shards=2, key_space=KEY_SPACE, page_capacity=8)

BACKENDS = {
    "thread": lambda d: ShardedWarehouse.open_durable(
        d, thread_safe=True, **SHAPE),
    "process": lambda d: ProcessShardedWarehouse(durable_dir=d, **SHAPE),
    "process+replica": lambda d: ClusterWarehouse(
        durable_dir=d, replicas=1, **SHAPE),
}

#: Admin verbs each construction supports; the rest must raise.
SUPPORTED = {
    "thread": set(),
    "process": {"respawn"},
    "process+replica": {"respawn", "topology_info", "split", "merge",
                        "promote"},
}
ADMIN_CALLS = {
    "respawn": lambda r: r.respawn(0),
    "topology_info": lambda r: r.topology_info(),
    "split": lambda r: r.split(0),
    "merge": lambda r: r.merge(0, 1),
    "promote": lambda r: r.promote(0),
}

RECTANGLES = [
    (KeyRange(*KEY_SPACE), Interval(1, 40)),      # both shards, closed
    (KeyRange(150, 260), Interval(5, 200)),       # straddles the boundary
    (KeyRange(10, 60), Interval(20, 21)),         # one shard, one instant
    (KeyRange(390, 395), Interval(1, 2)),         # empty: AVG/MIN/MAX None
    # Few or no qualifying tuples — where an additive aggregate used to
    # retrieve; every one of them now runs Equation (1).
    (KeyRange(19, 20), Interval(1, 54)),          # one key (updated), t_lo 1
    (KeyRange(30, 80), Interval(5, 6)),           # one instant, 3 tuples
    (KeyRange(396, 401), Interval(1, 40)),        # k_hi == key-space high
    (KeyRange(190, 215), Interval(1, 500)),       # straddles, t_hi > now
    (KeyRange(2, 3), Interval(1, 30)),            # one key, not yet born
]
ADDITIVE = (SUM, COUNT, AVG)


def drive(router, oracle):
    """Every kind of update, mirrored into the oracle."""
    t = 1
    for key in range(5, 400, 14):                 # odd keys, one by one
        router.insert(key, float(key % 11 + 1), t)
        oracle.insert(key, float(key % 11 + 1), t)
        t += 1
    batch = [("insert", key, float(key % 5 + 1), t + i)
             for i, key in enumerate(range(6, 400, 18))]   # even keys
    batch.append(("delete", 6, 0.0, t + len(batch)))
    report = router.load_events(batch)
    assert report.events == len(batch)
    for op, key, value, when in batch:
        if op == "insert":
            oracle.insert(key, value, when)
        else:
            oracle.delete(key, when)
    t += len(batch)
    assert router.delete(24, t) == oracle.tuples[oracle._alive[24]][3]
    oracle.delete(24, t)
    router.update(19, 99.0, t + 1)
    oracle.delete(19, t + 1)
    oracle.insert(19, 99.0, t + 1)
    results = router.apply_shard_batch(
        0, [("insert", 399, 4.0, t + 2), ("insert", 2, 6.0, t + 2),
            ("insert", 2, 7.0, t + 2)])
    assert [tag for tag, _ in results] == ["ok", "ok", "err"]
    oracle.insert(399, 4.0, t + 2)
    oracle.insert(2, 6.0, t + 2)
    assert router.now == t + 2


def transcript(router):
    """Every read the router offers, as ``(label, repr)`` rows."""
    rows = []
    open_present = (KeyRange(*KEY_SPACE), Interval(30, router.now + 1))
    for key_range, interval in RECTANGLES + [open_present]:
        for agg in (SUM, COUNT, AVG, MIN, MAX):
            rows.append((f"{agg.name}{key_range}{interval}",
                         repr(router.aggregate(key_range, interval, agg))))
        rows.append((f"ALL{key_range}{interval}",
                     repr(router.aggregate_all(key_range, interval))))
        rows.append((f"tuples{key_range}{interval}",
                     repr(router.tuples_in(key_range, interval))))
    with pytest.raises(QueryError):
        router.aggregate(KeyRange(*KEY_SPACE), Interval(1, 9),
                         SimpleNamespace(name="MEDIAN"))
    for agg in ADDITIVE:    # the plan EXPLAIN names is the plan that ran
        plans = [router.explain(kr, iv, agg) for kr, iv in RECTANGLES]
        assert {part.plan.plan for parts in plans for part in parts} \
            == {"mvsbt"}
        assert [len(parts) for parts in plans[:2]] == [2, 2]
    rows.append(("snapshot", repr(router.snapshot(KeyRange(100, 300), 25))))
    rows.append(("history", repr(router.history(19))))
    rows.append(("explain", repr(router.explain(*RECTANGLES[1], SUM))))
    traced = router.explain_trace(*RECTANGLES[1], SUM)
    assert all(set(row) == {"shard", "key_range", "plan", "result",
                            "record", "cache"} for row in traced)
    rows.append(("explain_trace", repr(
        [(row["shard"], row["key_range"], row["plan"].plan, row["result"],
          row["record"]["name"]) for row in traced])))
    rows.append(("shape", repr((router.shard_ids(), router.boundaries,
                                router.shard_count, router.now))))
    return rows


def check_against_oracle(router, oracle):
    for key_range, interval in RECTANGLES:
        box = (key_range.low, key_range.high, interval.start, interval.end)
        assert router.sum(key_range, interval) == oracle.rta_sum(*box)
        assert router.count(key_range, interval) == oracle.rta_count(*box)
        assert router.avg(key_range, interval) == oracle.rta_avg(*box)
        values = [v for _k, _s, _e, v in oracle.rectangle_tuples(*box)]
        assert router.min(key_range, interval) == \
            (min(values) if values else None)
        assert router.max(key_range, interval) == \
            (max(values) if values else None)
        assert sorted((t.key, t.interval.start, t.interval.end, t.value)
                      for t in router.tuples_in(key_range, interval)) == \
            sorted(oracle.rectangle_tuples(*box))
    assert router.snapshot(KeyRange(100, 300), 25) == \
        sorted(oracle.range_snapshot(100, 300, 25))


def scenario(name, directory):
    """Drive, read, checkpoint, close, reopen, read again."""
    oracle = TupleStoreOracle()
    router = BACKENDS[name](directory)
    try:
        router.enable_cache(CacheConfig())
        drive(router, oracle)
        first = transcript(router)
        check_against_oracle(router, oracle)
        assert first == transcript(router)  # now (partly) from the caches
        snapshot = router.cache_snapshot()
        assert isinstance(snapshot, CacheSnapshot)
        assert snapshot.result["hits"] + snapshot.result["misses"] > 0
        assert router.page_count() > 0
        router.check_invariants()
        router.checkpoint()
    finally:
        router.close()
    assert router.closed
    router = BACKENDS[name](directory)
    try:
        assert transcript(router) == first
        check_against_oracle(router, oracle)
        router.check_invariants()
        for verb, call in ADMIN_CALLS.items():
            if verb in SUPPORTED[name]:
                continue
            with pytest.raises(ProtocolError) as excinfo:
                call(router)
            assert f'op "{verb.split("_")[0]}" requires' in \
                str(excinfo.value)
        if "respawn" in SUPPORTED[name]:
            assert isinstance(router.respawn(0), int)
            assert transcript(router) == first
        if "topology_info" in SUPPORTED[name]:
            assert [g["gid"] for g in router.topology_info()["groups"]] \
                == router.shard_ids()
    finally:
        router.close()
    return first


@pytest.mark.parametrize("name", ["thread", "process"])
def test_sum_then_avg_of_one_rectangle_is_one_miss_and_one_hit(
        name, tmp_path):
    """A shard keeps one result-cache entry a rectangle (its
    ``RTAResult``): SUM pays for it, AVG and COUNT read it."""
    router = BACKENDS[name](str(tmp_path))
    try:
        router.enable_cache(CacheConfig())
        for key in range(5, 400, 14):
            router.insert(key, float(key % 11 + 1), key)
        key_range, interval = KeyRange(150, 260), Interval(5, 200)
        parts = len(router.parts_for(key_range))
        assert parts == 2
        total = router.aggregate(key_range, interval, SUM)
        result = router.cache_snapshot().result
        assert (result["misses"], result["hits"]) == (parts, 0)
        average = router.aggregate(key_range, interval, AVG)
        result = router.cache_snapshot().result
        assert (result["misses"], result["hits"]) == (parts, parts)
        count = router.aggregate(key_range, interval, COUNT)
        assert average == total / count
    finally:
        router.close()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return scenario("thread", str(tmp_path_factory.mktemp("thread")))


@pytest.mark.parametrize("name", ["process", "process+replica"])
def test_every_construction_answers_like_the_thread_router(
        name, reference, tmp_path):
    assert scenario(name, str(tmp_path)) == reference


def test_thread_router_meets_the_contract(reference):
    assert reference  # the fixture ran the whole scenario, oracle included
