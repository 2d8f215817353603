"""The process-per-shard backend answers exactly like the thread backend.

Both backends route and gather through :class:`ShardRouter`, so equality
is structural — these tests prove it holds end to end anyway: same
fixed-seed workload in, ``repr``-identical answers out, through the
direct API and through a TCP server running ``executor="process"``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.model import Interval, KeyRange
from repro.serve.client import Client
from repro.serve.procpool import ProcessShardedWarehouse
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse

KEYS = 60
SEED = 99


def _events(keys: int, seed: int):
    rng = random.Random(seed)
    events = []
    t = 1
    for key in range(1, keys + 1):
        events.append(("insert", key, float(rng.randint(1, 50)), t))
        if rng.random() < 0.4:
            t += 1
    for key in range(1, keys + 1, 7):
        t += 1
        events.append(("delete", key, 0.0, t))
    return events, t


def _rectangles(keys: int, now: int, count: int, seed: int):
    rng = random.Random(seed)
    rects = []
    for _ in range(count):
        lo = rng.randint(1, keys)
        hi = rng.randint(lo + 1, keys + 1)
        t0 = rng.randint(1, now)
        t1 = rng.randint(t0 + 1, now + 1)
        rects.append((KeyRange(lo, hi), Interval(t0, t1)))
    return rects


@pytest.fixture(scope="module")
def twins():
    events, now = _events(KEYS, SEED)
    thread_backend = ShardedWarehouse(shards=3, key_space=(1, KEYS + 1))
    process_backend = ProcessShardedWarehouse(
        shards=3, key_space=(1, KEYS + 1))
    thread_backend.load_events(events)
    process_backend.load_events(events)
    yield thread_backend, process_backend, now
    process_backend.close()


class TestTwinAnswers:
    def test_aggregates_byte_identical(self, twins):
        thread_backend, process_backend, now = twins
        for key_range, interval in _rectangles(KEYS, now, 40, SEED + 1):
            for method in ("sum", "count", "avg", "min", "max"):
                expect = repr(getattr(thread_backend, method)(key_range,
                                                              interval))
                got = repr(getattr(process_backend, method)(key_range,
                                                            interval))
                assert got == expect, (method, key_range, interval)

    def test_snapshot_and_history_identical(self, twins):
        thread_backend, process_backend, now = twins
        key_range = KeyRange(1, KEYS + 1)
        assert (process_backend.snapshot(key_range, now)
                == thread_backend.snapshot(key_range, now))
        assert (process_backend.tuples_in(key_range, Interval(1, now + 1))
                == thread_backend.tuples_in(key_range, Interval(1, now + 1)))
        for key in (1, KEYS // 2, KEYS):
            assert (process_backend.history(key)
                    == thread_backend.history(key))

    def test_explain_plans_identical(self, twins):
        thread_backend, process_backend, now = twins
        plans_thread = thread_backend.explain(KeyRange(5, KEYS),
                                              Interval(1, now + 1))
        plans_process = process_backend.explain(KeyRange(5, KEYS),
                                                Interval(1, now + 1))
        assert [(p.shard, p.key_range) for p in plans_process] \
            == [(p.shard, p.key_range) for p in plans_thread]

    def test_worker_stats_cover_every_shard(self, twins):
        _, process_backend, now = twins
        client = process_backend.handle(0).primary
        part = KeyRange(*client.spec.key_space)
        before = process_backend.worker_stats()[0]
        answers = {client.call("sum", part, Interval(1, now + 1))
                   for _ in range(12)}
        assert len(answers) == 1  # identical queries, identical answers
        stats = process_backend.worker_stats()

        assert [row["shard"] for row in stats] == [0, 1, 2]
        assert all(row["alive"] for row in stats)
        assert all(row["requests"] > 0 for row in stats)
        # A read is counted as a read, never as a write.
        assert stats[0]["reads"] - before["reads"] == 12
        assert stats[0]["writes"] == before["writes"]

    def test_warehouse_is_not_picklable(self, twins):
        import pickle

        thread_backend, _, _ = twins
        with pytest.raises(TypeError):
            pickle.dumps(thread_backend.shards[0])


class TestProcessServer:
    def test_server_drives_process_backend(self, tmp_path):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), executor="process",
            cache=False, durable_dir=str(tmp_path / "wh")))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                assert client.ping()
                for i in range(1, 11):
                    client.execute(f"INSERT KEY {i} VALUE 1.5 AT {i}")
                client.repin()
                total = client.execute(
                    "SELECT SUM(value) WHERE key IN [1, 101)")
                assert total == pytest.approx(15.0)

                report = client.load(
                    [["insert", 50 + i, 2.0, 10 + i] for i in range(1, 6)])
                assert report["events"] == 5
                client.repin()
                total = client.execute(
                    "SELECT SUM(value) WHERE key IN [1, 101)")
                assert total == pytest.approx(25.0)

                plans = client.execute(
                    "EXPLAIN SELECT SUM(value) WHERE key IN [1, 101)")
                assert {p["shard"] for p in plans} == {0, 1}

                metrics = client.metrics()
                assert any("procpool" in name for name in metrics), \
                    sorted(metrics)

                respawned = client.respawn(1)
                assert respawned["shard"] == 1
                total = client.execute(
                    "SELECT SUM(value) WHERE key IN [1, 101)")
                assert total == pytest.approx(25.0)
        finally:
            handle.stop()
