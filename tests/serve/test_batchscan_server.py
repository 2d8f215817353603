"""The server's shared-scan queue and the batch path under writes.

Concurrent SELECT aggregates on a ``scan_batch > 1`` server drain
through ``_group_scan`` into vectorized sweeps; the answers (and the
per-statement errors) must be exactly what a ``scan_batch=1`` server
produces, and the ``repro_batchscan_*`` gauges must account for the
groups.  The grouped servers run the process executor: on the thread
backend a SUM/COUNT/AVG executes in the event loop's read lane and never
queues for a group, so there only MIN/MAX would — and the serial twin,
a thread server, checks the lane's answers against the groups'.  The MVCC section pins batched readers to an AS OF snapshot
while a writer advances the clock — epoch batching may never leak a
mid-write state into a pinned answer.
"""

import random
import threading

import pytest

from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.serve.client import Client, ServerReplyError
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse
from repro.tql import executor
from repro.tql.parser import parse

KEYS = 80
KEY_SPACE = (1, KEYS + 1)


def _metric(registry, name):
    family = registry.get(name) or {}
    return sum(entry.get("value", 0.0)
               for entry in family.get("series", []))


def _seed(handle):
    events = [("insert", key, float(key), key) for key in range(1, KEYS + 1)]
    with Client(handle.host, handle.port) as client:
        client.load(events)


def _statements(count, seed=41):
    rng = random.Random(seed)
    aggs = ("SUM(value)", "COUNT(*)", "AVG(value)", "MIN(value)",
            "MAX(value)")
    out = []
    for _ in range(count):
        lo = rng.randint(1, KEYS - 5)
        hi = rng.randint(lo + 1, KEYS + 1)
        t0 = rng.randint(1, KEYS - 1)
        t1 = rng.randint(t0 + 1, KEYS + 1)
        out.append(f"SELECT {rng.choice(aggs)} WHERE key IN [{lo}, {hi}) "
                   f"AND TIME DURING [{t0}, {t1})")
    return out


def _drive(handle, stmts, threads):
    """Each thread executes its stripe; returns ``stmt -> repr(answer)``."""
    answers = {}
    errors = []
    lock = threading.Lock()

    def run(w):
        try:
            with Client(handle.host, handle.port) as client:
                client.repin()
                for stmt in stmts[w::threads]:
                    value = repr(client.execute(stmt))
                    with lock:
                        answers[stmt] = value
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(w,), daemon=True)
            for w in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors, errors[0]
    return answers


class TestSharedScanGroups:
    def test_grouped_answers_match_serial_server(self):
        stmts = _statements(96)
        results = {}
        for tag, scan_batch, executor_name in (("batch", 8, "process"),
                                               ("serial", 1, "thread")):
            handle = serve_in_thread(ServerConfig(
                shards=2, key_space=KEY_SPACE, cache=False,
                scan_batch=scan_batch, readers=6, executor=executor_name))
            try:
                _seed(handle)
                results[tag] = _drive(handle, stmts, threads=6)
                if tag == "batch":
                    with Client(handle.host, handle.port) as client:
                        registry = client.metrics()
            finally:
                handle.stop()
        assert results["batch"] == results["serial"]
        assert _metric(registry, "repro_batchscan_batches") > 0
        assert _metric(registry, "repro_batchscan_epoch_fallbacks") == 0

    def test_bad_statement_fails_only_itself_under_grouping(self):
        good = _statements(40)
        # An empty interval fails rectangle resolution: the server must
        # answer every good statement and fail exactly the bad ones,
        # grouped or not.
        bad = ("SELECT SUM(value) WHERE key IN [1, 10) "
               f"AND TIME DURING [{KEYS}, 10)")
        stmts = []
        for i, stmt in enumerate(good):
            stmts.append(stmt)
            if i % 5 == 0:
                stmts.append(bad)
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, cache=False, scan_batch=8,
            readers=6, executor="process"))
        try:
            _seed(handle)
            outcomes = {}
            errors = []
            lock = threading.Lock()

            def run(w):
                try:
                    with Client(handle.host, handle.port) as client:
                        client.repin()
                        for stmt in stmts[w::6]:
                            try:
                                value = repr(client.execute(stmt))
                            except ServerReplyError as exc:
                                value = f"error:{exc.code}"
                            with lock:
                                outcomes[stmt] = value
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            pool = [threading.Thread(target=run, args=(w,), daemon=True)
                    for w in range(6)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert not errors, errors[0]
        finally:
            handle.stop()
        assert outcomes[bad].startswith("error:")
        serial = {}
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, cache=False, scan_batch=1))
        try:
            _seed(handle)
            with Client(handle.host, handle.port) as client:
                client.repin()
                for stmt in good:
                    serial[stmt] = repr(client.execute(stmt))
        finally:
            handle.stop()
        for stmt in good:
            assert outcomes[stmt] == serial[stmt]


class TestBatchUnderWrites:
    def test_pinned_batches_survive_concurrent_writes(self):
        warehouse = ShardedWarehouse(shards=2, key_space=KEY_SPACE,
                                     thread_safe=True)
        for key in range(1, KEYS + 1):
            warehouse.insert(key, float(key), key)
        pinned = warehouse.now
        stmts = [parse(s) for s in _statements(32, seed=42)]
        requests = [(stmt, pinned) for stmt in stmts]
        expected = [repr(x) for x in
                    executor.execute_select_batch(warehouse, requests)]

        stop = threading.Event()

        def write():
            t = warehouse.now + 1
            key = KEYS
            while not stop.is_set():
                warehouse.delete(key, t)
                warehouse.insert(key, float(t), t)
                t += 1

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            for _ in range(20):
                observed = [repr(x) for x in
                            executor.execute_select_batch(warehouse,
                                                          requests)]
                assert observed == expected
        finally:
            stop.set()
            writer.join()
        stats = warehouse.batch_snapshot()
        assert stats["epoch_validations"] >= stats["batches"] > 0
        # Mid-write epochs may tear individual batches; fallbacks are
        # bounded by the queries that rode batches, never silently more.
        assert 0 <= stats["epoch_fallbacks"] <= stats["batched_queries"]
