"""Concurrent readers get the serial answers, whichever backend serves them.

Six clients on a process-executor server must see exactly what one
client on a thread server sees (MIN/MAX included, which retrieve rather
than run Equation (1)); a statement that fails does so alone; and reads
pinned to an ``AS OF`` snapshot never move while a writer advances the
clock under them.
"""

import random
import threading

import pytest

from repro.serve.client import Client, ServerReplyError
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse
from repro.tql import executor
from repro.tql.parser import parse

KEYS = 80
KEY_SPACE = (1, KEYS + 1)
CLIENTS = 6
#: Clipping to the snapshot empties this interval: rectangle resolution
#: fails on every backend.
BAD = f"SELECT SUM(value) WHERE key IN [1, 10) AND TIME DURING [{KEYS}, 10)"


def _statements(count, seed=41, horizon=KEYS + 1):
    """SELECTs over random rectangles whose windows end by ``horizon``."""
    rng = random.Random(seed)
    aggs = ("SUM(value)", "COUNT(*)", "AVG(value)", "MIN(value)",
            "MAX(value)")
    out = []
    for _ in range(count):
        lo = rng.randint(1, KEYS - 5)
        hi = rng.randint(lo + 1, KEYS + 1)
        t0 = rng.randint(1, KEYS - 1)
        t1 = rng.randint(t0 + 1, horizon)
        out.append(f"SELECT {rng.choice(aggs)} WHERE key IN [{lo}, {hi}) "
                   f"AND TIME DURING [{t0}, {t1})")
    return out


def _outcome(client, stmt):
    try:
        return repr(client.execute(stmt))
    except ServerReplyError as exc:
        return f"error:{exc.code}"


def _drive(handle, stmts, threads):
    """Each thread executes its stripe; returns ``stmt -> outcome``."""
    outcomes = {}
    errors = []
    lock = threading.Lock()

    def run(w):
        try:
            with Client(handle.host, handle.port) as client:
                client.repin()
                for stmt in stmts[w::threads]:
                    value = _outcome(client, stmt)
                    with lock:
                        outcomes[stmt] = value
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(w,), daemon=True)
            for w in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors[0]
    return outcomes


@pytest.fixture(scope="module")
def servers():
    """A process server and a thread server holding the same tuples."""
    handles = {}
    try:
        for name in ("process", "thread"):
            handle = serve_in_thread(ServerConfig(
                shards=2, key_space=KEY_SPACE, cache=False,
                readers=CLIENTS, executor=name))
            handles[name] = handle
            with Client(handle.host, handle.port) as client:
                client.load([("insert", key, float(key), key)
                             for key in range(1, KEYS + 1)])
        yield handles
    finally:
        for handle in handles.values():
            handle.stop()


class TestConcurrentClients:
    def test_process_server_answers_like_a_thread_server(self, servers):
        stmts = _statements(96)
        assert any("MIN(" in s for s in stmts)
        assert any("MAX(" in s for s in stmts)
        concurrent = _drive(servers["process"], stmts, threads=CLIENTS)
        serial = _drive(servers["thread"], stmts, threads=1)
        assert concurrent == serial
        assert not any(v.startswith("error:") for v in serial.values())

    def test_bad_statement_fails_only_itself(self, servers):
        good = _statements(40)
        stmts = []
        for i, stmt in enumerate(good):
            stmts.append(stmt)
            if i % 5 == 0:
                stmts.append(BAD)
        outcomes = _drive(servers["process"], stmts, threads=CLIENTS)
        assert outcomes[BAD].startswith("error:")
        serial = _drive(servers["thread"], good, threads=1)
        for stmt in good:
            assert outcomes[stmt] == serial[stmt]


class TestPinnedReadsUnderWrites:
    def test_as_of_reads_never_change_beside_a_writer(self):
        """Windows reaching past the pin are clipped to it, so the
        writer's later versions never show."""
        warehouse = ShardedWarehouse(shards=2, key_space=KEY_SPACE,
                                     thread_safe=True)
        for key in range(1, KEYS + 1):
            warehouse.insert(key, float(key), key)
        pinned = warehouse.now
        stmts = [parse(s) for s in _statements(32, seed=42,
                                               horizon=KEYS + 40)]
        expected = [repr(executor.execute(warehouse, stmt, as_of=pinned))
                    for stmt in stmts]

        stop = threading.Event()

        def write():
            t = warehouse.now + 1
            while not stop.is_set():
                warehouse.delete(KEYS, t)
                warehouse.insert(KEYS, float(t), t)
                t += 1

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            for _ in range(20):
                observed = [repr(executor.execute(warehouse, stmt,
                                                  as_of=pinned))
                            for stmt in stmts]
                assert observed == expected
        finally:
            stop.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert warehouse.now > pinned
