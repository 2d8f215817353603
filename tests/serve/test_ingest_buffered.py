"""Buffered ingestion through the serving stack.

The ``--ingest buffered`` knob, the load op's ``mode`` field, TQL ``LOAD
[BUFFERED]`` over the wire, and the procpool packed-batch fan-out
(``load_bytes`` gauges) — all must leave answers identical to direct
ingestion.
"""

from __future__ import annotations

import functools
import random
import threading

import pytest

from repro.core.model import Interval, KeyRange
from repro.errors import ConcurrentAccessError
from repro.mvsbt.tree import MVSBT
from repro.serve.client import Client
from repro.serve.procpool import ProcessShardedWarehouse
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse

KEYS = 60
KEY_SPACE = (1, KEYS + 1)


def _events(keys: int, seed: int):
    rng = random.Random(seed)
    events, t = [], 1
    for key in range(1, keys + 1):
        events.append(("insert", key, float(rng.randint(1, 50)), t))
        if rng.random() < 0.4:
            t += 1
    for key in range(1, keys + 1, 7):
        t += 1
        events.append(("delete", key, 0.0, t))
    return events, t


def _rectangles(now: int, count: int, seed: int):
    rng = random.Random(seed)
    rects = []
    for _ in range(count):
        lo = rng.randint(1, KEYS)
        hi = rng.randint(lo + 1, KEYS + 1)
        t0 = rng.randint(1, now)
        t1 = rng.randint(t0 + 1, now + 1)
        rects.append((KeyRange(lo, hi), Interval(t0, t1)))
    return rects


class TestShardedBuffered:
    def test_thread_backend_buffered_matches_direct(self):
        events, now = _events(KEYS, 41)
        direct = ShardedWarehouse(shards=3, key_space=KEY_SPACE)
        buffered = ShardedWarehouse(shards=3, key_space=KEY_SPACE)
        direct.load_events(events)
        report = buffered.load_events(events, mode="buffered")
        assert report.events == len(events)
        assert report.buffered_events > 0
        for key_range, interval in _rectangles(now, 20, 43):
            assert repr(buffered.sum(key_range, interval)) == repr(
                direct.sum(key_range, interval))

    def test_read_overlapping_a_buffered_load_never_drains_the_window(self):
        """A latch-free reader that started before a buffered LOAD opened
        its window must not cross the drain barrier from its own thread:
        it is refused, counts as a torn read, and comes back with the
        pre- or post-load answer."""
        events, now = _events(KEYS, 71)
        first, rest = events[:20], events[20:]
        key_range = KeyRange(1, KEYS // 2)
        interval = Interval(1, now + 2)
        reference = ShardedWarehouse(shards=2, key_space=KEY_SPACE)
        reference.load_events(first)
        allowed = {repr(reference.sum(key_range, interval))}
        reference.load_events(rest)
        allowed.add(repr(reference.sum(key_range, interval)))

        sharded = ShardedWarehouse(shards=2, key_space=KEY_SPACE,
                                   thread_safe=True)
        sharded.load_events(first)
        shard = sharded.shards[0]
        reader_inside, window_open = threading.Event(), threading.Event()
        reader_refused = threading.Event()
        real_aggregate = shard.aggregate
        drainers = set()

        def paused_aggregate(*args):
            # First attempt only: hold an optimistic traversal open (even
            # epoch captured, no lock) until the writer's window exists.
            if not reader_inside.is_set():
                reader_inside.set()
                assert window_open.wait(10)
                try:
                    return real_aggregate(*args)
                except ConcurrentAccessError:
                    reader_refused.set()
                    raise
            return real_aggregate(*args)

        def window_then_wait(tree, *args):
            window = MVSBT.begin_buffered(tree, *args)
            drain = window.drain

            def recorded_drain():
                drainers.add(threading.get_ident())
                drain()

            window.drain = recorded_drain
            if not window_open.is_set():
                window_open.set()
                assert reader_refused.wait(10)
            return window

        shard.aggregate = paused_aggregate
        for lkst, lklt in shard.aggregates.trees().values():
            for tree in (lkst, lklt):
                tree.begin_buffered = functools.partial(window_then_wait,
                                                        tree)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(
            repr(sharded.sum(key_range, interval))))
        reader.start()
        assert reader_inside.wait(10)
        sharded.load_events(rest, mode="buffered")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert reader_refused.is_set()
        assert answers and answers[0] in allowed
        assert drainers <= {threading.get_ident()}

    def test_process_backend_buffered_matches_and_counts_bytes(self):
        events, now = _events(KEYS, 57)
        reference = ShardedWarehouse(shards=3, key_space=KEY_SPACE)
        reference.load_events(events)
        process = ProcessShardedWarehouse(shards=3, key_space=KEY_SPACE)
        try:
            report = process.load_events(events, mode="buffered")
            assert report.events == len(events)
            assert report.buffered_events > 0
            for key_range, interval in _rectangles(now, 12, 59):
                assert repr(process.sum(key_range, interval)) == repr(
                    reference.sum(key_range, interval))
            stats = process.worker_stats()
            # Each partition crossed the worker pipe as one packed blob.
            assert sum(row["load_bytes"] for row in stats) > 0
        finally:
            process.close()


class TestServerIngestKnob:
    def test_default_buffered_and_explicit_override(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), ingest="buffered", cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                report = client.load(
                    [["insert", i, 2.0, i] for i in range(1, 11)])
                assert report["buffered_events"] == 10
                report = client.load(
                    [["insert", 50 + i, 1.0, 20 + i] for i in range(1, 6)],
                    mode="direct")
                assert report["buffered_events"] == 0
                client.repin()
                total = client.execute(
                    "SELECT SUM(value) WHERE key IN [1, 101)")
                assert total == pytest.approx(25.0)
        finally:
            handle.stop()

    def test_invalid_mode_rejected(self):
        handle = serve_in_thread(ServerConfig(
            shards=1, key_space=(1, 101), cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                from repro.errors import ReproError

                with pytest.raises(ReproError):
                    client.load([["insert", 1, 1.0, 1]], mode="turbo")
        finally:
            handle.stop()

    def test_tql_load_over_the_wire(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), ingest="buffered", cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                # A plain LOAD inherits the server's --ingest default.
                message = client.execute(
                    "LOAD INSERT KEY 5 VALUE 2 AT 1, "
                    "INSERT KEY 80 VALUE 3 AT 2")
                assert "mode=buffered" in message
                client.repin()
                assert client.execute(
                    "SELECT SUM(value)") == pytest.approx(5.0)
        finally:
            handle.stop()

    def test_tql_load_buffered_on_direct_server(self):
        handle = serve_in_thread(ServerConfig(
            shards=1, key_space=(1, 101), cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                message = client.execute(
                    "LOAD BUFFERED INSERT KEY 9 VALUE 4 AT 3")
                assert "mode=buffered" in message
                message = client.execute("LOAD INSERT KEY 10 VALUE 1 AT 5")
                assert "mode=direct" in message
                client.repin()
                assert client.execute(
                    "SELECT SUM(value)") == pytest.approx(5.0)
        finally:
            handle.stop()


class TestProcpoolGauges:
    def test_load_bytes_gauge_published(self, tmp_path):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), executor="process",
            ingest="buffered", cache=False,
            durable_dir=str(tmp_path / "wh")))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                report = client.load(
                    [["insert", i, 1.0, i] for i in range(1, 21)])
                assert report["events"] == 20
                metrics = client.metrics()
                gauges = [entry["value"]
                          for name, payload in metrics.items()
                          if "procpool_load_bytes" in name
                          for entry in payload["series"]]
                assert gauges, sorted(metrics)
                assert sum(gauges) > 0
        finally:
            handle.stop()
