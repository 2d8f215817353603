"""The loader's size rule through the serving stack.

Each shard warehouse picks the ingest path from the size of the part it
receives, so one ``load`` whose per-shard parts straddle
``BUFFERED_MIN_EVENTS`` runs the buffer-tree window on one shard and the
direct path on another — on every backend, with answers identical to an
event-at-a-time twin.  Nothing on the wire can say otherwise: a
``"mode"`` field is ignored like any unknown field and ``LOAD BUFFERED``
is a syntax error.  The procpool packed-batch fan-out (``load_bytes``
gauges) rides along.
"""

from __future__ import annotations

import functools
import random
import threading

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.ingest import BUFFERED_MIN_EVENTS
from repro.core.model import Interval, KeyRange
from repro.errors import ConcurrentAccessError
from repro.mvsbt.tree import MVSBT
from repro.serve.client import Client, ServerReplyError
from repro.serve.cluster import ClusterWarehouse
from repro.serve.procpool import ProcessShardedWarehouse
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse

KEYS = 700
KEY_SPACE = (1, KEYS + 1)

#: Two shards, [1, 601) and [601, 1201): the stream below puts a part at
#: the constant on the first and a part under it on the second.
WIDE = dict(shards=2, key_space=(1, 1201), page_capacity=8)


def _straddling_events():
    """(events, clock, big part size): chronological, shard 0's part is
    ``BUFFERED_MIN_EVENTS + 40`` events, shard 1's is 90."""
    rng = random.Random(97)
    big, small = BUFFERED_MIN_EVENTS, 70
    keys = [(key, 0) for key in range(1, big + 1)] \
        + [(key, 1) for key in range(601, 601 + small)]
    rng.shuffle(keys)
    events, t = [], 1
    for key, _shard in keys:
        events.append(("insert", key, float(rng.randint(1, 50)), t))
        t += rng.random() < 0.3
    for key in list(range(1, 41)) + list(range(601, 621)):
        t += 1
        events.append(("delete", key, 0.0, t))
    return events, t, big + 40


def _wide_rectangles(now: int, count: int, seed: int):
    rng = random.Random(seed)
    rects = [(KeyRange(1, 1201), Interval(1, now + 1))]
    for _ in range(count):
        lo = rng.randint(1, 700)
        hi = rng.randint(lo + 1, 1201)
        t0 = rng.randint(1, now)
        rects.append((KeyRange(lo, hi),
                      Interval(t0, rng.randint(t0 + 1, now + 1))))
    return rects


def _twin_answers(warehouse, now):
    return [repr(warehouse.aggregate(key_range, interval, aggregate))
            for key_range, interval in _wide_rectangles(now, 16, 5)
            for aggregate in (SUM, COUNT, AVG, MIN, MAX)]


BACKENDS = {
    "thread": lambda d: ShardedWarehouse(thread_safe=True, **WIDE),
    "process": lambda d: ProcessShardedWarehouse(**WIDE),
    "process+replica": lambda d: ClusterWarehouse(
        durable_dir=d, replicas=1, **WIDE),
}


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


class TestShardedBuffered:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_parts_straddling_the_constant(self, tmp_path, name):
        """One load, two sides: shard 0's part runs the buffer-tree
        window, shard 1's the direct path; the report says which."""
        events, now, big = _straddling_events()
        twin = ShardedWarehouse(**WIDE)
        for op, key, value, t in events:
            if op == "insert":
                twin.insert(key, value, t)
            else:
                twin.delete(key, t)
        router = BACKENDS[name](str(tmp_path))
        try:
            report = router.load_events(events)
            assert report.events == len(events)
            assert report.buffered_events == big
            assert report.flushed_pages > 0
            assert _twin_answers(router, now) == _twin_answers(twin, now)
            if name == "process+replica":
                # Replica reads are fenced on the acked sequence; ask
                # often enough that the round-robin reaches one.
                for _ in range(3):
                    assert _twin_answers(router, now) \
                        == _twin_answers(twin, now)
            router.check_invariants()
        finally:
            router.close()

    def test_thread_backend_buffered_matches_direct(self):
        events, now, big = _straddling_events()
        direct = ShardedWarehouse(**WIDE)
        buffered = ShardedWarehouse(**WIDE)
        for lo in range(0, len(events), BUFFERED_MIN_EVENTS - 1):
            part = events[lo:lo + BUFFERED_MIN_EVENTS - 1]
            assert direct.load_events(part).buffered_events == 0
        assert buffered.load_events(events).buffered_events == big
        assert _twin_answers(buffered, now) == _twin_answers(direct, now)

    def test_read_overlapping_a_buffered_load_never_drains_the_window(self):
        """A latch-free reader that started before a buffered LOAD opened
        its window must not cross the drain barrier from its own thread:
        it is refused, counts as a torn read, and comes back with the
        pre- or post-load answer."""
        events, now = _events(KEYS, 71)
        first, rest = events[:20], events[20:]
        # Shard 0's part of ``rest`` is large enough to open the window.
        assert sum(1 for event in rest if event[1] <= KEYS // 2) \
            >= BUFFERED_MIN_EVENTS
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
        for tree in shard.aggregates.trees():
            tree.begin_buffered = functools.partial(window_then_wait, tree)
        answers = []
        reader = threading.Thread(target=lambda: answers.append(
            repr(sharded.sum(key_range, interval))))
        reader.start()
        assert reader_inside.wait(10)
        report = sharded.load_events(rest)
        assert report.buffered_events >= BUFFERED_MIN_EVENTS
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert reader_refused.is_set()
        assert answers and answers[0] in allowed
        assert drainers <= {threading.get_ident()}

    def test_process_backend_buffered_matches_and_counts_bytes(self):
        events, now, big = _straddling_events()
        reference = ShardedWarehouse(**WIDE)
        reference.load_events(events)
        process = ProcessShardedWarehouse(**WIDE)
        try:
            report = process.load_events(events)
            assert report.events == len(events)
            assert report.buffered_events == big
            assert _twin_answers(process, now) \
                == _twin_answers(reference, now)
            stats = process.worker_stats()
            # Each partition crossed the worker pipe as one packed blob.
            assert all(row["load_bytes"] > 0 for row in stats)
        finally:
            process.close()


class TestLoadOverTheWire:
    """Nothing a client sends selects the ingest path."""

    def test_mode_field_is_ignored(self):
        handle = serve_in_thread(ServerConfig(
            shards=1, key_space=(1, 1201), cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                rows = [["insert", key, 2.0, key]
                        for key in range(1, BUFFERED_MIN_EVENTS + 1)]
                for extra in ({"mode": "direct"}, {"mode": "turbo"}, {}):
                    reply = client.request(dict(
                        {"op": "load", "events": rows}, **extra))["result"]
                    assert reply["buffered_events"] == len(rows)
                    assert reply["flushed_pages"] > 0
                    rows = [[op, key + len(rows), value, t + len(rows)]
                            for op, key, value, t in rows]
                small = client.request({
                    "op": "load", "mode": "buffered",
                    "events": [["insert", 1100, 1.0, 1100]]})["result"]
                assert small["buffered_events"] == 0
                client.repin()
                total = client.execute("SELECT SUM(value)")
                assert total == pytest.approx(
                    2.0 * 3 * BUFFERED_MIN_EVENTS + 1.0)
        finally:
            handle.stop()

    def test_tql_load_over_the_wire(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                message = client.execute(
                    "LOAD INSERT KEY 5 VALUE 2 AT 1, "
                    "INSERT KEY 80 VALUE 3 AT 2")
                assert "loaded 2 events" in message
                assert ", 0 buffered)" in message
                client.repin()
                assert client.execute(
                    "SELECT SUM(value)") == pytest.approx(5.0)
        finally:
            handle.stop()

    def test_tql_load_buffered_is_a_syntax_error(self):
        handle = serve_in_thread(ServerConfig(
            shards=1, key_space=(1, 101), cache=False))
        try:
            with Client(handle.host, handle.port, timeout=30) as client:
                with pytest.raises(ServerReplyError) as caught:
                    client.execute("LOAD BUFFERED INSERT KEY 9 VALUE 4 AT 3")
                assert caught.value.code == "SYNTAX"
                client.execute("LOAD INSERT KEY 10 VALUE 1 AT 5")
                client.repin()
                assert client.execute(
                    "SELECT SUM(value)") == pytest.approx(1.0)
        finally:
            handle.stop()


class TestProcpoolGauges:
    def test_load_bytes_gauge_published(self, tmp_path):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, 101), executor="process",
            cache=False,
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
