"""End-to-end protocol tests against a live in-process server."""

import asyncio
import gc
import json
import socket
import threading
import time

import pytest

from repro.serve.client import Client, ServerReplyError
from repro.serve.server import (MAX_REQUEST_LINE_BYTES, ServerConfig,
                                ServerHandle, TQLServer, serve_in_thread)

KEY_SPACE = (1, 1001)


@pytest.fixture
def server():
    handle = serve_in_thread(ServerConfig(shards=4, key_space=KEY_SPACE,
                                          page_capacity=8))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with Client(server.host, server.port) as c:
        yield c


class TestBasicProtocol:
    def test_hello_announces_protocol(self, client):
        assert client.hello["server"] == "repro.serve"
        assert client.hello["version"] == 1
        assert client.hello["shards"] == 4
        assert client.ping()

    def test_insert_select_round_trip(self, client):
        client.execute("INSERT KEY 7 VALUE 3.0 AT 1")
        client.execute("INSERT KEY 900 VALUE 5.0 AT 2")
        client.repin()
        total = client.execute("SELECT SUM(value) WHERE key IN [1, 1001)")
        assert total == 8.0
        count = client.execute(
            "SELECT COUNT(*) WHERE key IN [1, 1001) AND TIME DURING [1, 3)")
        assert count == 2.0

    def test_explain_reports_shard_plans(self, client):
        client.execute("INSERT KEY 10 VALUE 1.0 AT 1")
        client.execute("INSERT KEY 600 VALUE 2.0 AT 1")
        client.repin()
        plans = client.execute(
            "EXPLAIN SELECT SUM(value) WHERE key IN [1, 1001)")
        assert isinstance(plans, list) and len(plans) == 4
        assert {p["shard"] for p in plans} == {0, 1, 2, 3}
        # Two shards are empty: additive plans are still never retrieval.
        for p in plans:
            assert p["plan"]["plan"] == "mvsbt"

    def test_metrics_exposes_per_shard_counters(self, client):
        client.execute("INSERT KEY 10 VALUE 1.0 AT 1")
        client.repin()
        client.execute("SELECT SUM(value) WHERE key IN [1, 100)")
        metrics = client.metrics()
        assert "repro_serve_requests_total" in metrics
        # Every statement is one request of op "query", write or read.
        assert sum(s["value"] for s in
                   metrics["repro_serve_requests_total"]["series"]
                   if s["labels"].get("op") == "query") == 2
        assert "repro_serve_shard_writes_total" in metrics
        writes = metrics["repro_serve_shard_writes_total"]["series"]
        assert sum(s["value"] for s in writes) == 1

    def test_raw_protocol_over_socket(self, server):
        # The protocol must be speakable without the Client class.
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            fh = sock.makefile("rb")
            hello = json.loads(fh.readline())
            assert hello["server"] == "repro.serve"
            sock.sendall(b'{"op": "ping", "id": 1}\n')
            reply = json.loads(fh.readline())
            assert reply == {"id": 1, "ok": True, "result": "pong",
                             "snapshot": reply["snapshot"],
                             "elapsed_ms": reply["elapsed_ms"]}


class TestSnapshotIsolation:
    def test_reads_pin_to_session_snapshot(self, server):
        with Client(server.host, server.port) as writer:
            writer.execute("INSERT KEY 5 VALUE 1.0 AT 1")
            writer.execute("INSERT KEY 6 VALUE 1.0 AT 2")
        with Client(server.host, server.port) as reader:
            pinned = reader.snapshot
            assert pinned >= 2
            before = reader.execute(
                "SELECT COUNT(*) WHERE key IN [1, 1001)")
            # A later write is invisible until the session re-pins.
            with Client(server.host, server.port) as writer:
                writer.execute("INSERT KEY 7 VALUE 1.0 AT 5")
            assert reader.execute(
                "SELECT COUNT(*) WHERE key IN [1, 1001)") == before
            reader.repin()
            assert reader.execute(
                "SELECT COUNT(*) WHERE key IN [1, 1001)") == before + 1

    def test_explicit_as_of_overrides_session(self, client):
        client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
        client.execute("INSERT KEY 6 VALUE 2.0 AT 3")
        client.repin()
        early = client.execute("SELECT SUM(value) WHERE key IN [1, 1001)",
                               as_of=1)
        assert early == 1.0
        late = client.execute("SELECT SUM(value) WHERE key IN [1, 1001)")
        assert late == 3.0


class TestErrorReporting:
    def test_syntax_error_code(self, client):
        with pytest.raises(ServerReplyError) as excinfo:
            client.execute("SELEKT nothing")
        assert excinfo.value.code == "SYNTAX"

    def test_query_error_code(self, client):
        with pytest.raises(ServerReplyError) as excinfo:
            client.execute("SELECT SUM(value) WHERE key IN [9, 9)")
        assert excinfo.value.code in ("SYNTAX", "QUERY")

    def test_duplicate_insert_reports_code(self, client):
        client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
        with pytest.raises(ServerReplyError) as excinfo:
            client.execute("INSERT KEY 5 VALUE 2.0 AT 2")
        assert excinfo.value.code == "DUPLICATE_KEY"

    def test_protocol_errors(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            fh = sock.makefile("rb")
            fh.readline()  # hello
            sock.sendall(b'this is not json\n')
            reply = json.loads(fh.readline())
            assert not reply["ok"]
            assert reply["error"]["code"] == "PROTOCOL"
            sock.sendall(b'{"op": "no-such-op"}\n')
            reply = json.loads(fh.readline())
            assert reply["error"]["code"] == "PROTOCOL"

    def test_load_line_beyond_the_old_64k_default(self, client):
        events = [["insert", key, 1.0, key] for key in range(1, 1001)]
        for lap in range(2):
            events += [["delete", key, 0.0, 1001 + 2000 * lap + key]
                       for key in range(1, 1001)]
            events += [["insert", key, 2.0, 2001 + 2000 * lap + key]
                       for key in range(1, 1001)]
        assert len(events) == 5000
        report = client.load(events)
        assert report["events"] == 5000
        client.repin()
        assert client.execute("SELECT COUNT(*) WHERE time AT "
                              f"{client.snapshot}") == 1000

    def test_oversize_line_gets_protocol_error_and_keeps_connection(
            self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            fh = sock.makefile("rb")
            fh.readline()  # hello
            # Longer than the limit whichever way it is cut into reads:
            # the server must drop all of it, through the newline.
            sock.sendall(b'{"op": "load", "events": ['
                         + b"0," * MAX_REQUEST_LINE_BYTES + b"0]}\n")
            reply = json.loads(fh.readline())
            assert not reply["ok"]
            assert reply["error"]["code"] == "PROTOCOL"
            assert str(MAX_REQUEST_LINE_BYTES) in reply["error"]["message"]
            sock.sendall(b'{"op": "ping", "id": 7}\n')
            reply = json.loads(fh.readline())
            assert reply["ok"] and reply["id"] == 7

    def test_errors_do_not_kill_the_connection(self, client):
        with pytest.raises(ServerReplyError):
            client.execute("SELEKT")
        assert client.ping()


class TestAdmissionControl:
    def test_excess_requests_get_server_busy(self):
        """Acceptance: max_inflight=1 + a slow query => SERVER_BUSY,
        not a hang and not a crash."""
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, max_inflight=1, max_queue=0,
            readers=2))
        try:
            slow = Client(handle.host, handle.port, timeout=10)
            fast = Client(handle.host, handle.port, timeout=10)
            errors = []

            def occupy():
                slow.sleep(1.0)

            t = threading.Thread(target=occupy)
            t.start()
            time.sleep(0.2)  # let the sleeper take the only slot
            # MAX keeps the worker path; a SUM would take the loop lane,
            # which admission does not cover.
            with pytest.raises(ServerReplyError) as excinfo:
                fast.execute("SELECT MAX(value) WHERE key IN [1, 100)")
            assert excinfo.value.code == "SERVER_BUSY"
            t.join(timeout=10)
            # The server recovered: the slot is free again.
            assert fast.ping()
            slow.close()
            fast.close()
        finally:
            handle.stop()

    def test_queue_admits_up_to_max_queue(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, max_inflight=1, max_queue=8,
            readers=4))
        try:
            slow = Client(handle.host, handle.port, timeout=10)
            t = threading.Thread(target=lambda: slow.sleep(0.5))
            t.start()
            time.sleep(0.1)
            # This request queues behind the sleeper instead of failing.
            with Client(handle.host, handle.port, timeout=10) as c:
                assert c.execute(
                    "SELECT MAX(value) WHERE key IN [1, 100)") is None
            t.join(timeout=10)
            slow.close()
        finally:
            handle.stop()

    def test_request_timeout_returns_timeout_code(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, request_timeout=0.2, readers=2))
        try:
            with Client(handle.host, handle.port, timeout=10) as c:
                with pytest.raises(ServerReplyError) as excinfo:
                    c.sleep(2.0)
                assert excinfo.value.code == "TIMEOUT"
                # The connection survives a timed-out request.
                assert c.ping()
        finally:
            handle.stop()

    def test_rejections_are_counted(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, max_inflight=1, max_queue=0,
            readers=2))
        try:
            slow = Client(handle.host, handle.port, timeout=10)
            t = threading.Thread(target=lambda: slow.sleep(0.6))
            t.start()
            time.sleep(0.1)
            with Client(handle.host, handle.port, timeout=10) as c:
                for _ in range(3):
                    with pytest.raises(ServerReplyError):
                        c.ping_slot = c.execute(
                            "SELECT MIN(value) WHERE key IN [1, 100)")
                t.join(timeout=10)
                rejected = c.metrics()["repro_serve_rejected_total"]
                total = sum(s["value"] for s in rejected["series"])
                assert total >= 3
            slow.close()
        finally:
            handle.stop()


class TestShutdown:
    def test_stop_leaves_no_worker_thread(self):
        """Workers start on demand and shutdown owns them: one sentinel
        each after the final checkpoint, and they exit."""
        def workers():
            return [t for t in threading.enumerate()
                    if t.name.startswith("repro-serve-")]

        server = TQLServer(ServerConfig(shards=2, key_space=KEY_SPACE))
        try:
            assert workers() == []  # building a server starts nothing
        finally:
            server.warehouse.close()
            server.workers.close()
        handle = serve_in_thread(ServerConfig(shards=2, key_space=KEY_SPACE,
                                              readers=3))
        try:
            with Client(handle.host, handle.port) as c:
                c.execute("INSERT KEY 3 VALUE 1.0 AT 1")
                c.sleep(0.0)
            started = workers()
            # One connection never has two jobs open: one worker, not three.
            assert [t.name for t in started] == ["repro-serve-loop",
                                                 "repro-serve-0"]
        finally:
            handle.stop()
        assert workers() == []  # stop() returns after close() joined them
        for thread in started:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_close_joins_its_threads_within_its_bound(self):
        """``close()`` runs on the loop's own thread and still joins: a
        worker reports back without waiting for the loop.  A job that
        outlives the bound keeps its thread, not the caller."""
        from repro.serve.workers import LoopWorkers

        workers = LoopWorkers(2)
        release = threading.Event()

        async def main():
            await workers.submit(lambda: None)
            threads = list(workers._threads)
            workers.close()
            assert threads and not any(t.is_alive() for t in threads)
            stuck = workers.submit(release.wait)
            await asyncio.sleep(0.05)
            (thread,) = workers._threads
            started = time.monotonic()
            workers.close(timeout=0.1)
            assert time.monotonic() - started < 2
            assert thread.is_alive()
            release.set()
            assert await asyncio.wait_for(stuck, 5) is True
            thread.join(timeout=5)
            assert not thread.is_alive()

        try:
            asyncio.run(main())
        finally:
            release.set()

    def test_shutdown_drains_and_stops(self, server):
        with Client(server.host, server.port) as c:
            c.execute("INSERT KEY 3 VALUE 1.0 AT 1")
            assert c.shutdown() == "draining"
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                Client(server.host, server.port, timeout=0.5).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept accepting connections after shutdown")

    def test_stop_after_client_shutdown_is_idempotent(self, recwarn):
        """A client ``shutdown`` lets the loop finish on its own; a
        ``stop()`` racing (or following) that must neither hang nor leave
        a never-awaited coroutine behind."""
        for attempt in range(50):
            handle = serve_in_thread(ServerConfig(shards=2,
                                                  key_space=KEY_SPACE))
            with Client(handle.host, handle.port) as c:
                assert c.shutdown() == "draining"
            if attempt % 2:
                # Aim for the narrow window: drained, loop winding down,
                # thread still alive.
                deadline = time.monotonic() + 10
                while (not handle.server._stopped.is_set()
                       and time.monotonic() < deadline):
                    pass
            started = time.monotonic()
            handle.stop(timeout=10)
            handle.stop(timeout=10)
            assert time.monotonic() - started < 5
            assert not handle._thread.is_alive()
        gc.collect()  # an un-awaited coroutine warns when collected
        assert not [w for w in recwarn.list
                    if "never awaited" in str(w.message)]

    def test_stop_on_a_finished_loop_returns_and_leaves_no_coroutine(
            self, recwarn):
        """The race above, frozen: the serving thread is still alive (for
        another 0.3 s) but its loop will never run another callback
        (stopped), or is closed outright."""
        server = TQLServer(ServerConfig(shards=2, key_space=KEY_SPACE))
        try:
            for closed in (False, True):
                thread = threading.Thread(target=time.sleep, args=(0.3,),
                                          daemon=True)
                thread.start()
                loop = asyncio.new_event_loop()
                if closed:
                    loop.close()
                started = time.monotonic()
                ServerHandle("127.0.0.1", 0, loop, server,
                             thread).stop(timeout=5)
                assert time.monotonic() - started < 2
                assert not thread.is_alive()
                loop.close()
        finally:
            server.warehouse.close()
            server.workers.close()
        gc.collect()  # an un-awaited coroutine warns when collected
        assert not [w for w in recwarn.list
                    if "never awaited" in str(w.message)]

    def test_stop_reports_a_thread_that_will_not_finish(self):
        server = TQLServer(ServerConfig(shards=2, key_space=KEY_SPACE))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(TimeoutError):
                ServerHandle("127.0.0.1", 0, loop, server,
                             thread).stop(timeout=0.1)
        finally:
            release.set()
            thread.join(timeout=5)
            loop.close()
            server.warehouse.close()
            server.workers.close()

    def test_requests_during_drain_get_shutting_down(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, drain_timeout=5.0, readers=2))
        try:
            holder = Client(handle.host, handle.port, timeout=10)
            other = Client(handle.host, handle.port, timeout=10)
            t = threading.Thread(target=lambda: holder.sleep(0.8))
            t.start()
            time.sleep(0.2)
            other.shutdown()
            with pytest.raises(ServerReplyError) as excinfo:
                other.execute("SELECT COUNT(*) WHERE key IN [1, 100)")
            assert excinfo.value.code == "SHUTTING_DOWN"
            t.join(timeout=10)
            holder.close()
            other.close()
        finally:
            handle.stop()
