"""Round-trip tests for the PR-7 protocol ops and error correlation.

``metrics_text`` and ``slowlog`` ride the same newline-JSON protocol as
``query``; the unknown-op error names the request ID so a client
multiplexing requests can attribute the rejection.
"""

import socket
import threading
import urllib.request

import pytest

from repro.serve import protocol
from repro.serve.client import Client, ServerReplyError
from repro.serve.server import ServerConfig, serve_in_thread

KEY_SPACE = (1, 1001)


@pytest.fixture
def server():
    handle = serve_in_thread(ServerConfig(
        shards=2, key_space=KEY_SPACE, page_capacity=8, slow_ms=10_000.0))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with Client(server.host, server.port) as c:
        yield c


class TestMetricsTextOp:
    def test_round_trip_is_prometheus_exposition(self, client):
        client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
        client.repin()
        client.execute("SELECT SUM(value) WHERE key IN [1, 1001)")
        text = client.metrics_text()
        assert isinstance(text, str)
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_op_latency_seconds histogram" in text
        assert 'op="query"' in text
        # Phase split series exist for the op that ran.
        assert 'phase="queue"' in text and 'phase="exec"' in text

    def test_identical_to_http_endpoint_format(self, client):
        # The op and the /metrics endpoint share one renderer; both must
        # end with a trailing newline (Prometheus text format).
        text = client.metrics_text()
        assert text.endswith("\n")


class TestMetricsEndpoint:
    def test_scrape_mid_load_carries_latency_and_exec_phase(self):
        """``/metrics`` over HTTP, scraped while a client keeps querying,
        exports the per-op latency histogram and its exec phase."""
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, page_capacity=8, metrics_port=0))
        warm, stop, errors = threading.Event(), threading.Event(), []

        def drive():
            try:
                with Client(handle.host, handle.port) as c:
                    c.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                    c.repin()
                    n = 0
                    while not stop.is_set():
                        c.execute("SELECT COUNT(*) WHERE key IN "
                                  f"[1, {2 + n % 999})")
                        n += 1
                        if n == 20:
                            warm.set()
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)
                warm.set()

        driver = threading.Thread(target=drive)
        driver.start()
        try:
            assert warm.wait(30)
            host, port = handle.server.metrics_address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics",
                                        timeout=10) as response:
                scrape = response.read().decode("utf-8")
            assert driver.is_alive()        # the scrape landed mid-load
        finally:
            stop.set()
            driver.join(30)
            handle.stop()
        assert not driver.is_alive()
        assert not errors, errors[0]
        assert "repro_serve_op_latency_seconds" in scrape
        assert 'phase="exec"' in scrape


class TestSlowlogOp:
    def test_empty_ring_round_trips(self, client):
        payload = client.slowlog()
        assert payload == {"entries": [], "total": 0}

    def test_limit_validation(self, client):
        with pytest.raises(ServerReplyError) as err:
            client.request({"op": "slowlog", "limit": -1})
        assert err.value.code == "PROTOCOL"
        with pytest.raises(ServerReplyError):
            client.request({"op": "slowlog", "limit": "five"})

    def test_populated_ring_round_trips(self, server):
        with Client(server.host, server.port) as c:
            # Threshold is 10s; the sleep op crosses an artificial one by
            # reconfiguring the live server's threshold instead.
            server.server.config.slow_ms = 1.0
            c.sleep(0.02)
            payload = c.slowlog()
        assert payload["total"] >= 1
        entry = payload["entries"][0]
        assert entry["op"] == "sleep"
        assert entry["elapsed_ms"] >= 1.0
        assert "request_id" in entry and "queue_ms" in entry


class TestIntegerFields:
    @pytest.mark.parametrize("field, message", [
        ("as_of", {"op": "query", "tql": "SELECT SUM(value)",
                   "as_of": True}),
        ("limit", {"op": "slowlog", "limit": True}),
        ("batch_size", {"op": "load", "events": [], "batch_size": True}),
        ("shard", {"op": "respawn", "shard": True}),
        ("gid", {"op": "split", "gid": True}),
        ("at", {"op": "split", "gid": 0, "at": True}),
        ("replica", {"op": "promote", "gid": 0, "replica": True}),
        ("gids", {"op": "merge", "gids": [True, 1]}),
    ])
    def test_a_json_boolean_is_not_an_integer(self, client, field, message):
        """``bool`` is an ``int`` subclass: ``true`` must not pass as 1."""
        with pytest.raises(ServerReplyError) as err:
            client.request(message)
        assert err.value.code == "PROTOCOL"
        assert f'"{field}"' in err.value.message


class TestUnknownOp:
    def test_error_names_request_id(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            reader = sock.makefile("rb")
            reader.readline()  # hello
            sock.sendall(protocol.encode(
                {"op": "frobnicate", "id": "req-42"}))
            import json
            response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["id"] == "req-42"
        assert "req-42" in response["error"]["message"]
        assert "frobnicate" in response["error"]["message"]

    def test_error_without_id_still_replies(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            reader = sock.makefile("rb")
            reader.readline()  # hello
            sock.sendall(protocol.encode({"op": "frobnicate"}))
            import json
            response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["id"] is None


class TestRequestIdPlumbing:
    def test_response_echoes_client_id(self, client):
        response = client.request({"op": "ping", "id": "mine-7"})
        assert response["id"] == "mine-7"

    def test_server_assigns_id_when_missing(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            reader = sock.makefile("rb")
            reader.readline()  # hello
            sock.sendall(b'{"op": "ping"}\n')
            import json
            response = json.loads(reader.readline())
        assert response["ok"] is True
        assert str(response["id"]).startswith("srv-")
