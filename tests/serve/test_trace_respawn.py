"""Trace propagation survives a worker kill and respawn.

A respawned worker is a brand-new process — fresh module state, fresh
pool cache, fresh PID.  A sampled request routed to it must still carry
the router's trace ID into the worker span, and the span must name the
*new* pid: distributed tracing has no memory of the dead worker.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.serve.client import Client
from repro.serve.server import ServerConfig, serve_in_thread

KEYS = 100


def _wait_dead(warehouse, index: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not warehouse.shard_alive(index):
            return
        time.sleep(0.02)
    pytest.fail(f"shard {index} still alive {timeout}s after SIGKILL")


def _worker_children(path, trace_id):
    for line in open(path):
        record = json.loads(line)
        if record.get("attrs", {}).get("trace_id") != trace_id:
            continue
        return [c for c in record.get("children", ())
                if c["name"].startswith("worker.")]
    return []


class TestTraceAcrossRespawn:
    def test_sampled_request_traces_through_respawned_worker(
            self, tmp_path):
        trace_path = tmp_path / "traces.jsonl"
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, KEYS + 1), executor="process",
            durable_dir=str(tmp_path / "wh"),
            trace_path=str(trace_path)))
        try:
            server = handle.server
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.repin()

                # Baseline: a forced-sample SELECT traced through the
                # original worker for shard 0.
                client.execute("SELECT SUM(value) WHERE key IN [1, 51)",
                               trace=True)
                first_trace = client.last_trace_id
                assert first_trace

                old_pid = server.warehouse.shard_pid(0)
                os.kill(old_pid, signal.SIGKILL)
                _wait_dead(server.warehouse, 0)

                new_pid = client.respawn(0)["pid"]
                assert new_pid != old_pid

                client.execute("SELECT SUM(value) WHERE key IN [1, 51)",
                               trace=True)
                second_trace = client.last_trace_id
                assert second_trace and second_trace != first_trace
        finally:
            handle.stop()

        children = _worker_children(trace_path, second_trace)
        assert children, "no worker span for the post-respawn request"
        for child in children:
            assert child["attrs"]["trace_id"] == second_trace
            assert child["attrs"]["pid"] == new_pid

        old_children = _worker_children(trace_path, first_trace)
        assert old_children and \
            old_children[0]["attrs"]["pid"] == old_pid


class TestTraceOnTheCluster:
    def test_worker_span_whether_primary_or_replica_serves(self, tmp_path):
        # The ``__traced__`` upgrade lives once, in the worker group: a
        # ``--replicas`` server's traces carry worker spans too, from
        # whichever member of the group the read rotation picked.
        trace_path = tmp_path / "traces.jsonl"
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, KEYS + 1), executor="process",
            replicas=1, durable_dir=str(tmp_path / "wh"),
            trace_path=str(trace_path)))
        traces = []
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.repin()
                group = client.topology()["groups"][0]
                members = {group["primary"]["pid"]: "primary",
                           group["replicas"][0]["pid"]: "replica"}
                for _ in range(4):  # the rotation visits both members
                    assert client.execute(
                        "SELECT SUM(value) WHERE key IN [1, 51)",
                        trace=True) == 1.0
                    traces.append(client.last_trace_id)
        finally:
            handle.stop()

        served_by = set()
        for trace_id in traces:
            children = _worker_children(trace_path, trace_id)
            assert [c["name"] for c in children] == ["worker.aggregate"]
            assert children[0]["attrs"]["trace_id"] == trace_id
            served_by.add(members[children[0]["attrs"]["pid"]])
        assert served_by == {"primary", "replica"}
