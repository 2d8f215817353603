"""Crash safety of the serving path: kill -9 must never lose an ack.

Satellite requirement: graceful shutdown is crash-safe — a ``kill -9``
arriving mid-drain (or at any other point) leaves a WAL from which
reopening recovers every acknowledged write.  We run the real server as
a subprocess, acknowledge inserts over the wire, SIGKILL the process at
nasty moments, and reopen the durable directory single-threaded.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.model import Interval, KeyRange
from repro.serve.client import Client
from repro.serve.sharded import ShardedWarehouse

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def spawn_server(durable_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--durable-dir", durable_dir,
         "--shards", "2", "--key-lo", "1", "--key-hi", "1001", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING"):
        proc.kill()
        pytest.fail(f"server did not start: {line!r} / "
                    f"{proc.stderr.read()[:500]}")
    _tag, host, port = line.split()
    return proc, host, int(port)


def recovered_sum(durable_dir):
    warehouse = ShardedWarehouse.open_durable(durable_dir)
    try:
        return warehouse.sum(KeyRange(1, 1001),
                             Interval(1, warehouse.now + 1))
    finally:
        warehouse.close()


class TestKillNine:
    def test_kill_while_serving_recovers_acknowledged_writes(self, tmp_path):
        durable = str(tmp_path / "wh")
        proc, host, port = spawn_server(durable)
        try:
            with Client(host, port, timeout=10) as client:
                for i in range(1, 21):
                    client.execute(f"INSERT KEY {i} VALUE 2.0 AT {i}")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        # Every acknowledged insert survives via WAL replay.
        assert recovered_sum(durable) == 40.0

    def test_kill_during_drain_recovers_acknowledged_writes(self, tmp_path):
        """kill -9 while the server drains a slow request mid-shutdown."""
        durable = str(tmp_path / "wh")
        proc, host, port = spawn_server(durable, "--drain-timeout", "30")
        try:
            slow = Client(host, port, timeout=30)
            control = Client(host, port, timeout=10)
            for i in range(1, 11):
                control.execute(f"INSERT KEY {i} VALUE 3.0 AT {i}")
            # Occupy a slot so the drain has something to wait for, then
            # start the graceful shutdown and SIGKILL in the middle of it.
            slow._sock.sendall(b'{"op": "sleep", "seconds": 20, "id": 1}\n')
            time.sleep(0.3)
            control.shutdown()
            time.sleep(0.5)  # draining now, checkpoint not yet written
            assert proc.poll() is None, "server exited before the kill"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        assert recovered_sum(durable) == 30.0

    def test_graceful_shutdown_then_reopen(self, tmp_path):
        """The non-crash path: drain + checkpoint + clean exit."""
        durable = str(tmp_path / "wh")
        proc, host, port = spawn_server(durable)
        with Client(host, port, timeout=10) as client:
            for i in range(1, 6):
                client.execute(f"INSERT KEY {i} VALUE 5.0 AT {i}")
            client.shutdown()
        assert proc.wait(timeout=15) == 0
        # A checkpoint exists (CURRENT pointer per shard) and loads clean.
        assert os.path.exists(os.path.join(durable, "shard-00", "CURRENT"))
        assert recovered_sum(durable) == 25.0

    def test_second_boot_continues_the_timeline(self, tmp_path):
        durable = str(tmp_path / "wh")
        proc, host, port = spawn_server(durable)
        with Client(host, port, timeout=10) as client:
            client.execute("INSERT KEY 1 VALUE 1.0 AT 1")
            client.shutdown()
        proc.wait(timeout=15)

        proc, host, port = spawn_server(durable)
        try:
            with Client(host, port, timeout=10) as client:
                assert client.snapshot >= 1
                client.execute("INSERT KEY 2 VALUE 2.0 AT 5")
                client.repin()
                total = client.execute(
                    "SELECT SUM(value) WHERE key IN [1, 1001)")
                assert total == 3.0
                client.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
