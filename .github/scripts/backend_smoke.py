"""One drive sequence for every execution backend (CI `backend-smoke`).

Boots ``python -m repro.serve`` with the given extra flags, drives the
same protocol sequence through :class:`repro.serve.client.Client`, shuts
it down gracefully, and checks the drain checkpoint landed.  The router
surface is one, so the sequence is one: only ``respawn`` may differ —
it either succeeds or answers the typed ``PROTOCOL`` error naming the
executor it requires.

    python .github/scripts/backend_smoke.py DIR [server flags...]
"""

import os
import subprocess
import sys

from repro.serve.client import Client, ServerReplyError

SHARDS = 2
SELECT = "SELECT SUM(value) WHERE key IN [1, 1001)"


def main() -> int:
    durable_dir, flags = sys.argv[1], sys.argv[2:]
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--shards", str(SHARDS), "--key-lo", "1", "--key-hi", "1001",
         "--durable-dir", durable_dir, *flags],
        stdout=subprocess.PIPE, text=True)
    try:
        tag, host, port = server.stdout.readline().split()
        assert tag == "LISTENING", tag
        with Client(host, int(port)) as client:
            assert client.ping()
            client.execute("INSERT KEY 7 VALUE 3.5 AT 2")
            client.execute("INSERT KEY 900 VALUE 1.5 AT 3")
            report = client.load(
                [["insert", 100 + i, 2.0, 3 + i] for i in range(1, 6)])
            assert report["events"] == 5, report
            client.repin()
            assert client.execute(SELECT) == 15.0
            plans = client.execute("EXPLAIN " + SELECT)
            assert {p["shard"] for p in plans} == set(range(SHARDS)), plans
            assert "repro_serve_requests_total" in client.metrics()
            try:
                assert client.respawn(1)["shard"] == 1
            except ServerReplyError as exc:
                assert exc.code == "PROTOCOL" and \
                    "requires the process executor" in str(exc), exc
            assert client.execute(SELECT) == 15.0
            assert client.shutdown() == "draining"
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
    for shard in range(SHARDS):
        current = os.path.join(durable_dir, f"shard-{shard:02d}", "CURRENT")
        assert os.path.isfile(current), current
    print(f"backend smoke OK: {' '.join(flags) or '--executor thread'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
