"""The elastic-cluster bench: failover, autosplit recovery, replicas.

Three claims of the cluster plane (:mod:`repro.serve.cluster`), each
measured end to end and recorded in one consolidated envelope:

* **Zero-error failover** — with one WAL-shipped replica per group, a
  ``kill -9`` of a primary mid-drive is invisible to clients: reads
  rotate to the caught-up replica while the primary respawns.  The
  control run is the PR-5 process backend (no replicas, no heal): the
  same kill there surfaces as client-visible ``SHARD_DOWN`` errors, so
  the comparison isolates what the cluster plane adds.
* **Autosplit throughput recovery** — a hot key range served by one
  worker is single-core bound.  Once the planner splits the hot group,
  point-ish reads land on two workers and closed-loop QPS over the same
  range must recover to **>= 1.5x** the pre-split rate.  Like
  ``bench_multicore``, the gate needs cores to be physically winnable:
  hosts with fewer than four fail loudly unless the operator
  acknowledges a report-only run with ``REPRO_CLUSTER_GATE=0`` (``=1``
  forces it).
* **Byte-identical replica reads** — a version-pinned read against a
  caught-up replica must ``repr``-match the primary exactly (partial
  persistence: pinned reads touch only closed versions).

Writes ``benchmarks/results/BENCH_cluster.json`` in the consolidated
envelope (see :mod:`repro.bench.envelope`).
"""

from __future__ import annotations

import os
import random
import signal
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.envelope import write_report
from repro.bench.reporting import Table
from repro.core.model import Interval, KeyRange
from repro.serve.cluster import ClusterWarehouse
from repro.serve.loadgen import run_load
from repro.serve.server import ServerConfig, serve_in_thread

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 2026
DRIVERS = 4


def _duration() -> float:
    return float(os.environ.get("REPRO_CLUSTER_SECONDS", "3.0"))


def _gate_state() -> tuple[bool, str]:
    """(enforced, reason) for the >= 1.5x recovery assertion."""
    override = os.environ.get("REPRO_CLUSTER_GATE")
    if override == "1":
        return True, "enforced/REPRO_CLUSTER_GATE=1"
    if override == "0":
        return False, "skipped/REPRO_CLUSTER_GATE=0"
    cores = os.cpu_count() or 1
    if cores >= 4:
        return True, "enforced"
    raise AssertionError(
        f"bench_cluster needs >= 4 cores to enforce its >= 1.5x recovery "
        f"gate (cpu_count={cores}); set REPRO_CLUSTER_GATE=0 to "
        "acknowledge a report-only run, or =1 to force the gate")


def _seed_events(keys: int):
    events = [("insert", key, float(key % 97 + 1), 1 + key % 7)
              for key in range(1, keys + 1)]
    events.sort(key=lambda event: event[3])
    return events


# -- experiment 1: SIGKILL a primary under open-loop load ----------------------------


def _drive_with_kill(config: ServerConfig, keys: int, rate: float,
                     duration: float, kill) -> dict:
    """Open-loop loadgen against ``config``; ``kill(warehouse)`` fires
    mid-drive from a timer thread.  Returns the loadgen report."""
    handle = serve_in_thread(config)
    try:
        timer = threading.Timer(
            0.5 + duration / 2, kill, args=(handle.server.warehouse,))
        timer.daemon = True
        timer.start()
        report = run_load(handle.host, handle.port, workers=DRIVERS,
                          duration=duration, seed_keys=keys, seed=SEED,
                          warmup=0.5, mix="read-hot",
                          arrivals="poisson", rate=rate)
        timer.cancel()
        return report
    finally:
        handle.stop()


def _kill_first_primary(warehouse) -> None:
    if hasattr(warehouse, "topology_info"):
        gid = warehouse.topology_info()["groups"][0]["gid"]
        os.kill(warehouse.shard_pid(gid), signal.SIGKILL)
    else:
        os.kill(warehouse.shard_pid(0), signal.SIGKILL)


def _failover_experiment(keys: int, duration: float) -> dict:
    rate = float(os.environ.get("REPRO_CLUSTER_RATE", "200"))
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as root:
        replicated = _drive_with_kill(
            ServerConfig(shards=2, key_space=(1, keys + 1),
                         executor="process", durable_dir=root,
                         replicas=1, planner_interval=0.2),
            keys, rate, duration, _kill_first_primary)
    control = _drive_with_kill(
        ServerConfig(shards=2, key_space=(1, keys + 1),
                     executor="process"),
        keys, rate, duration, _kill_first_primary)
    return {"replicated": replicated, "control": control}


# -- experiment 2: autosplit recovers hot-range throughput ---------------------------


def _hot_drive(warehouse, span: tuple[int, int], now: int,
               duration: float, seed: int) -> float:
    """Closed-loop point-ish reads inside ``span``: completed/s.

    Each query covers a small random subrange, so after a split the
    drivers fan across both children instead of every request landing on
    the one worker that owns the whole span.
    """
    lo, hi = span
    counts = [0] * DRIVERS
    start = time.perf_counter()
    deadline = start + duration

    def run(slot: int) -> None:
        rng = random.Random(seed + slot)
        interval = Interval(1, now + 1)
        while time.perf_counter() < deadline:
            a = rng.randint(lo, hi - 2)
            b = min(hi, a + rng.randint(1, 16))
            warehouse.sum(KeyRange(a, b), interval)
            counts[slot] += 1

    pool = [threading.Thread(target=run, args=(slot,), daemon=True)
            for slot in range(DRIVERS)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    return sum(counts) / elapsed if elapsed > 0 else 0.0


def _autosplit_experiment(keys: int, duration: float, root: str) -> dict:
    warehouse = ClusterWarehouse(
        shards=2, key_space=(1, keys + 1), durable_dir=root,
        replicas=0, autosplit=True, split_qps=float("inf"),
        split_min_share=0.45, split_cooldown=0.5, planner_interval=0.25,
        max_groups=4)
    try:
        warehouse.load_events(_seed_events(keys))
        now = warehouse.now
        hot_gid = warehouse.topology_info()["groups"][0]["gid"]
        group = warehouse.handle(hot_gid)
        hot_span = (group.lo, group.hi)

        qps_pre = _hot_drive(warehouse, hot_span, now, duration, SEED)

        # Arm the planner at a threshold the hot drive clears easily,
        # then keep driving until it splits the hot group.
        warehouse._planner.split_qps = max(qps_pre * 0.25, 1.0)
        deadline = time.monotonic() + 30.0
        while warehouse.splits < 1 and time.monotonic() < deadline:
            _hot_drive(warehouse, hot_span, now, 0.5, SEED + 7)
        assert warehouse.splits >= 1, (
            "planner never autosplit the hot group (qps threshold "
            f"{warehouse._planner.split_qps:.1f})")

        qps_post = _hot_drive(warehouse, hot_span, now, duration,
                              SEED + 13)
        return {"qps_pre": qps_pre, "qps_post": qps_post,
                "splits": warehouse.splits,
                "groups": len(warehouse.topology_info()["groups"]),
                "recovery": qps_post / max(qps_pre, 1e-9)}
    finally:
        warehouse.close()


# -- experiment 3: replica reads are byte-identical ----------------------------------


def _replica_experiment(keys: int, root: str) -> dict:
    warehouse = ClusterWarehouse(
        shards=2, key_space=(1, keys + 1), durable_dir=root, replicas=1)
    try:
        warehouse.load_events(_seed_events(keys))
        interval = Interval(1, warehouse.now + 1)
        checked = 0
        for info in warehouse.topology_info()["groups"]:
            gid = info["gid"]
            warehouse.sync_replicas(gid)
            span = KeyRange(*warehouse.handle(gid).spec.key_space)
            for method in ("sum", "count", "aggregate_all", "tuples_in"):
                primary = warehouse.primary_probe(gid, method, span,
                                                  interval)
                replica = warehouse.replica_probe(gid, 0, method, span,
                                                  interval)
                assert repr(primary) == repr(replica), (
                    f"replica answer diverged: group {gid} {method}")
                checked += 1
        return {"byte_identical": True, "comparisons": checked}
    finally:
        warehouse.close()


# -- the bench -----------------------------------------------------------------------


def test_cluster_plane(scale, record_table):
    enforced, gate = _gate_state()
    keys = max(400, int(20_000 * scale))
    duration = _duration()

    failover = _failover_experiment(keys, duration)
    replicated_errors = sum(
        failover["replicated"]["totals"]["errors"].values())
    control_errors = sum(failover["control"]["totals"]["errors"].values())

    with tempfile.TemporaryDirectory(prefix="bench-autosplit-") as root:
        autosplit = _autosplit_experiment(keys, duration, root)
    with tempfile.TemporaryDirectory(prefix="bench-replica-") as root:
        replica = _replica_experiment(keys, root)

    table = Table(
        title=(f"Cluster plane, {keys} keys, SIGKILL mid-drive, "
               f"{DRIVERS} drivers ({duration:.1f}s per drive)"),
        columns=("experiment", "value"),
    )
    table.add(experiment="failover errors (1 replica)",
              value=replicated_errors)
    table.add(experiment="failover errors (control, no replicas)",
              value=control_errors)
    table.add(experiment="transparent retries (replicated)",
              value=failover["replicated"]["totals"].get("retries", 0))
    table.add(experiment="hot-shard qps pre-split",
              value=round(autosplit["qps_pre"]))
    table.add(experiment="hot-shard qps post-split",
              value=round(autosplit["qps_post"]))
    table.add(experiment="recovery ratio",
              value=round(autosplit["recovery"], 2))
    table.add(experiment="autosplit events", value=autosplit["splits"])
    table.add(experiment="replica comparisons (byte-identical)",
              value=replica["comparisons"])
    table.note(f"cpu_count={os.cpu_count()}; the >=1.5x recovery gate is "
               f"{'enforced' if enforced else 'reported only'} here")
    record_table("cluster", table)

    write_report(
        RESULTS_DIR / "BENCH_cluster.json", "cluster",
        {"keys": keys, "shards": 2, "replicas": 1, "drivers": DRIVERS,
         "duration_s": duration, "cpu_count": os.cpu_count() or 1,
         "gate": gate},
        {"failover_errors": replicated_errors,
         "failover_errors_control": control_errors,
         "failover_retries": failover["replicated"]["totals"].get(
             "retries", 0),
         "zero_error_failover": replicated_errors == 0,
         "autosplit_events": autosplit["splits"],
         "hot_qps_pre_split": autosplit["qps_pre"],
         "hot_qps_post_split": autosplit["qps_post"],
         "split_recovery_ratio": autosplit["recovery"],
         "replica_byte_identical": replica["byte_identical"],
         "gate_enforced": enforced},
        {"gate": gate, "failover": failover, "autosplit": autosplit,
         "replica": replica})

    # Hard claims, never gated: the replicated kill is invisible, the
    # control kill is not, the planner split at least once, and replica
    # reads are exact.
    assert replicated_errors == 0, (
        f"client-visible errors during replicated failover: "
        f"{failover['replicated']['totals']['errors']}")
    assert control_errors > 0, (
        "control run absorbed the kill; the comparison is meaningless")
    assert autosplit["splits"] >= 1
    assert replica["byte_identical"]

    if enforced:
        assert autosplit["recovery"] >= 1.5, (
            f"hot-shard throughput only recovered "
            f"{autosplit['recovery']:.2f}x after the autosplit")


if __name__ == "__main__":
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
