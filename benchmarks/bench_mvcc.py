"""Concurrent writers and non-blocking readers: the MVCC bench.

Three drives over the PR-9 write path:

* **Group-commit write throughput** — twin servers apply the *same*
  fixed-seed DML stream: the multi drive runs ``--writers 4`` with four
  concurrent client threads (same-shard statements coalesce into commit
  groups, one WAL write per group), the control runs ``--writers 1``
  with one client (the legacy one-op-one-flush path).  Answers over a
  shared rectangle set must be **byte-identical** afterwards — enforced
  everywhere, always.  The **>= 2x** throughput gate needs four cores;
  below that the bench fails loudly unless ``REPRO_MVCC_GATE=0``
  acknowledges a report-only run (``=1`` forces the gate) — the
  PR-6 pattern, so CI can't silently skip the headline number.
* **Reader isolation** — a thread-safe :class:`ShardedWarehouse` (the
  seqlock read path) serves reads while writer threads churn in
  bursts.  Epoch-validated readers never touch the write lock in the
  happy path: the drive asserts ``fallbacks == 0`` *always*, and (under
  the gate) that read p99 under writes stays within
  ``READER_P99_FACTOR`` of the idle p99.
* **RPC framing A/B** — the procpool's cached struct packers versus the
  pickle path they replaced (forced by disabling the packer), round-trip
  inserts against one worker.  Recorded in the envelope notes as the
  before/after for the 0.51x single-core RPC overhead finding.

Writes ``benchmarks/results/BENCH_mvcc.json`` in the consolidated
envelope (see :mod:`repro.bench.envelope`).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.bench.envelope import write_report
from repro.bench.reporting import Table
from repro.core.model import Interval, KeyRange
from repro.serve import procpool
from repro.serve.client import Client
from repro.serve.procpool import ProcessShardedWarehouse
from repro.serve.server import ServerConfig, serve_in_thread
from repro.serve.sharded import ShardedWarehouse

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 2026
SHARDS = 4
WRITERS = 4
#: Reader p99 under write bursts must stay within this factor of idle
#: p99 (gated).  Generous on purpose: it catches readers *blocking* on
#: the write lock (tens of ms per commit group), not GIL scheduling.
READER_P99_FACTOR = 20.0


def _duration() -> float:
    return float(os.environ.get("REPRO_MVCC_SECONDS", "2.0"))


def _gate_state() -> tuple[bool, str]:
    """(enforced, reason) for the >= 2x write-throughput gate.

    Same contract as ``bench_multicore``: fewer than four cores cannot
    show the speedup, and silently self-disabling would let CI report
    green with the headline unchecked — so the bench *fails* there
    unless ``REPRO_MVCC_GATE=0`` acknowledges report-only mode; ``=1``
    forces the gate regardless.
    """
    override = os.environ.get("REPRO_MVCC_GATE")
    if override == "1":
        return True, "enforced/REPRO_MVCC_GATE=1"
    if override == "0":
        return False, "skipped/REPRO_MVCC_GATE=0"
    cores = os.cpu_count() or 1
    if cores >= 4:
        return True, "enforced"
    raise AssertionError(
        f"bench_mvcc needs >= 4 cores to enforce its >= 2x gate "
        f"(cpu_count={cores}); set REPRO_MVCC_GATE=0 to acknowledge "
        "a report-only run, or =1 to force the gate")


INSERT_PHASES = 6


def _write_ops(keys: int, writers: int, seed: int):
    """Per-writer deterministic DML as barrier-separated phases.

    Keys are disjoint *strided* sets, so every writer keeps touching
    every shard — that's what lets concurrent same-shard statements
    coalesce into commit groups (contiguous slices would pin each writer
    to one shard and defeat the grouping).  The warehouse clock must
    never run backwards per shard, so each phase uses one fixed
    timestamp and the drive barriers between phases; any in-phase
    interleaving then commits the same final state.  Returns
    ``(slices, now)`` with ``slices[w]`` a list of phases (TQL lists).
    """
    rng = random.Random(seed)
    values = {key: float(rng.randint(1, 100))
              for key in range(1, keys + 1)}
    slices = []
    for w in range(writers):
        mine = list(range(w + 1, keys + 1, writers))
        per = (len(mine) + INSERT_PHASES - 1) // INSERT_PHASES
        phases = [
            [f"INSERT KEY {key} VALUE {values[key]} AT {p + 1}"
             for key in mine[p * per:(p + 1) * per]]
            for p in range(INSERT_PHASES)
        ]
        t_del = INSERT_PHASES + 1
        phases.append([f"DELETE KEY {key} AT {t_del}"
                       for key in mine[: len(mine) // 10]])
        slices.append(phases)
    return slices, INSERT_PHASES + 1


def _rectangles(keys: int, now: int, count: int, seed: int):
    """Fixed-seed SELECT statements shared by both servers."""
    rng = random.Random(seed)
    stmts = []
    for _ in range(count):
        agg = rng.choice(("SUM(value)", "COUNT(*)", "AVG(value)",
                          "MIN(value)", "MAX(value)"))
        lo = rng.randint(1, keys)
        hi = rng.randint(lo + 1, keys + 1)
        t0 = rng.randint(1, now)
        t1 = rng.randint(t0 + 1, now + 1)
        stmts.append(f"SELECT {agg} WHERE key IN [{lo}, {hi}) "
                     f"AND TIME DURING [{t0}, {t1})")
    return stmts


def _drive_writes(host: str, port: int, slices) -> float:
    """Apply every slice (a list of phases), one client thread per
    slice, with a barrier between phases; returns ops/s."""
    errors: list = []
    barrier = threading.Barrier(len(slices))

    def run(phases) -> None:
        try:
            with Client(host, port, retries=0) as client:
                for phase in phases:
                    for tql in phase:
                        client.execute(tql)
                    barrier.wait()
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            barrier.abort()
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(phases,), daemon=True)
               for phases in slices]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return (sum(len(phase) for phases in slices for phase in phases)
            / max(elapsed, 1e-9))


def _answers(host: str, port: int, stmts) -> list:
    with Client(host, port) as client:
        client.repin()
        return [repr(client.execute(tql)) for tql in stmts]


def _p99(samples) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def test_group_commit_write_throughput(scale, record_table, tmp_path):
    enforced, gate = _gate_state()
    keys = max(200, int(8_000 * scale))
    keys -= keys % WRITERS
    slices, now = _write_ops(keys, WRITERS, SEED)
    stmts = _rectangles(keys, now, 40, SEED + 1)

    def boot(writers: int, tag: str):
        # Process executor: commit groups then fan out to per-shard
        # worker processes, so the multi drive's gain is real multicore
        # apply + amortized RPC/WAL, not just latency overlap.
        return serve_in_thread(ServerConfig(
            shards=SHARDS, key_space=(1, keys + 1), writers=writers,
            durable_dir=str(tmp_path / tag), readers=WRITERS,
            executor="process",
            max_inflight=4 * WRITERS, max_queue=8 * WRITERS))

    multi = boot(WRITERS, "multi")
    try:
        multi_qps = _drive_writes(multi.host, multi.port, slices)
        multi_answers = _answers(multi.host, multi.port, stmts)
        with Client(multi.host, multi.port) as client:
            registry = client.metrics()
    finally:
        multi.stop()

    single = boot(1, "single")
    try:
        # One client applies every phase in order: the 1-writer twin.
        merged = [[tql for w in range(WRITERS) for tql in slices[w][p]]
                  for p in range(len(slices[0]))]
        single_qps = _drive_writes(single.host, single.port, [merged])
        single_answers = _answers(single.host, single.port, stmts)
    finally:
        single.stop()

    assert multi_answers == single_answers, (
        "multi-writer answers diverge from the single-writer control")
    groups = _metric(registry, "repro_commit_groups")
    grouped = _metric(registry, "repro_commit_group_records")
    assert groups > 0, "no commit groups formed under 4 writers"
    speedup = multi_qps / max(single_qps, 1e-9)

    table = Table(
        title=(f"Group-commit write path, {SHARDS} shards, {keys} keys "
               f"({WRITERS} writers vs 1)"),
        columns=("writers", "write_qps", "speedup"),
    )
    table.add(writers=1, write_qps=round(single_qps), speedup=1.0)
    table.add(writers=WRITERS, write_qps=round(multi_qps),
              speedup=round(speedup, 2))
    table.note(f"cpu_count={os.cpu_count()}; commit groups={groups}, "
               f"records grouped={grouped}; the >=2x gate is "
               f"{'enforced' if enforced else 'reported only'} here")
    record_table("mvcc", table)

    rpc = _rpc_framing_ab(keys)
    reader = _reader_isolation(keys, enforced)

    write_report(
        RESULTS_DIR / "BENCH_mvcc.json", "mvcc",
        {"shards": SHARDS, "writers": WRITERS, "keys": keys,
         "ops": sum(len(phase) for phases in slices for phase in phases),
         "cpu_count": os.cpu_count() or 1, "gate": gate,
         "reader_p99_factor": READER_P99_FACTOR},
        {"multi_write_qps": multi_qps, "single_write_qps": single_qps,
         "write_speedup": speedup, "byte_identical": True,
         "commit_groups": groups, "commit_group_records": grouped,
         "reader_idle_p99_ms": reader["idle_p99_ms"],
         "reader_under_write_p99_ms": reader["under_write_p99_ms"],
         "reader_fallbacks": reader["fallbacks"],
         "rpc_pickle_qps": rpc["pickle_qps"],
         "rpc_struct_qps": rpc["struct_qps"],
         "rpc_frame_speedup": rpc["speedup"],
         "gate_enforced": enforced},
        {"gate": gate, "reader": reader, "rpc_framing": rpc,
         "notes": ("rpc_framing is the before/after for the pickle-light "
                   "RPC trim: 'pickle_qps' forces the legacy pickle "
                   "frames, 'struct_qps' uses the cached per-op struct "
                   "packers now on by default"),
         "rectangles": len(stmts)})

    if enforced:
        assert speedup >= 2.0, (
            f"group commit only {speedup:.2f}x over the single-writer "
            f"control at {WRITERS} writers")
        ratio = reader["under_write_p99_ms"] / max(
            reader["idle_p99_ms"], 1e-9)
        assert ratio <= READER_P99_FACTOR, (
            f"read p99 degraded {ratio:.1f}x under writes "
            f"(bound {READER_P99_FACTOR}x)")


def _metric(registry, name: str) -> float:
    """Sum a metric family's sample values from the ``metrics`` op."""
    family = registry.get(name) or {}
    return float(sum(entry.get("value", 0.0)
                     for entry in family.get("series", [])))


def _reader_isolation(keys: int, enforced: bool):
    """Idle read p99 versus p99 under bursty writes, plus the honesty
    counter: optimistic readers must never fall back to the read lock."""
    warehouse = ShardedWarehouse(
        shards=SHARDS, key_space=(1, keys + 1), thread_safe=True)
    # Ride out a full write burst before falling back: the bench asserts
    # the happy path stays lock-free, so the retry budget must exceed
    # one burst's validation failures.
    for sid in warehouse.shard_ids():
        warehouse.handle(sid).read_retries = 50
    rng = random.Random(SEED + 7)
    t = 1
    for key in range(1, keys + 1):
        warehouse.insert(key, float(rng.randint(1, 100)), t)
        if rng.random() < 0.3:
            t += 1
    now = t
    rects = []
    for _ in range(16):
        lo = rng.randint(1, keys)
        hi = rng.randint(lo + 1, keys + 1)
        t0 = rng.randint(1, now)
        rects.append((KeyRange(lo, hi),
                      Interval(t0, rng.randint(t0 + 1, now + 1))))

    def read_pass(count: int):
        samples = []
        for i in range(count):
            key_range, interval = rects[i % len(rects)]
            started = time.perf_counter()
            warehouse.sum(key_range, interval)
            samples.append((time.perf_counter() - started) * 1e3)
        return samples

    idle = read_pass(400)
    baseline = warehouse.mvcc_stats.as_dict()

    stop = threading.Event()

    def churn() -> None:
        wt = now + 1
        wrng = random.Random(SEED + 11)
        while not stop.is_set():
            for _ in range(20):  # one burst
                warehouse.update(wrng.randint(1, keys),
                                 float(wrng.randint(1, 100)), wt)
                wt += 1
            stop.wait(0.005)

    writer = threading.Thread(target=churn, daemon=True)
    writer.start()
    try:
        under_write = read_pass(400)
    finally:
        stop.set()
        writer.join()
    stats = warehouse.mvcc_stats.as_dict()
    fallbacks = stats["fallbacks"] - baseline["fallbacks"]
    assert fallbacks == 0, (
        f"{fallbacks} optimistic reads fell back to the read lock "
        "under bursty writes — the happy path must stay lock-free")
    assert stats["optimistic"] > baseline["optimistic"]
    return {
        "idle_p99_ms": _p99(idle),
        "under_write_p99_ms": _p99(under_write),
        "retries": stats["retries"] - baseline["retries"],
        "fallbacks": fallbacks,
        "optimistic": stats["optimistic"] - baseline["optimistic"],
        "enforced": enforced,
    }


def _rpc_framing_ab(keys: int, ops: int = 2000):
    """Round-trip inserts against one worker, pickle vs struct frames."""
    del keys
    warmup = 300
    results = {}
    for mode in ("pickle", "struct"):
        warehouse = ProcessShardedWarehouse(
            shards=1, key_space=(1, ops + warmup + 1))
        original = procpool._pack_request
        if mode == "pickle":
            procpool._pack_request = lambda *a: None  # legacy framing
        try:
            client = warehouse.handle(0).primary
            for i in range(warmup):  # absorb worker cold start
                client.call("insert", ops + i + 1, 1.0, 1)
            start = time.perf_counter()
            for i in range(ops):
                client.call("insert", i + 1, 1.0, 1)
            results[mode] = ops / max(time.perf_counter() - start, 1e-9)
            if mode == "struct":
                assert client.packed_requests >= ops, (
                    "struct packer missed hot-path inserts")
        finally:
            procpool._pack_request = original
            warehouse.close()
    return {"pickle_qps": results["pickle"],
            "struct_qps": results["struct"],
            "speedup": results["struct"] / max(results["pickle"], 1e-9),
            "ops": ops}


if __name__ == "__main__":
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
