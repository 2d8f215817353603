"""One workload, end to end: set up, warm, measure, verify.

``run_end_to_end`` produces the untraced numbers a user of the system
would see.  Server workloads talk to a ``python -m repro.serve``
subprocess over TCP; ``ingest_bulk`` calls the library in this process.
Every run ends by checking sampled answers against the oracle, and a
wrong answer, a failed or refused request and an acknowledged write
that did not survive all count as failed ops.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.serve.loadgen import percentile

from . import harness, loadgen, replay
from .oracle import Oracle, same
from .workloads import (KEY_SPACE, LOAD_BATCH, Inputs, Read, Scale,
                        generate)

SLICE_S = 0.25             # see quiet_stats
QUIET_SHARE = 1.0 / 3.0
WRITE_GROUP = 32
MIN_CHECKS = 200
IO_MS = 10.0               # the paper's charge for one page transfer
_AGG = {"SUM": SUM, "COUNT": COUNT, "AVG": AVG}

SERVER_FLAGS = {
    "scan_thread": [],
    "scan_process": ["--executor", "process"],
    "dash_hot": [],
    # Plus --durable-dir, per set-up.  Not --fsync (nor fsync=True in
    # ingest_bulk's timed cycle): the flag is off by default, and an
    # fsync here is the host's disk — one bad quarter of an hour doubled
    # it, and with it setup_s and every htap_mixed number (README,
    # *Noise*).  The WAL is still written and flushed per commit and a
    # SIGKILL still forces recovery from it; what fsync costs is read
    # off the traced replays, which keep it (storage.wal.*).
    "htap_mixed": [],
}


class Tally:
    """Ops attempted and failed, per phase, for the run record."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}

    def add(self, phase: str, attempted: int, failed: int) -> None:
        row = self.phases.setdefault(phase, {"attempted": 0, "failed": 0})
        row["attempted"] += attempted
        row["failed"] += failed


def _slice_of(done: float, t0: float, count: int) -> int:
    return min(count - 1, int((done - t0) / SLICE_S))


def quiet_stats(reads: loadgen.Samples, writes: loadgen.Samples,
                ticks: Sequence[Tuple[float, float]], t0: float,
                seconds: float) -> Dict[str, Any]:
    """The window's numbers over its quiet third.

    The window is cut into ``SLICE_S`` slices, the slices are ranked by
    their median read latency, and the fastest ``QUIET_SHARE`` of them
    are pooled: throughput, latency percentiles, CPU per op and write
    latency all come from that one pool.  ``ticks`` are the drive
    loop's ``(wall, cpu seconds)`` readings.  Why not the median over
    segments: see "Noise" in the README — this box stalls single cores
    for a few hundred ms at a time, several times a minute.
    """
    count = max(1, int(seconds / SLICE_S))
    rows: List[Dict[str, Any]] = [
        {"reads": [], "writes": []} for _ in range(count)]
    for done, latency in zip(reads.done, reads.latency_ms):
        if done >= t0:
            rows[_slice_of(done, t0, count)]["reads"].append(latency)
    for done, latency in zip(writes.done, writes.latency_ms):
        if done >= t0:
            rows[_slice_of(done, t0, count)]["writes"].append(latency)
    edges = [t0 + i * SLICE_S for i in range(count + 1)]
    cpu_at = np.interp(edges, [t for t, _ in ticks], [c for _, c in ticks])
    for i, row in enumerate(rows):
        row["cpu_s"] = float(cpu_at[i + 1] - cpu_at[i])
        row["p50_ms"] = (statistics.median(row["reads"])
                         if row["reads"] else float("inf"))
    ranked = sorted(range(count), key=lambda i: rows[i]["p50_ms"])
    quiet = sorted(ranked[:max(1, round(count * QUIET_SHARE))])
    pooled = sorted(ms for i in quiet for ms in rows[i]["reads"])
    pooled_writes = [ms for i in quiet for ms in rows[i]["writes"]]
    ops = len(pooled) + len(pooled_writes)
    return {
        "slices": [{"reads": len(r["reads"]), "writes": len(r["writes"]),
                    "p50_ms": r["p50_ms"], "cpu_s": r["cpu_s"]}
                   for r in rows],
        "quiet_slices": quiet,
        "qps": len(pooled) / (len(quiet) * SLICE_S),
        "p50_ms": percentile(pooled, 0.50),
        "p95_ms": percentile(pooled, 0.95),
        "p99_ms": percentile(pooled, 0.99),
        "write_p50_ms": (statistics.median(pooled_writes)
                         if pooled_writes else None),
        "cpu_ms_per_op": sum(rows[i]["cpu_s"] for i in quiet) * 1e3 / ops,
    }


def quiet_median(latencies: Sequence[float]) -> float:
    """Median of a closed-loop write tail over its quiet third: runs of
    ``WRITE_GROUP`` consecutive writes ranked by their median."""
    groups = [latencies[i:i + WRITE_GROUP]
              for i in range(0, len(latencies), WRITE_GROUP)]
    groups.sort(key=statistics.median)
    keep = groups[:max(1, round(len(groups) * QUIET_SHARE))]
    return statistics.median(ms for group in keep for ms in group)


def check_reads(oracle: Oracle, reads: Sequence[Read],
                samples: loadgen.Samples, tally: Tally, phase: str) -> None:
    """Oracle-check an even sample of at least ``MIN_CHECKS`` answers;
    request errors of the phase are failures too."""
    total = len(samples.detail)
    step = max(1, total // MIN_CHECKS)
    wrong = 0
    for index, got, snapshot, lo, hi in samples.detail[::step]:
        read = reads[index % len(reads)]
        if not oracle.check(got, read, snapshot, range(lo, hi + 1)):
            wrong += 1
    errors = sum(samples.errors.values())
    tally.add(phase, total + errors, wrong + errors)


def check_totals(oracle: Oracle, client, prefix: int, tally: Tally,
                 phase: str) -> None:
    """Full-space SUM and COUNT must equal exactly ``events[:prefix]``."""
    snapshot = client.repin()
    wrong = 0
    for agg, tql in (("SUM", "SELECT SUM(value)"),
                     ("COUNT", "SELECT COUNT(*)")):
        want = oracle.answer(agg, KEY_SPACE[0], KEY_SPACE[1], 1,
                             snapshot + 1, snapshot, prefix)
        wrong += not same(client.execute(tql), want)
    tally.add(phase, 2, wrong)


def set_up_server(workload: str, inputs: Inputs, scale: Scale, work: Path
                  ) -> Tuple[harness.ServerProc, List[str], List[float]]:
    """Boot and load ``scale.setups`` servers; the last one is kept."""
    times: List[float] = []
    for attempt in range(scale.setups):
        flags = list(SERVER_FLAGS[workload])
        if workload == "htap_mixed":
            flags += ["--durable-dir", str(work / f"durable-{attempt}")]
        server = harness.ServerProc(flags)
        try:
            server.load(inputs.loaded)
        except BaseException:
            server.kill()
            raise
        times.append(time.perf_counter() - server.started)
        if attempt + 1 < scale.setups:
            server.kill()
    return server, flags, times


def _drive(server: harness.ServerProc, inputs: Inputs, first_read: int,
           first_write: int, seconds: float,
           clock: Optional[loadgen.CpuClock] = None) -> loadgen.Mix:
    """One phase (warm-up or measured) of a server workload's traffic."""
    t_end = time.perf_counter() + seconds
    mix = loadgen.Mix(reads=inputs.reads, next_read=first_read,
                      tail=inputs.events[first_write:],
                      first_write=first_write)
    if inputs.workload.startswith("scan_"):
        with server.client() as client:
            mix.read_samples = loadgen.closed_loop(
                client, inputs.reads, first_read, t_end, client.snapshot,
                inputs.n_loaded, clock)
        mix.next_read = first_read + len(mix.read_samples.done) \
            + sum(mix.read_samples.errors.values())
    elif inputs.workload == "dash_hot":
        loadgen.selector_loop(server.host, server.port, mix, t_end,
                              readers=2, repin=False, write_rate=0.0,
                              clock=clock)
    else:
        loadgen.selector_loop(server.host, server.port, mix, t_end,
                              readers=1, repin=True,
                              write_rate=inputs.write_rate, clock=clock)
    return mix


@dataclass
class Window:
    """What one measured window of server traffic produced."""

    mix: loadgen.Mix
    writes_before: int         # tail events sent during the warm-up
    wall_s: float
    loadgen_cpu_s: float
    rss_mb: float
    srv: Dict[str, float]      # the server's own counters over the window
    stats: Dict[str, Any]      # quiet_stats of the window


def measure_window(server: harness.ServerProc, inputs: Inputs, scale: Scale,
                   seconds: float) -> Window:
    """Warm up, then drive the workload's traffic for ``seconds``."""
    warm = _drive(server, inputs, 0, inputs.n_loaded, scale.warm_s)
    with server.client() as client:
        before = replay.flat_metrics(client)
    clock = loadgen.CpuClock(server.cpu_seconds, SLICE_S / 2)
    own0, t0 = time.process_time(), time.perf_counter()
    mix = _drive(server, inputs, warm.next_read,
                 inputs.n_loaded + warm.writes_sent, seconds, clock)
    wall = time.perf_counter() - t0
    own1 = time.process_time()
    clock.poll(float("inf"))
    with server.client() as client:
        srv = replay.delta(replay.flat_metrics(client), before)
    stats = quiet_stats(mix.read_samples, mix.write_samples, clock.ticks,
                        t0, seconds)
    return Window(mix, warm.writes_sent, wall, own1 - own0,
                  server.peak_rss_mb(), srv, stats)


def run_server_workload(inputs: Inputs, scale: Scale, seconds: float,
                        work: Path) -> Dict[str, Any]:
    """Set-up, warm-up, measured window, write tail and checks of one of
    the four server workloads."""
    workload = inputs.workload
    oracle = Oracle(inputs.events)
    tally = Tally()
    server, flags, setup_times = set_up_server(workload, inputs, scale, work)
    try:
        window = measure_window(server, inputs, scale, seconds)
        mix = window.mix
        reads, writes = mix.read_samples, mix.write_samples
        check_reads(oracle, inputs.reads, reads, tally, "measured_reads")
        applied = inputs.n_loaded + window.writes_before + mix.writes_sent
        if workload != "htap_mixed":
            with server.client() as client:
                writes = loadgen.write_tail(client, inputs.tail,
                                            inputs.n_loaded)
            applied = len(inputs.events)
        write_errors = sum(writes.errors.values())
        tally.add("writes", len(writes.done) + write_errors, write_errors)
        record: Dict[str, Any] = {}
        if workload == "htap_mixed":
            # Crash, restart on the same directory, and require every
            # acknowledged write: nothing was in flight at the kill.
            server.kill()
            server = harness.ServerProc(flags)
            with server.client() as client:
                check_totals(oracle, client, applied, tally, "after_kill")
                record["recovery_s"] = time.perf_counter() - server.started
        else:
            with server.client() as client:
                check_totals(oracle, client, applied, tally, "after_tail")
    finally:
        server.kill()
    stats = window.stats
    record.update({
        "setup_s_runs": setup_times,
        "window": stats,
        "write_latency_ms": writes.latency_ms,
        "late_ms": sorted(mix.late_ms),
        "loadgen_cpu_frac": window.loadgen_cpu_s / window.wall_s,
        "server_counters": window.srv,
        "phases": tally.phases,
        "end_to_end": {
            "setup_s": min(setup_times),
            "read_qps": stats["qps"],
            "read_p50_ms": stats["p50_ms"],
            "read_p95_ms": stats["p95_ms"],
            # htap_mixed's writes ran inside the window, open loop;
            # the others' are the closed-loop tail after it.
            "write_p50_ms": (stats["write_p50_ms"]
                             if workload == "htap_mixed"
                             else quiet_median(writes.latency_ms)),
            "cpu_ms_per_op": stats["cpu_ms_per_op"],
            "rss_mb": window.rss_mb,
        },
    })
    if record["loadgen_cpu_frac"] > 0.5:
        record["flags"] = ["loadgen.cpu_frac > 0.5: this run measured "
                           "the generator"]
    return record


def library_reads(warehouse: TemporalWarehouse, inputs: Inputs, first: int,
                  t_end: float, limit: int = 0,
                  clock: Optional[loadgen.CpuClock] = None
                  ) -> loadgen.Samples:
    """The scan statements as direct library calls, closed loop, until
    ``t_end`` (or for ``limit`` reads)."""
    samples = loadgen.Samples()
    reads, prefix = inputs.reads, inputs.n_loaded
    snapshot = inputs.load_snapshot
    index = first
    while True:
        started = time.perf_counter()
        if clock is not None:
            clock.poll(started)
        if started >= t_end or (limit and index - first >= limit):
            return samples
        got = library_read(warehouse, reads[index % len(reads)])
        done = time.perf_counter()
        samples.add(done, (done - started) * 1e3,
                    (index, got, snapshot, prefix, prefix))
        index += 1


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def library_read(warehouse: TemporalWarehouse, read: Read):
    """One read statement as a direct library call."""
    return warehouse.aggregate(KeyRange(read.k_lo, read.k_hi),
                               Interval(read.t_lo, read.t_hi),
                               _AGG[read.agg])


def ingest_cycle(inputs: Inputs, directory: Path, oracle: Oracle,
                 fsync: bool = False
                 ) -> Tuple[TemporalWarehouse, Dict[str, Any]]:
    """open_durable → load → checkpoint → close → reopen → first correct
    answer; returns the reopened warehouse and the cycle's numbers.
    ``fsync`` is for the per-layer cycles (see ``SERVER_FLAGS``)."""
    started = time.perf_counter()
    warehouse = TemporalWarehouse.open_durable(
        str(directory), fsync=fsync, key_space=KEY_SPACE)
    before = replay.counters(warehouse)
    cpu0, t_load = time.process_time(), time.perf_counter()
    loaded = inputs.loaded
    flushed = batches = 0
    for i in range(0, len(loaded), LOAD_BATCH):
        report = warehouse.load_events(loaded[i:i + LOAD_BATCH],
                                       batch_size=LOAD_BATCH)
        flushed += report.flushed_pages
        batches += report.batches
    done = time.perf_counter()
    counts = replay.delta(replay.counters(warehouse), before)
    numbers: Dict[str, Any] = {
        "setup_s": done - started,
        "load_s": done - t_load,
        "load_cpu_s": time.process_time() - cpu0,
        "load_ios": replay.ios_of(counts),
        "load_counts": counts,
        "flushed_pages": flushed,
        "batches": batches,
        "wal_bytes": _dir_bytes(directory),
        "pages": warehouse.page_count(),
    }
    warehouse.checkpoint()
    numbers["checkpoint_s"] = time.perf_counter() - done
    warehouse.close()
    numbers["disk_bytes"] = _dir_bytes(directory)
    reopened = time.perf_counter()
    warehouse = TemporalWarehouse.open_durable(str(directory))
    got = library_read(warehouse, inputs.reads[0])
    numbers["recovery_s"] = time.perf_counter() - reopened
    numbers["recovered"] = oracle.check(got, inputs.reads[0],
                                        inputs.load_snapshot,
                                        [inputs.n_loaded])
    return warehouse, numbers


def run_ingest_bulk(inputs: Inputs, scale: Scale, seconds: float,
                    work: Path) -> Dict[str, Any]:
    """The embedded ETL path: no server anywhere."""
    oracle = Oracle(inputs.events)
    tally = Tally()
    cycles: List[Dict[str, float]] = []
    warehouse: Optional[TemporalWarehouse] = None
    try:
        for attempt in range(scale.setups):
            if warehouse is not None:
                warehouse.close()
            warehouse, numbers = ingest_cycle(
                inputs, work / f"ingest-{attempt}", oracle)
            cycles.append(numbers)
            tally.add("recovery", 1, not numbers["recovered"])
        warm = library_reads(warehouse, inputs, 0,
                             time.perf_counter() + scale.warm_s)
        clock = loadgen.CpuClock(time.process_time, SLICE_S / 2)
        t0 = time.perf_counter()
        reads = library_reads(warehouse, inputs, len(warm.done),
                              t0 + seconds, clock=clock)
        clock.poll(float("inf"))
        check_reads(oracle, inputs.reads, reads, tally, "measured_reads")
        writes = loadgen.Samples()
        for offset, event in enumerate(inputs.tail):
            started = time.perf_counter()
            if event.op == "insert":
                warehouse.insert(event.key, event.value, event.time)
            else:
                warehouse.delete(event.key, event.time)
            done = time.perf_counter()
            writes.add(done, (done - started) * 1e3, offset)
        tally.add("writes", len(writes.done), 0)
        now = warehouse.now
        wrong = sum(
            not same(warehouse.aggregate(KeyRange(*KEY_SPACE),
                                         Interval(1, now + 1), _AGG[agg]),
                     oracle.answer(agg, KEY_SPACE[0], KEY_SPACE[1], 1,
                                   now + 1, now, len(inputs.events)))
            for agg in ("SUM", "COUNT"))
        tally.add("after_tail", 2, wrong)
    finally:
        if warehouse is not None:
            warehouse.close()
    stats = quiet_stats(reads, loadgen.Samples(), clock.ticks, t0, seconds)
    best = min(cycles, key=lambda c: c["load_cpu_s"])
    events = inputs.n_loaded
    return {
        "cycles": cycles,
        "window": stats,
        "write_latency_ms": writes.latency_ms,
        "late_ms": [],
        "loadgen_cpu_frac": 0.0,       # generator and program are one
        "phases": tally.phases,
        "end_to_end": {
            "setup_s": min(c["setup_s"] for c in cycles),
            "read_qps": stats["qps"],
            "read_p50_ms": stats["p50_ms"],
            "read_p95_ms": stats["p95_ms"],
            "write_p50_ms": quiet_median(writes.latency_ms),
            "cpu_ms_per_op": stats["cpu_ms_per_op"],
            "rss_mb": harness.peak_rss_mb([os.getpid()]),
            # Here an op is one ingested event: the paper's estimate of
            # what the load would cost against a disk.
            "model_ms_per_op": (IO_MS * best["load_ios"]
                                + best["load_cpu_s"] * 1e3) / events,
        },
    }


def run_end_to_end(workload: str, seed: int, seconds: float,
                   scale: Scale) -> Dict[str, Any]:
    """The untraced run of one workload: every end-to-end metric."""
    inputs = generate(workload, seed, scale)
    work = harness.work_dir()
    try:
        if workload == "ingest_bulk":
            record = run_ingest_bulk(inputs, scale, seconds, work)
        else:
            record = run_server_workload(inputs, scale, seconds, work)
            counted = replay.page_ios_per_op(inputs, scale, work)
            record["counted"] = {key: counted[key] for key in (
                "ops", "reads", "writes", "ios", "checked", "wrong")}
            record["phases"]["counted_replay"] = {
                "attempted": counted["checked"], "failed": counted["wrong"]}
            record["end_to_end"]["model_ms_per_op"] = (
                IO_MS * counted["ios"] / counted["ops"]
                + record["end_to_end"]["cpu_ms_per_op"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["stream_hash"] = inputs.stream_hash
    return record
