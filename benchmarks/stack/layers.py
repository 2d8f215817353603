"""The per-layer numbers of one workload (``--trace 1``).

Three sources, never mixed within one number:

* a **driven window** against the subprocess server, for what only
  concurrent traffic shows (queueing, shared-scan and commit groups,
  MVCC retries, client-side percentiles, generator lateness);
* the **counted replay**, whose public counters repeat exactly for a
  seed (page transfers, cache outcomes, tree splits, space);
* the **traced replay**, whose spans give each layer's self time.

Layers are named after the modules under ``src/repro``.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.core.warehouse import TemporalWarehouse
from repro.serve.loadgen import percentile

from . import harness, replay, runner, spec, tracing
from .oracle import Oracle
from .workloads import (KEY_SPACE, LOAD_BATCH, SCAN_QRS, Inputs, Read, Scale,
                        generate)

TRACED_BATCHES = 2           # ingest_bulk traces its last batches only
_TAILS = (0.9999, 0.999, 0.99, 0.9)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(counts: Dict[str, float], prefix: str) -> float:
    """Sum of every flat counter whose key starts with ``prefix``."""
    return sum(v for k, v in counts.items() if k.startswith(prefix))


def tail_latency(latencies: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for q in _TAILS:
        if len(ordered) * (1.0 - q) >= 10:
            return {"tail_ms": percentile(ordered, q), "tail_quantile": q,
                    "samples": len(ordered)}
    return {"tail_ms": ordered[-1] if ordered else 0.0,
            "tail_quantile": 0.0, "samples": len(ordered)}


def client_view(latencies: Sequence[float], reads: Sequence[Read],
                indexes: Sequence[int]) -> Dict[str, float]:
    """Generator-side latency: the tail, and the median per QRS class —
    is read latency flat in rectangle size, as the paper claims?"""
    out = {f"client.{k}": v for k, v in tail_latency(latencies).items()}
    for qrs in SCAN_QRS:
        name = "client.p50_ms_qrs" + str(qrs).replace(".", "")
        picked = [ms for ms, i in zip(latencies, indexes)
                  if reads[i % len(reads)].qrs == qrs]
        out[name] = statistics.median(picked) if picked else 0.0
    return out


def span_metrics(tracer: tracing.Tracer, ops: int,
                 server_s: float = 0.0) -> Dict[str, float]:
    """``<layer>.self_us_per_op`` and ``.calls_per_op`` from the spans.

    The server's own asyncio code has no public entry point to wrap;
    its share of the root ``Client.request`` span is what its latency
    histogram (``server_s``, from the ``metrics`` op) leaves after the
    ``tql`` spans, and the client keeps the rest.
    """
    table = tracer.layer_times()
    out: Dict[str, float] = {}
    for layer, row in table.items():
        out[f"{layer}.self_us_per_op"] = row["self_ns"] / 1e3 / ops
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
    server_us = max(0.0, server_s * 1e6
                    - table["tql"]["inclusive_ns"] / 1e3) / ops
    server_us = min(server_us, out["serve.client.self_us_per_op"])
    out["serve.server.self_us_per_op"] = server_us
    out["serve.client.self_us_per_op"] -= server_us
    out["serve.server.calls_per_op"] = (out["serve.client.calls_per_op"]
                                        if server_s else 0.0)
    return out


def counted_metrics(counts: Dict[str, float], ops: int, reads: int,
                    events: int) -> Dict[str, float]:
    """Exact counts of the counted replay (``events`` = tuples written)."""
    agg_fetches = _total(counts, "shard:repro_pool_logical_reads{pool=agg")
    tup_fetches = _total(counts, "shard:repro_pool_logical_reads{pool=tup")
    fetches = agg_fetches + tup_fetches
    page_reads = _total(counts, "shard:repro_pool_reads{")
    page_writes = _total(counts, "shard:repro_pool_writes{")
    memo_hits = _total(counts, "shard:repro_cache_hits{cache=memo}")
    memo_misses = _total(counts, "shard:repro_cache_misses{cache=memo}")
    hits = _total(counts, "shard:repro_cache_hits{cache=result}")
    misses = _total(counts, "shard:repro_cache_misses{cache=result}")
    probes = memo_hits + memo_misses
    mvsbt_inserts = _total(counts, "shard:repro_tree_insertions{")
    splits = (_total(counts, "shard:repro_tree_time_splits{")
              + _total(counts, "shard:repro_tree_key_splits{index=SUM")
              + _total(counts, "shard:repro_tree_key_splits{index=COUNT"))
    kop = ops / 1000.0
    return {
        "model.ios_per_op": (page_reads + page_writes) / ops,
        "core.cache.result_hit_rate": _ratio(hits, hits + misses),
        "core.cache.result_stale_drops_per_kop": _total(
            counts, "shard:repro_cache_stale_drops{cache=result}") / kop,
        "core.cache.result_evictions_per_kop": _total(
            counts, "shard:repro_cache_evictions{cache=result}") / kop,
        "core.cache.memo_hit_rate": _ratio(memo_hits, probes),
        "core.rta.probes_per_op": _ratio(probes, reads),
        "mvsbt.pages_per_probe": _ratio(agg_fetches, probes),
        "mvsbt.inserts_per_event": _ratio(mvsbt_inserts, events),
        "mvsbt.splits_per_kevent": _ratio(splits * 1000.0, events),
        "storage.buffer.fetches_per_op": fetches / ops,
        "storage.buffer.reads_per_op": page_reads / ops,
        "storage.buffer.writes_per_op": page_writes / ops,
        "storage.buffer.hit_rate": 1.0 - _ratio(page_reads, fetches),
        "storage.buffer.coalesced_writes_per_kevent": _ratio(
            _total(counts, "shard:repro_pool_coalesced_writes{") * 1000.0,
            events),
        "serve.procpool.packed_frac": _ratio(
            counts.get("worker:packed_requests", 0.0),
            counts.get("worker:requests", 0.0)),
        "serve.procpool.batched_reads_frac": _ratio(
            counts.get("worker:batched_reads", 0.0),
            counts.get("worker:reads", 0.0)),
    }


def driven_metrics(srv: Dict[str, float], ops: int, reads: int
                   ) -> Dict[str, float]:
    """What the server's own counters say about the driven window."""
    phase = "srv:repro_serve_op_phase_seconds{op=query,phase=%s}.sum"
    kop = ops / 1000.0
    return {
        "serve.server.queue_us_per_op": srv.get(phase % "queue", 0.0)
        * 1e6 / ops,
        "serve.server.exec_us_per_op": srv.get(phase % "exec", 0.0)
        * 1e6 / ops,
        "serve.server.rejected_per_kop": _total(
            srv, "srv:repro_serve_rejected_total{") / kop,
        "serve.server.scan_group_size_mean": _ratio(
            srv.get("srv:repro_batchscan_server_group_queries{}", 0.0),
            srv.get("srv:repro_batchscan_server_groups{}", 0.0)),
        "serve.server.commit_group_size_mean": _ratio(
            srv.get("srv:repro_commit_group_records{}", 0.0),
            srv.get("srv:repro_commit_groups{}", 0.0)),
        "serve.sharded.shards_per_op": _ratio(
            srv.get("srv:repro_serve_shard_queries_total{}", 0.0), reads),
        "serve.sharded.mvcc_retries_per_kop": srv.get(
            "srv:repro_mvcc_reads_retries{}", 0.0) / kop,
        "serve.sharded.mvcc_fallbacks_per_kop": srv.get(
            "srv:repro_mvcc_reads_fallbacks{}", 0.0) / kop,
        "mvsbt.probes_deduped_frac": _ratio(
            srv.get("srv:repro_batchscan_probes_deduped{}", 0.0),
            srv.get("srv:repro_batchscan_probes{}", 0.0)),
    }


def blank() -> Dict[str, float]:
    """Every per-layer name ``BENCHMARK.json`` lists, at 0: what a
    workload reports for a layer it does not reach."""
    return dict.fromkeys((m["name"] for m in spec.PER_LAYER), 0.0)


def trace_metrics(tracer: tracing.Tracer, ops: int, writes: int,
                  traced_s: float, counted_s: float,
                  tuple_fetches: float = 0.0) -> Dict[str, float]:
    """Numbers that need span names or span counts, not just layers
    (``tuple_fetches``: the counted replay's page fetches of the MVBT
    pool, which the traced ``rectangle_query`` calls share out)."""
    table = tracer.layer_times()
    calls = {label: 0 for label in tracer.labels}
    for label_id in tracer.label:
        calls[tracer.labels[label_id]] += 1

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    encodes = count("storage.serialization:checkpoint.encode_page_image",
                    "storage.serialization:disk.encode_page_image")
    decodes = count("storage.serialization:checkpoint.decode_page",
                    "storage.serialization:disk.decode_page")
    appends = count("storage.wal:WriteAheadLog.append",
                    "storage.wal:WriteAheadLog.append_batch")
    return {
        "core.warehouse.plan_us_per_op": tracer.name_ns(
            "core.warehouse:TemporalWarehouse.explain") / 1e3 / ops,
        "mvbt.pages_per_scan": _ratio(
            tuple_fetches, count("mvbt:MVBT.rectangle_query")),
        "storage.disk.reads_per_op": count(
            "storage.disk:InMemoryDiskManager.read",
            "storage.disk:FileDiskManager.read") / ops,
        "storage.disk.writes_per_op": count(
            "storage.disk:InMemoryDiskManager.write",
            "storage.disk:FileDiskManager.write") / ops,
        "storage.wal.appends_per_write": _ratio(appends, writes),
        "storage.wal.fsyncs_per_write": _ratio(tracer.counts["wal.fsyncs"],
                                               writes),
        "storage.checkpoint.encode_us_per_page": _ratio(
            tracer.name_ns("storage.serialization:checkpoint."
                           "encode_page_image") / 1e3, encodes),
        "storage.checkpoint.decode_us_per_page": _ratio(
            tracer.name_ns("storage.serialization:checkpoint.decode_page")
            / 1e3, decodes),
        "storage.checkpoint.pages": encodes,
        "trace.overhead_frac": _ratio(traced_s, counted_s) - 1.0,
        "trace.accounted_frac": _ratio(
            sum(row["self_ns"] for row in table.values()),
            tracer.root_ns()),
    }


def _wal_bytes(work: Path) -> int:
    return sum(f.stat().st_size for f in work.rglob("*.log"))


def server_layers(inputs: Inputs, scale: Scale, seconds: float, work: Path,
                  spans_path: Optional[Path]) -> Dict[str, Any]:
    """Driven window, counted replay and traced replay of one of the
    four server workloads."""
    workload = inputs.workload
    out = blank()
    record: Dict[str, Any] = {}

    server, _, _ = runner.set_up_server(
        workload, inputs, dataclasses.replace(scale, setups=1), work)
    try:
        window = runner.measure_window(server, inputs, scale, seconds)
    finally:
        server.kill()
    reads = window.mix.read_samples
    driven_ops = len(reads.done) + len(window.mix.write_samples.done)
    out.update(driven_metrics(window.srv, driven_ops, len(reads.done)))
    out.update(client_view(reads.latency_ms, inputs.reads,
                           [d[0] for d in reads.detail]))
    late = sorted(window.mix.late_ms)
    out["loadgen.late_ms_p99"] = percentile(late, 0.99) if late else 0.0
    out["loadgen.cpu_frac"] = window.loadgen_cpu_s / window.wall_s
    tally = runner.Tally()
    runner.check_reads(Oracle(inputs.events), inputs.reads, reads, tally,
                       "driven_reads")

    wal0 = _wal_bytes(work)
    counted = replay.replay_server(inputs, scale, work, "counted")
    wal_bytes = _wal_bytes(work) - wal0
    ops, writes = counted["ops"], counted["writes"]
    out.update(counted_metrics(counted["counts"], ops, counted["reads"],
                               writes))
    out["core.warehouse.plan_mvsbt_frac"] = counted["plan_mvsbt_frac"]
    out["storage.wal.bytes_per_event"] = _ratio(wal_bytes, writes)

    tracer = tracing.Tracer()
    traced = replay.replay_server(inputs, scale, work, "traced", tracer)
    server_s = traced["counts"].get(
        "srv:repro_serve_latency_seconds{}.sum", 0.0)
    spans = span_metrics(tracer, ops, server_s)
    tuple_fetches = _total(counted["counts"],
                           "shard:repro_pool_logical_reads{pool=tup")
    extra = trace_metrics(tracer, ops, writes, traced["wall_s"],
                          counted["wall_s"], tuple_fetches)
    if workload == "scan_process":
        # Wrappers cannot reach into worker processes.  The identical
        # ops on the thread backend say what the workers' share of an
        # RPC is (derived, not observed): everything at or below
        # core.warehouse.
        twin = tracing.Tracer()
        replay.replay_server(
            dataclasses.replace(inputs, workload="scan_thread"), scale,
            work, "twin", twin)
        twin_spans = span_metrics(twin, ops)
        twin_extra = trace_metrics(twin, ops, 0, 0.0, 0.0, tuple_fetches)
        below = [layer for layer in tracing.LAYERS
                 if layer.startswith(("core.", "mvsbt", "mvbt", "storage."))]
        for layer in below:
            for kind in ("self_us_per_op", "calls_per_op"):
                spans[f"{layer}.{kind}"] = twin_spans[f"{layer}.{kind}"]
        for name in ("core.warehouse.plan_us_per_op", "mvbt.pages_per_scan",
                     "storage.disk.reads_per_op",
                     "storage.disk.writes_per_op"):
            extra[name] = twin_extra[name]
        worker_us = twin.layer_times()["core.warehouse"]["inclusive_ns"] \
            / 1e3 / ops
        rpc_us = spans["serve.procpool.self_us_per_op"]
        out["serve.procpool.worker_us_per_op"] = worker_us
        out["serve.procpool.rpc_us_per_op"] = max(0.0, rpc_us - worker_us)
        record["derived"] = ["serve.procpool.worker_us_per_op"] + [
            f"{layer}.self_us_per_op" for layer in below]
    out.update(spans)
    out.update(extra)
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    tally.add("counted_replay", counted["checked"], counted["wrong"])
    tally.add("traced_replay", traced["checked"], traced["wrong"])
    record.update({
        "per_layer": out,
        "phases": tally.phases,
        "counted_counts": counted["counts"],
        "driven_counters": window.srv,
        "spans": len(tracer),
    })
    return record


def ingest_layers(inputs: Inputs, scale: Scale, work: Path,
                  spans_path: Optional[Path]) -> Dict[str, Any]:
    """``ingest_bulk``: one counted cycle of the whole load, library
    reads for the client view, and a traced cycle that records only
    the last batches, the checkpoint and the reopen."""
    out = blank()
    oracle = Oracle(inputs.events)
    tally = runner.Tally()
    warehouse, cycle = runner.ingest_cycle(inputs, work / "counted", oracle,
                                           fsync=True)
    try:
        tally.add("recovery", 1, not cycle["recovered"])
        before = replay.counters(warehouse)
        samples = runner.library_reads(warehouse, inputs, 0, float("inf"),
                                       scale.replay_ops)
        read_counts = replay.delta(replay.counters(warehouse), before)
        plan_frac = replay.plan_mvsbt_frac(warehouse, inputs.reads)
    finally:
        warehouse.close()
    runner.check_reads(oracle, inputs.reads, samples, tally, "counted_reads")
    events = inputs.n_loaded
    kevents = events / 1000.0
    # Per-op counts are per ingested event here; the read-side ratios
    # come from the library reads on the reopened warehouse.
    out.update(counted_metrics(cycle["load_counts"], events, 1, events))
    reads = counted_metrics(read_counts, scale.replay_ops, scale.replay_ops,
                            1)
    for name in ("core.rta.probes_per_op", "mvsbt.pages_per_probe",
                 "core.cache.memo_hit_rate", "core.cache.result_hit_rate"):
        out[name] = reads[name]
    out.update(client_view(samples.latency_ms, inputs.reads,
                           [d[0] for d in samples.detail]))
    out.update({
        "core.warehouse.plan_mvsbt_frac": plan_frac,
        "storage.wal.bytes_per_event": cycle["wal_bytes"] / events,
        "storage.checkpoint.checkpoint_s": cycle["checkpoint_s"],
        "storage.checkpoint.recovery_s": cycle["recovery_s"],
        "core.ingest.flushed_pages_per_kevent":
            cycle["flushed_pages"] / kevents,
        "core.ingest.batches": cycle["batches"],
        "core.ingest.events_per_s": events / cycle["load_s"],
        "space.pages_per_kevent": cycle["pages"] / kevents,
        "space.disk_bytes_per_event": cycle["disk_bytes"] / events,
    })

    tracer = tracing.Tracer()
    loaded = inputs.loaded
    split = max(0, (len(loaded) - 1) // LOAD_BATCH + 1 - TRACED_BATCHES) \
        * LOAD_BATCH
    directory = str(work / "traced")
    with tracing.installed(tracer):
        traced_wh = TemporalWarehouse.open_durable(
            directory, fsync=True, key_space=KEY_SPACE)
        try:
            for i in range(0, split, LOAD_BATCH):
                traced_wh.load_events(loaded[i:i + LOAD_BATCH],
                                      batch_size=LOAD_BATCH)
            tracer.recording = True
            t0 = time.perf_counter()
            for i in range(split, len(loaded), LOAD_BATCH):
                traced_wh.load_events(loaded[i:i + LOAD_BATCH],
                                      batch_size=LOAD_BATCH)
            traced_load_s = time.perf_counter() - t0
            traced_wh.checkpoint()
            traced_wh.close()
            traced_wh = TemporalWarehouse.open_durable(directory, fsync=True)
        finally:
            tracer.recording = False
            traced_wh.close()
    traced_events = len(loaded) - split
    out.update(span_metrics(tracer, traced_events))
    out.update(trace_metrics(
        tracer, traced_events, traced_events, traced_load_s,
        cycle["load_s"] * traced_events / events))
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    return {"per_layer": out, "phases": tally.phases,
            "counted_counts": cycle["load_counts"], "spans": len(tracer),
            "cycle": {k: v for k, v in cycle.items() if k != "load_counts"}}


def run_per_layer(workload: str, seed: int, seconds: float, scale: Scale,
                  spans_path: Optional[Path] = None) -> Dict[str, Any]:
    """The traced run of one workload: every per-layer metric."""
    inputs = generate(workload, seed, scale)
    work = harness.work_dir()
    try:
        if workload == "ingest_bulk":
            record = ingest_layers(inputs, scale, work, spans_path)
        else:
            record = server_layers(inputs, scale, seconds, work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["stream_hash"] = inputs.stream_hash
    flags = []
    if record["per_layer"]["trace.overhead_frac"] > 0.25:
        flags.append("trace.overhead_frac > 0.25: the traced self times "
                     "are distorted by the tracing itself")
    if record["per_layer"]["loadgen.cpu_frac"] > 0.5:
        flags.append("loadgen.cpu_frac > 0.5: the driven window measured "
                     "the generator")
    record["flags"] = flags
    return record
