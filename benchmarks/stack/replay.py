"""Counted and traced replays: the first ops of a workload's stream, one
client, against an in-process server.

The *counted* replay only reads public counters before and after —
buffer-pool ``IOStats``, tree counters, the ``metrics`` op, worker
registries — so its numbers repeat exactly for a seed; they give
``model_ms_per_op`` and every per-layer count.  The *traced* replay is
the same ops with :mod:`tracing`'s wrappers installed, and gives the
per-layer self times.  Neither contributes a wall-clock end-to-end
number: those come only from the untraced subprocess runs.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.aggregates import COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.obs.metrics import MetricsRegistry, snapshot_into
from repro.serve.client import Client
from repro.serve.server import ServerConfig, serve_in_thread

from . import tracing
from .oracle import Oracle
from .workloads import (KEY_SPACE, LOAD_BATCH, SHARDS, Inputs, Read, Scale,
                        write_tql)

WRITE_EVERY = 5            # htap_mixed replay: op 5, 10, … is a write
CHECKS = 400
PLAN_SAMPLE = 200


def _flatten(registry: Dict[str, Any], prefix: str,
             into: Dict[str, float]) -> None:
    """Sum a metrics-registry JSON into flat ``name{labels}`` keys,
    dropping the shard label so shards add up."""
    for name, metric in registry.items():
        for series in metric.get("series", ()):
            labels = ",".join(f"{k}={v}" for k, v in
                              sorted(series.get("labels", {}).items())
                              if k != "shard")
            key = f"{prefix}{name}{{{labels}}}"
            if "value" in series:
                into[key] = into.get(key, 0.0) + series["value"]
            else:
                into[key + ".sum"] = into.get(key + ".sum", 0.0) \
                    + series["sum"]
                into[key + ".count"] = into.get(key + ".count", 0.0) \
                    + series["count"]


def flat_metrics(client: Client) -> Dict[str, float]:
    """The server's ``metrics`` op as a flat dict under ``srv:``."""
    flat: Dict[str, float] = {}
    _flatten(client.metrics(), "srv:", flat)
    return flat


def counters(router, client: Optional[Client] = None) -> Dict[str, float]:
    """Every public counter behind ``router`` as one flat dict: the
    server's ``metrics`` op under ``srv:``, and each shard's pools,
    trees and caches under ``shard:`` (via ``snapshot_into`` in-process,
    via the workers' registries under the process executor)."""
    flat = flat_metrics(client) if client is not None else {}
    if hasattr(router, "worker_registries"):
        registries = [payload for _, payload in router.worker_registries()]
        for row in router.worker_stats():
            for name, value in row.items():
                if isinstance(value, int) and name not in ("pid", "shard",
                                                           "now"):
                    key = f"worker:{name}"
                    flat[key] = flat.get(key, 0.0) + value
    else:
        shards = getattr(router, "shards", [router])
        registries = [snapshot_into(MetricsRegistry(), shard).to_json()
                      for shard in shards]
    for registry in registries:
        _flatten(registry, "shard:", flat)
    return flat


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0)
            for key, value in after.items()}


def ios_of(counts: Dict[str, float]) -> float:
    """Physical page transfers in a flat counter dict."""
    return sum(value for key, value in counts.items()
               if key.startswith(("shard:repro_pool_reads{",
                                  "shard:repro_pool_writes{")))


def plan_mvsbt_frac(router, reads: Sequence[Read]) -> float:
    """Share of per-shard plans that choose the MVSBT, asked of the
    planner (``explain`` runs nothing) for the first SUM/COUNT reads;
    AVG bypasses the planner."""
    plans = []
    for read in reads[:PLAN_SAMPLE]:
        if read.agg == "AVG":
            continue
        answer = router.explain(KeyRange(read.k_lo, read.k_hi),
                                Interval(read.t_lo, read.t_hi),
                                SUM if read.agg == "SUM" else COUNT)
        shard_plans = answer if isinstance(answer, list) else [answer]
        # Sharded routers answer ShardPlan rows wrapping a QueryPlan.
        plans += [p.plan if isinstance(p.plan, str) else p.plan.plan
                  for p in shard_plans]
    return sum(p == "mvsbt" for p in plans) / len(plans) if plans else 0.0


def server_config(inputs: Inputs, work: Path, tag: str,
                  durable: bool = True) -> ServerConfig:
    """The in-process twin of the flags ``runner.SERVER_FLAGS`` passes."""
    config = ServerConfig(shards=SHARDS, key_space=KEY_SPACE)
    if inputs.workload == "scan_process":
        config.executor = "process"
    if inputs.workload == "htap_mixed" and durable:
        config.durable_dir = str(work / f"replay-{tag}")
        config.fsync = True
    return config


def replay_server(inputs: Inputs, scale: Scale, work: Path, tag: str,
                  tracer: Optional[tracing.Tracer] = None,
                  durable: bool = True) -> Dict[str, Any]:
    """Load an in-process server and replay ``scale.replay_ops`` ops.

    With a ``tracer`` its wrappers are installed before the server is
    built but record only the ops; the load is never traced.  Returns
    op counts, wall and CPU time and client-side latencies of the ops,
    the counter deltas, and how many sampled answers the oracle
    rejected.
    """
    with (tracing.installed(tracer) if tracer is not None
          else contextlib.nullcontext()):
        return _replay_server(inputs, scale, work, tag, tracer, durable)


def _replay_server(inputs: Inputs, scale: Scale, work: Path, tag: str,
                   tracer: Optional[tracing.Tracer], durable: bool
                   ) -> Dict[str, Any]:
    oracle = Oracle(inputs.events)
    handle = serve_in_thread(server_config(inputs, work, tag, durable))
    try:
        router = handle.server.warehouse
        with Client(handle.host, handle.port, timeout=60.0) as loader:
            loaded = inputs.loaded
            for i in range(0, len(loaded), LOAD_BATCH):
                loader.load(loaded[i:i + LOAD_BATCH], batch_size=LOAD_BATCH)
        with Client(handle.host, handle.port, timeout=60.0) as client:
            before = counters(router, client)
            answers: List[Any] = []
            latency_ms: List[float] = []
            writes = 0
            htap = inputs.workload == "htap_mixed"
            cpu0, t0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.recording = True
            try:
                for op in range(1, scale.replay_ops + 1):
                    if htap and op % WRITE_EVERY == 0:
                        client.execute(write_tql(inputs.tail[writes]))
                        writes += 1
                        continue
                    started = time.perf_counter()
                    if htap:
                        client.repin()
                    index = len(answers)
                    got = client.execute(inputs.reads[index].tql)
                    latency_ms.append((time.perf_counter() - started) * 1e3)
                    answers.append((index, got, client.snapshot,
                                    inputs.n_loaded + writes))
            finally:
                if tracer is not None:
                    tracer.recording = False
            wall, cpu = (time.perf_counter() - t0,
                         time.process_time() - cpu0)
            counts = delta(counters(router, client), before)
            plan_frac = plan_mvsbt_frac(router, inputs.reads)
    finally:
        handle.stop()
    step = max(1, len(answers) // CHECKS)
    wrong = sum(
        not oracle.check(got, inputs.reads[index], snapshot, [prefix])
        for index, got, snapshot, prefix in answers[::step])
    return {"ops": scale.replay_ops, "reads": len(answers),
            "writes": writes, "wall_s": wall, "cpu_s": cpu,
            "latency_ms": latency_ms, "counts": counts,
            "ios": ios_of(counts), "plan_mvsbt_frac": plan_frac,
            "checked": len(answers[::step]), "wrong": wrong}


def page_ios_per_op(inputs: Inputs, scale: Scale, work: Path
                    ) -> Dict[str, Any]:
    """The counted replay an untraced run pays for ``model_ms_per_op``.
    Page transfers do not depend on the update log, so ``htap_mixed``
    skips its one-fsync-per-event load here (seconds on every run)."""
    return replay_server(inputs, scale, work, "model", durable=False)
