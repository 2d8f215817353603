"""Warm-cache read path versus the uncached baseline.

Two identically seeded warehouses answer the same read-hot statement
stream (the load generator's repeated-rectangle mix, half the queries
``AS OF`` historical times).  The uncached twin is the baseline; the
cached twin runs the stream twice — the first pass fills the result
cache and MVSBT point memos, the second pass measures the steady state
a server reaches on repeated aggregates.  Gates:

* every pass produces byte-identical results (the caches may only
  change *when* work happens, never *what* is answered);
* warm QPS >= 3x the uncached baseline on the direct read path.

A cold-vs-warm TCP load-generator run (cache off vs on, same mix) is
recorded alongside for the serving-layer view; the network and JSON
floor bounds that speedup well below the direct-path ratio, so it is
reported but gated only as warm >= cold (the CI ``cache-smoke`` job's
assertion).  Writes ``benchmarks/results/BENCH_cache.json``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import List, Tuple

from repro.bench.reporting import Table
from repro.core.aggregates import Aggregate, AVG, COUNT, SUM
from repro.core.cache import CacheConfig
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.serve.loadgen import hot_rectangles

RESULTS_DIR = Path(__file__).parent / "results"

HOT_RECTANGLES = 16
HOT_FRACTION = 0.9
SEED = 1234

_AGGS = {"SUM(value)": SUM, "COUNT(*)": COUNT, "AVG(value)": AVG}


def _seed_warehouse(warehouse: TemporalWarehouse, keys: int,
                    seed: int) -> int:
    """The load generator's population: inserts plus a 10% delete tail."""
    rng = random.Random(seed)
    t = 1
    for key in range(1, keys + 1):
        warehouse.insert(key, float(rng.randint(1, 100)), t)
        if rng.random() < 0.3:
            t += 1
    for key in rng.sample(range(1, keys + 1), keys // 10):
        t += 1
        warehouse.delete(key, t)
    return t


def _query_stream(keys: int, now: int, count: int, seed: int
                  ) -> List[Tuple[Aggregate, KeyRange, Interval]]:
    """Read-hot mix: 90% repeated rectangles, half ``AS OF`` history."""
    rng = random.Random(seed)
    hot = hot_rectangles(keys, HOT_RECTANGLES, seed)
    stream = []
    for _ in range(count):
        if rng.random() < HOT_FRACTION:
            agg, lo, hi = rng.choice(hot)
        else:
            agg = rng.choice(tuple(_AGGS))
            lo = rng.randint(1, max(keys - 1, 1))
            hi = rng.randint(lo + 1, keys + 1)
        as_of = now if rng.random() < 0.5 else rng.randint(now // 2, now)
        stream.append((_AGGS[agg], KeyRange(lo, hi), Interval(1, as_of + 1)))
    return stream


def _run_stream(warehouse: TemporalWarehouse, stream) -> Tuple[list, float]:
    results = []
    started = time.perf_counter()
    for aggregate, key_range, interval in stream:
        results.append(warehouse.aggregate(key_range, interval, aggregate))
    return results, time.perf_counter() - started


def _loadgen_cold_vs_warm(keys: int) -> dict:
    """Cold (``--no-cache``) vs warm (cached + warm-up) TCP loadgen runs."""
    from repro.serve.loadgen import run_load
    from repro.serve.server import ServerConfig, serve_in_thread

    out = {}
    for label, cache in (("cold", False), ("warm", True)):
        handle = serve_in_thread(ServerConfig(
            port=0, shards=4, key_space=(1, keys + 1), cache=cache))
        try:
            report = run_load(handle.host, handle.port, workers=4,
                              duration=1.0, seed_keys=keys, seed=SEED,
                              warmup=0.5, mix="read-hot")
        finally:
            handle.stop()
        out[label] = {"cache": cache, "totals": report["totals"],
                      "latency_ms": report["latency_ms"]}
    out["speedup"] = (out["warm"]["totals"]["qps"]
                      / max(out["cold"]["totals"]["qps"], 1e-9))
    return out


def test_warm_cache_speedup(scale, record_table):
    keys = max(300, int(100_000 * scale))
    count = max(800, int(300_000 * scale))

    uncached = TemporalWarehouse(key_space=(1, keys + 1), buffer_pages=32)
    cached = TemporalWarehouse(key_space=(1, keys + 1), buffer_pages=32)
    now = _seed_warehouse(uncached, keys, SEED)
    assert _seed_warehouse(cached, keys, SEED) == now
    cached.enable_cache(CacheConfig())

    stream = _query_stream(keys, now, count, SEED)
    base_results, base_s = _run_stream(uncached, stream)
    first_results, first_s = _run_stream(cached, stream)   # fills caches
    warm_results, warm_s = _run_stream(cached, stream)     # steady state

    # Twin-run check: caching must never change an answer, byte for byte.
    baseline = json.dumps(base_results)
    assert json.dumps(first_results) == baseline
    assert json.dumps(warm_results) == baseline

    base_qps = count / base_s
    first_qps = count / first_s
    warm_qps = count / warm_s
    speedup = warm_qps / base_qps
    snapshot = cached.cache_snapshot().as_dict()

    table = Table(
        title=(f"Read-path cache, {keys} keys, {count} queries "
               f"(read-hot mix, {HOT_RECTANGLES} hot rectangles)"),
        columns=("mode", "qps", "vs_uncached"),
    )
    table.add(mode="uncached", qps=round(base_qps), vs_uncached=1.0)
    table.add(mode="cached, first pass", qps=round(first_qps),
              vs_uncached=round(first_qps / base_qps, 2))
    table.add(mode="cached, warm", qps=round(warm_qps),
              vs_uncached=round(speedup, 2))
    table.note("warm pass repeats the identical stream: closed entries are "
               "pinned, open entries stay epoch-valid (no writes), so the "
               "result cache answers nearly every query")
    record_table("read_cache", table)

    loadgen = _loadgen_cold_vs_warm(keys)

    payload = {
        "scale": scale,
        "keys": keys,
        "queries": count,
        "hot_rectangles": HOT_RECTANGLES,
        "hot_fraction": HOT_FRACTION,
        "direct": {
            "uncached_qps": base_qps,
            "cached_first_pass_qps": first_qps,
            "warm_qps": warm_qps,
            "speedup": speedup,
            "byte_identical": True,
            "cache": snapshot,
        },
        "loadgen": loadgen,
    }
    from repro.bench.envelope import write_report
    write_report(
        RESULTS_DIR / "BENCH_cache.json", "cache",
        {k: payload[k] for k in ("scale", "keys", "queries",
                                 "hot_rectangles", "hot_fraction")},
        {"warm_speedup": speedup, "warm_qps": warm_qps,
         "uncached_qps": base_qps, "byte_identical": True,
         "loadgen_speedup": loadgen["speedup"]},
        payload)

    assert speedup >= 3.0, f"warm cache only {speedup:.2f}x over uncached"
    assert snapshot["result"]["hits"] > 0
