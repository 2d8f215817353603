"""``python -m repro.serve`` — run the TQL query server.

Prints ``LISTENING <host> <port>`` once accepting (port 0 requests an
ephemeral port, resolved in that line — harness scripts parse it), then
serves until SIGINT/SIGTERM or a client ``shutdown`` op triggers the
graceful drain-checkpoint-exit sequence.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from typing import List, Optional

from repro.serve.server import ServerConfig, TQLServer


def build_parser() -> argparse.ArgumentParser:
    """The server CLI's argument parser (one flag per ServerConfig knob)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent TQL query server over a sharded "
                    "temporal warehouse.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0: ephemeral)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--key-lo", type=int, default=1)
    parser.add_argument("--key-hi", type=int, default=10**9 + 1,
                        help="exclusive upper bound of the key space")
    parser.add_argument("--page-capacity", type=int, default=32)
    parser.add_argument("--buffer-pages", type=int, default=64)
    parser.add_argument("--readers", type=int, default=4,
                        help="statement thread-pool size")
    parser.add_argument("--max-inflight", type=int, default=16)
    parser.add_argument("--max-queue", type=int, default=32)
    parser.add_argument("--request-timeout", type=float, default=30.0)
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    parser.add_argument("--durable-dir", default=None,
                        help="enable WAL + checkpoint recovery under "
                             "this directory")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every WAL record (durable, slower)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="checkpoint after every N writes (0: only "
                             "on shutdown)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="disable the version-pinned read-path caches "
                             "(result cache + MVSBT point memo)")
    parser.add_argument("--cache-result-entries", type=int, default=4096,
                        help="per-shard result-cache capacity")
    parser.add_argument("--cache-memo-entries", type=int, default=8192,
                        help="per-shard MVSBT point-memo capacity")
    parser.add_argument("--executor", choices=("thread", "process"),
                        default="thread",
                        help="execution backend: shared thread pool "
                             "(default) or one worker process per shard "
                             "(escapes the GIL; see docs/SERVING.md)")
    parser.add_argument("--trace-sample-rate", type=float, default=0.0,
                        help="fraction of requests recorded by the "
                             "distributed tracer (0.0 disables sampling; "
                             "per-request \"trace\": true always records)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="rotating JSONL sink for sampled traces "
                             "(schema: docs/trace_schema.json)")
    parser.add_argument("--trace-max-bytes", type=int,
                        default=64 * 1024 * 1024,
                        help="rotate the trace sink beyond this size")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="serve Prometheus text exposition on "
                             "http://HOST:PORT/metrics (0: ephemeral, "
                             "resolved in the METRICS line)")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="log requests slower than this many ms to "
                             "the slow-query ring (slowlog op; captures "
                             "EXPLAIN span trees for SELECTs)")
    parser.add_argument("--slowlog-entries", type=int, default=128,
                        help="slow-query ring capacity")
    parser.add_argument("--replicas", type=int, default=0,
                        help="WAL-shipped read replicas per shard group "
                             "(>0 selects the elastic cluster backend; "
                             "needs --executor process and --durable-dir)")
    parser.add_argument("--autosplit", action="store_true",
                        help="cluster planner: split a shard group's key "
                             "range online when it runs hot (needs "
                             "--executor process and --durable-dir)")
    parser.add_argument("--split-qps", type=float, default=64.0,
                        help="autosplit trigger: per-group request rate "
                             "(req/s) above which the hottest group is "
                             "split (default 64)")
    parser.add_argument("--merge-qps", type=float, default=None,
                        help="cluster planner: automerge adjacent shard "
                             "groups whose request rates both sit at or "
                             "below this (req/s); unset disables "
                             "automerge (needs --executor process and "
                             "--durable-dir)")
    parser.add_argument("--planner-interval", type=float, default=0.5,
                        help="cluster planner tick seconds (stats scrape, "
                             "replica respawn, autosplit checks)")
    parser.add_argument("--writers", type=int, default=1,
                        help="concurrent-writer admission width: >1 "
                             "batches same-shard DML into commit groups "
                             "flushed with one WAL write per group "
                             "(answers stay byte-identical to --writers 1)")
    return parser


async def amain(config: ServerConfig) -> int:
    """Run the server until a graceful shutdown completes."""
    server = TQLServer(config)
    host, port = await server.start()
    print(f"LISTENING {host} {port}", flush=True)
    if server.metrics_address is not None:
        metrics_host, metrics_port = server.metrics_address
        print(f"METRICS {metrics_host} {metrics_port}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(server.shutdown()))
    await server.wait_stopped()
    print("server stopped", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse flags, build the config, serve."""
    args = build_parser().parse_args(argv)
    config = ServerConfig(
        host=args.host, port=args.port, shards=args.shards,
        key_space=(args.key_lo, args.key_hi),
        page_capacity=args.page_capacity, buffer_pages=args.buffer_pages,
        readers=args.readers, max_inflight=args.max_inflight,
        max_queue=args.max_queue, request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout, durable_dir=args.durable_dir,
        fsync=args.fsync, checkpoint_every=args.checkpoint_every,
        cache=args.cache,
        cache_result_entries=args.cache_result_entries,
        cache_memo_entries=args.cache_memo_entries,
        executor=args.executor,
        trace_sample_rate=args.trace_sample_rate,
        trace_path=args.trace_out, trace_max_bytes=args.trace_max_bytes,
        metrics_port=args.metrics_port, slow_ms=args.slow_ms,
        slowlog_entries=args.slowlog_entries,
        replicas=args.replicas, autosplit=args.autosplit,
        split_qps=args.split_qps,
        planner_interval=args.planner_interval,
        merge_qps=args.merge_qps, writers=args.writers,
    )
    return asyncio.run(amain(config))


if __name__ == "__main__":
    raise SystemExit(main())
