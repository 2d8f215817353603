"""The concurrent TQL query server.

:class:`TQLServer` is an asyncio TCP server speaking the newline-delimited
JSON protocol of :mod:`repro.serve.protocol` over a
:class:`~repro.serve.sharded.ShardRouter` — whichever construction
built it, the server uses the router surface only.  The moving parts:

* **Sessions & snapshots** — each connection is pinned to a snapshot time
  (the warehouse's ``now`` at connect, re-pinnable with the ``snapshot``
  op).  Reads execute with ``AS OF`` semantics at that time, so their
  rectangles only touch closed, immutable versions and concurrent ingest
  cannot change their answers mid-flight.
* **Single writer, many readers** — DML is serialized through a per-shard
  asyncio writer queue; statements run on the worker threads of
  :mod:`repro.serve.workers`, apart from the reads the lane below takes.
  Underneath, each shard's readers-writer lock and buffer-pool locks
  keep page access safe (see :mod:`repro.serve.sharded`).
* **Admission control** — of the requests bound for a worker thread (the
  lane below takes none), at most ``max_inflight`` execute at once and
  at most ``max_queue`` wait, first come first served; beyond
  that the server answers a structured ``SERVER_BUSY`` error immediately
  instead of letting latency grow without bound.  Each request also has
  a ``request_timeout``, answered with ``TIMEOUT`` (the worker thread
  finishes in the background and keeps its slot until it does, so the
  workers cannot be oversubscribed).  The counters live on the event-loop
  thread: admitting a request takes no lock.
* **Hit lane** — a plain ``SELECT`` aggregate whose answer is already in
  the result cache at the current epoch
  (:meth:`~repro.serve.sharded.ShardRouter.probe`) is answered on the
  event loop: no admission slot, no thread hop.  On a
  miss, a SUM/COUNT/AVG over in-thread shards is *executed* there after
  one yield (:meth:`~repro.serve.sharded.ShardRouter.attempt`): two
  pair descents per shard whatever the rectangle, one seqlock-validated
  attempt that never waits.  Anything the lane cannot answer now takes
  the admitted path unchanged.
* **Graceful shutdown** — the ``shutdown`` op (or SIGTERM from the CLI)
  stops admissions, drains in-flight work, checkpoints every shard
  through the WAL/checkpoint path, and closes.  A kill -9 anywhere in
  that sequence recovers via WAL replay on the next open (acknowledged
  updates were logged before their responses were sent).
* **Metrics** — a :class:`~repro.obs.metrics.ServerMetrics` set published
  into the registry the ``metrics`` op exports.

:func:`serve_in_thread` runs the whole event loop in a daemon thread and
returns a handle — the harness tests use it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import CacheConfig
from repro.core.model import MAX_KEY, NOW, KeyRange
from repro.errors import (
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    ServerBusyError,
    ServerShuttingDownError,
    ShardDownError,
    error_payload,
)
from repro.obs.metrics import MetricsRegistry, ServerMetrics
from repro.obs.tracefile import TraceSink
from repro.serve import protocol
from repro.serve.sharded import MISS, ShardedWarehouse
from repro.serve.telemetry import (
    MetricsHTTPServer,
    RequestContext,
    Sampler,
    SlowQueryLog,
    clip_tql,
    run_in_context,
)
from repro.serve.workers import LoopWorkers
from repro.tql import executor as tql_executor
from repro.tql.parser import (
    DeleteStatement,
    HistoryStatement,
    InsertStatement,
    LoadStatement,
    SelectStatement,
    SnapshotStatement,
    parse,
)


#: Longest request line the server reads, in bytes.  asyncio's default
#: of 64 KiB cuts a ``load`` op off at about 2,000 events; 8 MiB admits
#: about 250,000 per line.  A longer line is answered with a ``PROTOCOL``
#: error and discarded — the connection stays usable.
MAX_REQUEST_LINE_BYTES = 8 * 1024 * 1024

#: Parsed ``SELECT`` statements kept by text (LRU), so a dashboard's
#: repeated statements are not re-lexed.
STATEMENT_CACHE_ENTRIES = 256


@dataclass
class ServerConfig:
    """Everything a deployment tunes, with test-friendly defaults."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0: ephemeral, see TQLServer.address
    shards: int = 4
    key_space: Tuple[int, int] = (1, MAX_KEY + 1)
    page_capacity: int = 32
    buffer_pages: int = 64
    readers: int = 4                   # worker threads, started on demand
    max_inflight: int = 16             # executing requests, server-wide
    max_queue: int = 32                # waiting requests before SERVER_BUSY
    request_timeout: float = 30.0      # seconds per request
    drain_timeout: float = 10.0        # seconds to drain on shutdown
    durable_dir: Optional[str] = None  # None: in-memory, no WAL
    fsync: bool = False
    checkpoint_every: int = 0          # checkpoint after N writes (0: off)
    cache: bool = True                 # version-pinned read-path caches
    cache_result_entries: int = 4096   # per-shard result-cache capacity
    cache_memo_entries: int = 8192     # per-shard MVSBT path-memo capacity
    executor: str = "thread"           # "thread" (default) or "process"
    trace_sample_rate: float = 0.0     # fraction of requests traced (0: only
                                       # per-request "trace": true overrides)
    trace_path: Optional[str] = None   # JSONL sink for sampled traces
    trace_max_bytes: int = 64 * 1024 * 1024  # sink rotation threshold
    metrics_port: Optional[int] = None  # /metrics HTTP port (0: ephemeral)
    slow_ms: Optional[float] = None    # slow-query threshold (None: off)
    slowlog_entries: int = 128         # slow-query ring capacity
    slowlog_explain: bool = True       # capture EXPLAIN for slow SELECTs
    replicas: int = 0                  # WAL-shipped read replicas per shard
                                       # group (>0 selects the cluster
                                       # backend; needs process + durable)
    autosplit: bool = False            # planner thread splits hot ranges
    split_qps: float = 64.0            # autosplit trigger rate per group
    planner_interval: float = 0.5      # cluster planner tick seconds
    merge_qps: Optional[float] = None  # automerge trigger: adjacent groups
                                       # both under this rate merge back
                                       # (cluster backend; None: off)
    writers: int = 1                   # >1 admits concurrent DML through
                                       # per-shard commit groups (group-
                                       # commit WAL batching)


@dataclass
class _Session:
    """Per-connection state: the pinned snapshot time."""

    snapshot: int
    peer: str = ""


class TQLServer:
    """One serving process: warehouse, protocol, admission control."""

    def __init__(self, config: Optional[ServerConfig] = None,
                 warehouse: Optional[ShardedWarehouse] = None) -> None:
        self.config = config or ServerConfig()
        if warehouse is None:
            warehouse = self._build_warehouse(self.config)
        self.warehouse = warehouse
        self.registry = MetricsRegistry()
        self.metrics = ServerMetrics(self.registry)
        # Keyed by shard id, created on first use: an elastic router's
        # ids are not positions — splits mint new ones and merges retire
        # them.
        self._writer_locks: Dict[int, asyncio.Lock] = {}
        # Per-shard commit groups (writers > 1): queued ``(statement,
        # future)`` pairs plus the inline-leader flag.  Touched only from
        # the event loop, so plain dicts suffice.
        self._commit_queues: Dict[int, list] = {}
        self._commit_leader_active: Dict[int, bool] = {}
        self._commit_groups = 0
        self._commit_records = 0
        self._commit_max_group = 0
        # Text -> parsed SELECT (frozen dataclasses, safe to share); only
        # the event loop touches it.
        self._statements: "OrderedDict[str, SelectStatement]" = OrderedDict()
        # Admission: slot holders, FIFO waiters for a slot, the drain's
        # waiter.  Touched on the event-loop thread alone, never locked.
        self._inflight = 0
        self._queued = 0
        self._waiters: "deque[asyncio.Future]" = deque()
        self._idle: Optional[asyncio.Future] = None
        self.workers = LoopWorkers(self.config.readers)
        self._writes_since_checkpoint = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._connections: set = set()
        # -- telemetry plane -----------------------------------------------------------
        self._request_ids = itertools.count(1)
        self._sampler = Sampler(self.config.trace_sample_rate)
        # Async writes: the event loop only enqueues; JSON encoding and
        # the disk append happen on the sink's own thread.  Records come
        # from span_to_record, so they conform by construction and the
        # per-record schema check is skipped (readers still validate).
        self._trace_sink: Optional[TraceSink] = (
            TraceSink(self.config.trace_path, self.config.trace_max_bytes,
                      async_writes=True, validate=False)
            if self.config.trace_path else None)
        self.slowlog = SlowQueryLog(self.config.slowlog_entries)
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._bg_tasks: set = set()
        # Wires the live instruments (shard lock contention) from the
        # first request on; scrapes re-publish the sampled gauges.
        warehouse.publish_metrics(self.registry)

    def _writer_lock(self, shard: int) -> asyncio.Lock:
        return self._writer_locks.setdefault(shard, asyncio.Lock())

    @staticmethod
    def _build_warehouse(config: ServerConfig):
        """The configured router construction, caches attached.

        ``executor="thread"`` (default) shares one interpreter across the
        worker threads; ``"process"`` runs one worker process per shard
        (:class:`~repro.serve.procpool.ProcessShardedWarehouse`), with the
        read-path caches living inside the workers; replicas, autosplit
        or automerge make that the elastic
        :class:`~repro.serve.cluster.ClusterWarehouse`.
        """
        cache_config = None
        if config.cache:
            cache_config = CacheConfig(
                result_entries=config.cache_result_entries,
                memo_entries=config.cache_memo_entries)
        shape = dict(
            shards=config.shards, key_space=config.key_space,
            page_capacity=config.page_capacity,
            buffer_pages=config.buffer_pages)
        workers = dict(shape, durable_dir=config.durable_dir,
                       fsync=config.fsync, cache_config=cache_config)
        if (config.replicas > 0 or config.autosplit
                or config.merge_qps is not None):
            if config.executor != "process":
                raise ValueError(
                    "replicas/autosplit/automerge require the process "
                    "executor (replication ships per-worker WALs)")
            if config.durable_dir is None:
                raise ValueError(
                    "replicas/autosplit/automerge require --durable-dir: "
                    "WAL shipping and checkpoint cloning are disk-based")
            from repro.serve.cluster import ClusterWarehouse

            return ClusterWarehouse(
                replicas=config.replicas, autosplit=config.autosplit,
                split_qps=config.split_qps,
                planner_interval=config.planner_interval,
                merge_qps=config.merge_qps, **workers)
        if config.executor == "process":
            from repro.serve.procpool import ProcessShardedWarehouse

            return ProcessShardedWarehouse(**workers)
        if config.executor != "thread":
            raise ValueError(
                f"unknown executor {config.executor!r}; "
                "expected 'thread' or 'process'")
        if config.durable_dir is not None:
            warehouse = ShardedWarehouse.open_durable(
                config.durable_dir, thread_safe=True, fsync=config.fsync,
                **shape)
        else:
            warehouse = ShardedWarehouse(thread_safe=True, **shape)
        if cache_config is not None:
            warehouse.enable_cache(cache_config)
        return warehouse

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port).

        When ``metrics_port`` is configured the ``/metrics`` exposition
        endpoint comes up alongside the protocol socket (its resolved
        port is :attr:`metrics_address`).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_REQUEST_LINE_BYTES)
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self.config.host, self.config.metrics_port,
                self._render_metrics_text)
            self._metrics_http.start()
        return self.address

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``/metrics`` (host, port), or ``None`` when off."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.host, self._metrics_http.port

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); resolves ephemeral port 0."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def wait_stopped(self) -> None:
        """Block until a graceful shutdown completes."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Drain in-flight work, checkpoint every shard, stop.

        Safe to call repeatedly; later calls await the first.
        """
        self._request_shutdown()
        await asyncio.shield(self._shutdown_task)

    def _request_shutdown(self) -> None:
        """Start the graceful shutdown without waiting for it.

        A plain function (call it on the loop thread, or hand it to
        ``loop.call_soon_threadsafe``): no coroutine exists until the
        loop actually runs it, so a request that reaches a loop which
        has already finished leaves nothing un-awaited behind.
        """
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight or self._queued:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._idle, self.config.drain_timeout)
            except asyncio.TimeoutError:
                pass  # drain on best effort; WAL covers the stragglers
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._bg_tasks:
            # Slow-query EXPLAIN captures touch the warehouse; let them
            # finish (or fail) before it closes underneath them.
            await asyncio.gather(*list(self._bg_tasks),
                                 return_exceptions=True)
        if self.config.durable_dir is not None:
            await self.workers.submit(self.warehouse.checkpoint)
        self.warehouse.close()
        self.workers.close()
        if self._metrics_http is not None:
            self._metrics_http.stop()
        if self._trace_sink is not None:
            self._trace_sink.close()
        self._stopped.set()

    # -- connection handling -----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        peername = writer.get_extra_info("peername")
        session = _Session(snapshot=self.warehouse.now,
                           peer=str(peername))
        writer.write(protocol.encode({
            "server": "repro.serve",
            "version": protocol.PROTOCOL_VERSION,
            "shards": self.warehouse.shard_count,
            "snapshot": session.snapshot,
        }))
        try:
            await writer.drain()
            while True:
                try:
                    line = await self._read_line(reader)
                except ProtocolError as exc:
                    self.metrics.rejected("oversize").inc()
                    response = protocol.error_response(
                        None, error_payload(exc))
                else:
                    if not line:
                        break
                    response = await self._respond(line, session)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown closing a connection blocked in readline
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """The next request line; ``b""`` at end of stream.

        A line over :data:`MAX_REQUEST_LINE_BYTES` is read off the
        socket through its newline and dropped, then reported as a
        :class:`~repro.errors.ProtocolError` — the stream is back in
        step with the client, so the connection stays usable.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial  # EOF, or a last line without its newline
        except asyncio.LimitOverrunError as exc:
            buffered = exc.consumed
        while True:
            await reader.readexactly(buffered)
            try:
                await reader.readuntil(b"\n")
                break
            except asyncio.LimitOverrunError as exc:
                buffered = exc.consumed
            except asyncio.IncompleteReadError:
                break  # peer hung up mid-line; the next read sees EOF
        raise ProtocolError(
            f"request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; "
            "split the batch over several requests")

    async def _respond(self, line: bytes,
                       session: _Session) -> Dict[str, Any]:
        request_id = None
        ctx: Optional[RequestContext] = None
        started = time.perf_counter()
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            if request_id is None:
                # Server-assigned fallback: every request is correlatable
                # in traces, the slowlog, and error responses even when
                # the client did not number it.
                request_id = f"srv-{next(self._request_ids)}"
            ctx = RequestContext(str(request_id), message["op"])
            forced = message.get("trace") is True
            if forced or self._sampler.sample():
                # Only the explicit override pays for deep page-level
                # worker spans; probabilistic samples stay light.
                ctx.begin_sampling(detail=forced)
            result, snapshot = await self._dispatch(message, session, ctx)
            elapsed = time.perf_counter() - started
            self._finish_request(ctx, elapsed, "ok")
            response = protocol.ok_response(request_id, result,
                                            snapshot=snapshot,
                                            elapsed_ms=elapsed * 1000.0)
            if ctx.trace_id is not None:
                response["trace_id"] = ctx.trace_id
            return response
        except Exception as exc:  # noqa: BLE001 — boundary: all -> payload
            elapsed = time.perf_counter() - started
            if ctx is not None:
                self._finish_request(ctx, elapsed, "error")
            else:
                self.metrics.latency.observe(elapsed)
            if request_id is None:
                # protocol.decode failed before the id was extracted; the
                # unknown-op path stashes it on the exception.
                request_id = getattr(exc, "request_id", None)
            return protocol.error_response(request_id, error_payload(exc))

    def _finish_request(self, ctx: RequestContext, elapsed: float,
                        status: str) -> None:
        """Post-request accounting: histograms, trace sink, slowlog."""
        self.metrics.latency.observe(elapsed)
        self.metrics.op_latency(ctx.op).observe(elapsed)
        self.metrics.op_phase(ctx.op, "queue").observe(ctx.queue_s)
        self.metrics.op_phase(ctx.op, "exec").observe(ctx.exec_s)
        for shard, seconds in ctx.shard_seconds.items():
            self.metrics.shard_seconds(shard).observe(seconds)
        if ctx.sampled:
            self.metrics.traces_sampled.inc()
            if self._trace_sink is not None:
                try:
                    self._trace_sink.write(self._request_record(
                        ctx, elapsed, status))
                except ValueError:
                    pass  # sink closed mid-drain; the trace is lost, not the response
        slow_ms = self.config.slow_ms
        if slow_ms is not None and elapsed * 1000.0 >= slow_ms:
            self._record_slow(ctx, elapsed, status)

    @staticmethod
    def _request_record(ctx: RequestContext, elapsed: float,
                        status: str) -> Dict[str, Any]:
        """The root span record of one sampled request (JSONL shape).

        I/O and CPU totals aggregate the child records (worker spans
        carry real page-level attribution; thread-backend shard records
        carry CPU only); wall-clock figures live in ``attrs`` because
        the record schema's ``cpu_s`` means CPU, not latency.
        """
        attrs: Dict[str, Any] = {
            "op": ctx.op, "request_id": ctx.request_id,
            "trace_id": ctx.trace_id, "span_id": ctx.span_id,
            "status": status,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "queue_ms": round(ctx.queue_s * 1000.0, 3),
            "exec_ms": round(ctx.exec_s * 1000.0, 3),
        }
        if ctx.tql is not None:
            attrs["tql"] = clip_tql(ctx.tql)
        if ctx.lane is not None:
            attrs["lane"] = ctx.lane
        children = ctx.records
        return {
            "name": "request",
            "attrs": attrs,
            "reads": sum(c.get("reads", 0) for c in children),
            "writes": sum(c.get("writes", 0) for c in children),
            "logical_reads": sum(c.get("logical_reads", 0)
                                 for c in children),
            "cpu_s": sum(c.get("cpu_s", 0.0) for c in children),
            **({"children": children} if children else {}),
        }

    def _record_slow(self, ctx: RequestContext, elapsed: float,
                     status: str) -> None:
        """Capture one slow request into the ring, then (for SELECT
        aggregates) schedule the post-hoc EXPLAIN capture."""
        self.metrics.slow_requests.inc()
        entry: Dict[str, Any] = {
            "request_id": ctx.request_id, "op": ctx.op, "status": status,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "queue_ms": round(ctx.queue_s * 1000.0, 3),
            "exec_ms": round(ctx.exec_s * 1000.0, 3),
            "shard_seconds": {str(shard): round(seconds, 6)
                              for shard, seconds
                              in ctx.shard_seconds.items()},
            "trace_id": ctx.trace_id,
            "tql": clip_tql(ctx.tql),
            "mvcc_retries": ctx.mvcc_retries,
            "mvcc_fallbacks": ctx.mvcc_fallbacks,
            "lane": ctx.lane,
            "explain": None,
        }
        self.slowlog.add(entry)
        if (ctx.explain_args is not None and self.config.slowlog_explain
                and not self._draining):
            task = asyncio.ensure_future(
                self._capture_slow_explain(entry, ctx.explain_args))
            self._bg_tasks.add(task)
            task.add_done_callback(self._bg_tasks.discard)

    async def _capture_slow_explain(self, entry: Dict[str, Any],
                                    explain_args: tuple) -> None:
        """Fill a slowlog entry's EXPLAIN span tree + cache outcome.

        Runs after the response went out (the client never waits on it)
        on a worker thread: ``explain_trace`` takes each shard
        exclusively, so this is deliberately off the hot path — as is the
        rectangle resolution itself (``explain_args`` holds the raw
        parsed statement).
        """
        statement, as_of = explain_args

        def capture() -> Any:
            key_range, interval = tql_executor._resolve_rectangle(
                self.warehouse, statement, as_of)
            aggregate = tql_executor._aggregate_named(statement.agg.name)
            return self.warehouse.explain_trace(key_range, interval,
                                                aggregate)

        try:
            rows = await self.workers.submit(capture)
        except Exception as exc:  # noqa: BLE001 — diagnostics must not raise
            entry["explain"] = {"error": error_payload(exc)}
            return
        entry["explain"] = [
            {"shard": row["shard"],
             "key_range": [row["key_range"].low, row["key_range"].high],
             "plan": str(row["plan"].plan),
             "record": row["record"],
             "cache": row.get("cache")}
            for row in rows
        ]

    def _render_metrics_text(self) -> str:
        """The full Prometheus exposition: registry + derived gauges.

        Called per scrape from the ``/metrics`` HTTP thread and by the
        ``metrics_text`` op; every publisher it touches (cache snapshot
        RPCs, the router's handles, the registry itself) is thread-safe.
        """
        self._publish_gauges()
        return self.registry.render_prometheus()

    # -- dispatch ----------------------------------------------------------------------

    async def _dispatch(self, message: Dict[str, Any], session: _Session,
                        ctx: RequestContext) -> Tuple[Any, Optional[int]]:
        op = message["op"]
        self.metrics.request(op).inc()
        if op == "ping":
            return "pong", session.snapshot
        if op == "metrics":
            self._publish_gauges()
            return self.registry.to_json(), None
        if op == "metrics_text":
            return self._render_metrics_text(), None
        if op == "slowlog":
            limit = message.get("limit")
            if limit is not None and (not protocol.is_int(limit)
                                      or limit < 0):
                raise ProtocolError('"limit" must be a non-negative '
                                    'integer')
            return {"entries": self.slowlog.entries(limit),
                    "total": self.slowlog.total}, None
        if op == "load":
            return await self._load(message, ctx), None
        if op == "respawn":
            return self._respawn(message), None
        if op == "topology":
            return self.warehouse.topology_info(), None
        if op in ("split", "merge", "promote"):
            return await self._cluster_op(op, message, ctx), None
        if op == "snapshot":
            session.snapshot = self.warehouse.now
            return session.snapshot, session.snapshot
        if op == "shutdown":
            self._request_shutdown()
            return "draining", None
        if op == "sleep":
            seconds = message.get("seconds", 0.0)
            if not protocol.is_number(seconds) or not 0 <= seconds < inf:
                raise ProtocolError('"seconds" must be a finite, '
                                    'non-negative number')
            await self._admitted(lambda: time.sleep(seconds), ctx)
            return f"slept {seconds}s", None
        # op == "query"
        return await self._query(message, session, ctx)

    async def _query(self, message: Dict[str, Any], session: _Session,
                     ctx: RequestContext) -> Tuple[Any, Optional[int]]:
        tql = message.get("tql")
        if not isinstance(tql, str):
            raise ProtocolError('op "query" needs a "tql" string field')
        ctx.tql = tql
        statement = self._parsed(tql)
        if isinstance(statement, LoadStatement):
            return await self._all_shards_write(
                lambda: tql_executor.execute(self.warehouse, statement),
                ctx), None
        if isinstance(statement, (InsertStatement, DeleteStatement)):
            shard = self.warehouse.shard_index(statement.key)
            if self.config.writers > 1:
                return await self._group_commit(shard, statement, ctx), None
            async with self._writer_lock(shard):
                result = await self._admitted(
                    lambda: tql_executor.execute(self.warehouse, statement),
                    ctx)
            self.metrics.shard_writes(shard).inc()
            await self._maybe_checkpoint()
            return result, None
        as_of = message.get("as_of", session.snapshot)
        if not protocol.is_int(as_of) or not 0 <= as_of < NOW:
            raise ProtocolError('"as_of" must be a non-negative integer '
                                'below NOW (2**62)')
        plain_select = (isinstance(statement, SelectStatement)
                        and statement.agg.timeline_buckets is None)
        if plain_select:
            self._note_explainable(statement, as_of, ctx)
        result, run, shards = MISS, MISS, None
        if plain_select and not self._draining:
            result, run, shards = self._probe(statement, as_of)
            if run is not MISS:
                # Yield once: requests that arrived with this one (most
                # often another connection's cache hits) go first.
                await asyncio.sleep(0)
                if not self._draining:
                    result = run_in_context(run, ctx)
        if result is not MISS and run is MISS:
            ctx.lane = "hit"
            self.metrics.inline_hits.inc()
        elif result is not MISS:
            ctx.lane = "loop"
            self.metrics.loop_reads.inc()
        else:
            result = await self._admitted(
                lambda: tql_executor.execute(self.warehouse, statement,
                                             as_of=as_of), ctx)
        if shards is None:  # not probed: the statement says what it touches
            shards = self._touched_shards(statement)
        for shard in shards:
            self.metrics.shard_queries(shard).inc()
        return result, as_of

    def _parsed(self, tql: str) -> Any:
        """``parse(tql)``, with repeated ``SELECT`` texts served from a
        bounded LRU.  Only :class:`SelectStatement` is kept: it is small
        and immutable, whereas a ``LOAD`` carries its whole event batch
        and DML texts do not repeat."""
        statements = self._statements
        statement = statements.get(tql)
        if statement is not None:
            statements.move_to_end(tql)
            return statement
        statement = parse(tql)
        if isinstance(statement, SelectStatement):
            statements[tql] = statement
            if len(statements) > STATEMENT_CACHE_ENTRIES:
                statements.popitem(last=False)
        return statement

    def _probe(self, statement: SelectStatement, as_of: int
               ) -> Tuple[Any, Any, List[int]]:
        """The lane's first step for a plain SELECT aggregate:
        ``(answer, run, shard ids)`` — the router's cached answer or
        :data:`MISS`; on a miss its
        :meth:`~repro.serve.sharded.ShardRouter.attempt` (a callable, or
        :data:`MISS`); and the shards the key range touches.  The routing
        is done once here, for all three.  The rectangle is resolved by
        the executor's own code — same ``as_of`` clamp, same
        :class:`~repro.errors.QueryError` for an empty interval.
        """
        warehouse = self.warehouse
        key_range, interval = tql_executor._resolve_rectangle(
            warehouse, statement, as_of)
        aggregate = tql_executor._aggregate_named(statement.agg.name)
        parts = warehouse.parts_for(key_range)
        result = warehouse.probe(key_range, interval, aggregate, parts)
        run = MISS
        if result is MISS:
            run = warehouse.attempt(key_range, interval, aggregate, parts)
        return result, run, [sid for sid, _ in parts]

    def _note_explainable(self, statement: SelectStatement, as_of: int,
                          ctx: RequestContext) -> None:
        """Stash a plain SELECT aggregate so a slow request can be re-run
        under EXPLAIN after the fact.

        Only the parsed statement is stashed — rectangle resolution is
        deferred to :meth:`_capture_slow_explain`, because this runs on
        every read request's hot path and almost none of them end up
        slow."""
        if self.config.slow_ms is not None and self.config.slowlog_explain:
            ctx.explain_args = (statement, as_of)

    # -- commit groups (writers > 1) -----------------------------------------------------

    @staticmethod
    def _batch_op(statement: Any) -> tuple:
        """A parsed DML statement as a warehouse ``apply_batch`` op."""
        if isinstance(statement, InsertStatement):
            return ("insert", statement.key, statement.value, statement.at)
        return ("delete", statement.key, statement.at)

    @staticmethod
    def _batch_result(statement: Any, value: Any) -> str:
        """The response string for one batched op — byte-identical to
        what :func:`repro.tql.executor.execute` returns serially."""
        if isinstance(statement, InsertStatement):
            return f"inserted key {statement.key} at t={statement.at}"
        return (f"deleted key {statement.key} at t={statement.at} "
                f"(value was {value})")

    async def _group_commit(self, shard: int, statement: Any,
                            ctx: RequestContext) -> Any:
        """Admit one DML statement through the shard's commit group.

        Enqueue ``(statement, future)``; if no leader is flushing this
        shard, become the **inline leader** and drain groups until the
        queue is empty.  Each group commits with *one* writer-lock
        acquisition, one executor hop and — via
        :meth:`~repro.core.warehouse.TemporalWarehouse.apply_batch` — one
        WAL flush and one epoch bump, regardless of how many statements
        piled up while the previous group was applying.  Per-shard
        arrival order is preserved (the queue is FIFO and ops stay in
        enqueue order inside the batch), so answers are byte-identical
        to serial execution.  Followers just await their future.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._commit_queues.setdefault(shard, []).append(
            (statement, future))
        if not self._commit_leader_active.get(shard):
            self._commit_leader_active[shard] = True
            try:
                while self._commit_queues.get(shard):
                    group = self._commit_queues[shard]
                    self._commit_queues[shard] = []
                    await self._flush_commit_group(shard, group, ctx)
            finally:
                self._commit_leader_active[shard] = False
        return await future

    async def _flush_commit_group(self, shard: int, group: list,
                                  ctx: RequestContext) -> None:
        """Apply one drained group and publish each member's outcome.

        A failed *admission* (busy/timeout/shutdown) fails the whole
        group — none of its ops were applied.  A failed *op* inside an
        admitted batch fails only its own future
        (:meth:`~repro.core.warehouse.TemporalWarehouse.apply_batch`
        isolates per-op errors exactly like serial execution would).
        """
        from repro.errors import error_from_payload

        ops = [self._batch_op(stmt) for stmt, _ in group]
        try:
            async with self._writer_lock(shard):
                results = await self._admitted(
                    lambda: self.warehouse.apply_shard_batch(shard, ops),
                    ctx)
        except Exception as exc:  # noqa: BLE001 — fanned out per member
            for _, future in group:
                if not future.done():
                    future.set_exception(exc)
            return
        self._commit_groups += 1
        self._commit_records += len(group)
        self._commit_max_group = max(self._commit_max_group, len(group))
        self.metrics.shard_writes(shard).inc(len(group))
        for (stmt, future), (status, payload) in zip(group, results):
            if future.done():
                continue
            if status == "ok":
                future.set_result(self._batch_result(stmt, payload))
            else:
                future.set_exception(error_from_payload(payload))
        await self._maybe_checkpoint()

    async def _all_shards_write(self, fn, ctx: RequestContext) -> Any:
        """Run a bulk load holding *every* shard's writer lock (in id
        order), so it cannot interleave with single-statement DML."""
        from contextlib import AsyncExitStack

        shards = self.warehouse.shard_ids()
        async with AsyncExitStack() as stack:
            for shard in shards:
                await stack.enter_async_context(self._writer_lock(shard))
            result = await self._admitted(fn, ctx)
            await self._maybe_checkpoint()
        for shard in shards:
            self.metrics.shard_writes(shard).inc()
        return result

    async def _load(self, message: Dict[str, Any],
                    ctx: RequestContext) -> Any:
        """The bulk-ingest op: fan a sorted event batch out to the shards.

        An all-shards write; under the process backend the per-shard
        partitions stream through their workers'
        :class:`~repro.core.ingest.BatchLoader` concurrently — the
        parallel bulk-load path.  Events are ``[op, key, value, time]``
        rows, chronologically sorted across the whole batch.
        """
        events = message.get("events")
        if not isinstance(events, list):
            raise ProtocolError('op "load" needs an "events" array')
        batch_size = message.get("batch_size", 1024)
        if not protocol.is_int(batch_size) or batch_size < 1:
            raise ProtocolError('"batch_size" must be a positive integer')
        report = await self._all_shards_write(
            lambda: self.warehouse.load_events(events, batch_size), ctx)
        return {
            "events": report.events, "inserts": report.inserts,
            "deletes": report.deletes, "batches": report.batches,
            "flushed_pages": report.flushed_pages,
            "buffered_events": report.buffered_events,
        }

    def _respawn(self, message: Dict[str, Any]) -> Any:
        """Replace a dead shard worker (a typed ``PROTOCOL`` error from
        routers without workers).  Durable shards recover via checkpoint
        + WAL replay inside the fresh worker; returns its pid."""
        shard = message.get("shard")
        if not protocol.is_int(shard) or shard < 0:
            raise ProtocolError('"shard" must be a non-negative integer')
        shards = self.warehouse.shard_ids()
        if shard not in shards:
            raise ProtocolError(f'"shard" must be one of {shards}')
        return {"shard": shard, "pid": self.warehouse.respawn(shard)}

    async def _cluster_op(self, op: str, message: Dict[str, Any],
                          ctx: RequestContext) -> Any:
        """Dispatch a topology-changing verb to the router (only the
        elastic cluster implements them; the rest answer a typed
        ``PROTOCOL`` error).

        Runs on a worker thread under admission control (splits move a
        checkpoint's worth of bytes); the router's own admin/topology
        locks serialize it against writes and other admin verbs, so no
        server-side writer locks are taken here.
        """
        warehouse = self.warehouse
        if op == "merge":
            gids = message.get("gids")
            if (not isinstance(gids, list) or len(gids) != 2
                    or not all(protocol.is_int(g) for g in gids)):
                raise ProtocolError(
                    'op "merge" needs a two-element integer "gids" array')
            return await self._admitted(
                lambda: warehouse.merge(gids[0], gids[1]), ctx)
        gid = message.get("gid")
        if not protocol.is_int(gid) or gid < 0:
            raise ProtocolError(f'op "{op}" needs a non-negative integer '
                                '"gid" field')
        if op == "split":
            at = message.get("at")
            if at is not None and not protocol.is_int(at):
                raise ProtocolError('"at" must be an integer split key')
            return await self._admitted(lambda: warehouse.split(gid, at),
                                        ctx)
        replica = message.get("replica")
        if replica is not None and not protocol.is_int(replica):
            raise ProtocolError('"replica" must be an integer id')
        return await self._admitted(
            lambda: warehouse.promote(gid, replica), ctx)

    def _publish_gauges(self) -> None:
        """Refresh every sampled gauge: the merged cache counters,
        whatever rows the router's handles publish, and the server's
        commit-group totals."""
        self._publish_cache_gauges()
        self.warehouse.publish_metrics(self.registry)
        self.registry.gauge(
            "repro_commit_groups",
            "commit groups flushed (writers > 1)", {}).set(
                self._commit_groups)
        self.registry.gauge(
            "repro_commit_group_records",
            "DML statements committed through groups", {}).set(
                self._commit_records)
        self.registry.gauge(
            "repro_commit_group_max_size",
            "largest commit group flushed", {}).set(
                self._commit_max_group)

    def _publish_cache_gauges(self) -> None:
        """Mirror merged cache counters into the exported registry.

        Same naming as :func:`repro.obs.metrics.snapshot_into`:
        ``repro_cache_<counter>{cache=result|memo}``.  No-op rows
        never appear when caching is disabled (the merged snapshot is
        empty), so the export stays byte-stable for cache-off runs.
        """
        try:
            snapshot = self.warehouse.cache_snapshot()
        except ShardDownError:
            # A worker died mid-scrape; keep the last published values —
            # the export must stay serviceable during an outage (liveness
            # is reported by the procpool/cluster gauges, not this one).
            return
        for layer, stats in snapshot.as_dict().items():
            for counter, value in stats.items():
                self.registry.gauge(
                    f"repro_cache_{counter}",
                    f"read-path cache counter {counter}",
                    {"cache": layer}).set(value)

    def _touched_shards(self, statement: Any) -> list:
        """Shard indexes a read statement fans out to (for metrics)."""
        warehouse = self.warehouse
        lo, hi = warehouse.key_space
        if isinstance(statement, HistoryStatement):
            try:
                return [warehouse.shard_index(statement.key)]
            except ReproError:
                return []
        key_range = None
        if isinstance(statement, (SelectStatement, SnapshotStatement)):
            key_range = KeyRange(*(statement.key_range or (lo, hi)))
        elif hasattr(statement, "select"):  # EXPLAIN
            select = statement.select
            key_range = KeyRange(*(select.key_range or (lo, hi)))
        if key_range is None:
            return []
        return [index for index, _ in warehouse.parts_for(key_range)]

    async def _maybe_checkpoint(self) -> None:
        if (self.config.checkpoint_every <= 0
                or self.config.durable_dir is None):
            return
        self._writes_since_checkpoint += 1
        if self._writes_since_checkpoint >= self.config.checkpoint_every:
            self._writes_since_checkpoint = 0
            await self.workers.submit(self.warehouse.checkpoint)

    # -- admission control -------------------------------------------------------------

    async def _admitted(self, fn, ctx: Optional[RequestContext] = None
                        ) -> Any:
        """Run ``fn`` on a worker thread under a slot, queue, and timeout.

        A free slot is taken in place; otherwise the request waits FIFO
        until :meth:`_release` hands it one (``SERVER_BUSY`` beyond
        ``max_queue`` waiters).  The slot is released when the worker
        *finishes*, not when the response goes out — a timed-out request
        keeps occupying capacity until its thread returns, so admission
        control reflects true load.  With a :class:`RequestContext`, the
        time from here to slot grant is the request's *queue* phase and
        the time inside ``fn`` its *exec* phase.
        """
        if self._draining:
            raise ServerShuttingDownError("server is draining for shutdown")
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        if self._inflight < self.config.max_inflight:
            self._inflight += 1
            self.metrics.inflight.set(self._inflight)
        elif self._queued >= self.config.max_queue:
            self.metrics.rejected("busy").inc()
            raise ServerBusyError(
                f"{self._inflight} in flight and {self._queued} "
                "queued; retry with backoff")
        else:
            waiter = loop.create_future()
            self._waiters.append(waiter)
            self._queued += 1
            self.metrics.queue_depth.set(self._queued)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter.done() and not waiter.cancelled():
                    self._release()  # cancelled holding the slot: pass it on
                raise
            finally:
                self._queued -= 1
                self.metrics.queue_depth.set(self._queued)
                self._wake_drain()
            if self._draining:
                self._release()
                raise ServerShuttingDownError(
                    "server is draining for shutdown")
        if ctx is not None:
            ctx.queue_s += time.perf_counter() - started
        future = self.workers.submit(fn, ctx, self._release)
        timer = loop.call_later(self.config.request_timeout, self._expire,
                                future)
        try:
            return await future
        finally:
            timer.cancel()

    def _release(self) -> None:
        """Hand a finished request's slot to the oldest waiter still in
        line (a done one was cancelled there); with none, free it."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._inflight -= 1
        self.metrics.inflight.set(self._inflight)
        self._wake_drain()

    def _wake_drain(self) -> None:
        if (self._idle is not None and not self._idle.done()
                and self._inflight == 0 and self._queued == 0):
            self._idle.set_result(None)

    def _expire(self, future: "asyncio.Future") -> None:
        """``request_timeout`` passed: answer ``TIMEOUT`` now; the slot
        stays taken until the worker reports back."""
        if not future.done():
            self.metrics.rejected("timeout").inc()
            future.set_exception(RequestTimeoutError(
                f"request exceeded {self.config.request_timeout}s; "
                "still completing in the background"))


# -- thread-hosted server (tests, in-process drivers) --------------------------------


class ServerHandle:
    """A server running its own event loop in a daemon thread."""

    def __init__(self, host: str, port: int, loop: asyncio.AbstractEventLoop,
                 server: TQLServer, thread: threading.Thread) -> None:
        self.host = host
        self.port = port
        self._loop = loop
        self.server = server
        self._thread = thread

    def stop(self, timeout: float = 30.0) -> None:
        """Request graceful shutdown and join the serving thread.

        Idempotent, and safe against a loop that a client ``shutdown``
        op has already let finish: the request is a plain callback, so
        one that lands on a finished loop is dropped (a coroutine would
        be left never-awaited), and the bounded join is what waits for
        the drain either way.  Raises :class:`TimeoutError` if the
        thread is still alive after ``timeout`` seconds.
        """
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    self.server._request_shutdown)
            except RuntimeError:
                pass  # loop closed between the liveness check and here
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"server thread still running {timeout}s after stop()")


def serve_in_thread(config: Optional[ServerConfig] = None,
                    warehouse: Optional[ShardedWarehouse] = None,
                    start_timeout: float = 30.0) -> ServerHandle:
    """Start a :class:`TQLServer` on a background thread; returns when it
    is accepting connections."""
    started: "concurrent.futures.Future" = concurrent.futures.Future()
    holder: Dict[str, Any] = {}

    def run() -> None:
        async def main() -> None:
            server = TQLServer(config, warehouse)
            try:
                host, port = await server.start()
            except Exception as exc:  # noqa: BLE001 — surfaced to caller
                started.set_exception(exc)
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set_result((host, port))
            await server.wait_stopped()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="repro-serve-loop",
                              daemon=True)
    thread.start()
    host, port = started.result(start_timeout)
    return ServerHandle(host, port, holder["loop"], holder["server"],
                        thread)
