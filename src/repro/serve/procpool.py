"""Process-per-shard execution: N worker processes, one warehouse each.

The thread backend (:class:`~repro.serve.sharded.ShardedWarehouse`) shares
one interpreter, so the GIL caps aggregate throughput at roughly one core
no matter how many shards exist.  This module escapes that: each shard's
:class:`~repro.core.warehouse.TemporalWarehouse` — trees, buffer pools,
file-backed storage, caches, and write epoch — is owned *outright* by one
worker process, and the parent routes statements over a pickle-light
request/response pipe.

What crosses the boundary (and what never does)
-----------------------------------------------
Requests are ``(rid, method, args)`` tuples; responses are ``(rid, ok,
payload, now)``.  Arguments are plain model dataclasses
(:class:`~repro.core.model.KeyRange`, :class:`~repro.core.model.Interval`),
numbers, and :class:`LoadEvent` rows.  :class:`~repro.core.aggregates.Aggregate`
descriptors carry lambdas, which do not pickle — the parent substitutes an
:class:`_AggRef` name token and the worker resolves it against the library
registry, so both sides always execute the *same* descriptor object.
Results are aggregates (floats), :class:`~repro.core.rta.RTAResult`,
:class:`~repro.core.warehouse.QueryPlan`, tuples, ingest reports, cache
snapshots — all plain dataclasses.  Tree pages, buffer pools, and
warehouses never cross; :meth:`TemporalWarehouse.__reduce__` enforces
that at the pickle layer.

Workers start via the ``spawn`` method (never ``fork``: the parent runs
an asyncio loop plus reader threads, and forking a threaded process is
undefined behavior).  A spawned worker imports the library fresh, builds
its warehouse from the :class:`ShardSpec`, and sends a hello carrying its
pid and clock before serving.

Failure semantics
-----------------
A worker death (crash, kill -9) surfaces as EOF on the pipe: the parent's
reader thread fails every pending request with a typed
:class:`~repro.errors.ShardDownError` (code ``SHARD_DOWN``), and later
statements routed to that shard fail fast with the same code.  Other
shards keep serving.  For durable deployments every acknowledged update
is in the shard's WAL, so :meth:`ProcessShardedWarehouse.respawn` recovers
the shard by replaying the log in a fresh worker.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import os
import pickle
import struct
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import AVG, Aggregate, COUNT, MAX, MIN, SUM
from repro.core.cache import CacheConfig
from repro.core.model import Interval, KeyRange, MAX_KEY
from repro.errors import (
    ReplicaLagError,
    ShardDownError,
    error_from_payload,
    error_payload,
)
from repro.serve.sharded import (
    MISS,
    ShardRouter,
    Topology,
    load_or_freeze_layout,
    shard_dir_name,
    split_evenly,
)
from repro.serve.telemetry import current_context

#: Aggregate descriptors resolvable by name on the worker side.
_AGGREGATES: Dict[str, Aggregate] = {
    a.name: a for a in (SUM, COUNT, AVG, MIN, MAX)
}

#: Warehouse methods that never mutate (a worker counts them as reads).
_READ_METHODS = frozenset({
    "aggregate", "aggregate_all", "sum", "count", "avg", "min", "max",
    "snapshot", "tuples_in", "history", "explain", "cache_snapshot",
    "page_count", "check_invariants", "wal_seq", "explain_trace",
})

#: Worker-level control methods (handled by the loop, not the warehouse).
_SHUTDOWN = "__shutdown__"
_STATS = "__stats__"
_TRACED = "__traced__"
_REGISTRY = "__registry__"

#: Replica-only control verbs (served by :mod:`repro.serve.replica`).
_REPLICA_READ = "__replica_read__"
_SYNC = "__sync__"
_PROMOTE = "__promote__"

#: Read methods a replica serves; everything else goes to the primary
#: (cache snapshots, invariant audits, EXPLAIN traces, ...).
REPLICA_READS = frozenset({
    "aggregate", "aggregate_all", "sum", "count", "avg", "min", "max",
    "snapshot", "tuples_in", "history", "explain",
})

#: WAL records an acknowledged write appends, by method (``apply_batch``
#: and bulk loads are counted from their results).
_LOGGED = {"insert": 1, "delete": 1, "update": 2}


@dataclass(frozen=True)
class _AggRef:
    """Wire token for an :class:`Aggregate` (its lambdas do not pickle)."""

    name: str


# -- struct-framed hot-path requests --------------------------------------------------
#
# A process-vs-thread twin exposed the per-request pickle cost (0.51x on
# 1 core): every insert/delete/aggregate paid a full pickle of ``(rid, method,
# args)`` with its dataclass machinery.  The five hottest ops now ship as
# fixed-layout frames through **cached** :class:`struct.Struct` packers —
# one ``pack`` call, no pickle.  Frames are distinguished from pickle
# frames by their first byte: every pickle protocol-2+ stream starts with
# ``0x80``, so ``0x01`` unambiguously marks a struct frame and anything
# unpackable (odd types, out-of-range ints) silently falls back to the
# pickle path.  Responses stay pickled — results are heterogeneous.

_STRUCT_MAGIC = 0x01

#: name -> wire code for aggregate descriptors inside struct frames.
_AGG_CODES = {"SUM": 0, "COUNT": 1, "AVG": 2, "MIN": 3, "MAX": 4}
_AGG_BY_CODE = {code: _AGGREGATES[name] for name, code in _AGG_CODES.items()}

#: method -> (opcode, cached Struct).  Layout: magic B, opcode B, rid Q,
#: then the op's fields (q = signed 64-bit, d = float64, B = code byte).
_OP_STRUCTS: Dict[str, Tuple[int, struct.Struct]] = {
    "insert": (0, struct.Struct("!BBQqdq")),          # key, value, t
    "delete": (1, struct.Struct("!BBQqq")),           # key, t
    "aggregate": (2, struct.Struct("!BBQqqqqB")),     # kr, iv, agg code
    "aggregate_all": (3, struct.Struct("!BBQqqqq")),  # kr, iv
    "snapshot": (4, struct.Struct("!BBQqqq")),        # kr, t
}
_OP_BY_CODE = {code: (name, op_struct)
               for name, (code, op_struct) in _OP_STRUCTS.items()}


def _pack_request(rid: int, method: str, args: Tuple[Any, ...]
                  ) -> Optional[bytes]:
    """``(rid, method, args)`` as a struct frame, or ``None`` when the
    request does not fit a cached packer (caller falls back to pickle)."""
    entry = _OP_STRUCTS.get(method)
    if entry is None:
        return None
    opcode, op_struct = entry
    try:
        if method == "insert":
            key, value, t = args
            if (type(key) is not int or type(t) is not int
                    or not isinstance(value, (int, float))
                    or isinstance(value, bool)):
                return None
            return op_struct.pack(_STRUCT_MAGIC, opcode, rid, key,
                                  float(value), t)
        if method == "delete":
            key, t = args
            if type(key) is not int or type(t) is not int:
                return None
            return op_struct.pack(_STRUCT_MAGIC, opcode, rid, key, t)
        if method == "aggregate":
            key_range, interval, agg = args
            name = getattr(agg, "name", None)
            code = _AGG_CODES.get(name)
            if (code is None or type(key_range) is not KeyRange
                    or type(interval) is not Interval):
                return None
            return op_struct.pack(_STRUCT_MAGIC, opcode, rid,
                                  key_range.low, key_range.high,
                                  interval.start, interval.end, code)
        if method == "aggregate_all":
            key_range, interval = args
            if (type(key_range) is not KeyRange
                    or type(interval) is not Interval):
                return None
            return op_struct.pack(_STRUCT_MAGIC, opcode, rid,
                                  key_range.low, key_range.high,
                                  interval.start, interval.end)
        # method == "snapshot"
        key_range, t = args
        if type(key_range) is not KeyRange or type(t) is not int:
            return None
        return op_struct.pack(_STRUCT_MAGIC, opcode, rid,
                              key_range.low, key_range.high, t)
    except (ValueError, TypeError, struct.error):
        return None  # out-of-range ints, odd shapes: pickle handles them


def _unpack_request(data: bytes) -> Tuple[int, str, Tuple[Any, ...]]:
    """Decode one struct frame back into ``(rid, method, args)``."""
    name, op_struct = _OP_BY_CODE[data[1]]
    fields = op_struct.unpack(data)
    rid = fields[2]
    if name == "insert":
        return rid, name, (fields[3], fields[4], fields[5])
    if name == "delete":
        return rid, name, (fields[3], fields[4])
    if name == "aggregate":
        return rid, name, (KeyRange(fields[3], fields[4]),
                           Interval(fields[5], fields[6]),
                           _AGG_BY_CODE[fields[7]])
    if name == "aggregate_all":
        return rid, name, (KeyRange(fields[3], fields[4]),
                           Interval(fields[5], fields[6]))
    # name == "snapshot"
    return rid, name, (KeyRange(fields[3], fields[4]), fields[5])


def _recv_request(conn) -> Tuple[int, str, Tuple[Any, ...]]:
    """Receive one request, struct- or pickle-framed.

    Reads raw bytes and dispatches on the first byte: ``0x01`` is a
    struct frame, anything else (pickle streams start ``0x80``) decodes
    exactly as :meth:`multiprocessing.connection.Connection.recv` would.
    Shared by the primary worker loop and the replica loop.
    """
    data = conn.recv_bytes()
    if data and data[0] == _STRUCT_MAGIC:
        return _unpack_request(data)
    return pickle.loads(data)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to (re)build its shard's warehouse.

    Pickled into the spawn handshake; contains only plain values, so a
    spec also fully describes how to *respawn* a shard after a crash.
    """

    index: int
    key_space: Tuple[int, int]
    page_capacity: int = 32
    buffer_pages: int = 64
    strong_factor: float = 0.9
    start_time: int = 1
    durable_dir: Optional[str] = None
    fsync: bool = False
    cache_config: Optional[CacheConfig] = None


def _build_warehouse(spec: ShardSpec):
    """Construct (or recover) the shard warehouse described by ``spec``."""
    from repro.core.warehouse import TemporalWarehouse

    if spec.durable_dir is not None:
        warehouse = TemporalWarehouse.open_durable(
            spec.durable_dir, buffer_pages=spec.buffer_pages,
            fsync=spec.fsync, key_space=spec.key_space,
            page_capacity=spec.page_capacity,
            strong_factor=spec.strong_factor,
            start_time=spec.start_time)
    else:
        warehouse = TemporalWarehouse(
            key_space=spec.key_space, page_capacity=spec.page_capacity,
            buffer_pages=spec.buffer_pages,
            strong_factor=spec.strong_factor,
            start_time=spec.start_time)
    if spec.cache_config is not None:
        # The worker is single-threaded: no lock overhead on cache paths.
        warehouse.enable_cache(spec.cache_config, thread_safe=False)
    return warehouse


def _resolve_method_args(args: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Swap :class:`_AggRef` tokens back for real descriptors (the
    inverse of :meth:`WorkerGroup._wire`)."""
    return tuple(
        _AGGREGATES[a.name] if isinstance(a, _AggRef) else a for a in args)


def _worker_main(conn, spec: ShardSpec) -> None:
    """The worker process entry point (must be importable for spawn).

    Protocol: send one hello — ``("hello", pid, now)`` on success or
    ``("fail", payload)`` if the warehouse cannot be built — then serve
    ``(rid, method, args)`` requests until EOF or ``__shutdown__``.
    """
    try:
        warehouse = _build_warehouse(spec)
    except BaseException as exc:  # noqa: BLE001 — shipped to the parent
        try:
            conn.send(("fail", error_payload(exc)))
        finally:
            conn.close()
        return
    conn.send(("hello", os.getpid(), warehouse.now))
    stats = {"requests": 0, "reads": 0, "writes": 0, "errors": 0,
             "load_bytes": 0}
    while True:
        try:
            rid, method, args = _recv_request(conn)
        except (EOFError, OSError):
            break
        if method == _SHUTDOWN:
            warehouse.close()
            _respond(conn, rid, True, "closed", warehouse.now)
            break
        # These two count themselves.
        if method == _TRACED:
            _serve_traced(conn, warehouse, rid, args, stats, spec.index)
            continue
        if method == _REGISTRY:
            _serve_registry(conn, warehouse, rid, stats)
            continue
        stats["requests"] += 1
        if method == _STATS:
            payload = dict(stats, pid=os.getpid(), now=warehouse.now,
                           shard=spec.index, wal_seq=warehouse.wal_seq())
            _respond(conn, rid, True, payload, warehouse.now)
            continue
        stats["reads" if method in _READ_METHODS else "writes"] += 1
        if method == "load_events_packed" and args:
            # Bytes-on-pipe for the packed LOAD fan-out (one columnar
            # blob per shard; surfaces as a repro_procpool_* gauge).
            stats["load_bytes"] += len(args[0])
        _serve_one(conn, warehouse, rid, method, args, stats)
    conn.close()


def _serve_one(conn, warehouse, rid, method: str, args, stats) -> None:
    """Execute one warehouse method and ship the result (or the error)."""
    try:
        if method.startswith("_"):
            raise AttributeError(f"method {method!r} is not exposed")
        result = getattr(warehouse, method)(*_resolve_method_args(args))
    except BaseException as exc:  # noqa: BLE001 — boundary: all -> payload
        stats["errors"] += 1
        _respond(conn, rid, False, error_payload(exc), warehouse.now)
        return
    _respond(conn, rid, True, result, warehouse.now)


#: Cached ``(warehouse, discover_pools(warehouse))`` — a primary owns
#: one warehouse for its whole life and a replica swaps its copy only
#: when it rebases, so the light tracing path (every sampled request)
#: need not re-walk it.
_POOL_CACHE: "Optional[tuple]" = None


def _worker_pools(warehouse) -> "list":
    global _POOL_CACHE
    if _POOL_CACHE is None or _POOL_CACHE[0] is not warehouse:
        from repro.obs.attach import discover_pools

        _POOL_CACHE = (warehouse, discover_pools(warehouse))
    return _POOL_CACHE[1]


def _serve_traced(conn, warehouse, rid, args, stats, shard: int) -> None:
    """Execute one warehouse method under a fresh tracer and ship both
    the result and the worker-side span tree.

    This is the distributed-tracing leg of a sampled request: the parent
    forwards ``(method, args, trace_ctx)`` where ``trace_ctx`` carries
    the router span's ``trace_id``/``parent_span_id``; the worker roots a
    ``worker.<method>`` span carrying that lineage plus its own fresh
    span ID.  Two depths:

    * **light** (the default — probabilistically sampled requests): raw
      ``IOStats`` counter deltas and CPU time read around the call — no
      tracer, no span objects — so the single worker record still
      carries exact physical/logical I/O and CPU, at the cost of two
      counter snapshots.  Sampling at production rates must not tax the
      requests it measures.
    * **deep** (``trace_ctx["detail"]`` — the per-request ``"trace":
      true`` override): the full :func:`~repro.obs.attach.traced`
      attachment; every tree descent, buffer probe, and disk read nests
      beneath the worker span.

    Attaching a tracer here is safe precisely because the worker is
    single-threaded — nothing else can race the span stack.  Responds
    ``(result, record)``.
    """
    import time

    from repro.serve.telemetry import new_span_id

    inner_method, inner_args, trace_ctx = args
    stats["requests"] += 1
    read = inner_method in _READ_METHODS
    stats["reads" if read else "writes"] += 1
    try:
        if inner_method.startswith("_"):
            raise AttributeError(f"method {inner_method!r} is not exposed")
        fn = getattr(warehouse, inner_method)
        lineage = dict(trace_id=trace_ctx.get("trace_id"),
                       parent_span_id=trace_ctx.get("parent_span_id"),
                       span_id=new_span_id(), shard=shard, pid=os.getpid())
        if trace_ctx.get("detail"):
            from repro.obs.attach import traced
            from repro.obs.tracefile import span_to_record

            with traced(warehouse) as tracer:
                with tracer.span(f"worker.{inner_method}", **lineage):
                    result = fn(*_resolve_method_args(inner_args))
            record = span_to_record(tracer.last_root)
        else:
            pools = _worker_pools(warehouse)
            before = [(p.stats.reads, p.stats.writes, p.stats.logical_reads)
                      for _, p in pools]
            cpu_started = time.process_time()
            result = fn(*_resolve_method_args(inner_args))
            cpu_s = time.process_time() - cpu_started
            reads = writes = logical = 0
            for (r0, w0, l0), (_, pool) in zip(before, pools):
                stats_now = pool.stats
                reads += stats_now.reads - r0
                writes += stats_now.writes - w0
                logical += stats_now.logical_reads - l0
            record = {"name": f"worker.{inner_method}", "attrs": lineage,
                      "reads": reads, "writes": writes,
                      "logical_reads": logical, "cpu_s": cpu_s}
    except BaseException as exc:  # noqa: BLE001 — boundary: all -> payload
        stats["errors"] += 1
        _respond(conn, rid, False, error_payload(exc), warehouse.now)
        return
    _respond(conn, rid, True, (result, record), warehouse.now)


def _serve_registry(conn, warehouse, rid, stats) -> None:
    """Snapshot the worker's warehouse into a metrics registry and ship
    it as JSON — pool IOStats, tree counters, and cache counters — so the
    parent's ``/metrics`` exposition can aggregate per-worker registries
    without any shared memory."""
    from repro.obs.metrics import MetricsRegistry, snapshot_into

    stats["requests"] += 1
    try:
        registry = MetricsRegistry()
        snapshot_into(registry, warehouse)
        payload = registry.to_json()
    except BaseException as exc:  # noqa: BLE001 — boundary: all -> payload
        stats["errors"] += 1
        _respond(conn, rid, False, error_payload(exc), warehouse.now)
        return
    _respond(conn, rid, True, payload, warehouse.now)


def _respond(conn, rid, ok: bool, payload, now: int) -> None:
    try:
        conn.send((rid, ok, payload, now))
    except (OSError, BrokenPipeError):
        pass  # parent went away; the loop will see EOF next


class ShardClient:
    """The parent-side handle of one worker process.

    Owns the pipe, a reader thread matching responses to futures, and the
    liveness state.  Thread-safe: any number of parent threads may issue
    :meth:`call`/:meth:`call_async` concurrently (sends are serialized,
    responses are matched by request id).
    """

    def __init__(self, spec, ctx, main=None,
                 name: Optional[str] = None) -> None:
        # ``main`` selects the worker entry point: the default primary
        # loop, or e.g. the WAL-shipping replica loop from
        # :mod:`repro.serve.replica`.  Any spec with an ``index`` works.
        self.spec = spec
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=main or _worker_main, args=(child, spec),
            name=name or f"repro-shard-{spec.index:02d}", daemon=True)
        self.process.start()
        # Close the parent's copy of the child end: the worker's death
        # must deliver EOF to the reader thread, not a silent hang.
        child.close()
        self._send_lock = threading.Lock()
        self._pending: Dict[int, concurrent.futures.Future] = {}
        self._pending_lock = threading.Lock()
        self._rid = itertools.count(1)
        #: Requests shipped as struct frames instead of pickles (the
        #: packer hit rate — surfaced per shard in ``workers`` output).
        self.packed_requests = 0
        self._dead = False
        self.pid: Optional[int] = None
        self.last_now = 0
        self._reader: Optional[threading.Thread] = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the worker's hello arrives (warehouse built)."""
        try:
            if not self._conn.poll(timeout):
                raise TimeoutError(f"no hello within {timeout}s")
            hello = self._conn.recv()
        except (EOFError, OSError, TimeoutError) as exc:
            self._dead = True
            raise ShardDownError(
                f"shard {self.spec.index} worker failed to start: {exc}"
            ) from None
        if hello[0] != "hello":
            self._dead = True
            raise error_from_payload(hello[1])
        _tag, self.pid, self.last_now = hello
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-shard-{self.spec.index:02d}-reader")
        self._reader.start()

    # -- response plumbing -------------------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                rid, ok, payload, now = self._conn.recv()
            except (EOFError, OSError):
                break
            if now > self.last_now:
                self.last_now = now
            with self._pending_lock:
                future = self._pending.pop(rid, None)
            if future is None:
                continue
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(error_from_payload(payload))
        self._mark_dead()

    def _down_error(self) -> ShardDownError:
        return ShardDownError(
            f"shard {self.spec.index} worker (pid {self.pid}) is down; "
            "respawn to recover via WAL replay")

    def _mark_dead(self) -> None:
        self._dead = True
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(self._down_error())

    @property
    def dead(self) -> bool:
        """True once the worker exited (detected via pipe EOF)."""
        return self._dead or not self.process.is_alive()

    @property
    def queue_depth(self) -> int:
        """Requests sent but not yet answered (the worker's backlog).

        The worker is single-threaded, so this is exactly the number of
        requests queued in its pipe plus the one executing — the split
        planner's hot-shard signal and the
        ``repro_procpool_shard_queue_depth`` gauge.
        """
        with self._pending_lock:
            return len(self._pending)

    # -- request API -------------------------------------------------------------------

    def call_async(self, method: str,
                   *args: Any) -> "concurrent.futures.Future":
        """Send one request; the future resolves to the worker's answer
        (or raises its typed error, or :class:`ShardDownError`)."""
        if self._dead:
            raise self._down_error()
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._send_lock:
            rid = next(self._rid)
            with self._pending_lock:
                self._pending[rid] = future
            try:
                frame = _pack_request(rid, method, args)
                if frame is not None:
                    self._conn.send_bytes(frame)
                    self.packed_requests += 1
                else:
                    self._conn.send((rid, method, args))
            except (OSError, BrokenPipeError, ValueError):
                with self._pending_lock:
                    self._pending.pop(rid, None)
                self._mark_dead()
                raise self._down_error() from None
        return future

    def call(self, method: str, *args: Any,
             timeout: Optional[float] = None) -> Any:
        """Send one request and wait for its answer."""
        return self.call_async(method, *args).result(timeout)

    # -- lifecycle ---------------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the worker to close its warehouse and exit (best effort)."""
        try:
            self.call_async(_SHUTDOWN)
        except ShardDownError:
            pass

    def reap(self, timeout: float = 30.0) -> None:
        """Join the worker, escalating to terminate if it lingers."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5.0)
        self._mark_dead()
        try:
            self._conn.close()
        except OSError:
            pass


class WorkerGroup:
    """The pipe-transport shard handle: one key range's worker set — a
    primary :class:`ShardClient` plus a possibly empty list of WAL-shipped
    replicas (:mod:`repro.serve.replica`) — with the group-local write
    bookkeeping.

    Everything that differs between "a call" and "a call to a process
    that may die" lives here, once: descriptor wiring, the ``__traced__``
    upgrade of sampled requests, the round-robin / fenced / fail-over
    read, and the heal-and-retry-once write.  With zero replicas a read
    is exactly one RPC to the primary.  *What healing means* is the
    ``heal`` callable the constructing router hands over, fixed for the
    group's lifetime (see :meth:`ProcessShardedWarehouse._heal`).
    """

    #: Workers are single-threaded: they take the lock-free cache variants.
    thread_safe = False

    def __init__(self, spec: ShardSpec, lo: int, hi: int, ctx,
                 heal) -> None:
        #: How to (re)build the primary.  Its ``key_space`` is the
        #: warehouse-level domain: a split narrows routing (``lo``/``hi``)
        #: but never the warehouse domain, so clones stay loadable.
        self.spec = spec
        self.sid = spec.index
        self.lo = lo
        self.hi = hi
        self._ctx = ctx
        self._heal = heal
        self.primary = ShardClient(spec, ctx)  # started, not awaited
        self.replicas: List[ShardClient] = []
        #: WAL sequence covering every acknowledged write to this group —
        #: the read-your-writes fence shipped with each replica read.
        self.acked_seq = 0
        #: Serializes writers within the group (writers hold the topology
        #: lock shared, so two writers to one group race without this).
        self.write_lock = threading.Lock()
        #: Serializes failover healing (respawn/promote) of the primary.
        self.heal_lock = threading.Lock()
        #: Round-robin cursor over read targets.
        self.rr = 0
        # ``(role, replica id) -> (monotonic time, requests)`` of the
        # previous stats scrape, for the rate :meth:`stats_rows` reports.
        self._scraped: Dict[Any, Tuple[float, int]] = {}

    @property
    def dirname(self) -> Optional[str]:
        """The shard's directory name under the durable root."""
        root = self.spec.durable_dir
        return os.path.basename(root) if root else None

    # -- worker lifecycle --------------------------------------------------------------

    def restart(self, timeout: float) -> None:
        """Replace the primary with a fresh worker (the caller holds
        ``heal_lock``).  Durable shards recover their state via
        checkpoint + WAL replay in
        :meth:`TemporalWarehouse.open_durable` — every update
        acknowledged before the crash was logged first, so nothing
        acknowledged is lost.  In-memory shards come back empty."""
        client = ShardClient(self.spec, self._ctx)
        client.wait_ready(timeout)
        self.adopt(client)

    def adopt(self, client: ShardClient) -> None:
        """Install ``client`` as the primary and retire the old one.  The
        acked watermark is re-derived from the new primary: its log is
        the authority on what was durably acknowledged."""
        old, self.primary = self.primary, client
        old.reap(1.0)
        self.acked_seq = max(self.acked_seq, client.call("wal_seq"))

    def _heal_in_background(self) -> None:
        """Kick a heal so reads keep flowing to replicas while the
        primary restarts (single-flight via the heal lock)."""
        def quietly() -> None:
            try:
                self._heal(self)
            except Exception:  # noqa: BLE001 — next caller retries/raises
                pass
        threading.Thread(target=quietly, daemon=True,
                         name=f"repro-heal-{self.sid:02d}").start()

    # -- the one RPC site --------------------------------------------------------------

    @staticmethod
    def _wire(args: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Swap :class:`Aggregate` descriptors for name tokens (their
        lambdas never cross the pipe)."""
        return tuple(
            _AggRef(a.name) if isinstance(a, Aggregate) else a for a in args)

    @staticmethod
    def _rpc(client: ShardClient, method: str, wired: Tuple[Any, ...],
             fence: Optional[int] = None) -> Any:
        """One worker RPC, telemetry-aware.

        When the request is *sampled* the call is upgraded to the
        ``__traced__`` verb — the worker executes the method under a
        tracer rooted in the request's trace ID and ships the span tree
        back alongside the result (see :func:`_serve_traced`).  With a
        ``fence`` the call is a replica read that first catches up to
        that WAL sequence.
        """
        ctx = current_context()
        sampled = ctx is not None and ctx.sampled
        if sampled:
            method, wired = _TRACED, (method, wired, ctx.trace_context())
        if fence is not None:
            method, wired = _REPLICA_READ, (method, wired, fence)
        answer = client.call(method, *wired)
        if not sampled:
            return answer
        result, record = answer
        ctx.add_record(record)
        return result

    # -- the handle surface ------------------------------------------------------------

    def _read_targets(self, method: str) -> Sequence[ShardClient]:
        if not self.replicas or method not in REPLICA_READS:
            return (self.primary,)
        pool = [self.primary, *self.replicas]
        self.rr = (self.rr + 1) % len(pool)  # benign data race
        return pool[self.rr:] + pool[:self.rr]

    def read(self, method: str, args: Tuple[Any, ...]) -> Any:
        """One read, failover-aware.

        Targets rotate round-robin over the primary and every replica;
        replica reads are fenced at the group's acked watermark so a
        session always sees its own writes.  A dead or lagging target
        falls through to the next; a dead primary with replicas to lean
        on additionally kicks a background heal.  Only when *every*
        target fails does the read block on a synchronous heal.
        """
        wired = self._wire(args)
        primary = self.primary
        last_exc: Optional[BaseException] = None
        for client in self._read_targets(method):
            try:
                if client is primary:
                    return self._rpc(client, method, wired)
                return self._rpc(client, method, wired, self.acked_seq)
            except (ShardDownError, ReplicaLagError) as exc:
                last_exc = exc
                if client is primary and self.replicas:
                    self._heal_in_background()
        try:
            self._heal(self)
        except ShardDownError as exc:
            raise last_exc or exc
        return self._rpc(self.primary, method, wired)

    def write(self, method: str, args: Tuple[Any, ...]) -> Any:
        """One call on the primary, exclusive by construction (the worker
        is single-threaded and its pipe is FIFO).  A dead primary blocks
        on the heal — a respawn replays the WAL, so the call applies to
        a state containing every previously acked write."""
        wired = self._wire(args)
        with self.write_lock:
            if self.primary.dead:
                self._heal(self)
            try:
                result = self._rpc(self.primary, method, wired)
            except ShardDownError:
                # The worker died under this write; ambiguous whether it
                # logged before dying.  Heal and retry once — a duplicate
                # apply surfaces as a typed 1TNF error rather than silence.
                self._heal(self)
                result = self._rpc(self.primary, method, wired)
            self.acked_seq += self._logged(method, result)
            return result

    @staticmethod
    def _logged(method: str, result: Any) -> int:
        """WAL records one acknowledged call appended.  Never an
        over-count: the fence would then name a sequence no replica can
        reach, and every replica read would wait out its sync timeout."""
        if method == "apply_batch":  # rejected ops are not logged
            return sum(1 for tag, _payload in result if tag == "ok")
        if method == "load_events_packed":
            return result.events
        return _LOGGED.get(method, 0)

    def call_async(self, method: str, *args: Any
                   ) -> "concurrent.futures.Future":
        """:meth:`write` without waiting (and without the retry): the
        group's write lock is held from send until the worker's reply
        has been accounted, then the returned future settles.

        A ``load_events`` partition crosses the pipe as one
        :func:`~repro.storage.serialization.pack_events` columnar blob
        (four packed arrays) instead of a list of pickled per-event
        tuples; the worker counts the bytes-on-pipe in its ``load_bytes``
        stat and unpacks straight into its loader.
        """
        if method == "load_events":
            from repro.storage.serialization import pack_events

            method, args = "load_events_packed", \
                (pack_events(args[0]),) + args[1:]
        self.write_lock.acquire()
        try:
            if self.primary.dead:
                self._heal(self)
            sent = self.primary.call_async(method,
                                           *self._wire(args))
        except BaseException:
            self.write_lock.release()
            raise
        settled: concurrent.futures.Future = concurrent.futures.Future()

        def account(done: "concurrent.futures.Future") -> None:
            try:
                result = done.result()
                self.acked_seq += self._logged(method, result)
            except BaseException as exc:  # noqa: BLE001 — via .result()
                self.write_lock.release()
                settled.set_exception(exc)
                return
            self.write_lock.release()
            settled.set_result(result)
        sent.add_done_callback(account)
        return settled

    def probe(self, name: str, part: KeyRange, interval: Interval) -> Any:
        """Always :data:`~repro.serve.sharded.MISS`: the caches live
        inside the worker, so nothing is answerable without an RPC."""
        return MISS

    @property
    def now(self) -> int:
        """The most recent time the primary has seen (from response
        clocks: every worker reply carries its warehouse's ``now``)."""
        return self.primary.last_now

    @property
    def dead(self) -> bool:
        """Whether the primary is down right now."""
        return self.primary.dead

    def close(self) -> None:
        """Stop every worker: request shutdown in parallel, then reap.
        Workers close their warehouses (releasing WAL handles) before
        exiting; stragglers are terminated."""
        clients = [self.primary, *self.replicas]
        for client in clients:
            client.request_shutdown()
        for client in clients:
            client.reap()

    # -- observability -----------------------------------------------------------------

    def stats_rows(self) -> List[Dict[str, Any]]:
        """One row for the primary and one per replica: worker counters,
        pid, clock, liveness.

        Live rows also carry ``role``, ``queue_depth`` (requests in
        flight to that worker right now), ``packed_requests`` and
        ``qps`` — the request rate since the previous scrape (``0.0`` on
        the first one, and after a counter reset such as a respawn).  The
        primary row adds ``acked_seq``; replica
        rows add ``replica``, ``applied_seq`` and ``lag`` (primary WAL
        sequence minus applied).  Dead workers report ``alive: False``
        instead of raising, so metrics stay exportable mid-outage.
        """
        import time

        scrape: List[Tuple[ShardClient, Any]] = []
        for client in [self.primary, *self.replicas]:
            try:
                scrape.append((client, client.call_async(_STATS)))
            except ShardDownError:
                scrape.append((client, None))
        rows: List[Dict[str, Any]] = []
        primary_seq = self.acked_seq
        for position, (client, future) in enumerate(scrape):
            role = "replica" if position else "primary"
            row: Dict[str, Any] = {"shard": self.sid, "alive": False,
                                   "role": role}
            if position:
                row["replica"] = client.spec.replica_id
            try:
                payload = None if future is None else future.result(10.0)
            except Exception:  # noqa: BLE001 — scrape survives outages
                payload = None
            if payload is None:
                rows.append(row)
                continue
            seen = (time.monotonic(), payload["requests"])
            prev = self._scraped.get((role, row.get("replica")), seen)
            self._scraped[role, row.get("replica")] = seen
            elapsed, delta = seen[0] - prev[0], seen[1] - prev[1]
            qps = round(delta / elapsed, 3) \
                if elapsed > 0.0 and delta >= 0 else 0.0
            row = dict(payload, alive=True, role=role, qps=qps,
                       queue_depth=client.queue_depth,
                       packed_requests=client.packed_requests)
            if position:
                row["lag"] = max(0, primary_seq
                                 - payload.get("applied_seq", 0))
            else:
                primary_seq = payload.get("wal_seq", 0)
                row["acked_seq"] = self.acked_seq
            rows.append(row)
        return rows

    def registry_snapshot(self) -> Optional[Dict[str, Any]]:
        """The primary's metrics registry snapshot, as JSON — the worker
        runs :func:`repro.obs.metrics.snapshot_into` over its own
        warehouse (pool IOStats, tree counters, cache counters).
        ``None`` when it is dead or unresponsive: a scrape must survive
        a mid-outage shard.  Replicas keep no caches worth scraping."""
        try:
            return self.primary.call(_REGISTRY, timeout=10.0)
        except Exception:  # noqa: BLE001 — scrape survives outages
            return None

    def publish_metrics(self, registry) -> None:
        """This group's rows: each worker's request counters,
        liveness and replica lag as
        ``repro_procpool_<counter>{shard=N}`` gauges, then every series
        of the primary's own registry republished with a ``shard``
        label — so one scrape carries e.g.
        ``repro_pool_reads{pool="tuples",shard="2"}`` for every worker
        process without any shared memory."""
        for row in self.stats_rows():
            labels = {"shard": str(self.sid)}
            if row["role"] == "replica":
                # Replica rows share the primary's shard id; the replica
                # label keeps the series distinct.
                labels["replica"] = str(row.get("replica", ""))
            for counter in ("requests", "reads", "writes", "errors",
                            "load_bytes"):
                if counter in row:
                    registry.gauge(
                        f"repro_procpool_{counter}",
                        f"shard worker counter {counter}",
                        labels).set(row[counter])
            if "qps" in row:
                registry.gauge(
                    "repro_procpool_shard_qps",
                    "worker request rate since the last scrape (req/s)",
                    labels).set(row["qps"])
            if "queue_depth" in row:
                registry.gauge(
                    "repro_procpool_shard_queue_depth",
                    "requests in flight on the worker pipe",
                    labels).set(row["queue_depth"])
            if "lag" in row:
                registry.gauge(
                    "repro_cluster_replica_lag",
                    "primary WAL records not yet applied by the replica",
                    labels).set(row["lag"])
            registry.gauge(
                "repro_procpool_alive", "shard worker liveness",
                labels).set(1 if row["alive"] else 0)
        for name, metric in (self.registry_snapshot() or {}).items():
            for entry in metric.get("series", ()):
                if "value" not in entry:
                    continue  # worker snapshots only ship gauges
                labels = dict(entry.get("labels", {}), shard=str(self.sid))
                registry.gauge(name, metric.get("help", ""),
                               labels).set(entry["value"])


class ProcessShardedWarehouse(ShardRouter):
    """The process-per-shard construction: the router over one
    zero-replica :class:`WorkerGroup` per range — same API, N cores.

    Routing, scatter-gather arithmetic, and bulk-load partitioning are
    :class:`~repro.serve.sharded.ShardRouter`'s — identical code to the
    thread backend, which is what makes answers byte-identical between
    ``--executor thread`` and ``--executor process``.

    No parent-side shard locks exist (or are needed) for reads: each
    worker is single-threaded, its pipe is FIFO, and a client that awaits
    its write acknowledgements before reading observes its own writes.
    ``AS OF`` reads at or before a shard's clock touch only closed
    versions, so cross-client interleavings keep snapshot semantics.

    A dead worker answers ``SHARD_DOWN`` until :meth:`respawn`.

    Parameters mirror :class:`~repro.serve.sharded.ShardedWarehouse`, plus
    ``durable_dir`` (per-shard WAL + checkpoints under
    ``<dir>/shard-NN``, layout frozen in the same ``layout.json`` — a
    directory created by one backend reopens under the other),
    ``cache_config`` (workers attach their own read-path caches; parent
    processes hold no cache state).
    """

    def __init__(self, shards: int = 4,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 page_capacity: int = 32, buffer_pages: int = 64,
                 strong_factor: float = 0.9, start_time: int = 1,
                 durable_dir: Optional[str] = None,
                 fsync: bool = False,
                 cache_config: Optional[CacheConfig] = None,
                 start_timeout: float = 60.0) -> None:
        if durable_dir is not None:
            key_space, boundaries = load_or_freeze_layout(
                durable_dir, shards, key_space)
        else:
            boundaries = split_evenly(key_space, shards)
        self._boot(durable_dir, start_timeout, ShardSpec(
            index=-1, key_space=key_space, page_capacity=page_capacity,
            buffer_pages=buffer_pages, strong_factor=strong_factor,
            start_time=start_time, fsync=fsync, cache_config=cache_config),
            1, [(sid, lo, hi, (lo, hi), shard_dir_name(sid))
                for sid, (lo, hi) in enumerate(
                    zip(boundaries, boundaries[1:]))])

    # -- construction ------------------------------------------------------------------

    def _new_group(self, sid: int, lo: int, hi: int,
                   wh_key_space: Tuple[int, int],
                   dirname: str) -> WorkerGroup:
        """A group whose primary is starting (not yet waited for)."""
        spec = replace(
            self._template, index=sid, key_space=tuple(wh_key_space),
            durable_dir=(os.path.join(self._root, dirname)
                         if self._root else None))
        return WorkerGroup(spec, lo, hi, self._ctx, self._heal)

    def _boot(self, root: Optional[str], start_timeout: float,
              template: ShardSpec, version: int, plan: List[Tuple]) -> None:
        """Start one group per ``(sid, lo, hi, warehouse key space,
        dirname)`` row of ``plan`` and hand them to the router.
        ``template`` is everything about a worker's warehouse except
        which shard it is (its ``key_space`` is the router's).  Every
        worker is started first, then the hellos are collected: spawn
        imports overlap across cores instead of serializing."""
        self._ctx = multiprocessing.get_context("spawn")
        self._root = root
        self._start_timeout = start_timeout
        self._template = template
        groups = [self._new_group(*row) for row in plan]
        try:
            for group in groups:
                group.primary.wait_ready(start_timeout)
        except Exception:
            for group in groups:
                group.close()
            raise
        ShardRouter.__init__(
            self, template.key_space,
            Topology(version, [(g.sid, g.lo, g.hi) for g in groups]),
            {group.sid: group for group in groups})

    # -- failure policy ----------------------------------------------------------------

    def _heal(self, group: WorkerGroup) -> None:
        """What a group does on finding its primary dead mid-traffic:
        nothing — the shard answers ``SHARD_DOWN`` until the operator's
        :meth:`respawn` (an in-memory shard must never be silently
        respawned empty)."""
        raise group.primary._down_error()

    def _revive(self, group: WorkerGroup,
                timeout: Optional[float] = None) -> None:
        """Bring a dead primary back (single-flight: concurrent
        detectors block on the heal lock and find it healed)."""
        with group.heal_lock:
            if group.primary.dead:
                group.restart(timeout or self._start_timeout)

    def respawn(self, sid: int, start_timeout: float = 60.0) -> int:
        """Replace shard ``sid``'s primary with a fresh worker process
        (graceful if it is alive); returns the new worker's pid."""
        group = self.handle(sid)
        old = group.primary
        if not old.dead:
            old.request_shutdown()
            old.reap(5.0)
        self._revive(group, start_timeout)
        return group.primary.pid  # type: ignore[return-value]

    # -- observability -----------------------------------------------------------------

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Every group's :meth:`WorkerGroup.stats_rows`, in key order.
        The cluster planner feeds on the primary rows' ``qps`` /
        ``queue_depth``."""
        return [row for sid in self.shard_ids() if sid in self._handles
                for row in self._handles[sid].stats_rows()]

    def worker_registries(self) -> List[Tuple[int, Dict[str, Any]]]:
        """``(shard, registry JSON)`` per live primary
        (:meth:`WorkerGroup.registry_snapshot`)."""
        return [(group.sid, payload)
                for group in list(self._handles.values())
                if (payload := group.registry_snapshot()) is not None]

    def shard_pid(self, sid: int) -> Optional[int]:
        """The pid of shard ``sid``'s primary worker (ops and tests)."""
        return self.handle(sid).primary.pid

    def shard_alive(self, sid: int) -> bool:
        """Whether shard ``sid``'s primary worker is currently serving."""
        return not self.handle(sid).dead
