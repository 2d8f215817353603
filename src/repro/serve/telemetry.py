"""Per-request telemetry plumbing for the serving stack.

The server's observability plane (request IDs, sampled tracing, the
slow-query log, the ``/metrics`` endpoint) needs four small pieces that
belong to neither the protocol nor the metrics registry:

* :class:`RequestContext` — one request's telemetry state: its ID, the
  sampling decision with trace/span IDs, the queue-wait/execution split,
  per-shard time attribution, and the worker-side span records collected
  while it executed.
* A **thread-local context slot** (:func:`set_context` /
  :func:`current_context`, installed around a statement by
  :func:`run_in_context`).  Statements execute on worker threads, which
  no contextvar reaches, or in the event loop's read lane — so the
  thread-local is set around the statement wherever it runs, and the
  shard backends (:mod:`repro.serve.sharded`, :mod:`repro.serve.procpool`)
  read it to attribute time and, when sampled, attach trace context to
  their shard calls.  Unset, the lookup is one ``getattr`` returning
  ``None`` — the telemetry-off hot path stays branch-cheap.
* :class:`Sampler` — the probabilistic head sampler behind
  ``--trace-sample-rate`` (a per-request ``"trace": true`` field
  overrides it).
* :class:`SlowQueryLog` — the bounded ring behind ``--slow-ms`` and the
  ``slowlog`` op.
* :class:`MetricsHTTPServer` — the stdlib HTTP thread serving Prometheus
  text exposition on ``--metrics-port``.

Trace IDs are 128-bit and span IDs 64-bit, hex-encoded — the W3C
trace-context sizes, so traces correlate with external tooling if the
deployment forwards them.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional


def new_trace_id() -> str:
    """A fresh 128-bit trace ID, lowercase hex."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span ID, lowercase hex."""
    return os.urandom(8).hex()


class RequestContext:
    """Telemetry state carried through one protocol request.

    Created per request by the server, installed in the executing
    thread's context slot for the duration of the statement, and read
    back when the response is built.  Mutations happen from the one
    thread executing the request's statement, so plain containers
    suffice.
    """

    __slots__ = ("request_id", "op", "sampled", "detail", "trace_id",
                 "span_id", "queue_s", "exec_s", "records",
                 "shard_seconds", "tql", "explain_args",
                 "mvcc_retries", "mvcc_fallbacks", "lane")

    def __init__(self, request_id: str, op: str) -> None:
        self.request_id = request_id
        self.op = op
        self.sampled = False
        #: Deep tracing (per-page worker spans) — set by the explicit
        #: per-request ``"trace": true`` override, never by the sampler.
        self.detail = False
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.queue_s = 0.0
        self.exec_s = 0.0
        #: Child span records (JSONL shape) from shard calls / workers.
        self.records: List[Dict[str, Any]] = []
        #: Execution seconds attributed to each shard touched.
        self.shard_seconds: Dict[int, float] = {}
        self.tql: Optional[str] = None
        #: ``(statement, as_of)`` when the statement was a plain SELECT
        #: aggregate — lets the slow-query log re-run it under EXPLAIN
        #: after the fact (resolution deferred off the hot path).
        self.explain_args: Optional[tuple] = None
        #: Optimistic-read conflicts this request absorbed (MVCC path).
        self.mvcc_retries = 0
        #: Reads that exhausted retries and took the read lock.
        self.mvcc_fallbacks = 0
        #: ``"hit"`` when the event loop answered the read from the
        #: result cache, ``"loop"`` when it executed it (no admission, no
        #: worker thread either way); ``None`` otherwise.
        self.lane: Optional[str] = None

    def begin_sampling(self, detail: bool = False) -> None:
        """Mark the request sampled and mint its trace/span IDs.

        ``detail=True`` (the per-request override) additionally asks the
        shard backends for deep page-level span trees; probabilistic
        samples stay light so sampling never taxes the steady state.
        """
        self.sampled = True
        self.detail = detail
        self.trace_id = new_trace_id()
        self.span_id = new_span_id()

    def add_record(self, record: Dict[str, Any]) -> None:
        """Attach one child span record (worker- or shard-side)."""
        self.records.append(record)

    def note_shard(self, index: int, seconds: float) -> None:
        """Attribute ``seconds`` of execution time to shard ``index``."""
        self.shard_seconds[index] = \
            self.shard_seconds.get(index, 0.0) + seconds

    def trace_context(self) -> Dict[str, Any]:
        """The propagation fields a shard call forwards to its worker."""
        return {"trace_id": self.trace_id, "parent_span_id": self.span_id,
                "detail": self.detail}


_local = threading.local()


def set_context(ctx: Optional[RequestContext]) -> None:
    """Install ``ctx`` as the executing thread's request context."""
    _local.ctx = ctx


def current_context() -> Optional[RequestContext]:
    """The executing thread's request context, or ``None``."""
    return getattr(_local, "ctx", None)


def clear_context() -> None:
    """Drop the executing thread's request context."""
    _local.ctx = None


def run_in_context(fn: Callable[[], Any],
                   ctx: Optional[RequestContext]) -> Any:
    """``fn()`` with ``ctx`` installed in this thread's slot, its wall
    time added to the request's exec phase — the one wrapper a worker
    thread and the event loop's read lane both execute under."""
    set_context(ctx)
    if ctx is None:
        return fn()
    started = time.perf_counter()
    try:
        return fn()
    finally:
        ctx.exec_s += time.perf_counter() - started
        clear_context()


class Sampler:
    """Head-based probabilistic sampling at a fixed rate in [0, 1].

    One shared PRNG behind a lock: the decision happens on the event
    loop, so contention is nil and determinism under a seeded ``rng``
    (tests) is preserved.
    """

    def __init__(self, rate: float,
                 rng: Optional[random.Random] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self._rng = rng or random.Random()
        self._lock = threading.Lock()

    def sample(self) -> bool:
        """One sampling decision."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < self.rate


class SlowQueryLog:
    """A bounded ring of slow-request entries (newest kept, oldest
    evicted), thread-safe.

    Entries are plain JSON-safe dicts assembled by the server: request
    ID, op, (truncated) TQL, latency and its queue/exec split, per-shard
    seconds, trace ID when sampled, and — filled in asynchronously — the
    EXPLAIN span tree with its cache outcome.
    """

    def __init__(self, capacity: int = 128) -> None:
        self._entries: deque = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self.total = 0

    def add(self, entry: Dict[str, Any]) -> None:
        """Record one slow request (evicting the oldest at capacity)."""
        with self._lock:
            self._entries.append(entry)
            self.total += 1

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Slowest-recent entries, newest first."""
        with self._lock:
            rows = list(self._entries)
        rows.reverse()
        if limit is not None:
            rows = rows[:max(0, limit)]
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics -> the registry in Prometheus text exposition."""

    render: Callable[[], str]  # set by MetricsHTTPServer per subclass

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path not in ("/metrics", "/metrics/"):
            self.send_error(404, "only /metrics is served")
            return
        try:
            body = type(self).render().encode("utf-8")
        except Exception as exc:  # noqa: BLE001 — scrape must not kill serving
            self.send_error(500, f"metrics render failed: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; never spam the server's stdout


class MetricsHTTPServer:
    """The ``/metrics`` exposition endpoint, on its own daemon thread.

    ``render`` is called per scrape (from the HTTP thread) and must be
    thread-safe; the registry's exporters and the server's gauge
    publishers are.  Port 0 binds an ephemeral port, resolved in
    :attr:`port`.
    """

    def __init__(self, host: str, port: int,
                 render: Callable[[], str]) -> None:
        handler = type("BoundMetricsHandler", (_MetricsHandler,),
                       {"render": staticmethod(render)})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics-http",
            daemon=True)

    def start(self) -> None:
        """Begin serving scrapes."""
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(5.0)


def shard_record(name: str, shard: int, cpu_s: float,
                 ctx: RequestContext, **attrs: Any) -> Dict[str, Any]:
    """A schema-valid child record for one shard call (thread backend).

    The thread backend cannot attach a tracer to a *shared* warehouse
    (the span stack would race across reader threads), so sampled
    requests get these lightweight per-shard-call records instead: the
    trace lineage and timing without page-level children.
    """
    return {
        "name": name,
        "attrs": dict(attrs, shard=shard, trace_id=ctx.trace_id,
                      parent_span_id=ctx.span_id, span_id=new_span_id()),
        "reads": 0, "writes": 0, "logical_reads": 0,
        "cpu_s": cpu_s,
    }


_SLOW_TQL_LIMIT = 200


def clip_tql(tql: Optional[str]) -> Optional[str]:
    """Truncate statement text for slowlog / trace attributes."""
    if tql is None or len(tql) <= _SLOW_TQL_LIMIT:
        return tql
    return tql[:_SLOW_TQL_LIMIT] + "..."
