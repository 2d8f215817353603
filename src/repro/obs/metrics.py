"""Metrics registry: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` names metrics Prometheus-style —
``repro_buffer_reads_total{pool="aggregates"}`` — and exports the whole set
as JSON (:meth:`MetricsRegistry.to_json`) or the Prometheus text exposition
format (:meth:`MetricsRegistry.render_prometheus`).  The buffer pool and
the trees publish into an attached registry (see
:func:`repro.obs.attach_metrics`):

* per-query physical I/Os (``repro_query_ios``, histogram),
* pages touched per tree descent (``repro_descent_pages``, histogram),
* batch-window flush sizes (``repro_flush_batch_pages``, histogram),
* every :class:`~repro.storage.stats.IOStats` counter and tree operation
  counter, on demand via :func:`snapshot_into`.

Like the tracer, metrics are opt-in: unattached objects hold ``None`` and
skip all bookkeeping with a single branch.

Registry lookup and every instrument mutation are thread-safe: the serve
layer publishes from the asyncio loop, the reader thread pool, and the
``/metrics`` HTTP thread at once, so :meth:`MetricsRegistry._get` and
``Counter.inc`` / ``Gauge.set`` / ``Histogram.observe`` all take a lock.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Default histogram buckets, sized for page-count-like quantities.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                   512.0, 1024.0)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition rules:
    backslash, double quote, and newline must be escaped."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_text(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"'
                    for key, value in items)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value (events, I/Os, operations)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (residency, heights, fill factors)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  Observations update per-bucket counts, ``count`` and ``sum``.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram buckets must be sorted and unique: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation.

        A value exactly on a bucket's upper bound counts in that bucket
        (``le`` is an inclusive bound, Prometheus semantics): bisect_left
        lands on the index of the matching bound.
        """
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (the ``le`` series), ending at +Inf."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


class MetricsRegistry:
    """Named metrics with labels, creatable on first use.

    ``counter``/``gauge``/``histogram`` return the existing instrument when
    called again with the same name and labels, so publishers do not need
    to cache handles (though hot paths should).
    """

    def __init__(self) -> None:
        #: name -> (kind, help text)
        self._meta: Dict[str, Tuple[str, str]] = {}
        #: (name, label items) -> instrument
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        #: Guards _meta/_instruments: publishers run on the asyncio loop,
        #: the reader pool, and the /metrics HTTP thread concurrently.
        self._lock = threading.Lock()

    def _get(self, kind: str, name: str, help_text: str,
             labels: Optional[Mapping[str, str]], factory) -> Any:
        key = (name, _label_items(labels))
        with self._lock:
            known = self._meta.get(name)
            if known is None:
                self._meta[name] = (kind, help_text)
            elif known[0] != kind:
                raise ValueError(
                    f"metric {name!r} is a {known[0]}, requested as {kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
        return instrument

    def _snapshot(self) -> Tuple[Dict[str, Tuple[str, str]],
                                 List[Tuple[Tuple[str, LabelItems], Any]]]:
        """A stable view for the exporters: meta copy + sorted series."""
        with self._lock:
            meta = dict(self._meta)
            instruments = sorted(self._instruments.items(),
                                 key=lambda kv: (kv[0][0], kv[0][1]))
        return meta, instruments

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get("histogram", name, help_text, labels,
                         lambda: Histogram(buckets))

    # -- export ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The whole registry as a JSON-safe dict (stable ordering)."""
        meta, instruments = self._snapshot()
        out: Dict[str, Any] = {}
        for name in sorted(meta):
            kind, help_text = meta[name]
            series = []
            for (metric, items), instrument in instruments:
                if metric != name:
                    continue
                entry: Dict[str, Any] = {"labels": dict(items)}
                if kind == "histogram":
                    entry.update(
                        count=instrument.count,
                        sum=instrument.sum,
                        buckets=[
                            {"le": le, "count": cum}
                            for le, cum in zip(
                                [*instrument.buckets, float("inf")],
                                instrument.cumulative_counts())
                        ],
                    )
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            out[name] = {"type": kind, "help": help_text, "series": series}
        return out

    def render_json(self, indent: int = 2) -> str:
        """:meth:`to_json` serialized (``Infinity`` encoded as a string)."""
        def default(value: Any) -> Any:
            return str(value)

        payload = self.to_json()
        for metric in payload.values():
            for entry in metric["series"]:
                for bucket in entry.get("buckets", ()):
                    if bucket["le"] == float("inf"):
                        bucket["le"] = "+Inf"
        return json.dumps(payload, indent=indent, default=default)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (sorted, deterministic)."""
        meta, instruments = self._snapshot()
        lines: List[str] = []
        for name in sorted(meta):
            kind, help_text = meta[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for (metric, items), instrument in instruments:
                if metric != name:
                    continue
                if kind == "histogram":
                    bounds = [*instrument.buckets, float("inf")]
                    for le, cum in zip(bounds, instrument.cumulative_counts()):
                        le_text = "+Inf" if le == float("inf") else f"{le:g}"
                        bucket_items = items + (("le", le_text),)
                        lines.append(
                            f"{name}_bucket{_label_text(bucket_items)} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_label_text(items)} {instrument.sum:g}")
                    lines.append(
                        f"{name}_count{_label_text(items)} {instrument.count}")
                else:
                    lines.append(
                        f"{name}{_label_text(items)} {instrument.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


class PoolMetrics:
    """Instruments a :class:`~repro.storage.buffer.BufferPool` publishes into.

    Created by :func:`repro.obs.attach_metrics`; the pool holds it in its
    ``metrics`` attribute (``None`` when unattached).
    """

    __slots__ = ("registry", "label", "flush_batch_pages", "evictions",
                 "overcommits")

    def __init__(self, registry: MetricsRegistry, label: str) -> None:
        self.registry = registry
        self.label = label
        labels = {"pool": label}
        self.flush_batch_pages = registry.histogram(
            "repro_flush_batch_pages",
            "dirty pages written per batch-window flush", labels)
        self.evictions = registry.counter(
            "repro_buffer_evictions_total", "LRU frames evicted", labels)
        self.overcommits = registry.counter(
            "repro_buffer_overcommits_total",
            "evictions that found no victim and overcommitted", labels)


class TreeMetrics:
    """Instruments a tree (MVSBT/MVBT/SB-tree) publishes into."""

    __slots__ = ("registry", "label", "descent_pages")

    def __init__(self, registry: MetricsRegistry, label: str) -> None:
        self.registry = registry
        self.label = label
        self.descent_pages = registry.histogram(
            "repro_descent_pages",
            "pages touched per point-query descent", {"index": label},
            buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0))


class QueryMetrics:
    """Instruments the warehouse / RTA query layer publishes into."""

    __slots__ = ("registry", "query_ios", "plan_mvsbt", "plan_mvbt_scan",
                 "result_cache_hits", "result_cache_misses")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.query_ios = registry.histogram(
            "repro_query_ios", "physical I/Os per aggregate query")
        self.plan_mvsbt = registry.counter(
            "repro_plan_choices_total", "queries run per plan",
            {"plan": "mvsbt"})
        self.plan_mvbt_scan = registry.counter(
            "repro_plan_choices_total", "queries run per plan",
            {"plan": "mvbt-scan"})
        self.result_cache_hits = registry.counter(
            "repro_result_cache_total", "result cache outcomes",
            {"outcome": "hit"})
        self.result_cache_misses = registry.counter(
            "repro_result_cache_total", "result cache outcomes",
            {"outcome": "miss"})


#: Latency buckets in seconds, sized for in-process query service times.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class ServerMetrics:
    """Instruments the :mod:`repro.serve` query server publishes into.

    Covers the admission-control and per-shard surface the ``metrics`` and
    ``metrics_text`` protocol ops expose: request counts by op, end-to-end
    latency, per-op latency split into queue-wait and execution phases,
    per-shard execution-time histograms, in-flight and queued request
    gauges, rejections by reason, sampled-trace, slow-request, inline-hit
    and loop-read counters, and per-shard query/write counters.  Per-label
    instrument handles are cached so the request hot path never
    re-hashes registry keys.
    """

    __slots__ = ("registry", "latency", "queue_depth", "inflight",
                 "traces_sampled", "slow_requests", "inline_hits",
                 "loop_reads", "_requests", "_rejected",
                 "_op_latency", "_op_phase", "_shard_seconds",
                 "_shard_queries", "_shard_writes")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.latency = registry.histogram(
            "repro_serve_latency_seconds",
            "end-to-end request latency", buckets=LATENCY_BUCKETS)
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth",
            "requests waiting for an execution slot")
        self.inflight = registry.gauge(
            "repro_serve_inflight", "requests currently executing")
        self.traces_sampled = registry.counter(
            "repro_serve_traces_sampled_total",
            "requests recorded by the sampled tracer")
        self.slow_requests = registry.counter(
            "repro_serve_slow_requests_total",
            "requests captured by the slow-query log")
        self.inline_hits = registry.counter(
            "repro_serve_inline_hits_total",
            "reads answered on the event loop from the result cache")
        self.loop_reads = registry.counter(
            "repro_serve_loop_reads_total",
            "reads executed on the event loop (Equation (1), no cache hit)")
        self._requests: Dict[str, Counter] = {}
        self._rejected: Dict[str, Counter] = {}
        self._op_latency: Dict[str, Histogram] = {}
        self._op_phase: Dict[Tuple[str, str], Histogram] = {}
        self._shard_seconds: Dict[int, Histogram] = {}
        self._shard_queries: Dict[int, Counter] = {}
        self._shard_writes: Dict[int, Counter] = {}

    def op_latency(self, op: str) -> Histogram:
        """The ``repro_serve_op_latency_seconds{op=...}`` histogram."""
        histogram = self._op_latency.get(op)
        if histogram is None:
            histogram = self.registry.histogram(
                "repro_serve_op_latency_seconds",
                "end-to-end request latency by op", {"op": op},
                buckets=LATENCY_BUCKETS)
            self._op_latency[op] = histogram
        return histogram

    def op_phase(self, op: str, phase: str) -> Histogram:
        """The ``repro_serve_op_phase_seconds{op=...,phase=...}`` histogram.

        ``phase`` is ``"queue"`` (time waiting for an admission slot) or
        ``"exec"`` (time on a reader-pool thread / shard worker).
        """
        histogram = self._op_phase.get((op, phase))
        if histogram is None:
            histogram = self.registry.histogram(
                "repro_serve_op_phase_seconds",
                "request latency split into queue-wait and execution",
                {"op": op, "phase": phase}, buckets=LATENCY_BUCKETS)
            self._op_phase[(op, phase)] = histogram
        return histogram

    def shard_seconds(self, shard: int) -> Histogram:
        """The ``repro_serve_shard_seconds{shard=...}`` histogram:
        execution time attributed to each shard a request touched."""
        histogram = self._shard_seconds.get(shard)
        if histogram is None:
            histogram = self.registry.histogram(
                "repro_serve_shard_seconds",
                "execution seconds attributed to each touched shard",
                {"shard": str(shard)}, buckets=LATENCY_BUCKETS)
            self._shard_seconds[shard] = histogram
        return histogram

    def request(self, op: str) -> Counter:
        """The ``repro_serve_requests_total{op=...}`` counter."""
        counter = self._requests.get(op)
        if counter is None:
            counter = self.registry.counter(
                "repro_serve_requests_total",
                "requests received by op", {"op": op})
            self._requests[op] = counter
        return counter

    def rejected(self, reason: str) -> Counter:
        """The ``repro_serve_rejected_total{reason=...}`` counter."""
        counter = self._rejected.get(reason)
        if counter is None:
            counter = self.registry.counter(
                "repro_serve_rejected_total",
                "requests refused by admission control or timeouts",
                {"reason": reason})
            self._rejected[reason] = counter
        return counter

    def shard_queries(self, shard: int) -> Counter:
        """The ``repro_serve_shard_queries_total{shard=...}`` counter."""
        counter = self._shard_queries.get(shard)
        if counter is None:
            counter = self.registry.counter(
                "repro_serve_shard_queries_total",
                "read statements executed, by home shard",
                {"shard": str(shard)})
            self._shard_queries[shard] = counter
        return counter

    def shard_writes(self, shard: int) -> Counter:
        """The ``repro_serve_shard_writes_total{shard=...}`` counter."""
        counter = self._shard_writes.get(shard)
        if counter is None:
            counter = self.registry.counter(
                "repro_serve_shard_writes_total",
                "DML statements applied, by owning shard",
                {"shard": str(shard)})
            self._shard_writes[shard] = counter
        return counter


def snapshot_into(registry: MetricsRegistry, target: Any) -> MetricsRegistry:
    """Pull-publish a target's current counters into ``registry``.

    Publishes every :class:`~repro.storage.stats.IOStats` counter of every
    buffer pool behind ``target`` as gauges
    (``repro_pool_<counter>{pool=...}``), plus tree operation counters
    (``repro_tree_<counter>{index=...}``) for MVSBT/MVBT trees.  Idempotent
    per call: gauges are overwritten, not accumulated.
    """
    from dataclasses import asdict

    from repro.obs.attach import discover_pools, discover_trees

    for label, pool in discover_pools(target):
        for counter, value in pool.stats.as_dict().items():
            registry.gauge(f"repro_pool_{counter}",
                           f"IOStats.{counter} of the pool",
                           {"pool": label}).set(value)
        registry.gauge("repro_pool_resident_pages",
                       "frames currently occupied",
                       {"pool": label}).set(len(pool.resident_page_ids))
    for label, tree in discover_trees(target):
        counters = getattr(tree, "counters", None)
        if counters is None:
            continue
        for counter, value in asdict(counters).items():
            registry.gauge(f"repro_tree_{counter}",
                           f"tree counter {counter}",
                           {"index": label}).set(value)
    snapshot = getattr(target, "cache_snapshot", None)
    if snapshot is not None:
        for layer, stats in snapshot().as_dict().items():
            for counter, value in stats.items():
                registry.gauge(f"repro_cache_{counter}",
                               f"read-path cache counter {counter}",
                               {"cache": layer}).set(value)
    return registry
