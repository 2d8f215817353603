"""The newline-delimited JSON protocol spoken by :mod:`repro.serve`.

One request per line, one response per line, always in order.  Requests
are JSON objects with an ``op`` field; responses echo the request's
``id`` (if any) and carry either ``"ok": true`` with a ``result`` or
``"ok": false`` with an ``error`` object ``{"code", "message"}`` whose
codes come from :mod:`repro.errors`.  The full schema and every error
code are specified in ``docs/SERVING.md``.

Ops:

``query``
    Execute one TQL statement (``tql`` field).  Reads run pinned to the
    session's snapshot time unless the request carries ``as_of``.
``snapshot``
    Re-pin the session snapshot to the warehouse's current ``now`` and
    return it.
``metrics``
    The server's metrics registry as JSON.
``metrics_text``
    The same registry rendered in the Prometheus text exposition format
    (one string result) — identical to what the ``--metrics-port`` HTTP
    endpoint serves at ``/metrics``.
``slowlog``
    Recent slow-request entries (newest first; optional ``limit``
    field): request ID, op, TQL, latency with its queue/exec split,
    trace ID when sampled, and the captured EXPLAIN span tree + cache
    outcome.  Populated when the server runs with ``--slow-ms``.
``ping``
    Liveness probe; returns ``"pong"``.
``sleep``
    Hold an execution slot for ``seconds`` (diagnostics: makes admission
    control and timeouts testable; subject to both).
``load``
    Bulk-ingest a chronologically sorted batch of ``[op, key, value,
    time]`` rows (``events`` field, optional ``batch_size``).  The batch
    is partitioned by shard key range; under the process executor every
    partition crosses the worker pipe as one packed columnar buffer and
    loads concurrently.  Returns the merged ingest report
    (``buffered_events``: how many events went through a buffer-tree
    window — each shard decides from the size of its part).
``respawn``
    Replace a dead shard worker (``shard`` field; process executor
    only).  Durable shards recover via WAL replay in the fresh worker.
``topology``
    The cluster routing table (cluster backend only): per-group key
    spans, primary/replica pids and liveness, acked WAL sequences, and
    the split/merge/failover/promotion counters.
``split``
    Split one shard group's key range online (``gid`` field, optional
    ``at`` split key, default midpoint).  Returns the child group id
    and the new topology version.
``merge``
    Merge two adjacent shard groups (``gids`` field, a two-element
    array) into a fresh group serving the union span.
``promote``
    Hand a group's write role to one of its replicas (``gid`` field,
    optional ``replica`` id).
``shutdown``
    Begin graceful shutdown: drain in-flight work, checkpoint, exit.

Results are encoded by :func:`to_jsonable`: intervals become
``[start, end]`` with the alive sentinel rendered as ``"now"``, temporal
tuples become objects, plans become their dataclass dicts.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional

from repro.core.model import Interval, KeyRange, NOW, TemporalTuple
from repro.errors import ProtocolError

#: Protocol revision; servers report it in the hello line.
PROTOCOL_VERSION = 1

#: Every op the server understands.
OPS = ("query", "snapshot", "metrics", "metrics_text", "slowlog", "ping",
       "sleep", "load", "respawn", "topology", "split", "merge",
       "promote", "shutdown")


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the ``\\n`` terminator."""
    return (json.dumps(message, separators=(",", ":"),
                       default=_json_default) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request line; malformed input raises
    :class:`~repro.errors.ProtocolError` (code ``PROTOCOL``)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    op = message.get("op")
    if op not in OPS:
        # Carry the request id on the exception: decode fails before the
        # server ever sees the message, and without the id the error
        # response cannot be correlated by a pipelining client.
        request_id = message.get("id")
        suffix = (f" (request {request_id!r})"
                  if request_id is not None else "")
        exc = ProtocolError(
            f"unknown op {op!r}{suffix}; expected one of {', '.join(OPS)}"
        )
        exc.request_id = request_id
        raise exc
    return message


def is_int(value: Any) -> bool:
    """Whether a decoded request field is a JSON integer.  ``bool`` is an
    ``int`` subclass, so without this ``true`` would pass as ``1``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether a decoded request field is a JSON number (integer or
    float), again not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_default(value: Any) -> Any:
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return str(value)
    return str(value)


def _end_to_json(end: int) -> Any:
    return "now" if end == NOW else end


def to_jsonable(result: Any) -> Any:
    """Convert an executor result into plain JSON-serializable data.

    Handles every result shape :func:`repro.tql.executor.execute` can
    produce; unknown objects fall back to ``str()`` so a response can
    always be written.
    """
    if result is None or isinstance(result, (bool, int, float, str)):
        return result
    if isinstance(result, Interval):
        return [result.start, _end_to_json(result.end)]
    if isinstance(result, KeyRange):
        return [result.low, result.high]
    if isinstance(result, TemporalTuple):
        return {"key": result.key, "value": result.value,
                "start": result.interval.start,
                "end": _end_to_json(result.interval.end)}
    if isinstance(result, (list, tuple)):
        return [to_jsonable(item) for item in result]
    if isinstance(result, dict):
        return {str(k): to_jsonable(v) for k, v in result.items()}
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {field.name: to_jsonable(getattr(result, field.name))
                for field in dataclasses.fields(result)}
    return str(result)


def ok_response(request_id: Any, result: Any,
                snapshot: Optional[int] = None,
                elapsed_ms: Optional[float] = None) -> Dict[str, Any]:
    """A success response; ``snapshot`` reports the pinned read time."""
    response: Dict[str, Any] = {"id": request_id, "ok": True,
                                "result": to_jsonable(result)}
    if snapshot is not None:
        response["snapshot"] = snapshot
    if elapsed_ms is not None:
        response["elapsed_ms"] = round(elapsed_ms, 3)
    return response


def error_response(request_id: Any,
                   error: Dict[str, str]) -> Dict[str, Any]:
    """A failure response around an :func:`repro.errors.error_payload`."""
    return {"id": request_id, "ok": False, "error": error}
