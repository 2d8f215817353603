"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class.  Errors are deliberately fine-grained: storage-level
failures, structural index corruption, and user-input problems are distinct
conditions with distinct remedies.

Every class carries a stable machine-readable ``code`` so process
boundaries (the ``repro.serve`` wire protocol, logs, clients in other
languages) can dispatch on the condition without parsing prose;
:func:`error_payload` is the one sanctioned way to serialize an exception
into the ``{"code", "message"}`` object the protocol ships.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for every error raised by this library."""

    #: Stable machine-readable identifier, refined by every subclass.
    code = "REPRO_ERROR"


class StorageError(ReproError):
    """Base class for storage-engine failures."""

    code = "STORAGE"


class PageNotFoundError(StorageError):
    """A page id was requested that the disk manager does not hold."""

    code = "PAGE_NOT_FOUND"

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist")
        self.page_id = page_id


class PageOverflowError(StorageError):
    """A page's serialized payload exceeded the configured page size."""

    code = "PAGE_OVERFLOW"


class BufferPoolError(StorageError):
    """Buffer-pool protocol violation (e.g. unpinning an unpinned page)."""

    code = "BUFFER_POOL"


class ConcurrentAccessError(BufferPoolError):
    """A thread entered state another thread owns.

    Raised by an unlocked buffer pool in assertion mode (see
    :meth:`~repro.storage.buffer.BufferPool.enable_concurrency_assertions`;
    production servers enable locking instead), and by an MVSBT when a
    thread other than the writer queries it inside the writer's
    buffered-ingest window.
    """

    code = "CONCURRENT_ACCESS"


class WALTruncatedError(StorageError):
    """A WAL tail cursor fell behind a checkpoint truncation.

    Raised by :class:`~repro.storage.wal.WALCursor` when the log no longer
    holds the records after the cursor's position (the primary checkpointed
    and truncated past it).  The reader must *rebase*: reload the primary's
    current checkpoint and resume tailing from the sequence it covers.
    """

    code = "WAL_TRUNCATED"


class IndexError_(ReproError):
    """Base class for index-structure errors (named to avoid shadowing
    the builtin :class:`IndexError`)."""

    code = "INDEX"


class InvariantViolation(IndexError_):
    """A structural invariant check failed; indicates a bug, not bad input."""

    code = "INVARIANT"


class TimeOrderError(IndexError_):
    """An update arrived with a timestamp lower than an earlier update.

    The paper assumes the transaction-time model (section 2.3): updates are
    applied in non-decreasing time order.  Violations are rejected eagerly.
    """

    code = "TIME_ORDER"


class DuplicateKeyError(IndexError_):
    """An insertion would violate first temporal normal form (1TNF): two
    alive records with the same key at the same instant."""

    code = "DUPLICATE_KEY"


class KeyNotFoundError(IndexError_):
    """A logical deletion referenced a key with no alive record."""

    code = "KEY_NOT_FOUND"


class QueryError(ReproError):
    """A query was malformed (empty range, reversed interval, ...)."""

    code = "QUERY"


class ShardRoutingError(QueryError):
    """A key or key range fell outside every shard's partition."""

    code = "SHARD_ROUTING"


class ServerError(ReproError):
    """Base class for query-server failures (see :mod:`repro.serve`)."""

    code = "SERVER"


class ServerBusyError(ServerError):
    """Admission control rejected the request: in-flight and queued work
    are both at their configured limits.  Clients should back off and
    retry."""

    code = "SERVER_BUSY"


class RequestTimeoutError(ServerError):
    """The per-request timeout elapsed before the query finished."""

    code = "TIMEOUT"


class ServerShuttingDownError(ServerError):
    """The server is draining for shutdown and accepts no new work."""

    code = "SHUTTING_DOWN"


class ProtocolError(ServerError):
    """A request line was not valid protocol JSON or named an unknown op."""

    code = "PROTOCOL"


class ShardDownError(ServerError):
    """A statement was routed to a shard whose worker process is dead.

    Raised by the process-per-shard backend (:mod:`repro.serve.procpool`)
    when the owning worker has exited — crashed, killed, or unreachable.
    Durable deployments recover the shard via WAL replay on respawn; the
    error is retriable once the shard is back.
    """

    code = "SHARD_DOWN"


class ShardRedirectError(ServerError):
    """A statement was routed with a shard map the cluster has since
    replaced (split, merge, or promotion swapped the topology).

    Always retriable: re-resolving against the current topology routes
    the statement correctly, and :class:`repro.serve.client.Client`
    does so transparently.
    """

    code = "SHARD_REDIRECT"


class ReplicaLagError(ServerError):
    """A read-your-writes read reached a replica that could not catch up
    to the required WAL sequence in time.

    The cluster router treats this as a soft failure and falls back to
    the next read target (ultimately the primary); it only surfaces to
    clients when no target can satisfy the read.
    """

    code = "REPLICA_LAG"


def error_payload(exc: BaseException) -> Dict[str, str]:
    """The wire form of an exception: ``{"code": ..., "message": ...}``.

    Library errors report their class's stable ``code``; anything else is
    collapsed to ``INTERNAL`` so foreign tracebacks never leak structure
    the protocol does not promise.
    """
    if isinstance(exc, ReproError):
        return {"code": exc.code, "message": str(exc)}
    return {"code": "INTERNAL",
            "message": f"{type(exc).__name__}: {exc}"}


def _code_registry() -> Dict[str, type]:
    """``code -> class`` over the whole :class:`ReproError` hierarchy."""
    registry: Dict[str, type] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        registry.setdefault(cls.code, cls)
        stack.extend(cls.__subclasses__())
    return registry


def error_from_payload(payload: Dict[str, str]) -> ReproError:
    """Rebuild a typed exception from an :func:`error_payload` dict.

    The inverse used at process boundaries (the :mod:`repro.serve.procpool`
    worker pipe): the reconstructed exception is of the class whose stable
    ``code`` matches, so re-serializing it yields the original payload and
    callers can keep dispatching on types.  Unknown codes collapse to
    :class:`ReproError`.  Construction bypasses subclass ``__init__``
    signatures (some take structured arguments) — only the message is
    carried across.
    """
    code = payload.get("code", "")
    cls = _code_registry().get(code)
    exc = (cls or ReproError).__new__(cls or ReproError)
    Exception.__init__(exc, payload.get("message", "unknown error"))
    if cls is None and code:
        exc.code = code  # instance shadow: unknown codes round-trip intact
    return exc
