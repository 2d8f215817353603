"""A small blocking client for the :mod:`repro.serve` protocol.

One socket, one request at a time, newline-delimited JSON both ways —
deliberately simple, so it works from any thread (the load generator
gives each worker its own :class:`Client`) and from other languages by
transliteration.

    with Client(host, port) as client:
        client.execute("INSERT KEY 7 VALUE 3.5 AT 2")
        total = client.execute("SELECT SUM(value) WHERE key IN [1, 100)")

Failures come back as :class:`ServerReplyError` carrying the structured
``code`` + ``message`` the server sent (codes from :mod:`repro.errors`),
so callers can branch on ``exc.code == "SERVER_BUSY"`` for backoff.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.serve import protocol

#: Error codes the client may retry transparently: the statement did not
#: apply (a dead worker rejects before logging; a redirect never reaches
#: one), so a single re-send against the healed/refreshed topology is
#: safe for reads and writes alike.
RETRIABLE_CODES = frozenset({"SHARD_DOWN", "SHARD_REDIRECT"})


class ServerReplyError(ReproError):
    """The server answered a request with a structured error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class Client:
    """Blocking connection to a TQL server.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Socket timeout in seconds for connect and for each reply.
    retries:
        Transparent re-sends of a request answered ``SHARD_DOWN`` or
        ``SHARD_REDIRECT`` (both mean "the statement never applied;
        the route has moved or is healing").  The default single retry
        makes cluster failover and splits invisible to callers; set 0
        to surface every routing error.  Attempts are counted in
        :attr:`retries_sent` / :attr:`retries_recovered` so harnesses
        (the load generator's envelope) can report them.
    retry_backoff:
        Sleep before each retry, doubling per attempt (gives a healing
        primary its respawn window).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7654,
                 timeout: float = 30.0, retries: int = 1,
                 retry_backoff: float = 0.05) -> None:
        self.host = host
        self.port = port
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Retry attempts sent (lifetime of this client).
        self.retries_sent = 0
        #: Retry attempts that turned a routing error into a success.
        self.retries_recovered = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        #: The server's hello: protocol version, shard count, snapshot.
        self.hello: Dict[str, Any] = self._read_line()
        #: The session's pinned snapshot time (updated by :meth:`repin`).
        self.snapshot: int = int(self.hello.get("snapshot", 0))
        #: Trace ID of the last :meth:`execute` response, when sampled.
        self.last_trace_id: Optional[str] = None

    # -- low-level ---------------------------------------------------------------------

    def _read_line(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw protocol message; returns the raw response dict.

        Retriable routing errors (see :data:`RETRIABLE_CODES`) are
        re-sent up to ``retries`` times before raising; every failure
        raises :class:`ServerReplyError`.
        """
        for attempt in range(self.retries + 1):
            if attempt > 0:
                self.retries_sent += 1
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            response = self._send_once(message)
            if response.get("ok", False):
                if attempt > 0:
                    self.retries_recovered += 1
                return response
            error = response.get("error") or {}
            code = error.get("code", "INTERNAL")
            if code not in RETRIABLE_CODES or attempt >= self.retries:
                raise ServerReplyError(code, error.get("message",
                                                       "unknown error"))
        raise AssertionError("unreachable")  # loop always returns/raises

    def _send_once(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        message = dict(message)
        message.setdefault("id", self._next_id)
        self._sock.sendall(protocol.encode(message))
        return self._read_line()

    # -- protocol ops ------------------------------------------------------------------

    def execute(self, tql: str, as_of: Optional[int] = None,
                trace: bool = False) -> Any:
        """Run one TQL statement; returns the decoded ``result``.

        ``trace=True`` forces the server to sample this request (the
        per-request override of ``--trace-sample-rate``); the assigned
        trace ID lands in :attr:`last_trace_id`.
        """
        message: Dict[str, Any] = {"op": "query", "tql": tql}
        if as_of is not None:
            message["as_of"] = as_of
        if trace:
            message["trace"] = True
        response = self.request(message)
        self.last_trace_id = response.get("trace_id")
        return response["result"]

    def ping(self) -> bool:
        """Liveness probe."""
        return self.request({"op": "ping"})["result"] == "pong"

    def repin(self) -> int:
        """Advance the session snapshot to the server's current ``now``."""
        self.snapshot = int(self.request({"op": "snapshot"})["result"])
        return self.snapshot

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics registry as JSON."""
        return self.request({"op": "metrics"})["result"]

    def metrics_text(self) -> str:
        """The registry in Prometheus text exposition format (same body
        the ``--metrics-port`` HTTP endpoint serves)."""
        return self.request({"op": "metrics_text"})["result"]

    def slowlog(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """Recent slow-request entries (newest first) plus the running
        total; ``limit`` caps the entries returned."""
        message: Dict[str, Any] = {"op": "slowlog"}
        if limit is not None:
            message["limit"] = limit
        return self.request(message)["result"]

    def sleep(self, seconds: float) -> str:
        """Occupy one execution slot for ``seconds`` (diagnostics)."""
        return self.request({"op": "sleep", "seconds": seconds})["result"]

    def load(self, events: Any, batch_size: int = 1024) -> Dict[str, Any]:
        """Bulk-ingest a chronologically sorted event batch.

        ``events`` is a sequence of ``(op, key, value, time)`` rows (or
        objects with those attributes); returns the merged ingest report
        dict (``buffered_events`` says how many went through a
        buffer-tree window — each shard decides from the size of its
        part).  Under the process executor the per-shard partitions load
        concurrently.
        """
        rows = [
            [e.op, e.key, getattr(e, "value", 0.0), e.time]
            if hasattr(e, "op") else list(e)
            for e in events
        ]
        return self.request({"op": "load", "events": rows,
                             "batch_size": batch_size})["result"]

    def respawn(self, shard: int) -> Dict[str, Any]:
        """Replace a dead shard worker (process executor only)."""
        return self.request({"op": "respawn", "shard": shard})["result"]

    def topology(self) -> Dict[str, Any]:
        """The cluster routing table: group spans, worker pids/liveness,
        and split/merge/failover counters (cluster backend only)."""
        return self.request({"op": "topology"})["result"]

    def split(self, gid: int, at: Optional[int] = None) -> Dict[str, Any]:
        """Split shard group ``gid`` at key ``at`` (default midpoint)."""
        message: Dict[str, Any] = {"op": "split", "gid": gid}
        if at is not None:
            message["at"] = at
        return self.request(message)["result"]

    def merge(self, gid_a: int, gid_b: int) -> Dict[str, Any]:
        """Merge two adjacent shard groups into one."""
        return self.request({"op": "merge",
                             "gids": [gid_a, gid_b]})["result"]

    def promote(self, gid: int,
                replica: Optional[int] = None) -> Dict[str, Any]:
        """Hand group ``gid``'s write role to one of its replicas."""
        message: Dict[str, Any] = {"op": "promote", "gid": gid}
        if replica is not None:
            message["replica"] = replica
        return self.request(message)["result"]

    def shutdown(self) -> str:
        """Ask the server to drain, checkpoint, and stop."""
        return self.request({"op": "shutdown"})["result"]

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Close the socket (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
