"""WAL-shipped read replicas: apply the primary's log, serve pinned reads.

Each cluster shard group owns one primary worker plus N replica workers.
Replication is *log shipping through the shared filesystem*: the primary
already writes every acknowledged update to its per-shard WAL before
acking (PR 3's durability contract), so a replica needs no new channel —
it tails the primary's log file with a
:class:`~repro.storage.wal.WALCursor` and applies each record to its own
in-memory copy of the warehouse.  The transport being the durable log
itself is what makes failover sound: anything a client was ever told is
durable is, by construction, visible to a replica that finishes draining
the file — even after the primary is SIGKILLed.

Why replica reads are exact
---------------------------
The MVSBT/MVBT are partially persistent: a version-pinned read at or
below a warehouse's clock touches only closed, immutable versions (the
core property of the source paper).  A replica that has applied the log
through sequence ``s`` is therefore *byte-identical* to the primary as
observed by any query pinned at or below the clock reached at ``s`` —
replay determinism is the same argument PR 3 used for crash recovery.
Read-your-writes is preserved by the router: every group read carries the
group's acked-write watermark (``min_seq``), and the replica blocks until
its applied sequence reaches it (or fails fast with ``REPLICA_LAG`` so
the router falls back to the primary).

Surviving checkpoint truncation
-------------------------------
The primary periodically checkpoints and truncates its WAL.  A caught-up
replica just sees the file shrink and keeps tailing.  A *lagging* replica
may lose records it never saw — the cursor detects the sequence gap (or
the stall is detected against the checkpoint's covered sequence) and the
applier **rebases**: it reloads the primary's current checkpoint (which
covers every truncated record) and resumes tailing from there.

Promotion
---------
When the primary dies and cannot be respawned, a replica is promoted:
it drains the log to the end, attaches the primary's WAL/checkpoint
directory as *writer* (continuing the unbroken sequence numbering), and
from then on serves the full warehouse method surface including writes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import (
    QueryError,
    ReplicaLagError,
    ReproError,
    WALTruncatedError,
    error_payload,
)
from repro.serve.procpool import (
    REPLICA_READS,
    ShardSpec,
    _PROMOTE,
    _READ_METHODS,
    _REGISTRY,
    _REPLICA_READ,
    _SHUTDOWN,
    _STATS,
    _SYNC,
    _TRACED,
    _build_warehouse,
    _recv_request,
    _respond,
    _serve_one,
    _serve_registry,
    _serve_traced,
)
from repro.storage.wal import WALCursor


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica worker needs to shadow one primary: the
    primary's own :class:`~repro.serve.procpool.ShardSpec` — so a
    promoted replica builds the same structures the primary would, and
    its ``durable_dir`` is the directory whose checkpoint + WAL the
    replica ships from — plus which replica this is.
    """

    primary: ShardSpec
    replica_id: int
    poll_interval: float = 0.02
    sync_timeout: float = 10.0

    @property
    def index(self) -> int:
        """The group id — what :class:`~repro.serve.procpool.ShardClient`
        labels errors and process names with, for primaries and replicas
        alike."""
        return self.primary.index


class ReplicaApplier:
    """Checkpoint-load + WAL-tail state machine for one replica.

    Owns the replica's warehouse copy and the shipping cursor.  Not
    thread-safe — it lives inside the single-threaded replica worker.
    """

    def __init__(self, spec: ReplicaSpec) -> None:
        self.spec = spec
        self.primary_dir = spec.primary.durable_dir
        self.warehouse = None
        #: Highest primary WAL sequence applied to :attr:`warehouse`.
        self.applied_seq = 0
        self._cursor: Optional[WALCursor] = None
        self._rebase()

    # -- checkpoint rebase -------------------------------------------------------------

    def _rebase(self) -> None:
        """(Re)load the primary's current checkpoint and aim the cursor
        at its covered sequence.

        Retries a few times because checkpoint garbage collection on the
        primary can race the load: ``CURRENT`` may repoint (and the old
        directory vanish) between resolving and reading it — the retry
        simply picks up the newer checkpoint.
        """
        from repro.core.warehouse import TemporalWarehouse

        last_exc: Optional[BaseException] = None
        for _ in range(5):
            ckpt_dir, covered = TemporalWarehouse.current_checkpoint(
                self.primary_dir)
            try:
                if ckpt_dir is None:
                    # The primary's shape, in memory and cache-less.
                    warehouse = _build_warehouse(replace(
                        self.spec.primary, durable_dir=None,
                        cache_config=None))
                else:
                    warehouse = TemporalWarehouse.load(
                        ckpt_dir, self.spec.primary.buffer_pages)
            except (ReproError, OSError, ValueError) as exc:
                last_exc = exc
                time.sleep(0.01)
                continue
            self.warehouse = warehouse
            self.applied_seq = covered
            if self._cursor is None:
                self._cursor = WALCursor(self.primary_dir,
                                         after_seq=covered)
            else:
                self._cursor.rebase(covered)
            return
        raise WALTruncatedError(
            f"replica rebase failed against {self.primary_dir}: "
            f"{last_exc}")

    # -- log application ---------------------------------------------------------------

    def catch_up(self, min_seq: Optional[int] = None,
                 timeout: float = 5.0,
                 poll_interval: float = 0.01) -> int:
        """Apply newly shipped records; optionally wait for ``min_seq``.

        With ``min_seq=None`` this drains whatever is in the file and
        returns.  With a target, it polls until the applied sequence
        reaches it, rebasing from the primary's checkpoint if the needed
        records were truncated away, and raises
        :exc:`~repro.errors.ReplicaLagError` on timeout.
        Returns the applied sequence.
        """
        from repro.core.warehouse import TemporalWarehouse

        deadline = time.monotonic() + timeout
        while True:
            try:
                records = self._cursor.poll()
            except WALTruncatedError:
                self._rebase()
                continue
            if records:
                # A load like any other: the replica warehouse picks the
                # ingest path from what the poll shipped.  It has no WAL
                # attached, so nothing is re-logged; write_epoch bumps
                # keep its read caches honest.
                self.warehouse.load_events([e for _seq, e in records])
                self.applied_seq = records[-1][0]
                continue  # drain until the file is quiet
            if min_seq is None or self.applied_seq >= min_seq:
                return self.applied_seq
            # Stalled short of the target: the records may have been
            # checkpointed + truncated away before this cursor saw them.
            _, covered = TemporalWarehouse.current_checkpoint(
                self.primary_dir)
            if covered > self.applied_seq:
                self._rebase()
                continue
            if time.monotonic() >= deadline:
                raise ReplicaLagError(
                    f"replica of group {self.spec.index} is at seq "
                    f"{self.applied_seq}, needs {min_seq} "
                    f"(waited {timeout:.1f}s)")
            time.sleep(poll_interval)

    # -- promotion ---------------------------------------------------------------------

    def promote(self) -> int:
        """Drain the log to its end and take over as the durable writer.

        Complete lines in the log are a superset of everything ever
        acknowledged (the primary acked only after the buffered line
        write returned), so draining to EOF loses nothing a client was
        promised.  A torn final line was never acknowledged; attaching
        the WAL trims it before the first promoted append.
        """
        self.catch_up(min_seq=None, timeout=5.0)
        self.warehouse.attach_wal(self.primary_dir,
                                  fsync=self.spec.primary.fsync,
                                  last_seq=self.applied_seq)
        return self.applied_seq


def _replica_main(conn, spec: ReplicaSpec) -> None:
    """Replica worker entry point (importable, for the spawn context).

    Same hello/request framing as
    :func:`~repro.serve.procpool._worker_main`.  Between requests the
    worker opportunistically drains the shipped log, so replicas track
    the primary even when nobody reads from them.  Verbs:

    * ``__replica_read__ (method, args, min_seq)`` — catch up to at
      least ``min_seq`` (read-your-writes fencing), then serve the read
      (a sampled request's read arrives wrapped in ``__traced__`` and
      ships its ``worker.<method>`` span record back, as on a primary);
    * ``__sync__ (min_seq, timeout)`` — catch up and report the applied
      sequence (tests and the planner's lag gauge);
    * ``__promote__`` — drain to EOF, attach the WAL as writer; from
      then on the worker serves the full method surface like a primary.
    """
    try:
        applier = ReplicaApplier(spec)
    except BaseException as exc:  # noqa: BLE001 — shipped to the parent
        try:
            conn.send(("fail", error_payload(exc)))
        finally:
            conn.close()
        return
    conn.send(("hello", os.getpid(), applier.warehouse.now))
    stats = {"requests": 0, "reads": 0, "writes": 0, "errors": 0,
             "load_bytes": 0}
    promoted = False
    running = True
    while running:
        try:
            has_request = conn.poll(spec.poll_interval)
        except (EOFError, OSError):
            break
        if not has_request:
            if not promoted:
                try:
                    applier.catch_up(timeout=0.0)
                except ReproError:
                    pass  # mid-checkpoint flutter; next idle pass retries
            continue
        try:
            rid, method, args = _recv_request(conn)
        except (EOFError, OSError):
            break
        stats["requests"] += 1
        warehouse = applier.warehouse
        if method == _SHUTDOWN:
            warehouse.close()
            _respond(conn, rid, True, "closed", warehouse.now)
            running = False
        elif method == _STATS:
            payload = dict(stats, pid=os.getpid(), now=warehouse.now,
                           shard=spec.index, replica=spec.replica_id,
                           applied_seq=applier.applied_seq,
                           promoted=promoted,
                           wal_seq=warehouse.wal_seq())
            _respond(conn, rid, True, payload, warehouse.now)
        elif method == _SYNC:
            min_seq, timeout = (tuple(args) + (None, None))[:2]
            try:
                seq = applier.catch_up(
                    min_seq=min_seq,
                    timeout=spec.sync_timeout if timeout is None
                    else timeout)
            except ReproError as exc:
                stats["errors"] += 1
                _respond(conn, rid, False, error_payload(exc),
                         applier.warehouse.now)
                continue
            _respond(conn, rid, True, seq, applier.warehouse.now)
        elif method == _PROMOTE:
            try:
                seq = applier.promote()
            except BaseException as exc:  # noqa: BLE001 — to the parent
                stats["errors"] += 1
                _respond(conn, rid, False, error_payload(exc),
                         applier.warehouse.now)
                continue
            promoted = True
            _respond(conn, rid, True,
                     {"applied_seq": seq, "pid": os.getpid()},
                     applier.warehouse.now)
        elif promoted:
            # Full primary surface after promotion.
            if method == _REGISTRY:
                _serve_registry(conn, warehouse, rid, stats)
            elif method == _TRACED:
                _serve_traced(conn, warehouse, rid, args, stats, spec.index)
            else:
                read = method in _READ_METHODS
                stats["reads" if read else "writes"] += 1
                if method == "load_events_packed" and args:
                    stats["load_bytes"] += len(args[0])
                _serve_one(conn, warehouse, rid, method, args, stats)
        elif method == _REPLICA_READ:
            inner_method, inner_args, min_seq = args
            try:
                applier.catch_up(min_seq=min_seq,
                                 timeout=spec.sync_timeout)
            except ReproError as exc:
                stats["errors"] += 1
                _respond(conn, rid, False, error_payload(exc),
                         applier.warehouse.now)
                continue
            traced = inner_method == _TRACED
            served = inner_args[0] if traced else inner_method
            if served not in REPLICA_READS:
                stats["errors"] += 1
                _respond(conn, rid, False, error_payload(QueryError(
                    f"replica does not serve {served!r}")),
                    applier.warehouse.now)
            elif traced:
                _serve_traced(conn, applier.warehouse, rid, inner_args,
                              stats, spec.index)
            else:
                stats["reads"] += 1
                _serve_one(conn, applier.warehouse, rid, inner_method,
                           inner_args, stats)
        elif method in REPLICA_READS:
            # Unfenced read (tests, ad-hoc inspection): serve whatever
            # version the replica has applied so far.
            stats["reads"] += 1
            _serve_one(conn, warehouse, rid, method, args, stats)
        else:
            stats["errors"] += 1
            _respond(conn, rid, False, error_payload(QueryError(
                f"replica of group {spec.index} is read-only; "
                f"{method!r} must go to the primary")), warehouse.now)
    conn.close()
