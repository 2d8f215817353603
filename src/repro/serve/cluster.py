"""Elastic cluster plane: dynamic topology over process-per-shard workers.

:class:`ClusterWarehouse` is the process router
(:class:`~repro.serve.procpool.ProcessShardedWarehouse`: same routing,
same reads, same write fencing, same worker groups) plus the three
capabilities a static shard map lacks:

* **online split/merge** — a hot key range is split by checkpointing the
  owning primary, cloning that checkpoint into a new shard directory
  (a file copy — no tree rebuild), spawning a fresh worker over the
  clone, shipping the WAL tail for the upper half of the range, and
  atomically swapping the routing table under the cluster's
  writer-preferring :class:`~repro.serve.rwlock.ReadWriteLock`.  Merge is
  the symmetric cold path: rebuild the two groups' logical update history
  from their temporal tuples, bulk-load it into a fresh worker, swap.
* **read replicas via WAL shipping** — each shard group runs N
  :mod:`~repro.serve.replica` workers that tail the primary's durable log
  and serve version-pinned reads; the group
  (:class:`~repro.serve.procpool.WorkerGroup`) fences every replica read
  with its acked-write watermark, preserving read-your-writes.
* **failover** — a dead primary (pipe EOF, kill -9) redirects reads to a
  caught-up replica while a background respawn replays the WAL; if the
  respawn fails, a replica is *promoted* to writer.  A SIGKILL of a
  primary under load is therefore invisible to clients.  The read rotation and
  the heal-and-retry write live in the group; *what healing means*
  (:meth:`ClusterWarehouse._revive`) is this module's.

Stable group ids, not positional indexes
----------------------------------------
A static table's shard ids are positions in a frozen boundary list.
A dynamic topology cannot use those: splits insert ranges and merges
remove them.  Shard groups therefore carry a **gid** — a monotonically
increasing id allocated at creation and never reused.  Routing resolves a
key to a gid against an immutable
:class:`~repro.serve.sharded.Topology` snapshot (swapped atomically under
the topology lock), and queries in flight across a swap still resolve
their gid to a live worker: a split leaves the parent group serving the
lower half with its full pre-split data (range-clipped queries mask the
rest), so stale-topology reads remain *exact* — the same
partial-persistence argument that makes scatter-gather snapshot reads
sound in :mod:`repro.serve.sharded`.

Locking discipline (deadlock-free by construction)
--------------------------------------------------
Every write path of the router (``insert``/``delete``/``update``/
``apply_shard_batch``/``load_events``) holds the topology lock **shared**
for its whole duration — routing decision through worker acknowledgement
— plus a per-group mutex ordered *after* the topology lock.  A topology swap (split/merge) takes the topology lock
**exclusive**, which alone drains and excludes all writers; it never
acquires group mutexes, so the lock order is acyclic.  The shared hold is
also the buffered-ingest drain barrier: a split cannot interleave a
``LOAD`` window, it waits for the whole batch to land.  Reads take no
locks at all — they read one volatile topology reference.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import CacheConfig
from repro.core.model import Interval, KeyRange, MAX_KEY, NOW
from repro.errors import QueryError, ShardDownError, StorageError
from repro.serve.procpool import (
    ProcessShardedWarehouse,
    ShardClient,
    ShardSpec,
    WorkerGroup,
    _PROMOTE,
    _SYNC,
)
from repro.serve.replica import ReplicaSpec, _replica_main
from repro.serve.sharded import Topology, shard_dir_name, split_evenly
from repro.storage.wal import WALCursor

#: Topology persistence file under the cluster's durable root.
TOPOLOGY_FILE = "cluster.json"


class ClusterWarehouse(ProcessShardedWarehouse):
    """The elastic process-per-shard backend.

    Requires a ``durable_dir``: replication *is* the per-shard WAL (the
    shipping channel) and splits clone checkpoints, so a memory-only
    cluster has nothing to ship or clone.  The public query/update API is
    the :class:`~repro.serve.sharded.ShardRouter` surface — answers are
    byte-identical to the other backends — plus the cluster verbs
    (:meth:`split`, :meth:`merge`, :meth:`promote`, :meth:`topology_info`)
    and the :class:`ClusterPlanner` autosplit thread.  Its groups
    self-heal: a dead primary is respawned, else a replica is promoted.

    Parameters beyond the procpool's: ``replicas`` (per group),
    ``autosplit`` (start the planner), ``split_qps`` /
    ``split_min_share`` / ``split_cooldown`` / ``max_groups`` (planner
    policy), ``planner_interval`` (tick period; the planner also respawns
    dead replicas), ``merge_qps`` (optional automerge threshold for
    adjacent cold groups; ``None`` keeps merge manual).
    """

    def __init__(self, shards: int = 4,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 page_capacity: int = 32, buffer_pages: int = 64,
                 strong_factor: float = 0.9, start_time: int = 1,
                 durable_dir: Optional[str] = None,
                 fsync: bool = False,
                 cache_config: Optional[CacheConfig] = None,
                 replicas: int = 1,
                 autosplit: bool = False,
                 split_qps: float = 64.0,
                 split_min_share: float = 0.45,
                 split_cooldown: float = 3.0,
                 max_groups: int = 16,
                 merge_qps: Optional[float] = None,
                 planner_interval: float = 0.5,
                 sync_timeout: float = 10.0,
                 start_timeout: float = 60.0) -> None:
        if durable_dir is None:
            raise ValueError(
                "ClusterWarehouse requires durable_dir: WAL shipping and "
                "checkpoint cloning need an on-disk log")
        self.replica_count = replicas
        self._sync_timeout = sync_timeout
        self.splits = 0
        self.merges = 0
        self.failovers = 0
        self.promotions = 0
        self._last_split = 0.0
        self._planner: Optional[ClusterPlanner] = None

        path = os.path.join(durable_dir, TOPOLOGY_FILE)
        if not os.path.exists(path):
            boundaries = split_evenly(key_space, shards)
            self._next_gid = shards
            plan = [(gid, lo, hi, (lo, hi), shard_dir_name(gid))
                    for gid, (lo, hi) in enumerate(
                        zip(boundaries, boundaries[1:]))]
            version = 1
        else:
            with open(path) as fh:
                layout = json.load(fh)
            key_space = tuple(layout["key_space"])
            self._next_gid = layout["next_gid"]
            plan = [(g["gid"], g["span"][0], g["span"][1],
                     tuple(g["key_space"]), g["dir"])
                    for g in layout["groups"]]
            version = layout["version"]
        self._boot(durable_dir, start_timeout, ShardSpec(
            index=-1, key_space=key_space, page_capacity=page_capacity,
            buffer_pages=buffer_pages, strong_factor=strong_factor,
            start_time=start_time, fsync=fsync, cache_config=cache_config),
            version, plan)
        try:
            self._persist_topology()
            for group in list(self._handles.values()):
                group.acked_seq = group.primary.call("wal_seq")
                self._spawn_replicas(group)
        except Exception:
            self.close()
            raise
        if autosplit or replicas > 0 or merge_qps is not None:
            self._planner = ClusterPlanner(
                self, interval=planner_interval, autosplit=autosplit,
                split_qps=split_qps, split_min_share=split_min_share,
                split_cooldown=split_cooldown, max_groups=max_groups,
                merge_qps=merge_qps)
            self._planner.start()

    # -- topology bookkeeping ----------------------------------------------------------

    def _swap_topology(self) -> None:
        """Install the next routing snapshot over the current groups and
        persist it (the caller holds the topology lock exclusive)."""
        ordered = sorted(self._handles.values(), key=lambda g: g.lo)
        self._topology = Topology(
            self._topology.version + 1,
            [(g.sid, g.lo, g.hi) for g in ordered])
        self._persist_topology()

    def _persist_topology(self) -> None:
        topo = self._topology
        payload = {
            "version": topo.version,
            "key_space": list(self.key_space),
            "next_gid": self._next_gid,
            "groups": [
                {"gid": gid, "span": [lo, hi],
                 "key_space": list(self._handles[gid].spec.key_space),
                 "dir": self._handles[gid].dirname}
                for gid, lo, hi in topo.entries
            ],
        }
        path = os.path.join(self._root, TOPOLOGY_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped by every split/merge swap."""
        return self._topology.version

    # -- replicas ----------------------------------------------------------------------

    def _spawn_replicas(self, group: WorkerGroup) -> None:
        fresh: List[ShardClient] = []
        for offset in range(self.replica_count - len(group.replicas)):
            replica = ReplicaSpec(group.spec, len(group.replicas) + offset,
                                  sync_timeout=self._sync_timeout)
            fresh.append(ShardClient(
                replica, self._ctx, main=_replica_main,
                name=f"repro-shard-{group.sid:02d}-r{replica.replica_id}"))
        for client in fresh:
            client.wait_ready(self._start_timeout)
            group.replicas.append(client)

    def ensure_replicas(self) -> int:
        """Reap dead replicas and respawn up to the configured count
        (the planner calls this every tick; tests call it directly).
        Returns the number of workers spawned."""
        spawned = 0
        for group in list(self._handles.values()):
            dead = [c for c in group.replicas if c.dead]
            for client in dead:
                client.reap(1.0)
                group.replicas.remove(client)
            before = len(group.replicas)
            self._spawn_replicas(group)
            spawned += len(group.replicas) - before
        return spawned

    # -- failover ----------------------------------------------------------------------

    def _revive(self, group: WorkerGroup,
                timeout: Optional[float] = None) -> None:
        """Make the group's primary usable again: respawn it (checkpoint +
        WAL replay restores every acked write), or — if the respawn
        fails — promote a caught-up replica to writer.  Serialized per
        group; concurrent detectors block here and find it healed."""
        with group.heal_lock:
            if not group.primary.dead:
                return
            self.failovers += 1
            try:
                group.restart(timeout or self._start_timeout)
            except Exception:
                self._promote_in_group(group)

    #: A cluster group heals itself the moment it finds its primary dead.
    _heal = _revive

    def _promote_in_group(self, group: WorkerGroup) -> None:
        """Promote the first caught-up replica to writer (heal-path; the
        caller holds ``group.heal_lock``)."""
        last_exc: Optional[BaseException] = None
        for client in list(group.replicas):
            if client.dead:
                continue
            try:
                client.call(_PROMOTE, timeout=self._sync_timeout + 30.0)
            except Exception as exc:  # noqa: BLE001 — try the next one
                last_exc = exc
                continue
            group.replicas.remove(client)
            group.adopt(client)
            self.promotions += 1
            return
        raise ShardDownError(
            f"group {group.sid}: primary is down, respawn failed, and no "
            f"replica could be promoted ({last_exc})")

    def promote(self, gid: int, replica: Optional[int] = None
                ) -> Dict[str, Any]:
        """Operator-initiated promotion: retire the current primary (if
        alive) and hand the group to one of its replicas."""
        group = self.handle(gid)
        with self._admin_lock, group.heal_lock:
            if not group.replicas:
                raise QueryError(f"group {gid} has no replicas to promote")
            candidates = [c for c in group.replicas if not c.dead]
            if replica is not None:
                candidates = [c for c in candidates
                              if c.spec.replica_id == replica]
            if not candidates:
                raise ShardDownError(
                    f"group {gid}: no live replica to promote")
            old = group.primary
            if not old.dead:
                # Drain in-flight writes, close the WAL, then hand over.
                old.request_shutdown()
                old.reap(10.0)
            chosen = candidates[0]
            payload = chosen.call(_PROMOTE,
                                  timeout=self._sync_timeout + 30.0)
            group.replicas.remove(chosen)
            group.adopt(chosen)
            self.promotions += 1
        self._spawn_replicas(group)
        return {"gid": gid, "pid": payload["pid"],
                "applied_seq": payload["applied_seq"]}

    # -- split -------------------------------------------------------------------------

    def split(self, gid: int, at: Optional[int] = None) -> Dict[str, Any]:
        """Split group ``gid``'s range at key ``at`` (default: midpoint).

        Phases: (1) checkpoint the parent primary; (2) clone that
        checkpoint — a directory copy — as the child shard's first
        checkpoint; (3) spawn the child worker over the clone; (4) ship
        the parent's WAL tail filtered to the upper half; (5) take the
        topology lock exclusive, ship the final sliver of tail (writers
        are drained, so it cannot grow under us), and swap the routing
        table: parent keeps ``[lo, at)``, child serves ``[at, hi)``.
        Bulk work happens in phases 1–4 with writers still flowing; the
        exclusive window only covers the sliver and the swap.

        The child's warehouse keeps the parent's full key space — its
        clone holds the lower half's history too, which is simply never
        queried (range-clipped routing masks it), keeping stale-topology
        reads exact during the handoff.
        """
        with self._admin_lock:
            group = self.handle(gid)
            lo, hi = group.lo, group.hi
            if hi - lo < 2:
                raise QueryError(
                    f"group {gid} spans [{lo}, {hi}) and cannot split")
            if at is None:
                at = (lo + hi) // 2
            if not lo < at < hi:
                raise QueryError(
                    f"split point {at} outside group {gid}'s open span "
                    f"({lo}, {hi})")
            if group.primary.dead:
                self._revive(group)
            group.primary.call("checkpoint")
            new_gid = self._next_gid
            self._next_gid += 1
            dirname = shard_dir_name(new_gid)
            parent_dir = group.spec.durable_dir
            covered = clone_shard_state(parent_dir,
                                        os.path.join(self._root, dirname))
            child = self._new_group(new_gid, at, hi, group.spec.key_space,
                                    dirname)
            child.primary.wait_ready(self._start_timeout)
            cursor = WALCursor(parent_dir, after_seq=covered)
            upper = KeyRange(at, hi)
            # Two bulk rounds with writers still flowing shrink the tail
            # the exclusive window has to ship.
            self._ship_tail(cursor, child.primary, upper)
            self._ship_tail(cursor, child.primary, upper)
            with self._topology_lock.write_locked():
                self._ship_tail(cursor, child.primary, upper)
                child.acked_seq = child.primary.call("wal_seq")
                group.hi = at
                self._handles[new_gid] = child
                self._swap_topology()
                self.splits += 1
                self._last_split = time.monotonic()
            self._spawn_replicas(child)
        return {"parent": gid, "child": new_gid, "at": at,
                "version": self._topology.version}

    @staticmethod
    def _ship_tail(cursor: WALCursor, child: ShardClient,
                   key_range: KeyRange) -> int:
        """Replay the parent's fresh WAL records whose keys fall in
        ``key_range`` into the child via its (logged) bulk loader.

        A key-filtered subsequence of a chronological stream is itself
        chronological, and the child's clone predates every shipped
        record, so the loader's time-order contract holds.
        """
        shipped = 0
        while True:
            records = cursor.poll()
            if not records:
                return shipped
            rows = [(e.op, e.key, e.value, e.time) for _seq, e in records
                    if key_range.low <= e.key < key_range.high]
            if rows:
                child.call("load_events", rows)
                shipped += len(rows)

    # -- merge -------------------------------------------------------------------------

    def merge(self, gid_a: int, gid_b: int) -> Dict[str, Any]:
        """Merge two *adjacent* groups into a fresh one (the cold path).

        Under the exclusive topology lock (writers drained): reconstruct
        both groups' logical update histories from their temporal tuples
        — each tuple ``(k, [s, e), v)`` becomes ``insert@s`` (+
        ``delete@e`` when closed) — interleave them in time order with
        deletes before inserts at equal instants (1TNF-safe), bulk-load
        into a brand-new worker, and swap both groups out for the merged
        one.  Logical content determines every answer, so the merged
        group answers identically; physical page images differ (it is a
        freshly built tree).
        """
        with self._admin_lock:
            a, b = self.handle(gid_a), self.handle(gid_b)
            if a.lo > b.lo:
                a, b = b, a
            if a.hi != b.lo:
                raise QueryError(
                    f"groups {a.sid} [{a.lo},{a.hi}) and {b.sid} "
                    f"[{b.lo},{b.hi}) are not adjacent")
            with self._topology_lock.write_locked():
                for group in (a, b):
                    if group.primary.dead:
                        self._revive(group)
                history = (self._logical_history(a)
                           + self._logical_history(b))
                history.sort(key=lambda row: (row[3], row[0] != "delete",
                                              row[1]))
                new_gid = self._next_gid
                self._next_gid += 1
                a_ks, b_ks = a.spec.key_space, b.spec.key_space
                merged = self._new_group(
                    new_gid, a.lo, b.hi,
                    (min(a_ks[0], b_ks[0]), max(a_ks[1], b_ks[1])),
                    shard_dir_name(new_gid))
                merged.primary.wait_ready(self._start_timeout)
                if history:
                    merged.primary.call("load_events", history)
                merged.acked_seq = merged.primary.call("wal_seq")
                del self._handles[a.sid]
                del self._handles[b.sid]
                self._handles[new_gid] = merged
                self._swap_topology()
                self.merges += 1
                for group in (a, b):
                    for client in [group.primary] + group.replicas:
                        client.request_shutdown()
            self._spawn_replicas(merged)
        return {"merged": [a.sid, b.sid], "gid": new_gid,
                "version": self._topology.version}

    @staticmethod
    def _logical_history(group: WorkerGroup
                         ) -> List[Tuple[str, int, float, int]]:
        horizon = max(group.primary.last_now + 1, 2)
        tuples = group.primary.call(
            "tuples_in", KeyRange(group.lo, group.hi),
            Interval(1, horizon))
        events: List[Tuple[str, int, float, int]] = []
        for row in tuples:
            start, end = row.interval.start, row.interval.end
            events.append(("insert", row.key, row.value, start))
            if end != NOW and end > start:
                events.append(("delete", row.key, row.value, end))
        return events

    # -- observability -----------------------------------------------------------------

    def topology_info(self) -> Dict[str, Any]:
        """The routing table plus per-group worker liveness — the wire
        payload of the ``topology`` protocol op."""
        topo = self._topology
        groups = []
        for gid, lo, hi in topo.entries:
            group = self._handles[gid]
            groups.append({
                "gid": gid, "span": [lo, hi], "dir": group.dirname,
                "acked_seq": group.acked_seq,
                "primary": {"pid": group.primary.pid,
                            "alive": not group.primary.dead},
                "replicas": [
                    {"replica": c.spec.replica_id, "pid": c.pid,
                     "alive": not c.dead}
                    for c in group.replicas
                ],
            })
        return {"version": topo.version,
                "key_space": list(self.key_space),
                "groups": groups,
                "counters": {"splits": self.splits, "merges": self.merges,
                             "failovers": self.failovers,
                             "promotions": self.promotions}}

    def publish_metrics(self, registry) -> None:
        """The groups' rows plus the topology plane:
        split/merge/failover/promotion counters, the topology version,
        and the current group count."""
        super().publish_metrics(registry)
        topo = self._topology
        for name in ("splits", "merges", "failovers", "promotions"):
            registry.gauge(f"repro_cluster_{name}",
                           f"cluster lifetime {name}",
                           {}).set(getattr(self, name))
        registry.gauge(
            "repro_cluster_topology_version",
            "monotonic topology version (bumped per split/merge)",
            {}).set(topo.version)
        registry.gauge("repro_cluster_groups", "current shard group count",
                       {}).set(len(topo.entries))

    # -- probes (tests and the bench's byte-identical check) ---------------------------

    def sync_replicas(self, gid: int,
                      timeout: Optional[float] = None) -> List[int]:
        """Block until every live replica of ``gid`` has applied the
        primary's full log; returns their applied sequences."""
        group = self.handle(gid)
        target = group.primary.call("wal_seq")
        return [c.call(_SYNC, target,
                       timeout if timeout is not None
                       else self._sync_timeout)
                for c in group.replicas if not c.dead]

    def replica_probe(self, gid: int, replica: int, method: str,
                      *args: Any) -> Any:
        """Serve ``method`` from one specific replica, fenced at the
        group's acked watermark."""
        group = self.handle(gid)
        for client in group.replicas:
            if client.spec.replica_id == replica and not client.dead:
                return group._rpc(client, method, group._wire(args),
                                  group.acked_seq)
        raise ShardDownError(f"group {gid} has no live replica {replica}")

    def primary_probe(self, gid: int, method: str, *args: Any) -> Any:
        """Serve ``method`` from the group's primary, bypassing the
        round-robin read rotation."""
        group = self.handle(gid)
        return group._rpc(group.primary, method, group._wire(args))

    def close(self) -> None:
        """Stop the planner, then every worker (idempotent)."""
        if self._planner is not None:
            self._planner.stop()
        super().close()


class ClusterPlanner(threading.Thread):
    """The autosplit/maintenance daemon.

    Every ``interval`` seconds it scrapes the per-group stats rows,
    respawns dead replicas, and — when autosplit is on — splits the
    hottest group once it clears the rate threshold *and* carries at
    least ``split_min_share`` of the cluster's request rate (a uniformly
    busy cluster gains nothing from splitting).  With ``merge_qps`` set,
    two adjacent groups both colder than it are merged.  Ticks never
    propagate exceptions: planning is advisory, serving is not.
    """

    def __init__(self, owner: ClusterWarehouse, interval: float,
                 autosplit: bool, split_qps: float,
                 split_min_share: float, split_cooldown: float,
                 max_groups: int, merge_qps: Optional[float]) -> None:
        super().__init__(daemon=True, name="repro-cluster-planner")
        self.owner = owner
        self.interval = interval
        self.autosplit = autosplit
        self.split_qps = split_qps
        self.split_min_share = split_min_share
        self.split_cooldown = split_cooldown
        self.max_groups = max_groups
        self.merge_qps = merge_qps
        self._halt = threading.Event()

    def stop(self) -> None:
        """Halt the planner loop and join the thread."""
        self._halt.set()
        self.join(timeout=10.0)

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 — advisory thread
                continue

    def tick(self) -> None:
        """One planner round: respawn dead replicas, scrape worker
        stats, and fire an autosplit/automerge if a group qualifies."""
        owner = self.owner
        if owner.closed:
            return
        owner.ensure_replicas()
        rows = owner.worker_stats()
        if not self.autosplit and self.merge_qps is None:
            return
        primaries = [r for r in rows
                     if r.get("role") == "primary" and r.get("alive")]
        if not primaries:
            return
        total_qps = sum(r["qps"] for r in primaries)
        cooled = (time.monotonic() - owner._last_split
                  >= self.split_cooldown)
        if self.autosplit and cooled:
            hot = max(primaries, key=lambda r: r["qps"])
            share = hot["qps"] / total_qps if total_qps > 0 else 0.0
            group = owner._handles.get(hot["shard"])
            if (group is not None
                    and hot["qps"] >= self.split_qps
                    and share >= self.split_min_share
                    and len(primaries) < self.max_groups
                    and group.hi - group.lo >= 2):
                owner.split(group.sid)
                return
        if self.merge_qps is not None and cooled and len(primaries) > 1:
            by_gid = {r["shard"]: r for r in primaries}
            entries = owner._topology.entries
            for (gid_a, _l1, _h1), (gid_b, _l2, _h2) in zip(
                    entries, entries[1:]):
                ra, rb = by_gid.get(gid_a), by_gid.get(gid_b)
                if (ra is not None and rb is not None
                        and ra["qps"] <= self.merge_qps
                        and rb["qps"] <= self.merge_qps):
                    owner.merge(gid_a, gid_b)
                    owner._last_split = time.monotonic()
                    return


def clone_shard_state(src_dir: str, dst_dir: str) -> int:
    """Copy ``src_dir``'s current checkpoint as ``dst_dir``'s first one.

    The checkpoint directory is an immutable self-contained snapshot
    (both trees' pages plus the covered-WAL-sequence metadata), so a
    plain file copy is a consistent clone — no tree traversal, no page
    decoding.  The clone's metadata is rewritten to cover sequence 0 of
    the *child's own* (empty) log: the child starts a fresh WAL lineage,
    and the parent's tail is shipped to it explicitly by the split.

    Returns the parent WAL sequence the clone covers.  The caller must
    hold the cluster admin lock so the parent cannot checkpoint again
    (and garbage-collect ``src``'s checkpoint) mid-copy.
    """
    from repro.core.warehouse import TemporalWarehouse

    ckpt_dir, covered = TemporalWarehouse.current_checkpoint(src_dir)
    if ckpt_dir is None:
        raise StorageError(
            f"cannot clone {src_dir}: no checkpoint (checkpoint the "
            "primary first)")
    name = f"ckpt-{0:020d}"
    target = os.path.join(dst_dir, "checkpoints", name)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copytree(ckpt_dir, target)
    meta = os.path.join(target, TemporalWarehouse._CKPT_META_FILE)
    with open(meta, "w") as fh:
        json.dump({"wal_last_seq": 0}, fh)
    current = os.path.join(dst_dir, TemporalWarehouse._CURRENT_FILE)
    tmp = current + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(name + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, current)
    return covered
