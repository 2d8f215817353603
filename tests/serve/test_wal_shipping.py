"""WAL shipping edges: cursor semantics, truncation rebase, replica death.

The replication channel is a read-only tail cursor over the primary's
log file.  Its hard cases — a torn final line, a checkpoint truncating
the file under the reader, a sequence gap proving records were lost —
are unit-tested directly on :class:`~repro.storage.wal.WALCursor`, then
end-to-end through a live replica (catch-up across a checkpoint
truncation; kill -9 of the replica mid-apply with planner respawn).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.model import Interval, KeyRange
from repro.errors import WALTruncatedError
from repro.serve.cluster import ClusterWarehouse
from repro.storage.wal import WALCursor, WriteAheadLog


class TestWALCursor:
    def test_tails_complete_records_and_buffers_torn_lines(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        cursor = WALCursor(str(tmp_path))
        log.append("insert", 1, 1.0, 1)
        log.append("insert", 2, 2.0, 2)
        records = cursor.poll()
        assert [(seq, e.key) for seq, e in records] == [(1, 1), (2, 2)]
        assert cursor.poll() == []

        # a torn tail (no newline) is buffered, not consumed
        with open(log.path, "a") as fh:
            fh.write("3,insert,3,3.0")
        assert cursor.poll() == []
        with open(log.path, "a") as fh:
            fh.write(",3\n")
        assert [(s, e.key) for s, e in cursor.poll()] == [(3, 3)]

    def test_truncation_restart_deduplicates_by_seq(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        cursor = WALCursor(str(tmp_path))
        log.append("insert", 1, 1.0, 1)
        assert len(cursor.poll()) == 1
        # checkpoint owner truncates; numbering continues from 1
        log.truncate()
        log.bump_seq(1)
        log.append("insert", 2, 2.0, 2)
        # file shrank below the cursor's offset -> restart at byte 0;
        # the fresh record is exactly seq+1, so nothing was lost
        assert [(s, e.key) for s, e in cursor.poll()] == [(2, 2)]

    def test_gap_after_truncation_raises_for_rebase(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        cursor = WALCursor(str(tmp_path))
        log.append("insert", 1, 1.0, 1)
        assert len(cursor.poll()) == 1
        log.truncate()
        log.bump_seq(5)  # records 2..5 were checkpointed away unseen
        log.append("insert", 9, 9.0, 9)
        with pytest.raises(WALTruncatedError):
            cursor.poll()
        # rebase to the covered seq heals the cursor
        cursor.rebase(5)
        assert [(s, e.key) for s, e in cursor.poll()] == [(6, 9)]

    def test_owner_trims_torn_tail_before_appending(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        log.append("insert", 1, 1.0, 1)
        log.close()
        # simulate a crash mid-append: a torn fragment with no newline
        with open(os.path.join(str(tmp_path), "updates.wal"), "a") as fh:
            fh.write("2,insert,2")
        reopened = WriteAheadLog(str(tmp_path))
        reopened.append("insert", 3, 3.0, 3)
        # without the trim, record 3 would glue onto the fragment and
        # every replay would stop at the merged garbage line
        events = [(s, e.key) for s, e in reopened.replay_with_seq()]
        assert events == [(1, 1), (2, 3)]
        reopened.close()


KEYS = 40


def _seed(warehouse, n=KEYS, t0=1):
    events = [("insert", key, float(key), t0 + key % 3)
              for key in range(1, n + 1)]
    events.sort(key=lambda e: e[3])
    warehouse.load_events(events)


class TestReplicaShipping:
    def test_catch_up_across_checkpoint_truncation(self, tmp_path):
        """The replica's cursor is invalidated by the primary's
        checkpoint (truncate + gap); it must rebase from the checkpoint
        and still converge to byte-identical answers."""
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, 1001), durable_dir=str(tmp_path),
            replicas=1)
        try:
            _seed(warehouse)
            warehouse.sync_replicas(0)

            # checkpoint truncates the WAL the replica was tailing
            warehouse.checkpoint()
            t = warehouse.now + 1
            for key in range(KEYS + 1, KEYS + 21):
                warehouse.insert(key, float(key), t)
            warehouse.sync_replicas(0)

            interval = Interval(1, t + 1)
            whole = KeyRange(1, 1001)
            primary = warehouse.primary_probe(0, "sum", whole, interval)
            replica = warehouse.replica_probe(0, 0, "sum", whole,
                                              interval)
            assert repr(primary) == repr(replica)
        finally:
            warehouse.close()

    def test_replica_kill9_mid_apply_is_respawned(self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, 1001), durable_dir=str(tmp_path),
            replicas=1, planner_interval=0.2)
        try:
            _seed(warehouse)
            group = warehouse.handle(0)
            victim = group.replicas[0]
            # kill while a stream of writes keeps the applier busy
            t = warehouse.now + 1
            for key in range(KEYS + 1, KEYS + 11):
                warehouse.insert(key, 1.0, t)
            os.kill(victim.pid, signal.SIGKILL)
            for key in range(KEYS + 11, KEYS + 21):
                warehouse.insert(key, 1.0, t)

            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                replicas = warehouse.handle(0).replicas
                if replicas and not replicas[0].dead \
                        and replicas[0] is not victim:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("planner did not respawn the dead replica")

            # the fresh replica rebuilds from checkpoint + WAL and serves
            # fenced reads identical to the primary
            warehouse.sync_replicas(0)
            interval = Interval(1, t + 1)
            whole = KeyRange(1, 1001)
            assert repr(warehouse.replica_probe(0, 0, "sum", whole,
                                                interval)) == \
                repr(warehouse.primary_probe(0, "sum", whole, interval))
        finally:
            warehouse.close()
