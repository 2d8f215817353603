"""Router failover: kill -9 a primary, keep serving, heal, promote.

The contract: with at least one caught-up replica per group, a SIGKILL'd
primary is invisible to readers — reads redirect to the replica while a
background respawn replays the WAL; writes block briefly on the heal and
then land.  Without replicas the same kill surfaces as the typed
``SHARD_DOWN`` on a non-durable process backend (the procpool's
behavior, ``tests/serve/test_procpool_crash.py``), and a durable one
heals by respawn.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.model import Interval, KeyRange
from repro.serve.cluster import ClusterWarehouse

KEYS = 60


def _seed(warehouse):
    events = [("insert", key, float(key), 1 + key % 5)
              for key in range(1, KEYS + 1)]
    events.sort(key=lambda e: e[3])
    warehouse.load_events(events)


def _wait(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


class TestPrimaryFailover:
    def test_reads_survive_sigkill_and_writes_land_after_heal(
            self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, KEYS + 1), durable_dir=str(tmp_path),
            replicas=1, planner_interval=0.2)
        try:
            _seed(warehouse)
            warehouse.sync_replicas(0)
            interval = Interval(1, warehouse.now + 1)
            whole = KeyRange(1, KEYS + 1)
            baseline = repr(warehouse.sum(whole, interval))

            os.kill(warehouse.shard_pid(0), signal.SIGKILL)
            _wait(lambda: not warehouse.shard_alive(0),
                  message="pipe EOF detection")

            # reads keep answering through the replica, exactly
            for _ in range(5):
                assert repr(warehouse.sum(whole, interval)) == baseline

            # the write blocks on the heal (respawn + WAL replay), then
            # applies to a state containing every acked write: deleting
            # a seeded key only succeeds if replay restored it alive
            t = warehouse.now + 1
            assert warehouse.delete(KEYS, t) == float(KEYS)
            assert warehouse.failovers == 1
            assert warehouse.shard_alive(0)
        finally:
            warehouse.close()

    def test_promotion_when_respawn_is_impossible(self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, KEYS + 1), durable_dir=str(tmp_path),
            replicas=1, planner_interval=0.2)
        try:
            _seed(warehouse)
            warehouse.sync_replicas(0)
            interval = Interval(1, warehouse.now + 1)
            whole = KeyRange(1, KEYS + 1)
            baseline = repr(warehouse.sum(whole, interval))

            result = warehouse.promote(0)
            assert result["gid"] == 0
            assert warehouse.promotions == 1
            # the promoted replica is now the group's writer
            assert repr(warehouse.sum(whole, interval)) == baseline
            t = warehouse.now + 1
            assert warehouse.delete(1, t) == 1.0
            # at the instant after the delete, key 1 is no longer alive
            total = sum(range(1, KEYS + 1))
            assert warehouse.sum(whole, Interval(t, t + 1)) == \
                float(total - 1)
            # the planner (or ensure_replicas) backfills the replica slot
            _wait(lambda: len(warehouse.handle(0).replicas) == 1,
                  message="replica backfill after promotion")
        finally:
            warehouse.close()

    def test_sigkill_without_replicas_heals_by_respawn(self, tmp_path):
        """No replica to redirect to: the read blocks on the synchronous
        heal path and still answers (durable respawn), counting one
        failover."""
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, KEYS + 1), durable_dir=str(tmp_path),
            replicas=0)
        try:
            _seed(warehouse)
            interval = Interval(1, warehouse.now + 1)
            whole = KeyRange(1, KEYS + 1)
            baseline = repr(warehouse.sum(whole, interval))
            os.kill(warehouse.shard_pid(0), signal.SIGKILL)
            _wait(lambda: not warehouse.shard_alive(0),
                  message="pipe EOF detection")
            assert repr(warehouse.sum(whole, interval)) == baseline
            assert warehouse.failovers == 1
        finally:
            warehouse.close()
