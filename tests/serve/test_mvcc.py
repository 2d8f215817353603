"""Epoch-validated readers, seqlock brackets, batch apply, deferred
cache stores — the MVCC read/write path in isolation."""

import threading

import pytest

from repro.core.cache import (CacheConfig, begin_deferred_stores,
                              commit_deferred_stores,
                              discard_deferred_stores)
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import DuplicateKeyError, QueryError
from repro.serve.mvcc import MVCCStats, ShardEpoch
from repro.serve.sharded import ShardedWarehouse

KEYS = 120
KEY_SPACE = (1, KEYS + 1)


def _loaded(thread_safe=True, shards=2):
    warehouse = ShardedWarehouse(shards=shards, key_space=KEY_SPACE,
                                 thread_safe=thread_safe)
    for key in range(1, KEYS + 1):
        warehouse.insert(key, float(key), key)  # monotonic clock
    return warehouse


class TestShardEpoch:
    def test_write_bracket_toggles_parity(self):
        epoch = ShardEpoch()
        assert epoch.value == 0
        epoch.begin_write()
        assert epoch.value % 2 == 1
        epoch.end_write()
        assert epoch.value == 2

    def test_validate_rejects_odd_entry_and_movement(self):
        epoch = ShardEpoch()
        started = epoch.read_begin()
        assert epoch.read_validate(started)
        epoch.begin_write()
        # Entered before the write began, write landed under the read.
        assert not epoch.read_validate(started)
        mid = epoch.read_begin()
        assert mid % 2 == 1
        assert not epoch.read_validate(mid)
        epoch.end_write()
        clean = epoch.read_begin()
        assert epoch.read_validate(clean)


class TestMVCCStats:
    def test_counters_accumulate(self):
        stats = MVCCStats()
        stats.note_optimistic()
        stats.note_retry()
        stats.note_retry()
        stats.note_fallback()
        assert stats.as_dict() == {"optimistic": 1, "retries": 2,
                                   "fallbacks": 1}


class TestOptimisticReads:
    def test_mvcc_requires_thread_safe(self):
        # The unlocked (library) router never enters the protocol: no
        # seqlock brackets on writes, no optimistic accounting on reads.
        warehouse = _loaded(thread_safe=False)
        warehouse.sum(KeyRange(*KEY_SPACE), Interval(1, warehouse.now + 1))
        assert warehouse.mvcc_stats.as_dict() == {
            "optimistic": 0, "retries": 0, "fallbacks": 0}
        assert all(warehouse.handle(sid).epoch.value == 0
                   for sid in warehouse.shard_ids())

    def test_reads_match_unlocked_router_and_stay_lock_free(self):
        mvcc = _loaded()
        locked = _loaded(thread_safe=False)  # the single-threaded reference
        whole, interval = KeyRange(*KEY_SPACE), Interval(1, mvcc.now + 1)
        assert repr(mvcc.sum(whole, interval)) == \
            repr(locked.sum(whole, interval))
        assert repr(mvcc.snapshot(whole, mvcc.now)) == \
            repr(locked.snapshot(whole, locked.now))
        stats = mvcc.mvcc_stats.as_dict()
        assert stats["optimistic"] > 0
        assert stats["fallbacks"] == 0

    def test_deterministic_error_is_raised_not_retried(self):
        warehouse = _loaded()
        before = warehouse.mvcc_stats.as_dict()
        with pytest.raises(QueryError):
            warehouse.sum(KeyRange(*KEY_SPACE), Interval(5, 2))
        after = warehouse.mvcc_stats.as_dict()
        assert after["retries"] == before["retries"]
        assert after["fallbacks"] == before["fallbacks"]

    def test_concurrent_reads_under_writes_are_consistent(self):
        warehouse = _loaded()
        whole = KeyRange(*KEY_SPACE)
        base_now = warehouse.now
        stop = threading.Event()
        failures = []

        def churn():
            t = base_now + 1
            key = 1
            while not stop.is_set():
                warehouse.update(key, 1000.0, t)
                key = key % KEYS + 1
                t += 1

        def read():
            # Version-pinned reads below base_now touch only closed
            # history: every validated answer must equal the idle one.
            expected = repr(warehouse.sum(whole, Interval(1, base_now + 1)))
            for _ in range(300):
                got = repr(warehouse.sum(whole, Interval(1, base_now + 1)))
                if got != expected:
                    failures.append((expected, got))
                    return

        writer = threading.Thread(target=churn, daemon=True)
        readers = [threading.Thread(target=read) for _ in range(3)]
        writer.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        writer.join()
        assert not failures, f"torn read escaped validation: {failures[0]}"
        assert warehouse.mvcc_stats.as_dict()["optimistic"] > 0

    def test_fallback_counts_when_budget_exhausted(self):
        warehouse = _loaded()
        shard = warehouse.shard_index(1)
        warehouse.handle(shard).read_retries = 0
        epoch = warehouse.handle(shard).epoch
        epoch.begin_write()  # simulate a stuck writer mid-bracket
        try:
            # Reader can't validate, budget is zero -> read-lock path
            # (the writer holds only the epoch, not the lock, so the
            # fallback read completes).
            lo, hi = warehouse.boundaries[shard], \
                warehouse.boundaries[shard + 1]
            warehouse.sum(KeyRange(lo, hi), Interval(1, warehouse.now + 1))
        finally:
            epoch.end_write()
        assert warehouse.mvcc_stats.as_dict()["fallbacks"] == 1


class TestDeferredCacheStores:
    def test_stores_park_until_commit(self):
        warehouse = TemporalWarehouse(key_space=KEY_SPACE)
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, 2.0, 2)
        warehouse.enable_cache(CacheConfig(), thread_safe=True)
        whole, interval = KeyRange(*KEY_SPACE), Interval(1, 3)
        begin_deferred_stores()
        warehouse.sum(whole, interval)
        assert len(warehouse.result_cache) == 0
        commit_deferred_stores()
        assert len(warehouse.result_cache) > 0

    def test_discard_drops_parked_stores(self):
        warehouse = TemporalWarehouse(key_space=KEY_SPACE)
        warehouse.insert(1, 1.0, 1)
        warehouse.enable_cache(CacheConfig(), thread_safe=True)
        begin_deferred_stores()
        warehouse.sum(KeyRange(*KEY_SPACE), Interval(1, 2))
        discard_deferred_stores()
        commit_deferred_stores()  # no-op: nothing pending
        assert len(warehouse.result_cache) == 0


class TestApplyBatch:
    def test_batch_matches_serial_and_bumps_epoch_once(self):
        serial = TemporalWarehouse(key_space=KEY_SPACE)
        batched = TemporalWarehouse(key_space=KEY_SPACE)
        ops = [("insert", 1, 1.0, 1), ("insert", 2, 2.0, 1),
               ("delete", 1, 2)]
        serial.insert(1, 1.0, 1)
        serial.insert(2, 2.0, 1)
        serial.delete(1, 2)
        before = batched.write_epoch
        results = batched.apply_batch(ops)
        assert batched.write_epoch == before + 1
        assert [tag for tag, _ in results] == ["ok", "ok", "ok"]
        assert results[2][1] == 1.0  # delete returns the dead value
        whole, interval = KeyRange(*KEY_SPACE), Interval(1, 3)
        assert repr(serial.sum(whole, interval)) == \
            repr(batched.sum(whole, interval))

    def test_per_op_errors_are_isolated(self):
        warehouse = TemporalWarehouse(key_space=KEY_SPACE)
        results = warehouse.apply_batch([
            ("insert", 1, 1.0, 1),
            ("insert", 1, 9.0, 2),   # duplicate: fails alone
            ("insert", 2, 2.0, 3),
        ])
        tags = [tag for tag, _ in results]
        assert tags == ["ok", "err", "ok"]
        from repro.errors import error_from_payload
        exc = error_from_payload(results[1][1])
        assert isinstance(exc, DuplicateKeyError)
        assert warehouse.sum(KeyRange(*KEY_SPACE), Interval(3, 4)) == 3.0

    def test_all_failed_batch_logs_nothing(self, tmp_path):
        warehouse = TemporalWarehouse.open_durable(
            str(tmp_path), key_space=KEY_SPACE)
        warehouse.insert(1, 1.0, 1)
        seq = warehouse.wal_seq()
        results = warehouse.apply_batch([("insert", 1, 5.0, 2),
                                         ("frobnicate", 2)])
        assert [tag for tag, _ in results] == ["err", "err"]
        assert warehouse.wal_seq() == seq
        warehouse.close()

    def test_sharded_apply_shard_batch_routes_to_one_shard(self):
        warehouse = ShardedWarehouse(shards=2, key_space=KEY_SPACE,
                                     thread_safe=True)
        shard = warehouse.shard_index(3)
        epoch_before = warehouse.handle(shard).epoch.value
        results = warehouse.apply_shard_batch(
            shard, [("insert", 3, 3.0, 1), ("insert", 4, 4.0, 1)])
        assert [tag for tag, _ in results] == ["ok", "ok"]
        # One seqlock bracket for the whole batch: exactly +2.
        assert warehouse.handle(shard).epoch.value == epoch_before + 2
        assert warehouse.sum(KeyRange(*KEY_SPACE), Interval(1, 2)) == 7.0
