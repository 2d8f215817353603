"""Tests for the write-ahead log and checkpoint+WAL recovery."""

import os

import pytest

from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import StorageError
from repro.storage.wal import WriteAheadLog
from repro.workloads.generator import UpdateEvent

KEY_SPACE = (1, 1001)


class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 10, 1.5, 5)
        wal.append("delete", 10, 1.5, 9)
        events = wal.records()
        assert events == [
            UpdateEvent("insert", 10, 1.5, 5),
            UpdateEvent("delete", 10, 1.5, 9),
        ]
        wal.close()

    def test_replay_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 10, 1.0, 5)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert len(reopened) == 1
        reopened.append("insert", 20, 2.0, 6)
        assert len(reopened) == 2
        reopened.close()

    def test_truncate_empties_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 10, 1.0, 5)
        wal.truncate()
        assert wal.records() == []
        wal.append("insert", 20, 1.0, 6)
        assert len(wal) == 1
        wal.close()

    def test_torn_final_record_ignored(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 10, 1.0, 5)
        wal.append("insert", 20, 2.0, 6)
        wal.close()
        with open(wal.path, "a") as fh:
            fh.write("insert,30,3.")  # crash mid-write
        reopened = WriteAheadLog(str(tmp_path))
        assert [e.key for e in reopened.records()] == [10, 20]
        reopened.close()

    def test_garbage_record_stops_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 10, 1.0, 5)
        wal.close()
        with open(wal.path, "a") as fh:
            fh.write("upsert,1,2,3\n")
            fh.write("insert,40,4.0,9\n")  # after corruption: not trusted
        reopened = WriteAheadLog(str(tmp_path))
        assert [e.key for e in reopened.records()] == [10]
        reopened.close()

    def test_unknown_op_rejected_at_append(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with pytest.raises(StorageError):
            wal.append("upsert", 1, 1.0, 1)
        wal.close()


class TestDurableWarehouse:
    def test_fresh_open_then_recover(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 5.0, t=10)
        warehouse.insert(200, 7.0, t=12)
        warehouse.delete(100, t=20)
        warehouse.close()  # simulate a crash: no checkpoint was taken

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        r = KeyRange(1, 1000)
        assert recovered.sum(r, Interval(10, 20)) == 12.0
        assert recovered.sum(r, Interval(20, 30)) == 7.0
        assert recovered.snapshot(r, 15) == [(100, 5.0), (200, 7.0)]
        recovered.close()

    def test_checkpoint_truncates_log_and_recovers(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        for i in range(1, 30):
            warehouse.insert(i * 10, float(i), t=i)
        warehouse.checkpoint()
        assert os.path.getsize(warehouse._wal.path) == 0
        # Post-checkpoint updates land in the fresh log.
        warehouse.insert(999, 42.0, t=50)
        warehouse.close()

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        r = KeyRange(1, 1000)
        assert recovered.count(r, Interval(1, 60)) == 30.0
        assert recovered.sum(KeyRange(999, 1000), Interval(50, 51)) == 42.0
        recovered.close()

    def test_recovery_is_equivalent_to_uninterrupted_run(self, tmp_path):
        directory = str(tmp_path / "wh")
        reference = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
        durable = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        state = 91
        alive = set()
        for t in range(1, 120):
            state = (state * 48271) % (2**31 - 1)
            key = state % 999 + 1
            if key in alive:
                reference.delete(key, t)
                durable.delete(key, t)
                alive.discard(key)
            else:
                reference.insert(key, float(state % 9), t)
                durable.insert(key, float(state % 9), t)
                alive.add(key)
            if t == 60:
                durable.checkpoint()
        durable.close()

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        for (k1, k2, t1, t2) in [(1, 1000, 1, 200), (200, 600, 30, 90),
                                 (1, 1000, 60, 61)]:
            r, iv = KeyRange(k1, k2), Interval(t1, t2)
            assert recovered.sum(r, iv) == reference.sum(r, iv)
            assert recovered.count(r, iv) == reference.count(r, iv)
        recovered.close()

    def test_checkpoint_without_wal_rejected(self):
        warehouse = TemporalWarehouse(key_space=KEY_SPACE)
        with pytest.raises(StorageError):
            warehouse.checkpoint()

    def test_torn_tail_recovery_drops_unacknowledged_update(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 5.0, t=10)
        warehouse.close()
        with open(os.path.join(directory, "updates.wal"), "a") as fh:
            fh.write("insert,200,7")  # torn
        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        assert recovered.count(KeyRange(1, 1000), Interval(1, 100)) == 1.0
        recovered.close()


class TestSequenceNumbers:
    def test_append_returns_monotonic_seq(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.append("insert", 1, 1.0, 1) == 1
        assert wal.append("insert", 2, 1.0, 2) == 2
        assert wal.last_seq == 2
        wal.close()

    def test_seq_continues_across_truncate(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 1, 1.0, 1)
        wal.append("insert", 2, 1.0, 2)
        wal.truncate()
        # Truncation frees space; numbering never restarts.
        assert wal.append("insert", 3, 1.0, 3) == 3
        wal.close()

    def test_seq_restored_on_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 1, 1.0, 1)
        wal.append("insert", 2, 1.0, 2)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.last_seq == 2
        assert reopened.append("insert", 3, 1.0, 3) == 3
        reopened.close()

    def test_bump_seq_only_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("insert", 1, 1.0, 1)
        wal.bump_seq(10)
        assert wal.append("insert", 2, 1.0, 2) == 11
        wal.bump_seq(5)  # lower than current: no effect
        assert wal.append("insert", 3, 1.0, 3) == 12
        wal.close()

    def test_replay_after_seq_skips_covered_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(1, 6):
            wal.append("insert", i, float(i), i)
        tail = list(wal.replay(after_seq=3))
        assert [e.key for e in tail] == [4, 5]
        pairs = list(wal.replay_with_seq(after_seq=3))
        assert [seq for seq, _e in pairs] == [4, 5]
        wal.close()

    def test_legacy_four_field_lines_numbered_by_position(self, tmp_path):
        path = tmp_path / "updates.wal"
        path.write_text("insert,10,1.0,5\ninsert,20,2.0,6\n")
        wal = WriteAheadLog(str(tmp_path))
        assert wal.last_seq == 2
        assert [seq for seq, _e in wal.replay_with_seq()] == [1, 2]
        # New appends continue above the legacy records.
        assert wal.append("insert", 30, 3.0, 7) == 3
        wal.close()


class TestCheckpointCrashWindow:
    def test_crash_between_checkpoint_and_truncate(self, tmp_path):
        """kill -9 after the checkpoint is durable but before the WAL is
        truncated: recovery must not double-apply the covered records."""
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 5.0, t=1)
        warehouse.insert(200, 7.0, t=2)
        # Simulate the crash window: checkpoint lands, truncate does not.
        warehouse._wal.truncate = lambda: None
        warehouse.checkpoint()
        warehouse.insert(300, 9.0, t=3)  # post-checkpoint tail
        warehouse.close()

        # Without sequence skipping this reopen would double-insert keys
        # 100 and 200 and raise DuplicateKeyError.
        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        r = KeyRange(1, 1000)
        assert recovered.count(r, Interval(1, 10)) == 3.0
        assert recovered.sum(r, Interval(1, 10)) == 21.0
        recovered.close()

    def test_crash_mid_checkpoint_keeps_previous_good_one(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 5.0, t=1)
        warehouse.checkpoint()
        warehouse.insert(200, 7.0, t=2)
        # A later checkpoint attempt dies before repointing CURRENT: the
        # half-written directory exists but CURRENT still names the old one.
        real_save = warehouse.save

        def dying_save(target):
            real_save(target)
            raise RuntimeError("kill -9 mid-checkpoint")

        warehouse.save = dying_save
        with pytest.raises(RuntimeError):
            warehouse.checkpoint()
        warehouse.close()

        recovered = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        r = KeyRange(1, 1000)
        assert recovered.count(r, Interval(1, 10)) == 2.0
        assert recovered.sum(r, Interval(1, 10)) == 12.0
        recovered.close()

    def test_checkpoint_gc_keeps_only_current(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 5.0, t=1)
        warehouse.checkpoint()
        warehouse.insert(200, 7.0, t=2)
        warehouse.checkpoint()
        checkpoints = os.listdir(os.path.join(directory, "checkpoints"))
        assert len(checkpoints) == 1
        with open(os.path.join(directory, "CURRENT")) as fh:
            current = fh.read().strip()
        assert checkpoints == [current]
        warehouse.close()

    def test_close_is_idempotent_and_reported(self, tmp_path):
        directory = str(tmp_path / "wh")
        warehouse = TemporalWarehouse.open_durable(
            directory, key_space=KEY_SPACE, page_capacity=8)
        assert not warehouse.closed
        warehouse.close()
        assert warehouse.closed
        warehouse.close()  # second close: no error
        assert warehouse.closed
