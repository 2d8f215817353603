"""Tests for checkpoint save/load across every index type."""

import json
import os
from pathlib import Path

import pytest

from repro.core.model import Interval, KeyRange
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.errors import StorageError
from repro.mvbt.config import MVBTConfig
from repro.mvbt.tree import MVBT
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.sbtree.tree import SBTree
from repro.storage.buffer import BufferPool
from repro.storage.checkpoint import read_checkpoint, write_checkpoint
from repro.storage.disk import InMemoryDiskManager


def fresh_pool(capacity=256):
    return BufferPool(InMemoryDiskManager(), capacity=capacity)


def set_magic(directory, magic):
    meta_path = Path(directory, "meta.json")
    blob = json.loads(meta_path.read_text())
    blob["magic"] = magic
    meta_path.write_text(json.dumps(blob))


class TestCheckpointPrimitives:
    def test_round_trip_pool_and_meta(self, tmp_path):
        pool = fresh_pool()
        tree = SBTree(pool, capacity=4, domain=(1, 101))
        tree.insert(10, 50, 3.0)
        info = write_checkpoint(pool, {"hello": "world"}, str(tmp_path / "ck"))
        assert info.page_count >= 1
        restored_pool, meta = read_checkpoint(str(tmp_path / "ck"))
        assert meta == {"hello": "world"}
        assert restored_pool.disk.live_page_count == pool.disk.live_page_count

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            read_checkpoint(str(tmp_path / "nowhere"))

    def test_bad_magic_rejected(self, tmp_path):
        pool = fresh_pool()
        SBTree(pool, capacity=4, domain=(1, 101))
        directory = str(tmp_path / "ck")
        write_checkpoint(pool, {}, directory)
        set_magic(directory, "something-else")
        with pytest.raises(StorageError):
            read_checkpoint(directory)

    def test_the_one_field_value_format_is_refused_everywhere(self, tmp_path):
        """``repro-checkpoint-v1`` pages hold MVSBT records of one double
        (a SUM tree and a COUNT tree apart); ``repro-checkpoint-v2`` pages
        hold an LKST tree where an LKS tree is now read, which would
        answer wrong without an error.  There is no reader for either,
        whichever door the directory comes in by."""
        for old in ("repro-checkpoint-v1", "repro-checkpoint-v2"):
            refusal = "unrecognized checkpoint format .*" + old
            index = RTAIndex(fresh_pool(), MVSBTConfig(capacity=6),
                             key_space=(1, 1001))
            index.insert(100, 4.0, t=1)
            bare = str(tmp_path / old / "index")
            index.save(bare)
            set_magic(bare, old)
            with pytest.raises(StorageError, match=refusal):
                read_checkpoint(bare)
            with pytest.raises(StorageError, match=refusal):
                RTAIndex.load(bare)

            durable = str(tmp_path / old / "wh")
            warehouse = TemporalWarehouse.open_durable(
                durable, key_space=(1, 1001), page_capacity=8)
            warehouse.insert(100, 4.0, t=1)
            warehouse.checkpoint()
            warehouse.close()
            checkpoint, _ = TemporalWarehouse.current_checkpoint(durable)
            for part in ("tuples", "aggregates"):
                set_magic(os.path.join(checkpoint, part), old)
            with pytest.raises(StorageError, match=refusal):
                TemporalWarehouse.open_durable(durable)
            with pytest.raises(StorageError, match=refusal):
                TemporalWarehouse.load(checkpoint)

    def test_truncated_pages_file_rejected(self, tmp_path):
        pool = fresh_pool()
        tree = SBTree(pool, capacity=4, domain=(1, 101))
        for i in range(1, 50):
            tree.insert(i, i + 2, 1.0)
        directory = str(tmp_path / "ck")
        write_checkpoint(pool, {}, directory)
        pages_path = Path(directory, "pages.dat")
        pages_path.write_bytes(pages_path.read_bytes()[:-100])
        with pytest.raises(StorageError):
            read_checkpoint(directory)

    def test_allocation_cursor_continues(self, tmp_path):
        pool = fresh_pool()
        tree = SBTree(pool, capacity=4, domain=(1, 1001))
        for i in range(1, 60):
            tree.insert(i, i + 2, 1.0)
        write_checkpoint(pool, {}, str(tmp_path / "ck"))
        restored, _ = read_checkpoint(str(tmp_path / "ck"))
        fresh = restored.allocate(capacity=4)
        assert fresh.page_id >= pool.disk.allocated_count


class TestSBTreeCheckpoint:
    def test_round_trip_preserves_answers(self, tmp_path):
        tree = SBTree(fresh_pool(), capacity=4, domain=(1, 301))
        for i in range(1, 120):
            tree.insert(i * 2 % 290 + 1, i * 2 % 290 + 9, float(i % 7 - 3))
        tree.save(str(tmp_path / "sb"))
        reopened = SBTree.load(str(tmp_path / "sb"))
        for t in range(1, 301, 7):
            assert reopened.query(t) == tree.query(t)
        reopened.check_invariants()

    def test_reopened_tree_accepts_new_inserts(self, tmp_path):
        tree = SBTree(fresh_pool(), capacity=4, domain=(1, 301))
        tree.insert(10, 50, 2.0)
        tree.save(str(tmp_path / "sb"))
        reopened = SBTree.load(str(tmp_path / "sb"))
        reopened.insert(20, 60, 3.0)
        assert reopened.query(30) == 5.0
        assert reopened.query(55) == 3.0

    def test_custom_combine_rejected(self, tmp_path):
        tree = SBTree(fresh_pool(), capacity=4, domain=(1, 301),
                      combine=lambda a, b: a * b, identity=1.0)
        with pytest.raises(ValueError):
            tree.save(str(tmp_path / "sb"))

    def test_wrong_type_rejected(self, tmp_path):
        tree = SBTree(fresh_pool(), capacity=4, domain=(1, 301))
        tree.save(str(tmp_path / "sb"))
        with pytest.raises(ValueError):
            MVSBT.load(str(tmp_path / "sb"))


class TestMVSBTCheckpoint:
    def test_round_trip_all_versions(self, tmp_path):
        tree = MVSBT(fresh_pool(), MVSBTConfig(capacity=5),
                     key_space=(1, 201))
        for t in range(1, 120):
            tree.insert((t * 37) % 199 + 1, t, float(t % 9 - 4) or 1.0)
        tree.save(str(tmp_path / "mvsbt"))
        reopened = MVSBT.load(str(tmp_path / "mvsbt"))
        for t in range(1, 120, 7):
            for k in range(1, 201, 23):
                assert reopened.query(k, t) == tree.query(k, t)
        reopened.check_invariants()
        assert reopened.counters == tree.counters

    def test_reopened_tree_continues_stream(self, tmp_path):
        tree = MVSBT(fresh_pool(), MVSBTConfig(capacity=5),
                     key_space=(1, 201))
        tree.insert(50, 10, 1.0)
        tree.save(str(tmp_path / "mvsbt"))
        reopened = MVSBT.load(str(tmp_path / "mvsbt"))
        reopened.insert(100, 20, 2.0)
        assert reopened.query(150, 20) == 3.0
        assert reopened.query(150, 15) == 1.0
        # Time order is still enforced relative to the checkpointed clock.
        from repro.errors import TimeOrderError
        with pytest.raises(TimeOrderError):
            reopened.insert(60, 5, 1.0)


class TestMVBTCheckpoint:
    def test_round_trip_history_and_structure(self, tmp_path):
        tree = MVBT(fresh_pool(), MVBTConfig(capacity=6), key_space=(1, 501))
        alive = []
        for t in range(1, 150):
            key = (t * 31) % 499 + 1
            if key in alive:
                tree.delete(key, t)
                alive.remove(key)
            else:
                tree.insert(key, float(key % 13), t)
                alive.append(key)
        tree.save(str(tmp_path / "mvbt"))
        reopened = MVBT.load(str(tmp_path / "mvbt"))
        for t in range(1, 150, 11):
            assert reopened.range_snapshot(1, 500, t) \
                == tree.range_snapshot(1, 500, t)
        assert reopened.rectangle_query(1, 500, 1, 200) \
            == tree.rectangle_query(1, 500, 1, 200)
        reopened.check_invariants()

    def test_reopened_tree_accepts_updates(self, tmp_path):
        tree = MVBT(fresh_pool(), MVBTConfig(capacity=6), key_space=(1, 501))
        tree.insert(100, 1.0, t=5)
        tree.save(str(tmp_path / "mvbt"))
        reopened = MVBT.load(str(tmp_path / "mvbt"))
        reopened.insert(200, 2.0, t=10)
        reopened.delete(100, t=15)
        assert reopened.snapshot_point(100, 12) == 1.0
        assert reopened.snapshot_point(100, 15) is None
        assert reopened.snapshot_point(200, 20) == 2.0


class TestRTAIndexCheckpoint:
    def test_round_trip_queries_and_alive_table(self, tmp_path):
        index = RTAIndex(fresh_pool(), MVSBTConfig(capacity=8),
                         key_space=(1, 1001))
        alive = []
        for t in range(1, 200):
            key = (t * 61) % 999 + 1
            if key in alive:
                index.delete(key, t)
                alive.remove(key)
            else:
                index.insert(key, float(key % 17), t)
                alive.append(key)
        index.save(str(tmp_path / "rta"))
        reopened = RTAIndex.load(str(tmp_path / "rta"))
        for (k1, k2, t1, t2) in [(1, 1000, 1, 300), (100, 400, 50, 120),
                                 (500, 501, 10, 190)]:
            r, iv = KeyRange(k1, k2), Interval(t1, t2)
            assert reopened.sum(r, iv) == index.sum(r, iv)
            assert reopened.count(r, iv) == index.count(r, iv)
        assert reopened.alive_count() == index.alive_count()

    def test_reopened_index_continues_stream(self, tmp_path):
        index = RTAIndex(fresh_pool(), key_space=(1, 1001))
        index.insert(100, 5.0, t=10)
        index.save(str(tmp_path / "rta"))
        reopened = RTAIndex.load(str(tmp_path / "rta"))
        # The alive table came back: deleting by key alone works.
        reopened.delete(100, t=20)
        reopened.insert(200, 7.0, t=25)
        r = KeyRange(1, 1000)
        assert reopened.sum(r, Interval(10, 20)) == 5.0
        assert reopened.sum(r, Interval(20, 25)) == 0.0
        assert reopened.sum(r, Interval(25, 30)) == 7.0

    def test_wrong_checkpoint_type_rejected(self, tmp_path):
        tree = MVSBT(fresh_pool(), key_space=(1, 201))
        tree.save(str(tmp_path / "x"))
        with pytest.raises(ValueError):
            RTAIndex.load(str(tmp_path / "x"))
        with pytest.raises(ValueError):
            MVBT.load(str(tmp_path / "x"))
