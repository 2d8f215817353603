"""Tests for the ANALYZE module (structural statistics)."""

import pytest

from repro.analyze import describe, render_report
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.mvbt.config import MVBTConfig
from repro.mvbt.tree import MVBT
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.sbtree.tree import SBTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

KEY_SPACE = (1, 1001)


def fresh_pool():
    return BufferPool(InMemoryDiskManager(), capacity=1024)


class TestDescribe:
    def test_mvsbt_report(self):
        tree = MVSBT(fresh_pool(), MVSBTConfig(capacity=6),
                     key_space=KEY_SPACE)
        for t in range(1, 60):
            tree.insert((t * 37) % 999 + 1, t, 1.0)
        report = describe(tree)
        assert report["type"] == "mvsbt"
        assert report["pages"] == tree.pool.disk.live_page_count
        assert report["records"] \
            == report["alive_records"] + report["dead_records"]
        assert report["height"] == tree.height()
        assert 0 < report["avg_fill"] <= 1.0
        assert report["counters"]["insertions"] == 59
        assert sum(report["pages_by_level"].values()) == report["pages"]

    def test_mvbt_report(self):
        tree = MVBT(fresh_pool(), MVBTConfig(capacity=6),
                    key_space=KEY_SPACE)
        for t in range(1, 60):
            tree.insert((t * 17) % 999 + 1, 1.0, t)  # injective: 1TNF safe
        report = describe(tree)
        assert report["type"] == "mvbt"
        assert report["counters"]["inserts"] == 59
        assert report["roots"] >= 1
        # Physical alive copies: version splits replicate alive entries,
        # so there are at least as many copies as logical alive tuples.
        assert report["alive_records"] >= 59

    def test_sbtree_report(self):
        tree = SBTree(fresh_pool(), capacity=4, domain=(1, 1001))
        for i in range(1, 50):
            tree.insert(i, i + 5, 1.0)
        report = describe(tree)
        assert report["type"] == "sbtree"
        assert report["insertions"] == 49
        assert report["leaf_records"] <= report["records"]
        assert report["height"] == tree.height

    def test_rta_report_aggregates_trees(self):
        index = RTAIndex(fresh_pool(), MVSBTConfig(capacity=8),
                         key_space=KEY_SPACE)
        for t in range(1, 40):
            index.insert(t * 20, 1.0, t)
        report = describe(index)
        assert report["type"] == "rta-index"
        assert set(report["trees"]) == {"lks", "lklt"}
        assert report["alive_tuples"] == 39
        assert report["pages"] == index.pool.disk.live_page_count

    def test_warehouse_report(self):
        warehouse = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
        warehouse.insert(100, 1.0, t=5)
        report = describe(warehouse)
        assert report["type"] == "temporal-warehouse"
        assert report["tuples"]["type"] == "mvbt"
        assert report["aggregates"]["type"] == "rta-index"

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            describe(42)


class TestRenderReport:
    def test_nested_rendering(self):
        report = {"a": 1, "b": {"c": 2.5, "d": {"e": "x"}}}
        text = render_report(report)
        assert "a: 1" in text
        assert "c: 2.5" in text
        assert "e: x" in text
        # Nesting indents deeper levels.
        assert "\n  c" in text or "  c: 2.5" in text

    def test_real_report_renders(self):
        tree = MVSBT(fresh_pool(), key_space=KEY_SPACE)
        tree.insert(100, 5, 1.0)
        text = render_report(describe(tree))
        assert "type: mvsbt" in text
        assert "pages:" in text
