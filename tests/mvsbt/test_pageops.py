"""Direct unit tests for MVSBT page-level operations."""

import pytest

from repro.core.model import NOW
from repro.mvsbt import pageops as ops
from repro.mvsbt.records import (
    INDEX_KIND,
    LEAF_KIND,
    MVSBTIndexRecord,
    MVSBTLeafRecord,
)
from repro.storage.page import Page


def leaf_page(*records):
    page = Page(0, capacity=8, kind=LEAF_KIND)
    for record in records:
        page.add(record)
    return page


def rec(low, high, start=1, end=NOW, value=0.0):
    return MVSBTLeafRecord(low, high, start, end, value)


def irec(low, high, start=1, end=NOW, value=0.0, child=7):
    return MVSBTIndexRecord(low, high, start, end, value, child)


class TestRecordClassification:
    """The section 4.1 vocabulary: partly/fully/first-fully covered."""

    @pytest.fixture()
    def page(self):
        return leaf_page(rec(1, 10), rec(10, 50, value=2.0), rec(50, 100))

    def test_partly_covered_strictly_inside(self, page):
        found = ops.find_partly_covered(page, 30)
        assert (found.low, found.high) == (10, 50)

    def test_boundary_key_is_not_partly_covered(self, page):
        assert ops.find_partly_covered(page, 10) is None
        assert ops.find_partly_covered(page, 50) is None

    def test_dead_records_ignored(self, page):
        target = page.records[1]
        target.end = 5  # kill it
        assert ops.find_partly_covered(page, 30) is None

    def test_first_fully_covered(self, page):
        found = ops.find_first_fully_covered(page, 10)
        assert found.low == 10
        found = ops.find_first_fully_covered(page, 11)
        assert found.low == 50

    def test_first_fully_covered_none_above_range(self, page):
        assert ops.find_first_fully_covered(page, 100) is None

    def test_find_successor(self, page):
        assert ops.find_successor(page, 50).low == 50
        assert ops.find_successor(page, 49) is None

    def test_find_alive_by_child(self):
        page = Page(0, capacity=8, kind=INDEX_KIND)
        page.add(irec(1, 50, child=3))
        page.add(irec(50, 100, child=4))
        assert ops.find_alive_by_child(page, 4).low == 50
        assert ops.find_alive_by_child(page, 99) is None


class TestSplits:
    def test_vertical_split_closes_and_copies(self):
        page = leaf_page(rec(1, 100, start=1, value=5.0))
        old = page.records[0]
        fresh = ops.vertical_split(page, old, t=10, new_value=7.0)
        assert old.end == 10
        assert (fresh.start, fresh.end, fresh.value) == (10, NOW, 7.0)
        assert (fresh.low, fresh.high) == (1, 100)
        assert len(page.records) == 2

    def test_vertical_split_in_place_at_birth_instant(self):
        page = leaf_page(rec(1, 100, start=10, value=5.0))
        old = page.records[0]
        fresh = ops.vertical_split(page, old, t=10, new_value=7.0)
        assert fresh is old
        assert old.value == 7.0
        assert len(page.records) == 1

    def test_vertical_split_preserves_child(self):
        page = Page(0, capacity=8, kind=INDEX_KIND)
        page.add(irec(1, 100, start=1, value=5.0, child=42))
        fresh = ops.vertical_split(page, page.records[0], t=10,
                                   new_value=6.0)
        assert fresh.child == 42

    def test_horizontal_split_three_pieces(self):
        page = leaf_page(rec(1, 100, start=1, value=5.0))
        upper = ops.horizontal_split_leaf(page, page.records[0], key=40,
                                          t=10, upper_value=1.0)
        pieces = sorted((r.low, r.high, r.start, r.end, r.value)
                        for r in page.records)
        assert pieces == [
            (1, 40, 10, NOW, 5.0),
            (1, 100, 1, 10, 5.0),
            (40, 100, 10, NOW, 1.0),
        ]
        assert (upper.low, upper.high) == (40, 100)

    def test_horizontal_split_in_place_at_birth_instant(self):
        page = leaf_page(rec(1, 100, start=10, value=5.0))
        ops.horizontal_split_leaf(page, page.records[0], key=40, t=10,
                                  upper_value=1.0)
        pieces = sorted((r.low, r.high, r.value) for r in page.records)
        assert pieces == [(1, 40, 5.0), (40, 100, 1.0)]

    def test_horizontal_split_requires_partly_covered(self):
        page = leaf_page(rec(1, 100))
        with pytest.raises(AssertionError):
            ops.horizontal_split_leaf(page, page.records[0], key=100, t=5,
                                      upper_value=1.0)


class TestMerging:
    def test_time_merge_resurrects_dead_record(self):
        dead = rec(1, 100, start=1, end=10, value=5.0)
        fresh = rec(1, 100, start=10, end=NOW, value=5.0)
        page = leaf_page(dead, fresh)
        survivor = ops.try_time_merge(page, fresh)
        assert survivor is dead
        assert dead.end == NOW
        assert len(page.records) == 1

    def test_time_merge_requires_equal_values(self):
        dead = rec(1, 100, start=1, end=10, value=5.0)
        fresh = rec(1, 100, start=10, end=NOW, value=6.0)
        page = leaf_page(dead, fresh)
        assert ops.try_time_merge(page, fresh) is None

    def test_time_merge_requires_same_child(self):
        page = Page(0, capacity=8, kind=INDEX_KIND)
        dead = irec(1, 100, start=1, end=10, value=5.0, child=3)
        fresh = irec(1, 100, start=10, end=NOW, value=5.0, child=4)
        page.add(dead)
        page.add(fresh)
        assert ops.try_time_merge(page, fresh) is None
        fresh.child = 3
        assert ops.try_time_merge(page, fresh) is dead

    def test_key_merge_absorbs_zero_delta(self):
        lower = rec(1, 40, start=10, value=5.0)
        zero = rec(40, 100, start=10, value=0.0)
        page = leaf_page(lower, zero)
        survivor = ops.try_key_merge(page, zero)
        assert survivor is lower
        assert (lower.low, lower.high) == (1, 100)
        assert len(page.records) == 1

    def test_key_merge_requires_equal_starts(self):
        lower = rec(1, 40, start=5, value=5.0)
        zero = rec(40, 100, start=10, value=0.0)
        page = leaf_page(lower, zero)
        assert ops.try_key_merge(page, zero) is None

    def test_key_merge_absorbs_zero_upper_neighbour(self):
        target = rec(1, 40, start=10, value=5.0)
        upper = rec(40, 100, start=10, value=0.0)
        page = leaf_page(target, upper)
        survivor = ops.try_key_merge(page, target)
        assert survivor is target
        assert target.high == 100

    def test_key_merge_skips_index_records(self):
        page = Page(0, capacity=8, kind=INDEX_KIND)
        record = irec(40, 100, start=10, value=0.0)
        page.add(irec(1, 40, start=10, value=5.0))
        page.add(record)
        assert ops.try_key_merge(page, record) is None


class TestHelpers:
    def test_clone_restarts_interval(self):
        original = rec(1, 100, start=1, end=NOW, value=5.0)
        copy = ops.clone(original, start=10)
        assert (copy.start, copy.end, copy.value) == (10, NOW, 5.0)
        assert copy is not original

    def test_prune_born_at(self):
        page = leaf_page(rec(1, 50, start=1), rec(50, 100, start=10))
        ops.prune_born_at(page, 10)
        assert len(page.records) == 1
        assert page.records[0].start == 1

    def test_check_tiling_detects_gap(self):
        page = leaf_page(rec(1, 40), rec(50, 100))
        page.meta.update(low=1, high=100)
        assert "gap" in ops.check_tiling_at(page, 5)

    def test_check_tiling_detects_boundary_mismatch(self):
        page = leaf_page(rec(1, 100))
        page.meta.update(low=1, high=200)
        assert ops.check_tiling_at(page, 5) is not None

    def test_check_tiling_accepts_exact_cover(self):
        page = leaf_page(rec(1, 40), rec(40, 100))
        page.meta.update(low=1, high=100)
        assert ops.check_tiling_at(page, 5) is None

    def test_alive_records_sorted(self):
        page = leaf_page(rec(50, 100), rec(1, 50),
                         rec(1, 100, start=1, end=2))
        alive = ops.alive_records(page)
        assert [(r.low, r.high) for r in alive] == [(1, 50), (50, 100)]

    def test_mirror_replaces_whatever_else_sits_in_the_cache_slot(self):
        """``Page.cache`` is an opaque slot: a read view with a matching
        ``version`` (or a columnar block, with none) is not a mirror."""
        from types import SimpleNamespace

        from repro.mvsbt.columnar import ColumnarBlock

        page = leaf_page(rec(1, 50), rec(50, 100))
        for parked in (SimpleNamespace(version=page.version),
                       ColumnarBlock.from_page(page)):
            page.cache = parked
            found = ops.find_partly_covered(page, 70)
            assert (found.low, found.high) == (50, 100)
            assert type(page.cache) is ops._AliveMirror
