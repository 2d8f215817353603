"""The point memo as a flat two-way table: where entries land and what
displaces them, the counters, epoch validation, stores parked by an
optimistic read, readers racing writers, and its hit rate against the
``OrderedDict`` memo it replaced."""

import sys
import threading
import time

import pytest

from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.cache import (CacheConfig, PointMemo, begin_deferred_stores,
                              commit_deferred_stores,
                              discard_deferred_stores)
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.obs import traced
from repro.obs.explain import explain_query
from repro.serve.sharded import ShardedWarehouse

from tests.oracles import ReferencePointMemo

SLOTS = 8


def ways(key, t, slots=SLOTS):
    """The probe's first and second slot, as the memo computes them."""
    h = hash((key, t))
    return h & (slots - 1), (h >> 17) & (slots - 1)


def probes_where(predicate, count, t=1):
    """The first ``count`` keys (at instant ``t``) whose ``(first, second)``
    slots satisfy ``predicate``."""
    found = []
    for key in range(1, 100_000):
        if predicate(*ways(key, t)):
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("no such probes")


def put(memo, key, t=1, epoch=0, closed=True, pages=3):
    memo.put(key, t, float(key), pages, closed=closed, epoch=epoch)


class TestPlacement:
    def test_nothing_is_allocated_before_the_first_put(self):
        memo = PointMemo(8192)
        assert memo._slots is None and len(memo) == 0
        assert memo.get(5, 1, 0) is None
        assert memo._slots is None
        assert memo.stats.misses == 1
        put(memo, 5)
        assert len(memo._slots) == 8192 and len(memo) == 1

    def test_capacity_is_the_power_of_two_within_the_bound(self):
        assert [PointMemo(n).capacity for n in (1, 2, 3, 100, 8192, 8193)] \
            == [1, 2, 2, 64, 8192, 8192]
        off = PointMemo(0)
        put(off, 5)
        assert off._slots is None and off.get(5, 1, 0) is None

    def test_a_newcomer_takes_its_first_slot(self):
        memo = PointMemo(SLOTS)
        for key in range(1, 40):
            put(memo, key)
            assert memo._slots[ways(key, 1)[0]][:2] == (key, 1)

    def test_the_tenant_moves_to_its_own_second_slot(self):
        # Two probes sharing a first slot, with free, distinct seconds.
        a, b = probes_where(lambda f, s: f == 2 and s != 2, 2)
        memo = PointMemo(SLOTS)
        put(memo, a)
        put(memo, b)
        assert memo._slots[2][:2] == (b, 1)
        assert memo._slots[ways(a, 1)[1]][:2] == (a, 1)
        assert memo.get(a, 1, 0) == (float(a), 3)
        assert memo.get(b, 1, 0) == (float(b), 3)
        assert memo.stats.evictions == 0 and len(memo) == 2

    def test_a_tenant_moved_once_already_is_evicted(self):
        a, b = probes_where(lambda f, s: f == 2 and s == 5, 2)
        (c,) = probes_where(lambda f, s: f == 5, 1)
        memo = PointMemo(SLOTS)
        put(memo, a)
        put(memo, b)            # a -> slot 5, its second
        put(memo, c)            # c's first is 5: a has nowhere left to go
        assert memo.get(a, 1, 0) is None
        assert memo.get(b, 1, 0) is not None
        assert memo.get(c, 1, 0) is not None
        assert memo.stats.evictions == 1

    def test_a_moved_tenant_evicts_whoever_holds_its_second_slot(self):
        a, b = probes_where(lambda f, s: f == 2 and s == 5, 2)
        (c,) = probes_where(lambda f, s: f == 5 and s != 2, 1)
        memo = PointMemo(SLOTS)
        put(memo, c)            # sits in 5
        put(memo, a)
        put(memo, b)            # a moves to 5 and c is out
        assert memo.get(c, 1, 0) is None
        assert memo.get(a, 1, 0) is not None
        assert memo.stats.evictions == 1

    def test_both_slots_the_same_leaves_no_second_chance(self):
        a, b = probes_where(lambda f, s: f == s == 3, 2)
        memo = PointMemo(SLOTS)
        put(memo, a)
        put(memo, b)
        assert memo.get(a, 1, 0) is None and memo.get(b, 1, 0) is not None
        assert memo.stats.evictions == 1

    def test_a_refresh_displaces_nothing(self):
        memo = PointMemo(SLOTS)
        put(memo, 7, pages=2)
        put(memo, 7, pages=4)
        assert memo.get(7, 1, 0) == (7.0, 4)
        assert len(memo) == 1 and memo.stats.evictions == 0

    def test_clear_drops_the_table(self):
        memo = PointMemo(SLOTS)
        put(memo, 7)
        memo.clear()
        assert memo._slots is None and memo.get(7, 1, 0) is None


class TestCountersAndEpochs:
    def test_hits_misses_and_pages_saved(self):
        memo = PointMemo(SLOTS)
        assert memo.get(7, 1, 0) is None
        put(memo, 7, pages=4)
        assert memo.get(7, 1, 0) == (7.0, 4)
        assert memo.get(7, 1, 0) == (7.0, 4)
        assert memo.get(7, 2, 0) is None        # same key, another instant
        assert memo.stats.as_dict() == {
            "hits": 2, "misses": 2, "evictions": 0, "stale_drops": 0,
            "pages_saved": 8}

    def test_closed_entries_ignore_the_epoch(self):
        memo = PointMemo(SLOTS)
        put(memo, 7, epoch=5, closed=True)
        assert memo.get(7, 1, 99) == (7.0, 3)

    def test_an_open_frontier_entry_dies_with_its_epoch(self):
        memo = PointMemo(SLOTS)
        put(memo, 7, epoch=5, closed=False)
        assert memo.get(7, 1, 5) == (7.0, 3)
        assert memo.get(7, 1, 6) is None
        assert memo.stats.stale_drops == 1 and memo.stats.misses == 1
        assert len(memo) == 0       # dropped, not kept
        assert memo.get(7, 1, 5) is None

    def test_a_stale_entry_in_the_second_slot_is_dropped_there(self):
        a, b = probes_where(lambda f, s: f == 2 and s != 2, 2)
        memo = PointMemo(SLOTS)
        put(memo, a, epoch=5, closed=False)
        put(memo, b)
        assert memo.get(a, 1, 6) is None
        assert memo._slots[ways(a, 1)[1]] is None
        assert memo.get(b, 1, 6) is not None

    def test_the_tree_validates_open_frontier_entries(self):
        """An insertion at the instant a probe was memoized at must not be
        answered from the memo (same-instant writes rewrite the open
        frontier)."""
        warehouse = TemporalWarehouse(key_space=(1, 201), page_capacity=8)
        twin = TemporalWarehouse(key_space=(1, 201), page_capacity=8)
        warehouse.enable_cache(CacheConfig(result_entries=0))
        for target in (warehouse, twin):
            for key in range(1, 30):
                target.insert(key, float(key), key)
        whole, open_present = KeyRange(1, 201), Interval(1, twin.now + 1)
        for _ in range(2):
            assert warehouse.sum(whole, open_present) \
                == twin.sum(whole, open_present)
        hits = warehouse.cache_snapshot().memo["hits"]
        assert hits > 0
        for target in (warehouse, twin):
            target.insert(150, 100.0, target.now)
        assert warehouse.sum(whole, open_present) \
            == twin.sum(whole, open_present)
        assert warehouse.cache_snapshot().memo["stale_drops"] > 0


def memo_entries(warehouse):
    return sum(len(tree.memo) for tree in warehouse.aggregates.trees())


class TestDeferredStores:
    def test_a_put_is_parked_until_commit(self):
        memo = PointMemo(SLOTS)
        begin_deferred_stores()
        put(memo, 7)
        assert memo._slots is None and memo.get(7, 1, 0) is None
        commit_deferred_stores()
        assert memo.get(7, 1, 0) == (7.0, 3)

    def test_a_discarded_put_never_lands(self):
        memo = PointMemo(SLOTS)
        begin_deferred_stores()
        put(memo, 7)
        discard_deferred_stores()
        commit_deferred_stores()
        assert memo._slots is None

    @pytest.fixture()
    def shard(self):
        warehouse = ShardedWarehouse(shards=1, key_space=(1, 201),
                                     page_capacity=8, thread_safe=True)
        warehouse.enable_cache(CacheConfig(result_entries=0))
        for key in range(1, 60):
            warehouse.insert(key, float(key), key)
        yield warehouse.handle(0)
        warehouse.close()

    #: Ends one past the fixture's clock (59): an open-present rectangle,
    #: the only kind whose probes reach the memo.
    OPEN = Interval(5, 60)

    def test_an_optimistic_read_commits_its_stores_after_validation(
            self, shard):
        seen = []

        def read(key_range, interval):
            out = shard.warehouse.sum(key_range, interval)
            seen.append(memo_entries(shard.warehouse))  # still parked
            return out

        shard._optimistic(read, (KeyRange(1, 201), self.OPEN))
        assert seen == [0]
        assert memo_entries(shard.warehouse) > 0

    def test_a_torn_optimistic_read_publishes_nothing(self, shard):
        seen = []

        def read(key_range, interval):
            seen.append(memo_entries(shard.warehouse))
            out = shard.warehouse.sum(key_range, interval)
            if len(seen) == 1:      # a write lands under the first attempt
                shard.epoch.begin_write()
                shard.epoch.end_write()
            return out

        shard.read_retries = 1
        shard._optimistic(read, (KeyRange(1, 201), self.OPEN))
        assert seen == [0, 0]       # the torn attempt left no entry behind
        assert memo_entries(shard.warehouse) > 0    # the retry's landed
        assert shard.stats.as_dict()["retries"] == 1


class TestOnlyTheOpenPresentReachesTheMemo:
    """A rectangle that ends at or before the clock (the result cache's
    *closed*) runs Equation (1) with both trees' memos untouched — no
    lookup, no store, no table allocated — traced or not; one that ends
    after the clock keeps the memo path."""

    WHOLE = KeyRange(1, 201)
    CLOSED = [(WHOLE, Interval(5, 40)), (KeyRange(3, 90), Interval(1, 59)),
              (KeyRange(7, 8), Interval(30, 31)), (WHOLE, Interval(58, 59))]

    @staticmethod
    def loaded(cache=None):
        """Clock 59 with deletes from t=31 on, so both trees' clocks
        advance and the LKLT pair at ``t1`` is a closed probe."""
        warehouse = TemporalWarehouse(key_space=(1, 201), page_capacity=8)
        if cache is not None:
            warehouse.enable_cache(cache)
        for t in range(1, 60):
            warehouse.insert(t, t * 0.1, t)
            if t > 30:
                warehouse.delete(t - 30, t)
        return warehouse

    @staticmethod
    def untouched(warehouse):
        return all(tree.memo._slots is None
                   and not any(tree.memo.stats.as_dict().values())
                   for tree in warehouse.aggregates.trees())

    def test_a_closed_rectangle_leaves_the_memo_untouched(self):
        memoed = self.loaded(CacheConfig(result_entries=0))
        twin = self.loaded()
        for kr, iv in self.CLOSED:
            for _ in range(2):
                assert repr(memoed.aggregate_all(kr, iv)) \
                    == repr(twin.aggregate_all(kr, iv))
        assert self.untouched(memoed)

    def test_traced_and_explained_closed_reads_skip_it_too(self):
        memoed = self.loaded(CacheConfig())
        twin = self.loaded()
        for kr, iv in self.CLOSED:
            with traced(memoed):
                got = memoed.aggregate_all(kr, iv)
            assert repr(got) == repr(twin.aggregate_all(kr, iv))
            report = explain_query(memoed, kr, iv, AVG)
            assert report.cache["memo_hits"] == 0
            assert repr(report.result) == repr(twin.avg(kr, iv))
        assert self.untouched(memoed)

    def test_the_boundary_is_the_clock(self):
        at_now = self.loaded(CacheConfig(result_entries=0))
        at_now.sum(self.WHOLE, Interval(5, at_now.now))
        assert self.untouched(at_now)
        past_now = self.loaded(CacheConfig(result_entries=0))
        with traced(past_now):
            past_now.sum(self.WHOLE, Interval(5, past_now.now + 1))
        memo = past_now.cache_snapshot().memo
        assert memo["misses"] == 6 and memo_entries(past_now) == 6

    def test_an_open_rectangle_rereads_its_closed_probes_after_a_write(self):
        memoed = self.loaded(CacheConfig(result_entries=0))
        twin = self.loaded()
        open_present = Interval(5, memoed.now + 1)
        assert memoed.sum(self.WHOLE, open_present) \
            == twin.sum(self.WHOLE, open_present)
        for target in (memoed, twin):     # same instant: still open
            target.delete(40, target.now)
        before = memoed.cache_snapshot().memo
        assert repr(memoed.aggregate_all(self.WHOLE, open_present)) \
            == repr(twin.aggregate_all(self.WHOLE, open_present))
        after = memoed.cache_snapshot().memo
        # The LKLT pair at t1 = 5 was pinned closed and hits; the four
        # probes at the clock were stored at the old epochs and drop.
        assert after["hits"] - before["hits"] == 2
        assert after["stale_drops"] - before["stale_drops"] == 4
        assert after["pages_saved"] > before["pages_saved"]

    def test_the_pair_fallbacks_make_the_same_choice(self):
        memoed = self.loaded(CacheConfig(result_entries=0))
        lkst, _ = memoed.aggregates.trees()
        pair = lkst.query_pair(40, 40, 20, use_memo=False)  # two query()s
        assert lkst.memo._slots is None and lkst.memo.stats.misses == 0
        assert pair == (lkst.query(40, 20),) * 2
        lkst.query_pair(41, 41, 20)         # a miss, then its own hit
        stats = lkst.memo.stats
        assert (stats.misses, stats.hits, len(lkst.memo)) == (2, 1, 2)


class TestRacingThreads:
    def test_a_reader_sees_nothing_or_a_whole_entry_of_its_own(self):
        """Two writers and two readers over 16 slots and 64 probes, so
        slots are displaced, evicted and stale-dropped under the readers
        all the time.  Every field of an entry is a function of its
        ``(key, t)``; a reader that got anything else got a mixture."""
        memo = PointMemo(16)
        probes = [(key, t) for key in range(1, 17) for t in (1, 2, 3, 4)]
        wrong, stop = [], threading.Event()

        def value_of(key, t):
            return key * 1000.0 + t

        def write(offset):
            i = offset
            while not stop.is_set():
                key, t = probes[i % len(probes)]
                memo.put(key, t, value_of(key, t), key % 7,
                         closed=i % 3 == 0, epoch=i // 64 % 2)
                i += 5

        def read(offset):
            i = offset
            while not stop.is_set():
                key, t = probes[i % len(probes)]
                hit = memo.get(key, t, i // 7 % 2)
                if hit is not None and hit != (value_of(key, t), key % 7):
                    wrong.append((key, t, hit))
                i += 3

        threads = [threading.Thread(target=write, args=(0,)),
                   threading.Thread(target=write, args=(7,)),
                   threading.Thread(target=read, args=(0,)),
                   threading.Thread(target=read, args=(11,))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = memo.stats
        assert stats.hits and stats.misses and stats.evictions \
            and stats.stale_drops
        for slot in memo._slots:
            assert slot is None or slot[2:] == (
                value_of(*slot[:2]), slot[3], slot[0] % 7)


class TestHitRateTwin:
    def test_hits_on_the_htap_hot_set_match_the_lru_memo(self):
        """``htap_mixed``'s traffic as library calls — 16 hot rectangles,
        8 of them open-present, a write every few reads — once with the
        two-way table and once with the LRU memo it replaced."""
        workloads = pytest.importorskip("benchmarks.stack.workloads")
        inputs = workloads.generate("htap_mixed", 3)
        named = {"SUM": SUM, "COUNT": COUNT, "AVG": AVG}

        def drive(reference):
            warehouse = TemporalWarehouse(key_space=workloads.KEY_SPACE)
            warehouse.load_events(inputs.loaded)
            warehouse.enable_cache(CacheConfig())
            if reference:
                for tree in warehouse.aggregates.trees():
                    tree.memo = ReferencePointMemo(8192)
            answers = []
            tail = iter(inputs.tail)
            for i, read in enumerate(inputs.reads[:6_000]):
                if i % 5 == 4:
                    event = next(tail)
                    if event.op == "insert":
                        warehouse.insert(event.key, event.value, event.time)
                    else:
                        warehouse.delete(event.key, event.time)
                answers.append(warehouse.aggregate(
                    KeyRange(read.k_lo, read.k_hi),
                    Interval(read.t_lo, min(read.t_hi, warehouse.now + 1)),
                    named[read.agg]))
            return repr(answers), warehouse.cache_snapshot().memo

        answers, memo = drive(reference=False)
        want_answers, want = drive(reference=True)
        assert answers == want_answers
        assert memo["hits"] + memo["misses"] == want["hits"] + want["misses"]
        assert want["hits"] > 1_000
        assert abs(memo["hits"] - want["hits"]) <= 0.01 * want["hits"]
