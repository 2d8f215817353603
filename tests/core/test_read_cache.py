"""Version-pinned result cache and MVSBT point memo: correctness under
writes, epoch invalidation, bounded capacity, and clean opt-out."""

import random

import pytest

from repro.core.aggregates import COUNT, SUM
from repro.core.cache import CacheConfig, ResultCache, _VersionedLRU
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse


def make_warehouse(**kwargs):
    kwargs.setdefault("key_space", (1, 201))
    kwargs.setdefault("page_capacity", 8)
    return TemporalWarehouse(**kwargs)


PROBES = [
    (SUM, KeyRange(1, 201)),
    (COUNT, KeyRange(1, 201)),
    (SUM, KeyRange(40, 120)),
    (COUNT, KeyRange(90, 180)),
]


class TestCachedEqualsUncached:
    def test_interleaved_writes_and_repeated_queries(self):
        """The oracle is an uncached twin fed the identical stream; every
        answer must match at every point, hits or not."""
        cached = make_warehouse()
        cached.enable_cache()
        twin = make_warehouse()
        rng = random.Random(5)
        alive = set()
        history = []
        t = 1
        for step in range(250):
            deletable = sorted(alive)
            if deletable and rng.random() < 0.3:
                key = rng.choice(deletable)
                alive.discard(key)
                cached.delete(key, t)
                twin.delete(key, t)
            else:
                key = rng.randint(1, 200)
                if key in alive:
                    continue
                alive.add(key)
                value = float(rng.randint(1, 9))
                cached.insert(key, value, t)
                twin.insert(key, value, t)
            if rng.random() < 0.4:
                t += 1
            if step % 3 == 0:
                agg, kr = PROBES[rng.randrange(len(PROBES))]
                lo = rng.randint(1, t)
                interval = Interval(lo, t + 1)
                for _ in range(2):  # immediate repeat: same-epoch hit
                    assert cached.aggregate(kr, interval, agg) == \
                        twin.aggregate(kr, interval, agg)
                history.append((agg, kr, interval))
            if history and rng.random() < 0.5:
                # Replay an older rectangle: closed by now, or an open
                # entry whose epoch the writes above invalidated.
                agg, kr, interval = rng.choice(history)
                assert cached.aggregate(kr, interval, agg) == \
                    twin.aggregate(kr, interval, agg)
        stats = cached.result_cache.stats
        assert stats.hits > 0            # repetition actually hit
        assert stats.stale_drops > 0     # epoch bumps actually dropped

    def test_open_entry_never_stale_across_epoch_bump(self):
        cached = make_warehouse()
        cached.enable_cache()
        twin = make_warehouse()
        for w in (cached, twin):
            w.insert(1, 10.0, 1)
            w.insert(2, 20.0, 2)
        open_interval = Interval(1, cached.now + 1)  # end > now: open
        kr = KeyRange(1, 201)
        assert cached.sum(kr, open_interval) == twin.sum(kr, open_interval)
        assert cached.sum(kr, open_interval) == twin.sum(kr, open_interval)
        assert cached.result_cache.stats.hits == 1
        drops_before = cached.result_cache.stats.stale_drops
        cached.insert(3, 30.0, 2)  # epoch bump at the open frontier
        twin.insert(3, 30.0, 2)
        assert cached.sum(kr, open_interval) == twin.sum(kr, open_interval)
        assert cached.result_cache.stats.stale_drops == drops_before + 1

    def test_closed_entry_survives_epoch_bumps(self):
        cached = make_warehouse()
        cached.enable_cache()
        cached.insert(1, 10.0, 1)
        cached.insert(2, 20.0, 5)
        closed = Interval(1, 4)  # end <= now: immutable history
        kr = KeyRange(1, 201)
        first = cached.sum(kr, closed)
        cached.insert(3, 30.0, 9)  # bumps the epoch, can't touch [1, 4)
        assert cached.sum(kr, closed) == first
        assert cached.result_cache.stats.hits == 1


class TestCacheMechanics:
    def test_result_cache_capacity_is_bounded(self):
        warehouse = make_warehouse()
        warehouse.enable_cache(CacheConfig(result_entries=4,
                                           memo_entries=0))
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, 2.0, 10)
        for end in range(2, 12):  # 10 distinct closed rectangles
            warehouse.sum(KeyRange(1, 201), Interval(1, end))
        assert len(warehouse.result_cache) <= 4
        assert warehouse.result_cache.stats.evictions >= 6

    def test_cache_probe_reports_without_mutating(self):
        warehouse = make_warehouse()
        kr, interval = KeyRange(1, 201), Interval(1, 3)
        assert warehouse.cache_probe(kr, interval) is None  # no cache
        warehouse.enable_cache()
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, 2.0, 5)
        assert warehouse.cache_probe(kr, interval) == "miss"
        warehouse.sum(kr, interval)
        hits_before = warehouse.result_cache.stats.hits
        assert warehouse.cache_probe(kr, interval) == "hit"
        assert warehouse.result_cache.stats.hits == hits_before

    def test_zero_capacity_layers_stay_detached(self):
        warehouse = make_warehouse()
        warehouse.enable_cache(CacheConfig(result_entries=0,
                                           memo_entries=0))
        assert warehouse.result_cache is None
        warehouse.insert(1, 1.0, 1)
        assert warehouse.sum(KeyRange(1, 201), Interval(1, 2)) == 1.0

    def test_disable_cache_restores_uncached_path(self):
        warehouse = make_warehouse()
        warehouse.enable_cache()
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, 2.0, 4)
        kr, interval = KeyRange(1, 201), Interval(1, 3)
        before = warehouse.sum(kr, interval)
        warehouse.disable_cache()
        assert warehouse.result_cache is None
        assert warehouse.cache_probe(kr, interval) is None
        assert warehouse.sum(kr, interval) == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(result_entries=-1)
        with pytest.raises(ValueError):
            CacheConfig(memo_entries=-1)

    def test_snapshot_layers(self):
        warehouse = make_warehouse()
        warehouse.enable_cache()
        warehouse.insert(1, 1.0, 1)
        warehouse.insert(2, 2.0, 4)
        # Open-present (ends after the clock, 4): its probes reach the memo.
        warehouse.sum(KeyRange(1, 201), Interval(1, 5))
        warehouse.sum(KeyRange(1, 201), Interval(1, 5))
        snapshot = warehouse.cache_snapshot().as_dict()
        # The two caches above the buffer pool, nothing under it.
        assert set(snapshot) == {"result", "memo"}
        assert snapshot["result"]["hits"] == 1
        assert snapshot["result"]["misses"] == 1
        assert snapshot["memo"]["misses"] > 0


class TestPointMemo:
    def test_repeated_point_queries_save_pages(self):
        warehouse = make_warehouse()
        warehouse.enable_cache()
        for k in range(1, 40):
            warehouse.insert(k, float(k), k)
        interval = Interval(5, 40)      # open-present: the clock is 39
        kr = KeyRange(1, 201)
        first = warehouse.sum(kr, interval)
        warehouse.result_cache.clear()  # force a re-descent
        assert warehouse.sum(kr, interval) == first
        memo = warehouse.cache_snapshot().as_dict()["memo"]
        assert memo["hits"] > 0
        assert memo["pages_saved"] > 0

    def test_memo_epoch_invalidates_open_frontier(self):
        warehouse = make_warehouse()
        warehouse.enable_cache(CacheConfig(result_entries=0))
        twin = make_warehouse()
        for w in (warehouse, twin):
            for k in range(1, 20):
                w.insert(k, float(k), k)
        open_interval = Interval(1, warehouse.now + 1)
        kr = KeyRange(1, 201)
        assert warehouse.sum(kr, open_interval) == \
            twin.sum(kr, open_interval)
        warehouse.insert(50, 100.0, warehouse.now)  # same-instant insert
        twin.insert(50, 100.0, twin.now)
        assert warehouse.sum(kr, open_interval) == \
            twin.sum(kr, open_interval)


class TestVersionedLRU:
    def test_closed_entries_ignore_epoch(self):
        lru = _VersionedLRU(capacity=4)
        lru.store("k", 1.0, closed=True, epoch=5)
        assert lru.lookup("k", 99) == (1.0, None)

    def test_open_entries_drop_on_epoch_mismatch(self):
        lru = _VersionedLRU(capacity=4)
        lru.store("k", 1.0, closed=False, epoch=5)
        assert lru.lookup("k", 5) == (1.0, None)
        assert lru.lookup("k", 6) is None
        assert lru.stats.stale_drops == 1
        assert len(lru) == 0  # stale entry removed, not retained

    def test_lru_eviction_order(self):
        lru = _VersionedLRU(capacity=2)
        lru.store("a", 1, closed=True, epoch=0)
        lru.store("b", 2, closed=True, epoch=0)
        lru.lookup("a", 0)                     # refresh a
        lru.store("c", 3, closed=True, epoch=0)
        assert lru.lookup("b", 0) is None      # b was the LRU
        assert lru.lookup("a", 0) == (1, None)

    def test_result_cache_key_includes_aggregate(self):
        kr, interval = KeyRange(1, 10), Interval(1, 5)
        assert ResultCache.key("SUM", kr, interval) != \
            ResultCache.key("COUNT", kr, interval)
