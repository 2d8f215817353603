"""``aggregate_batch``: the vectorized read path must be invisible.

The contract under test is byte-identity with the serial ``aggregate``
loop — across all five aggregates, with the result cache on or off,
with duplicate queries in the batch, and with failing queries isolated
to their own slot.
"""

import random
from types import SimpleNamespace

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.rta import RTAResult
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError

KEYS = 200
KEY_SPACE = (1, KEYS + 1)
AGGREGATES = (SUM, COUNT, AVG, MIN, MAX)


def make_warehouse(**kwargs):
    kwargs.setdefault("key_space", KEY_SPACE)
    kwargs.setdefault("page_capacity", 8)
    return TemporalWarehouse(**kwargs)


def _loaded(**kwargs):
    warehouse = make_warehouse(**kwargs)
    rng = random.Random(11)
    t = 1
    for key in rng.sample(range(1, KEYS + 1), KEYS):
        warehouse.insert(key, rng.randint(1, 500) / 10, t)  # sums round
        if rng.random() < 0.2:
            t += 1
    return warehouse, t


def _mixed_queries(now, count, seed=12):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        lo = rng.randint(1, KEYS - 10)
        hi = rng.randint(lo + 1, KEYS + 1)
        t0 = rng.randint(1, now)
        t1 = rng.randint(t0 + 1, now + 2)
        agg = AGGREGATES[rng.randrange(len(AGGREGATES))]
        queries.append((KeyRange(lo, hi), Interval(t0, t1), agg))
    return queries


class TestTwinIdentity:
    def test_five_aggregates_match_serial(self):
        warehouse, now = _loaded()
        queries = _mixed_queries(now, 64)
        serial = [repr(warehouse.aggregate(*q)) for q in queries]
        batched = [repr(x) for x in warehouse.aggregate_batch(queries)]
        assert batched == serial

    def test_cache_on_matches_uncached_twin(self):
        cached, now = _loaded()
        cached.enable_cache()
        plain, _ = _loaded()
        queries = _mixed_queries(now, 48)
        # Two rounds: the second exercises the pass-1 cache-hit slots.
        for _ in range(2):
            batched = [repr(x) for x in cached.aggregate_batch(queries)]
            serial = [repr(plain.aggregate(*q)) for q in queries]
            assert batched == serial
        assert cached.result_cache.stats.hits > 0

    def test_duplicate_queries_collapse_to_identical_answers(self):
        warehouse, now = _loaded()
        base = _mixed_queries(now, 8)
        queries = [base[i % len(base)] for i in range(40)]
        serial = [repr(warehouse.aggregate(*q)) for q in queries]
        before = warehouse.batch_stats.as_dict()
        batched = [repr(x) for x in warehouse.aggregate_batch(queries)]
        after = warehouse.batch_stats.as_dict()
        assert batched == serial
        assert after["batches"] == before["batches"] + 1
        assert after["batched_queries"] == before["batched_queries"] + 40

    def test_memo_prefilled_by_batch(self):
        warehouse, now = _loaded()
        warehouse.enable_cache()
        queries = _mixed_queries(now, 32)
        warehouse.result_cache.clear()
        warehouse.aggregate_batch(queries)
        memo_before = warehouse.cache_snapshot().memo.get("hits", 0)
        warehouse.result_cache.clear()  # force replanning, keep the memo
        for q in queries:
            warehouse.aggregate(*q)
        memo_after = warehouse.cache_snapshot().memo.get("hits", 0)
        assert memo_after > memo_before


class TestLoneBatch:
    def test_a_batch_of_one_is_still_a_batch(self):
        """No second path for ``n == 1``: the lone query's six boundary
        probes are counted like any batch's (sharded sub-batches are
        often a single part)."""
        warehouse, now = _loaded()
        query = (KeyRange(5, 150), Interval(2, now), SUM)
        [answer] = warehouse.aggregate_batch([query])
        assert repr(answer) == repr(warehouse.aggregate(*query))
        snapshot = warehouse.batch_snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["probes"] == 6


class TestSharedEdges:
    """Rollup-shaped batches: neighbouring rectangles share an edge, so
    more than two keys meet at one instant (``key_histogram``) or the
    same two keys meet at many (``timeline``)."""

    def check(self, queries):
        warehouse, _ = _loaded()
        serial = [repr(warehouse.aggregate(*q)) for q in queries]
        before = warehouse.batch_stats.as_dict()
        batched = [repr(x) for x in warehouse.aggregate_batch(queries)]
        after = warehouse.batch_stats.as_dict()
        assert batched == serial
        assert after["pages_saved"] > before["pages_saved"]
        return {name: after[name] - before[name] for name in after}

    def test_key_histogram_bands(self):
        _, now = _loaded()
        edges = list(range(1, KEYS + 2, 25))
        interval = Interval(max(1, now // 3), now + 1)
        spent = self.check([(KeyRange(lo, hi), interval, aggregate)
                            for lo, hi in zip(edges, edges[1:])
                            for aggregate in (SUM, AVG)])
        # A band's SUM and AVG read one cache entry, so they are one
        # executed slot: six probes a band.  Every inner edge is asked
        # for by two bands, at each of the three (tree, instant) pairs:
        # duplicates collapse before anything descends.
        bands = len(edges) - 1
        assert spent["probes"] == 6 * bands
        assert spent["probes_deduped"] == 3 * (bands - 1)

    def test_timeline_buckets(self):
        _, now = _loaded()
        ticks = list(range(1, now + 2, max(1, now // 6)))
        self.check([(KeyRange(20, 160), Interval(lo, hi), aggregate)
                    for lo, hi in zip(ticks, ticks[1:])
                    for aggregate in (COUNT, AVG)])

    def test_one_instant_windows(self):
        """``t1 == t3``: the LKLT pair is asked for twice per request."""
        _, now = _loaded()
        self.check([(KeyRange(lo, lo + 40), Interval(t, t + 1), SUM)
                    for lo in (1, 50, 120) for t in (1, now // 2, now)])


class TestErrorIsolation:
    def test_failing_query_fails_only_itself(self):
        warehouse, now = _loaded()
        good = _mixed_queries(now, 6)
        bad = (KeyRange(KEYS + 50, KEYS + 90), Interval(1, now + 1), SUM)
        queries = good[:3] + [bad] + good[3:]
        results = warehouse.aggregate_batch(queries)
        assert isinstance(results[3], QueryError)
        survivors = results[:3] + results[4:]
        serial = [repr(warehouse.aggregate(*q)) for q in good]
        assert [repr(x) for x in survivors] == serial

    def test_unknown_aggregate_is_in_band(self):
        warehouse, now = _loaded()
        fake = SimpleNamespace(name="MEDIAN")
        queries = [(KeyRange(*KEY_SPACE), Interval(1, now + 1), SUM),
                   (KeyRange(*KEY_SPACE), Interval(1, now + 1), fake)]
        results = warehouse.aggregate_batch(queries)
        assert repr(results[0]) == repr(
            warehouse.aggregate(KeyRange(*KEY_SPACE), Interval(1, now + 1),
                                SUM))
        assert isinstance(results[1], QueryError)

    def test_duplicate_of_failing_query_shares_the_error(self):
        warehouse, now = _loaded()
        bad = (KeyRange(KEYS + 50, KEYS + 90), Interval(1, now + 1), SUM)
        results = warehouse.aggregate_batch([bad, bad])
        assert isinstance(results[0], QueryError)
        assert isinstance(results[1], QueryError)


class TestAggregateAllSlots:
    def test_none_aggregate_returns_rta_partials(self):
        warehouse, now = _loaded()
        rectangle = (KeyRange(1, KEYS + 1), Interval(1, now + 1))
        expected = warehouse.aggregates.aggregate_all(*rectangle)
        [result] = warehouse.aggregate_batch([rectangle + (None,)])
        assert isinstance(result, RTAResult)
        assert repr(result) == repr(expected)

    def test_none_slots_mix_with_planned_slots(self):
        warehouse, now = _loaded()
        rectangle = (KeyRange(1, KEYS + 1), Interval(1, now + 1))
        results = warehouse.aggregate_batch(
            [rectangle + (SUM,), rectangle + (None,), rectangle + (MAX,)])
        assert repr(results[0]) == repr(warehouse.aggregate(*rectangle, SUM))
        assert repr(results[1]) == repr(
            warehouse.aggregates.aggregate_all(*rectangle))
        assert repr(results[2]) == repr(warehouse.aggregate(*rectangle, MAX))
