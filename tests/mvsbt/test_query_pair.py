"""``MVSBT.query_pair``: two point queries at one instant down one shared
path must be, to the last bit, the two solo descents.

The streams carry **non-integer** values: ``(acc + v1) + v2`` is not
``acc + (v1 + v2)``, and with integer-valued floats no test could see a
kernel that summed in another order.  Every comparison is on ``repr``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import NOW
from repro.errors import InvariantViolation, QueryError
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

from tests.oracles import DominanceSumOracle, halves

KEY_SPACE = (1, 120)
KEYS = st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1)
#: Values whose sums round: tenths and thirds are not dyadic.
HALVES = [0.1, -0.1, 0.3, 1 / 3, -2 / 3, 2.7, 1e-3, -7.25, 1e9 + 0.1]
#: Two-component values, as the RTA index stores (and the one record
#: layout writes) them; both halves round.
VALUES = st.builds(complex, st.sampled_from(HALVES),
                   st.sampled_from([1.0, -1.0] + HALVES))


@st.composite
def update_streams(draw, max_size=140):
    return draw(st.lists(
        st.tuples(KEYS, st.integers(min_value=0, max_value=3), VALUES),
        min_size=1, max_size=max_size))


def build(stream, **config_kwargs):
    pool = BufferPool(InMemoryDiskManager(), capacity=2048)
    config = dict(capacity=5, strong_factor=0.8)
    config.update(config_kwargs)
    tree = MVSBT(pool, MVSBTConfig(**config), key_space=KEY_SPACE)
    t = 1
    for key, dt, value in stream:
        t += dt
        tree.insert(key, t, value)
    return tree, t


def reopened(tree, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("pair"))
    tree.save(directory)
    return MVSBT.load(directory, buffer_pages=2048)


def representations(tree):
    """How many reachable pages hold object records / a sealed block."""
    objects = sealed = 0
    for pid in tree.page_ids():
        if tree.pool.fetch(pid).records is None:
            sealed += 1
        else:
            objects += 1
    return objects, sealed


def assert_pairs_match_solo(tree, probes):
    for a, b, t in probes:
        solo = (tree.query(a, t), tree.query(b, t))
        assert repr(tree.query_pair(a, b, t)) == repr(solo), (a, b, t)


PROBES = st.lists(st.tuples(KEYS, KEYS, st.integers(min_value=1,
                                                    max_value=450)),
                  min_size=1, max_size=12)


class TestPairEqualsSolo:
    @settings(max_examples=60, deadline=None)
    @given(update_streams(), PROBES)
    def test_object_pages(self, stream, probes):
        tree, _ = build(stream)
        assert representations(tree)[1] == 0
        assert_pairs_match_solo(tree, probes)

    @settings(max_examples=40, deadline=None)
    @given(update_streams(), PROBES)
    def test_sealed_pages_after_a_reopen(self, tmp_path_factory, stream,
                                         probes):
        tree, _ = build(stream)
        expected = [(tree.query(a, t), tree.query(b, t))
                    for a, b, t in probes]
        again = reopened(tree, tmp_path_factory)
        got = [again.query_pair(a, b, t) for a, b, t in probes]
        assert halves(got) == halves(expected)
        assert_pairs_match_solo(again, probes)

    @settings(max_examples=40, deadline=None)
    @given(update_streams(), update_streams(max_size=60), PROBES)
    def test_mixed_pages_after_a_write_tail(self, tmp_path_factory, stream,
                                            tail, probes):
        tree, now = build(stream)
        twin, _ = build(stream)
        again = reopened(tree, tmp_path_factory)
        for key, dt, value in tail:
            now += dt
            again.insert(key, now, value)
            twin.insert(key, now, value)
        expected = [(twin.query(a, t), twin.query(b, t))
                    for a, b, t in probes]
        got = [again.query_pair(a, b, t) for a, b, t in probes]
        assert halves(got) == halves(expected)
        again.check_invariants()    # last: the audit unseals what it reads

    @settings(max_examples=40, deadline=None)
    @given(update_streams(), PROBES)
    def test_physical_mode(self, tmp_path_factory, stream, probes):
        tree, _ = build(stream, logical_split=False, record_merging=False)
        oracle = DominanceSumOracle()
        t = 1
        for key, dt, value in stream:
            t += dt
            oracle.insert(key, t, value)
        assert_pairs_match_solo(tree, probes)
        again = reopened(tree, tmp_path_factory)   # dead pages now sealed
        assert_pairs_match_solo(again, probes)
        for a, b, t in probes:
            hi, lo = again.query_pair(a, b, t)
            assert hi == pytest.approx(oracle.query(a, t))
            assert lo == pytest.approx(oracle.query(b, t))


def grown(seed=5, inserts=400, **config_kwargs):
    rng = random.Random(seed)
    stream = [(rng.randint(1, 119), rng.randint(0, 2),
               complex(rng.choice([0.1, -0.3, 1 / 3, 2.7, 1e9 + 0.1]),
                       rng.choice([1, -1, 1 / 3])))
              for _ in range(inserts)]
    return build(stream, **config_kwargs)


class TestDensePages:
    """The paper's page size: dozens of records alive under one probe, so
    a kernel that summed a page in any other order (or folded the page
    into the running sum record by record) rounds differently on a large
    share of these probes — reversing one scan loop fails ~40% of them."""

    @pytest.mark.parametrize("capacity", [8, 32])
    @pytest.mark.parametrize("pages", ["objects", "sealed", "mixed"])
    def test_two_thousand_inserts(self, tmp_path_factory, capacity, pages):
        tree, now = grown(seed=1, inserts=2000, capacity=capacity)
        twin, _ = grown(seed=1, inserts=2000, capacity=capacity)
        if pages != "objects":
            tree = reopened(tree, tmp_path_factory)
        if pages == "mixed":
            rng = random.Random(2)
            for _ in range(300):
                now += rng.randint(0, 2)
                key = rng.randint(1, 119)
                value = complex(rng.choice([0.1, 1 / 3]), 1)
                tree.insert(key, now, value)
                twin.insert(key, now, value)
        objects, sealed = representations(tree)
        assert (sealed > 0) == (pages != "objects")
        assert objects > 0
        rng = random.Random(3)
        for _ in range(1500):
            a, b = rng.randint(1, 119), rng.randint(1, 119)
            t = rng.randint(1, now + 2)
            assert halves(tree.query_pair(a, b, t)) \
                == halves((twin.query(a, t), twin.query(b, t))), (a, b, t)


class TestEdges:
    def test_mixed_representations_really_mix(self, tmp_path_factory):
        tree, now = grown()
        again = reopened(tree, tmp_path_factory)
        for pid in again.page_ids():
            page = again.pool.fetch(pid)
            assert (page.records is None) == (page.meta["death"] != NOW)
        again.insert(60, now + 1, 0.7)
        objects, sealed = representations(again)
        assert objects and sealed

    def test_same_key_twice(self):
        tree, now = grown()
        for t in (1, now // 2, now, now + 5):
            value = tree.query(40, t)
            assert repr(tree.query_pair(40, 40, t)) == repr((value, value))

    def test_key_outside_the_key_space(self):
        tree, now = grown()
        for pair in ((KEY_SPACE[1], 5), (5, KEY_SPACE[1]), (0, 5), (5, 0)):
            with pytest.raises(QueryError):
                tree.query_pair(*pair, now)

    def test_before_the_start_time(self):
        pool = BufferPool(InMemoryDiskManager(), capacity=64)
        tree = MVSBT(pool, MVSBTConfig(capacity=5), key_space=KEY_SPACE,
                     start_time=10)
        tree.insert(5, 12, 0.3)
        fetches = pool.stats.logical_reads
        assert tree.query_pair(50, 5, 9) == (0.0, 0.0)
        assert pool.stats.logical_reads == fetches

    def test_shares_the_fetches_of_the_common_path(self, tmp_path_factory):
        tree, now = grown()
        again = reopened(tree, tmp_path_factory)
        stats = again.pool.stats
        for a, b, t in [(100, 20, now // 2), (61, 60, now), (119, 1, 3)]:
            before = stats.logical_reads
            again.query(a, t)
            again.query(b, t)
            solo = stats.logical_reads - before
            before = stats.logical_reads
            again.query_pair(a, b, t)
            # At least the root* entry's page is shared.
            assert stats.logical_reads - before <= solo - 1

    def test_uncovered_page_still_raises(self, tmp_path_factory):
        tree, now = grown()
        again = reopened(tree, tmp_path_factory)
        t = now // 2
        root = again.pool.fetch(again.roots.find(t).root_id)
        block = root.cache
        assert root.records is None
        block.lows = tuple(low + 1000 for low in block.lows)  # covers nothing
        with pytest.raises(InvariantViolation):
            again.query_pair(100, 20, t)
        with pytest.raises(InvariantViolation):
            again.query(100, t)


class TestMemo:
    """Memo on: each probe of a pair is looked up and put back on its
    own, so the counters and the stored descent lengths are exactly what
    two solo queries leave."""

    def twins(self):
        tree, now = grown(seed=9)
        twin, _ = grown(seed=9)
        tree.enable_memo(capacity=4096)
        twin.enable_memo(capacity=4096)
        return tree, twin, now

    @staticmethod
    def solo_pair(tree, a, b, t):
        return tree.query(a, t), tree.query(b, t)

    def test_both_miss_one_hit_both_hit(self):
        tree, twin, now = self.twins()
        t = now // 2
        # Both miss.
        assert repr(tree.query_pair(100, 20, t)) \
            == repr(self.solo_pair(twin, 100, 20, t))
        assert tree.memo.stats.as_dict() == twin.memo.stats.as_dict()
        # One hit (20 is memoized, 70 is not), either side.
        assert repr(tree.query_pair(70, 20, t)) \
            == repr(self.solo_pair(twin, 70, 20, t))
        assert repr(tree.query_pair(20, 33, t)) \
            == repr(self.solo_pair(twin, 20, 33, t))
        assert tree.memo.stats.as_dict() == twin.memo.stats.as_dict()
        # Both hit: no page is fetched.
        fetches = tree.pool.stats.logical_reads
        assert repr(tree.query_pair(100, 70, t)) \
            == repr(self.solo_pair(twin, 100, 70, t))
        assert tree.pool.stats.logical_reads == fetches
        assert tree.memo.stats.as_dict() == twin.memo.stats.as_dict()
        assert tree.memo.stats.hits == 4

    def test_put_records_each_probes_own_descent_length(self):
        tree, twin, now = self.twins()
        rng = random.Random(3)
        probes = [(rng.randint(1, 119), rng.randint(1, 119),
                   rng.randint(1, now + 2)) for _ in range(60)]
        for a, b, t in probes:
            tree.query_pair(a, b, t)
            self.solo_pair(twin, a, b, t)
        epoch = tree._memo_epoch
        for a, b, t in probes:
            for key in (a, b):
                assert tree.memo.get(key, t, epoch) \
                    == twin.memo.get(key, t, twin._memo_epoch), (key, t)

    def test_open_frontier_entries_go_stale_on_insert(self):
        tree, twin, now = self.twins()
        before = tree.query_pair(100, 20, now + 3)
        for each in (tree, twin):
            each.insert(10, now + 1, 0.37)
        after = tree.query_pair(100, 20, now + 3)
        assert repr(after) == repr(self.solo_pair(twin, 100, 20, now + 3))
        assert after != before
