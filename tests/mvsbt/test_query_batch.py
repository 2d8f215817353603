"""``MVSBT.query_batch``: dedup, memo, sort by instant, adjacent
same-instant probes descending as pairs — against its serial oracle:
duplicate probes, several keys at one instant, pre-history instants,
memo interaction, and the page-fetch accounting.  Values are the two-
component kind the RTA index stores, neither half an integer, and every
comparison is on ``repr``."""

import random

import pytest

from repro.core.batch import BatchScanStats
from repro.errors import QueryError
from repro.mvsbt.tree import MVSBT, MVSBTConfig

from tests.oracles import halves

KEY_SPACE = (1, 1001)


@pytest.fixture()
def tree(pool):
    return MVSBT(pool, MVSBTConfig(capacity=6, strong_factor=0.5),
                 key_space=KEY_SPACE)


def _grown(tree, inserts=300, seed=21):
    rng = random.Random(seed)
    t = 1
    for _ in range(inserts):
        tree.insert(rng.randint(1, 1000), t,
                    complex(rng.choice([0.1, -0.3, 1 / 3, 2.7, -7.25]),
                            rng.choice([1, -1, 0.7])))
        if rng.random() < 0.3:
            t += 1
    return t


def _probes(now, count, seed=22):
    rng = random.Random(seed)
    return [(rng.randint(1, 1000), rng.randint(1, now + 3))
            for _ in range(count)]


class TestSweepOracle:
    def test_matches_serial_descents(self, tree):
        now = _grown(tree)
        probes = _probes(now, 120)
        expected = [tree.query(key, t) for key, t in probes]
        assert repr(tree.query_batch(probes)) == repr(expected)

    @pytest.mark.parametrize("keys_per_instant", [2, 3, 5])
    def test_many_keys_at_one_instant(self, tree, keys_per_instant):
        """Odd counts leave one probe to descend alone; every pair is of
        neighbouring keys, whoever asked for them."""
        now = _grown(tree)
        rng = random.Random(23)
        probes = [(rng.randint(1, 1000), t)
                  for t in rng.sample(range(1, now + 3), 12)
                  for _ in range(keys_per_instant)]
        rng.shuffle(probes)
        expected = [tree.query(key, t) for key, t in probes]
        stats = BatchScanStats()
        assert repr(tree.query_batch(probes, stats)) == repr(expected)
        snapshot = stats.as_dict()
        assert snapshot["pages_saved"] > 0          # shared pair prefixes
        fetches = tree.pool.stats.logical_reads
        tree.query_batch(probes)
        assert tree.pool.stats.logical_reads - fetches \
            == snapshot["pages_fetched"]

    def test_sealed_pages_after_a_reopen(self, tree, tmp_path):
        now = _grown(tree, inserts=600)
        probes = _probes(now, 200)
        expected = [tree.query(key, t) for key, t in probes]
        tree.save(str(tmp_path))
        again = MVSBT.load(str(tmp_path))
        assert halves(again.query_batch(probes)) == halves(expected)

    def test_duplicate_probes_dedup_and_fan_out(self, tree):
        now = _grown(tree)
        base = _probes(now, 10)
        probes = [base[i % len(base)] for i in range(60)]
        expected = [tree.query(key, t) for key, t in probes]
        stats = BatchScanStats()
        assert repr(tree.query_batch(probes, stats)) == repr(expected)
        snapshot = stats.as_dict()
        assert snapshot["probes"] == 60
        assert snapshot["probes_deduped"] == 50
        assert snapshot["pages_saved"] > 0

    def test_pre_history_probes_are_zero(self, tree):
        _grown(tree)
        assert tree.query_batch([(500, 0), (500, tree.start_time - 1)]) \
            == [0.0, 0.0]

    def test_key_outside_space_raises(self, tree):
        _grown(tree)
        with pytest.raises(QueryError):
            tree.query_batch([(500, 5), (1001, 5)])

    def test_list_shaped_probes(self, tree):
        """A probe is anything that unpacks to ``(key, t)``, as in the
        serial ``for key, t in probes`` loop."""
        now = _grown(tree)
        probes = _probes(now, 20)
        assert repr(tree.query_batch([list(p) for p in probes])) \
            == repr(tree.query_batch(probes))

    def test_empty_batch(self, tree):
        _grown(tree)
        assert tree.query_batch([]) == []


class TestMemoInteraction:
    def test_batch_prefills_memo_for_serial_hits(self, tree):
        tree.enable_memo(capacity=4096)
        now = _grown(tree)
        probes = _probes(now, 80)
        first = tree.query_batch(probes)
        hits_before = tree.memo.stats.hits
        serial = [tree.query(key, t) for key, t in probes]
        assert serial == first
        assert tree.memo.stats.hits >= hits_before + len(probes)

    def test_memo_hits_serve_second_batch(self, tree):
        tree.enable_memo(capacity=4096)
        now = _grown(tree)
        probes = _probes(now, 80)
        first = tree.query_batch(probes)
        stats = BatchScanStats()
        second = tree.query_batch(probes, stats)
        assert second == first
        # Every probe answered from the memo: nothing left to sweep.
        assert stats.as_dict()["pages_fetched"] == 0
