"""Hypothesis property tests: RTAIndex vs the tuple-store oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import Interval, KeyRange
from repro.core.rta import RTAIndex
from repro.mvsbt.tree import MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

from tests.oracles import TupleStoreOracle

KEY_SPACE = (1, 150)


@st.composite
def op_streams(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-9, max_value=9),
        ),
        min_size=1, max_size=100,
    ))


@st.composite
def closing_streams(draw):
    """Op streams whose deletes always close an alive tuple (a delete of a
    random key rarely finds one alive, so :func:`op_streams` seldom
    deletes anything)."""
    alive, stream = [], []
    for closes, key, dt, value in draw(st.lists(
            st.tuples(st.booleans(),
                      st.integers(min_value=KEY_SPACE[0],
                                  max_value=KEY_SPACE[1] - 1),
                      st.integers(min_value=0, max_value=3),
                      st.integers(min_value=-9, max_value=9)),
            min_size=1, max_size=100)):
        if closes and alive:
            stream.append(("delete", alive.pop(key % len(alive)), dt, value))
        elif key not in alive:
            alive.append(key)
            stream.append(("insert", key, dt, value))
    return stream


def replay(stream):
    pool = BufferPool(InMemoryDiskManager(), capacity=4096)
    index = RTAIndex(pool, MVSBTConfig(capacity=5), key_space=KEY_SPACE)
    oracle = TupleStoreOracle()
    alive = set()
    t = 1
    for op, key, dt, value in stream:
        t += dt
        if op == "insert" and key not in alive:
            index.insert(key, float(value), t)
            oracle.insert(key, float(value), t)
            alive.add(key)
        elif op == "delete" and key in alive:
            index.delete(key, t)
            oracle.delete(key, t)
            alive.discard(key)
    return index, oracle, t


@st.composite
def rectangles(draw):
    k1 = draw(st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1))
    k2 = draw(st.integers(min_value=k1 + 1, max_value=KEY_SPACE[1]))
    t1 = draw(st.integers(min_value=1, max_value=400))
    t2 = draw(st.integers(min_value=t1 + 1, max_value=500))
    return (k1, k2, t1, t2)


@settings(max_examples=60, deadline=None)
@given(op_streams(), rectangles())
def test_sum_matches_oracle(stream, rect):
    index, oracle, _ = replay(stream)
    k1, k2, t1, t2 = rect
    assert index.sum(KeyRange(k1, k2), Interval(t1, t2)) \
        == pytest.approx(oracle.rta_sum(k1, k2, t1, t2))


@settings(max_examples=60, deadline=None)
@given(op_streams(), rectangles())
def test_count_matches_oracle(stream, rect):
    index, oracle, _ = replay(stream)
    k1, k2, t1, t2 = rect
    assert index.count(KeyRange(k1, k2), Interval(t1, t2)) \
        == oracle.rta_count(k1, k2, t1, t2)


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles())
def test_avg_consistent_with_sum_and_count(stream, rect):
    index, _, _ = replay(stream)
    k1, k2, t1, t2 = rect
    r, iv = KeyRange(k1, k2), Interval(t1, t2)
    result = index.aggregate_all(r, iv)
    if result.count:
        assert result.avg == pytest.approx(result.sum / result.count)
    else:
        assert result.avg is None


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles(),
       st.integers(min_value=KEY_SPACE[0] + 1, max_value=KEY_SPACE[1] - 1))
def test_key_partition_additivity(stream, rect, cut):
    index, _, _ = replay(stream)
    k1, k2, t1, t2 = rect
    if not (k1 < cut < k2):
        return
    iv = Interval(t1, t2)
    whole = index.sum(KeyRange(k1, k2), iv)
    parts = index.sum(KeyRange(k1, cut), iv) + index.sum(KeyRange(cut, k2), iv)
    assert whole == pytest.approx(parts)


@settings(max_examples=60, deadline=None)
@given(closing_streams(), rectangles(),
       st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1]))
def test_started_less_dead_is_alive_and_answers_are_exact(stream, rect, k):
    """At every instant ``t``, ``LKS(k, t) - LKLT(k, t)`` is the SUM and
    COUNT of the tuples with ``key < k`` alive at ``t`` — the identity
    that lets Equation (1) drop LKST — and so is the one-instant RTA of
    ``[lo, k)``.  With integer values every answer is exact, so each
    equals the oracle's with no tolerance."""
    index, oracle, clock = replay(stream)
    lks, lklt = index.trees()
    lo = KEY_SPACE[0]
    for t in range(1, clock + 2):
        alive = [value for key, value in oracle.snapshot(t) if key < k]
        assert lks.query(k, t) - lklt.query(k, t) \
            == complex(sum(alive), len(alive))
        if k > lo:
            assert index.sum(KeyRange(lo, k), Interval(t, t + 1)) \
                == sum(alive)
    k1, k2, t1, t2 = rect
    got = index.aggregate_all(KeyRange(k1, k2), Interval(t1, t2))
    assert got.sum == oracle.rta_sum(k1, k2, t1, t2)
    assert got.count == oracle.rta_count(k1, k2, t1, t2)
