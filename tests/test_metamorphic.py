"""Metamorphic tests: relations that must hold between *different* queries
or *transformed* workloads, independent of any oracle.

These catch bugs a point-by-point oracle comparison can mask (e.g. a
consistent bias applied to both sides of a comparison).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.core.rta import RTAIndex
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager

KEY_SPACE = (1, 120)


def fresh_pool():
    return BufferPool(InMemoryDiskManager(), capacity=2048)


@st.composite
def op_streams(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1, max_size=80,
    ))


def build_index(stream, value_scale=1.0, value_shift_keys=None):
    index = RTAIndex(fresh_pool(), MVSBTConfig(capacity=6),
                     key_space=KEY_SPACE)
    alive = {}
    t = 1
    for op, key, dt, value in stream:
        t += dt
        if op == "insert" and key not in alive:
            index.insert(key, float(value) * value_scale, t)
            alive[key] = value
        elif op == "delete" and key in alive:
            index.delete(key, t)
            del alive[key]
    return index, t


@st.composite
def rectangles(draw):
    k1 = draw(st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1))
    k2 = draw(st.integers(min_value=k1 + 1, max_value=KEY_SPACE[1]))
    t1 = draw(st.integers(min_value=1, max_value=300))
    t2 = draw(st.integers(min_value=t1 + 1, max_value=400))
    return (k1, k2, t1, t2)


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles(), st.integers(min_value=2, max_value=7))
def test_sum_scales_linearly_with_values(stream, rect, factor):
    """SUM(c·values) = c·SUM(values); COUNT is invariant."""
    base, _ = build_index(stream)
    scaled, _ = build_index(stream, value_scale=float(factor))
    k1, k2, t1, t2 = rect
    r, iv = KeyRange(k1, k2), Interval(t1, t2)
    assert scaled.sum(r, iv) == pytest.approx(factor * base.sum(r, iv))
    assert scaled.count(r, iv) == base.count(r, iv)


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles())
def test_monotonicity_in_the_rectangle(stream, rect):
    """COUNT never decreases when the rectangle grows in either dimension."""
    index, _ = build_index(stream)
    k1, k2, t1, t2 = rect
    inner = index.count(KeyRange(k1, k2), Interval(t1, t2))
    wider_keys = index.count(KeyRange(max(k1 - 5, KEY_SPACE[0]),
                                      min(k2 + 5, KEY_SPACE[1])),
                             Interval(t1, t2))
    longer_time = index.count(KeyRange(k1, k2),
                              Interval(max(t1 - 5, 1), t2 + 5))
    assert wider_keys >= inner
    assert longer_time >= inner


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles())
def test_inclusion_exclusion_over_key_ranges(stream, rect):
    """SUM(A ∪ B) = SUM(A) + SUM(B) - SUM(A ∩ B) for overlapping ranges."""
    index, _ = build_index(stream)
    k1, k2, t1, t2 = rect
    if k2 - k1 < 4:
        return
    iv = Interval(t1, t2)
    third = (k2 - k1) // 3
    a = KeyRange(k1, k1 + 2 * third)
    b = KeyRange(k1 + third, k2)
    union = KeyRange(k1, k2)
    intersection = KeyRange(k1 + third, k1 + 2 * third)
    assert index.sum(union, iv) == pytest.approx(
        index.sum(a, iv) + index.sum(b, iv) - index.sum(intersection, iv)
    )


@settings(max_examples=40, deadline=None)
@given(op_streams())
def test_rta_instant_equals_mvsbt_difference(stream):
    """RTA over a single instant must equal the raw tree difference —
    tuples started by ``t`` less tuples dead by ``t``, Equation (1) with
    both pairs at the same instant, in its evaluation order — at every
    instant of the stream and one past it."""
    index, clock = build_index(stream)
    lks, lklt = index.trees()
    k1, k2 = 30, 90
    for t in range(1, clock + 2):
        direct = index.sum(KeyRange(k1, k2), Interval(t, t + 1))
        reduced = (lks.query(k2, t) - lks.query(k1, t)) \
            - (lklt.query(k2, t) - lklt.query(k1, t))
        assert direct == reduced.real


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=9),
), min_size=1, max_size=60))
def test_mvsbt_prefix_monotone_for_positive_streams(updates):
    """With only positive quadrant adds, V(k, t) is non-decreasing in both
    coordinates."""
    pool = fresh_pool()
    tree = MVSBT(pool, MVSBTConfig(capacity=5), key_space=KEY_SPACE)
    t = 1
    for key, dt, value in updates:
        t += dt
        tree.insert(key, t, float(value))
    probes_k = range(KEY_SPACE[0], KEY_SPACE[1], 17)
    for qt in (1, t // 2 + 1, t + 1):
        values = [tree.query(k, qt) for k in probes_k]
        assert values == sorted(values)
    for k in (KEY_SPACE[0], 60, KEY_SPACE[1] - 1):
        over_time = [tree.query(k, qt) for qt in (1, t // 2 + 1, t + 1)]
        assert over_time == sorted(over_time)
