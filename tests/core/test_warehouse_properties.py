"""Hypothesis property tests for the TemporalWarehouse facade.

Whatever plan the planner picks, every aggregate must equal the oracle,
and MIN/MAX (retrieval path) must match brute force.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse

from tests.oracles import TupleStoreOracle

KEY_SPACE = (1, 120)


@st.composite
def op_streams(draw):
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "insert", "delete"]),
            st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-8, max_value=8),
        ),
        min_size=1, max_size=80,
    ))


@st.composite
def rectangles(draw):
    k1 = draw(st.integers(min_value=KEY_SPACE[0], max_value=KEY_SPACE[1] - 1))
    k2 = draw(st.integers(min_value=k1 + 1, max_value=KEY_SPACE[1]))
    t1 = draw(st.integers(min_value=1, max_value=300))
    t2 = draw(st.integers(min_value=t1 + 1, max_value=400))
    return (k1, k2, t1, t2)


def replay(stream):
    warehouse = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=5)
    oracle = TupleStoreOracle()
    alive = set()
    t = 1
    for op, key, dt, value in stream:
        t += dt
        if op == "insert" and key not in alive:
            warehouse.insert(key, float(value), t)
            oracle.insert(key, float(value), t)
            alive.add(key)
        elif op == "delete" and key in alive:
            warehouse.delete(key, t)
            oracle.delete(key, t)
            alive.discard(key)
    return warehouse, oracle


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles())
def test_sum_and_count_match_oracle_under_any_plan(stream, rect):
    warehouse, oracle = replay(stream)
    k1, k2, t1, t2 = rect
    r, iv = KeyRange(k1, k2), Interval(t1, t2)
    assert warehouse.sum(r, iv) == pytest.approx(
        oracle.rta_sum(k1, k2, t1, t2))
    assert warehouse.count(r, iv) == oracle.rta_count(k1, k2, t1, t2)


@settings(max_examples=40, deadline=None)
@given(op_streams(), rectangles())
def test_min_max_match_brute_force(stream, rect):
    warehouse, oracle = replay(stream)
    k1, k2, t1, t2 = rect
    rows = oracle.rectangle_tuples(k1, k2, t1, t2)
    r, iv = KeyRange(k1, k2), Interval(t1, t2)
    if rows:
        assert warehouse.min(r, iv) == min(v for *_x, v in rows)
        assert warehouse.max(r, iv) == max(v for *_x, v in rows)
    else:
        assert warehouse.min(r, iv) is None
        assert warehouse.max(r, iv) is None


@settings(max_examples=30, deadline=None)
@given(op_streams(), st.integers(min_value=1, max_value=400))
def test_snapshot_matches_oracle(stream, t):
    warehouse, oracle = replay(stream)
    assert warehouse.snapshot(KeyRange(*KEY_SPACE), t) \
        == sorted(oracle.snapshot(t))


@settings(max_examples=25, deadline=None)
@given(op_streams(), rectangles())
def test_explain_cost_estimates_are_consistent(stream, rect):
    """EXPLAIN names the plan the rule picks; its estimates are exact
    where they can be and agree across aggregates."""
    warehouse, oracle = replay(stream)
    k1, k2, t1, t2 = rect
    r, iv = KeyRange(k1, k2), Interval(t1, t2)
    additive = warehouse.explain(r, iv, SUM)
    order = warehouse.explain(r, iv, MIN)
    assert (additive.plan, order.plan) == ("mvsbt", "mvbt-scan")
    assert additive.estimated_tuples == oracle.rta_count(k1, k2, t1, t2)
    assert order.estimated_tuples == additive.estimated_tuples
    assert order.mvbt_cost_reads == additive.mvbt_cost_reads
    assert additive.mvsbt_cost_reads < order.mvsbt_cost_reads == float("inf")
