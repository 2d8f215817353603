"""EXPLAIN's per-query cache outcome: probe, deltas, and rendering."""

from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.obs.explain import explain_query
from repro.tql import executor


def make_warehouse():
    warehouse = TemporalWarehouse(key_space=(1, 201), page_capacity=8)
    for k in range(1, 60):
        warehouse.insert(k, float(k), k)
    return warehouse


def test_uncached_warehouse_reports_no_cache_line():
    warehouse = make_warehouse()
    report = explain_query(warehouse, KeyRange(1, 201), Interval(1, 30))
    assert report.cache is None
    assert "cache:" not in report.render()
    assert "cache" not in report.root.attrs


def test_miss_then_hit_outcomes():
    warehouse = make_warehouse()
    warehouse.enable_cache()
    kr, interval = KeyRange(1, 201), Interval(1, 30)
    cold = explain_query(warehouse, kr, interval)
    assert cold.cache["result"] == "miss"
    assert cold.root.attrs["cache"] == "miss"
    # EXPLAIN executes outside the result-cache path, so warm the cache
    # through the production surface, then re-explain.
    warehouse.aggregate(kr, interval)
    warm = explain_query(warehouse, kr, interval)
    assert warm.cache["result"] == "hit"
    assert warm.root.attrs["cache"] == "hit"
    line = [ln for ln in warm.render().splitlines()
            if ln.startswith("cache:")]
    assert len(line) == 1
    assert "result=hit" in line[0]
    assert "buffer_hit_rate=" in line[0]


def test_memo_delta_counts_this_query_only():
    warehouse = make_warehouse()
    warehouse.enable_cache()
    # Open-present (the clock is 59): only such a rectangle's probes
    # reach the memo; a closed one's delta is 0.
    kr, interval = KeyRange(1, 201), Interval(1, 60)
    explain_query(warehouse, kr, interval)          # warms the memos
    report = explain_query(warehouse, kr, interval)
    assert report.cache["memo_hits"] > 0
    # One entry per cache layer: result cache, point memo, buffer pool.
    assert set(report.cache) == {"result", "memo_hits", "buffer_hit_rate"}


def test_tql_explain_select_renders_cache_line():
    warehouse = make_warehouse()
    warehouse.enable_cache()
    tql = "EXPLAIN SELECT SUM(value) WHERE key IN [1, 201) " \
          "AND time DURING [1, 30)"
    report = executor.execute(warehouse, tql)
    assert "cache: result=miss" in str(report)
    warehouse.aggregate(KeyRange(1, 201), Interval(1, 30))
    report = executor.execute(warehouse, tql)
    assert "cache: result=hit" in str(report)
