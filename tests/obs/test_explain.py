"""EXPLAIN surface: span-tree accounting and the TQL statement."""

import pytest

from repro.core.aggregates import AVG, COUNT, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError
from repro.obs.explain import ExplainReport, explain_query, render_span_tree
from repro.tql import ExplainStatement, execute, parse
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset


@pytest.fixture(scope="module")
def warehouse():
    dataset = generate_dataset(paper_config("uniform-long", scale=0.0008))
    warehouse = TemporalWarehouse(key_space=dataset.config.key_space,
                                  page_capacity=8)
    dataset.replay_into(warehouse)
    return warehouse


def big_rectangle(warehouse):
    """A whole-space rectangle — the planner picks the mvsbt plan for it."""
    lo, hi = warehouse.key_space
    return KeyRange(lo, hi), Interval(1, warehouse.now + 1)


class TestExplainQuery:
    def test_report_carries_plan_result_and_spans(self, warehouse):
        key_range, interval = big_rectangle(warehouse)
        report = explain_query(warehouse, key_range, interval, SUM)
        assert isinstance(report, ExplainReport)
        assert report.plan.plan == "mvsbt"
        assert report.result == warehouse.aggregate(key_range, interval, SUM)
        assert report.root.find("plan")
        assert report.root.find("execute")

    def test_page_accesses_sum_to_query_ios(self, warehouse):
        # The acceptance identity: for an mvsbt-plan query, the per-page
        # spans of a reduction partition its physical I/O exactly.  The
        # plan step's estimate is the same rectangle's reduction on the
        # same tree pair, so the cold reads are its; execute finds the
        # pages buffered.
        warehouse.tuples.pool.clear()
        warehouse.aggregates.pool.clear()
        key_range, interval = big_rectangle(warehouse)
        report = explain_query(warehouse, key_range, interval, SUM)
        assert report.plan.plan == "mvsbt"
        estimate, execute = report.root.find("rta.reduce")
        for span in (estimate, execute):
            page_spans = span.find("mvsbt.page")
            assert page_spans, "no per-page spans under the reduction"
            assert sum(s.total_ios for s in page_spans) == span.total_ios
        assert estimate.total_ios > 0   # cold buffer: real reads happened
        (execute_span,) = report.root.find("execute")
        assert execute_span.total_ios == execute.total_ios == 0

    def test_per_level_breakdown_sums_too(self, warehouse):
        warehouse.aggregates.pool.clear()
        key_range, interval = big_rectangle(warehouse)
        report = explain_query(warehouse, key_range, interval, COUNT)
        (execute_span,) = report.root.find("execute")
        page_spans = execute_span.find("mvsbt.page")
        by_level = {}
        for span in page_spans:
            level = span.attrs["level"]
            by_level[level] = by_level.get(level, 0) + span.total_ios
        assert sum(by_level.values()) == execute_span.total_ios
        assert set(by_level), "levels missing from page spans"

    def test_render_includes_costs_and_tree(self, warehouse):
        key_range, interval = big_rectangle(warehouse)
        report = explain_query(warehouse, key_range, interval, AVG)
        text = str(report)
        assert "plan:" in text
        assert "result:" in text
        assert "total:" in text
        assert "execute" in text
        assert "rta.pair" in text
        assert "mvsbt.query_pair" in text

    def test_equation_one_is_two_pair_descents(self, warehouse):
        """The traced read runs what the untraced one runs: one
        ``rta.pair`` span for each of the two same-instant pairs,
        around one ``mvsbt.query_pair`` whose pages serve both probes
        until the keys part and one probe after."""
        lo, hi = warehouse.key_space
        key_range = KeyRange(lo + (hi - lo) // 7, hi - (hi - lo) // 9)
        interval = Interval(warehouse.now // 10, warehouse.now // 2)
        warehouse.aggregates.pool.clear()
        before = warehouse.aggregates.pool.stats.snapshot()
        plain = warehouse.aggregate(key_range, interval, SUM)
        untraced = warehouse.aggregates.pool.stats.delta(before)
        report = explain_query(warehouse, key_range, interval, SUM)
        assert report.result == plain
        (execute_span,) = report.root.find("execute")
        assert execute_span.io.logical_reads == untraced.logical_reads
        pairs = execute_span.find("rta.pair")
        assert [(s.attrs["tree"], s.attrs["t"]) for s in pairs] == [
            ("lks", interval.end - 1), ("lklt", interval.start)]
        assert not execute_span.find("mvsbt.query")
        for pair in pairs:
            assert pair.attrs["k_hi"] == key_range.high
            assert pair.attrs["k_lo"] == key_range.low
            (descent,) = pair.children
            assert descent.name == "mvsbt.query_pair"
            probes = [s.attrs["probes"] for s in descent.children
                      if s.name == "mvsbt.page"]
            shared = probes.count(2)
            assert shared >= 1 and probes == [2] * shared \
                + [1] * (len(probes) - shared)
        # One fetch per page span: shared pages are not fetched twice.
        assert len(execute_span.find("mvsbt.page")) \
            == execute_span.io.logical_reads

    def test_render_span_tree_events_have_no_cost_suffix(self, warehouse):
        key_range, interval = big_rectangle(warehouse)
        report = explain_query(warehouse, key_range, interval, SUM)
        text = render_span_tree(report.root)
        for line in text.splitlines():
            if "buffer.hit" in line:
                assert "ios=" not in line
                break


class TestTQLExplain:
    def test_parse_explain_select(self):
        statement = parse("EXPLAIN SELECT SUM(value) "
                          "WHERE key IN [1, 50) AND time DURING [1, 40)")
        assert isinstance(statement, ExplainStatement)
        assert statement.select.agg.name == "SUM"

    def test_execute_explain_returns_report(self, warehouse):
        report = execute(warehouse, "EXPLAIN SELECT COUNT(*)")
        assert isinstance(report, ExplainReport)
        assert "plan:" in str(report)

    def test_explain_timeline_rejected(self, warehouse):
        with pytest.raises(QueryError):
            execute(warehouse, "EXPLAIN SELECT TIMELINE(SUM, 4)")

    def test_explain_requires_select(self):
        with pytest.raises(QueryError):
            parse("EXPLAIN SNAPSHOT AT 5")
