"""Tests for TQL execution: text queries must match the direct API."""

import pytest

from repro.core.aggregates import SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError
from repro.tql import execute, explain, parse

KEY_SPACE = (1, 10_001)


@pytest.fixture()
def warehouse():
    wh = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
    wh.insert(1042, 250.0, t=10)
    wh.insert(2117, 900.0, t=12)
    wh.insert(2118, 100.0, t=15)
    wh.delete(1042, t=20)
    wh.insert(1042, 300.0, t=25)   # reborn with a new value
    return wh


class TestSelect:
    def test_sum_with_rectangle(self, warehouse):
        result = execute(
            warehouse,
            "SELECT SUM(value) WHERE key IN [2000, 3000) "
            "AND time DURING [12, 18)",
        )
        assert result == 1000.0

    def test_defaults_cover_everything_so_far(self, warehouse):
        assert execute(warehouse, "SELECT COUNT(*)") == 4.0

    def test_key_equals_and_time_at(self, warehouse):
        assert execute(
            warehouse, "SELECT SUM(value) WHERE key = 1042 AND time AT 15"
        ) == 250.0
        assert execute(
            warehouse, "SELECT SUM(value) WHERE key = 1042 AND time AT 20"
        ) == 0.0
        assert execute(
            warehouse, "SELECT SUM(value) WHERE key = 1042 AND time AT 30"
        ) == 300.0

    def test_avg_and_empty_rectangle(self, warehouse):
        assert execute(
            warehouse,
            "SELECT AVG(value) WHERE key IN [2000, 3000) AND time AT 16",
        ) == 500.0
        assert execute(
            warehouse, "SELECT AVG(value) WHERE time DURING [1, 5)"
        ) is None

    def test_min_max_via_retrieval(self, warehouse):
        assert execute(warehouse, "SELECT MIN(value)") == 100.0
        assert execute(warehouse, "SELECT MAX(value)") == 900.0

    def test_matches_direct_api(self, warehouse):
        text = ("SELECT SUM(value) WHERE key IN [1000, 3000) "
                "AND time DURING [10, 30)")
        direct = warehouse.sum(KeyRange(1000, 3000), Interval(10, 30))
        assert execute(warehouse, text) == direct

    def test_timeline(self, warehouse):
        series = execute(
            warehouse,
            "SELECT TIMELINE(COUNT, 3) WHERE time DURING [10, 25)",
        )
        assert len(series) == 3
        assert [bucket.start for bucket, _ in series] == [10, 15, 20]
        from repro.core.aggregates import COUNT
        direct = warehouse.aggregates.timeline(
            KeyRange(*KEY_SPACE), Interval(10, 25), 3, COUNT)
        assert series == direct
        # COUNT per bucket computed correctly:
        assert [v for _, v in series] == [2.0, 3.0, 2.0]


class TestSnapshotAndHistory:
    def test_snapshot(self, warehouse):
        rows = execute(warehouse, "SNAPSHOT AT 16 WHERE key IN [1000, 3000)")
        assert rows == [(1042, 250.0), (2117, 900.0), (2118, 100.0)]
        rows = execute(warehouse, "SNAPSHOT AT 22 WHERE key IN [1000, 2000)")
        assert rows == []

    def test_snapshot_whole_space(self, warehouse):
        rows = execute(warehouse, "SNAPSHOT AT 16")
        assert len(rows) == 3

    def test_history(self, warehouse):
        versions = execute(warehouse, "HISTORY OF 1042")
        assert [(v.interval.start, v.value) for v in versions] \
            == [(10, 250.0), (25, 300.0)]


class TestExplain:
    def test_explain_select(self, warehouse):
        for agg in ("SUM", "COUNT", "AVG"):
            plan = explain(warehouse, f"SELECT {agg}(value)")
            assert plan.plan == "mvsbt"
            assert "Equation (1)" in plan.reason

    def test_explain_min_names_open_problem(self, warehouse):
        plan = explain(warehouse, "SELECT MIN(value)")
        assert plan.plan == "mvbt-scan"
        assert "open problem" in plan.reason

    def test_explain_rejects_non_select(self, warehouse):
        with pytest.raises(QueryError):
            explain(warehouse, "HISTORY OF 5")


class TestStatementObjects:
    def test_pre_parsed_statement_accepted(self, warehouse):
        stmt = parse("SELECT COUNT(*)")
        assert execute(warehouse, stmt) == 4.0

    def test_unknown_statement_rejected(self, warehouse):
        with pytest.raises(QueryError):
            execute(warehouse, 42)  # type: ignore[arg-type]
