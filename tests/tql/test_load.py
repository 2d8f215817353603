"""Tests for TQL ``LOAD`` bulk-ingest statements."""

import pytest

from repro.core.ingest import BUFFERED_MIN_EVENTS
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError
from repro.tql import execute, parse, render
from repro.tql.parser import LoadStatement, TQLSyntaxError


@pytest.fixture()
def warehouse():
    return TemporalWarehouse(key_space=(1, 1001), page_capacity=8)


class TestParsing:
    def test_load(self):
        stmt = parse("LOAD INSERT KEY 1 VALUE 2.5 AT 3, "
                     "DELETE KEY 1 AT 9")
        assert stmt == LoadStatement(
            events=(("insert", 1, 2.5, 3), ("delete", 1, 0.0, 9)),
        )

    def test_load_buffered(self):
        # The ingest path is the loader's choice: the keyword is gone.
        with pytest.raises(QueryError) as caught:
            parse("load buffered insert key 7 value -1 at 2")
        assert caught.value.code == "SYNTAX"

    def test_empty_load_rejected(self):
        with pytest.raises(TQLSyntaxError, match="INSERT or DELETE"):
            parse("LOAD")

    def test_trailing_comma_rejected(self):
        with pytest.raises(TQLSyntaxError):
            parse("LOAD INSERT KEY 1 VALUE 1 AT 1,")

    def test_select_inside_load_rejected(self):
        with pytest.raises(TQLSyntaxError):
            parse("LOAD SELECT SUM(value)")

    def test_render_round_trip(self):
        stmt = LoadStatement(
            events=(("insert", 5, 1.25, 2), ("insert", 8, 3.0, 2),
                    ("delete", 5, 0.0, 6)),
        )
        assert parse(render(stmt)) == stmt
        assert render(stmt).startswith("LOAD INSERT ")


class TestExecution:
    EVENTS = ("INSERT KEY 100 VALUE 5 AT 10, "
              "INSERT KEY 200 VALUE 7 AT 12, "
              "DELETE KEY 100 AT 20")

    def test_load_matches_single_statements(self, warehouse):
        message = execute(warehouse, f"LOAD {self.EVENTS}")
        assert "loaded 3 events" in message
        assert "2 inserts" in message and "1 deletes" in message
        reference = TemporalWarehouse(key_space=(1, 1001), page_capacity=8)
        for text in self.EVENTS.split(", "):
            execute(reference, text)
        for query in ("SELECT SUM(value)", "SELECT COUNT(*) WHERE time AT 15",
                      "SELECT AVG(value) WHERE time DURING [10, 30)"):
            assert repr(execute(warehouse, query)) == repr(
                execute(reference, query))

    @staticmethod
    def big_load(events):
        return "LOAD " + ", ".join(
            f"INSERT KEY {key} VALUE {key % 7} AT {key}"
            for key in range(1, events + 1))

    def test_buffered_matches_direct(self, warehouse):
        # One statement at the constant (buffer-tree window) against the
        # same rows in two statements below it (direct path).
        text = self.big_load(BUFFERED_MIN_EVENTS)
        assert f", {BUFFERED_MIN_EVENTS} buffered)" in execute(warehouse, text)
        reference = TemporalWarehouse(key_space=(1, 1001), page_capacity=8)
        rows = text[len("LOAD "):].split(", ")
        for part in (rows[:100], rows[100:]):
            assert ", 0 buffered)" in execute(reference,
                                           "LOAD " + ", ".join(part))
        for query in ("SELECT SUM(value)", "SELECT COUNT(*)",
                      "SELECT AVG(value) WHERE KEY IN [40, 90) "
                      "AND time DURING [50, 200)", "SNAPSHOT AT 150"):
            assert repr(execute(warehouse, query)) == repr(
                execute(reference, query))

    def test_mode_is_reported(self, warehouse):
        # Not a mode any more: the reply says how many events went
        # through a buffer-tree window.
        assert ", 0 buffered)" in execute(
            warehouse, "LOAD INSERT KEY 1000 VALUE 1 AT 1")
        text = self.big_load(BUFFERED_MIN_EVENTS + 3)
        assert f", {BUFFERED_MIN_EVENTS + 3} buffered)" in execute(
            warehouse, text)

    def test_out_of_order_load_rejected(self, warehouse):
        with pytest.raises(ValueError, match="chronological"):
            execute(warehouse, "LOAD INSERT KEY 1 VALUE 1 AT 9, "
                               "INSERT KEY 2 VALUE 1 AT 3")
