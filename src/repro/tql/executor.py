"""TQL execution over a :class:`~repro.core.warehouse.TemporalWarehouse`.

``execute(warehouse, text_or_statement)`` parses (if needed), fills the
defaults — whole key space, everything up to ``now`` — and dispatches:
plain SELECTs go through ``warehouse.aggregate`` (additive aggregates run
Equation (1), MIN/MAX retrieve), TIMELINE uses the RTA rollup,
SNAPSHOT/HISTORY use the tuple store.  ``explain`` returns that plan and
its cost estimates for a SELECT without running it; ``EXPLAIN SELECT
...`` (the statement) additionally *runs* the select under a tracer and
returns an :class:`~repro.obs.explain.ExplainReport` whose ``str()`` is
the indented span-tree plan with per-node I/O and CPU.

The ``warehouse`` argument is duck-typed: a
:class:`~repro.serve.sharded.ShardedWarehouse` works too.  EXPLAIN
against a sharded warehouse returns its list of per-shard
:class:`~repro.serve.sharded.ShardPlan` decisions instead of a traced
report (span tracing is a single-warehouse facility).

``as_of`` pins a statement to a snapshot time — the AS OF semantics the
:mod:`repro.serve` server runs every read under.  The default interval
becomes "everything up to the snapshot" and explicit intervals are clipped
so they end at or before ``as_of + 1``; a rectangle that only touches
closed versions never races a concurrent writer.  Every error raised here
derives from :class:`~repro.errors.ReproError` and carries a stable
``code``, so process boundaries can map failures without string matching.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import QueryPlan, TemporalWarehouse
from repro.errors import QueryError
from repro.obs.explain import ExplainReport, explain_query
from repro.tql.parser import (
    DeleteStatement,
    ExplainStatement,
    HistoryStatement,
    InsertStatement,
    LoadStatement,
    SelectStatement,
    SnapshotStatement,
    parse,
)

_AGGREGATES = {a.name: a for a in (SUM, COUNT, AVG, MIN, MAX)}

StatementLike = Union[str, SelectStatement, SnapshotStatement,
                      HistoryStatement]


def _aggregate_named(name: str):
    aggregate = _AGGREGATES.get(name)
    if aggregate is None:
        raise QueryError(f"unknown aggregate {name!r}")
    return aggregate


def _resolve_rectangle(warehouse: TemporalWarehouse,
                       statement: SelectStatement,
                       as_of: Optional[int] = None):
    lo, hi = warehouse.key_space
    key_range = KeyRange(*(statement.key_range or (lo, hi)))
    horizon = (as_of if as_of is not None else warehouse.now) + 1
    if statement.interval is not None:
        start, end = statement.interval
        if as_of is not None and end > horizon:
            end = horizon
        if start >= end:
            raise QueryError(
                f"interval [{statement.interval[0]}, "
                f"{statement.interval[1]}) is empty at snapshot "
                f"time {as_of}"
            )
        interval = Interval(start, end)
    else:
        interval = Interval(1, max(horizon, 2))
    return key_range, interval


def execute(warehouse: TemporalWarehouse,
            statement: StatementLike, *,
            as_of: Optional[int] = None) -> Any:
    """Run one TQL statement; the result type depends on the statement.

    * plain ``SELECT`` — a float (``None`` for AVG/MIN/MAX of nothing);
    * ``SELECT TIMELINE(...)`` — a list of ``(Interval, value)`` buckets;
    * ``SNAPSHOT`` — a list of ``(key, value)`` pairs;
    * ``HISTORY`` — a list of :class:`~repro.core.model.TemporalTuple`;
    * ``EXPLAIN SELECT ...`` — an :class:`~repro.obs.explain.ExplainReport`
      (plan decision, result, and the traced span tree), or per-shard
      plans for a sharded warehouse.

    ``as_of`` pins reads to a snapshot time (see the module docstring);
    write statements ignore it.
    """
    if isinstance(statement, str):
        statement = parse(statement)
    if isinstance(statement, ExplainStatement):
        return explain_select(warehouse, statement.select, as_of=as_of)
    if isinstance(statement, SelectStatement):
        key_range, interval = _resolve_rectangle(warehouse, statement, as_of)
        aggregate = _aggregate_named(statement.agg.name)
        if statement.agg.timeline_buckets is not None:
            return warehouse.aggregates.timeline(
                key_range, interval, statement.agg.timeline_buckets,
                aggregate,
            )
        return warehouse.aggregate(key_range, interval, aggregate)
    if isinstance(statement, SnapshotStatement):
        lo, hi = warehouse.key_space
        key_range = KeyRange(*(statement.key_range or (lo, hi)))
        at = statement.at
        if as_of is not None:
            at = min(at, as_of)
        return warehouse.snapshot(key_range, at)
    if isinstance(statement, HistoryStatement):
        return warehouse.history(statement.key)
    if isinstance(statement, InsertStatement):
        warehouse.insert(statement.key, statement.value, statement.at)
        return f"inserted key {statement.key} at t={statement.at}"
    if isinstance(statement, DeleteStatement):
        value = warehouse.delete(statement.key, statement.at)
        return (f"deleted key {statement.key} at t={statement.at} "
                f"(value was {value})")
    if isinstance(statement, LoadStatement):
        report = warehouse.load_events(statement.events)
        return (f"loaded {report.events} events ({report.inserts} inserts, "
                f"{report.deletes} deletes, {report.buffered_events} "
                f"buffered)")
    raise QueryError(f"cannot execute {type(statement).__name__}")


def explain(warehouse: TemporalWarehouse,
            statement: StatementLike, *,
            as_of: Optional[int] = None) -> QueryPlan:
    """The plan a SELECT runs and its cost estimates, without executing it.

    For a sharded warehouse the return value is its list of per-shard
    :class:`~repro.serve.sharded.ShardPlan` rows.
    """
    if isinstance(statement, str):
        statement = parse(statement)
    if isinstance(statement, ExplainStatement):
        statement = statement.select
    if not isinstance(statement, SelectStatement):
        raise QueryError("only SELECT statements have query plans")
    key_range, interval = _resolve_rectangle(warehouse, statement, as_of)
    return warehouse.explain(key_range, interval,
                             _aggregate_named(statement.agg.name))


def explain_select(warehouse: TemporalWarehouse,
                   statement: SelectStatement, *,
                   as_of: Optional[int] = None) -> ExplainReport:
    """Run a SELECT under a tracer and report the full span tree.

    The traced counterpart of :func:`explain`: the query actually executes
    (under a temporarily attached tracer), so the report carries the
    result and exact per-node I/O and CPU alongside the plan.
    Sharded warehouses have no single span tree; they return their
    per-shard plans instead.
    """
    if statement.agg.timeline_buckets is not None:
        raise QueryError(
            "EXPLAIN supports plain SELECT aggregates, not TIMELINE"
        )
    key_range, interval = _resolve_rectangle(warehouse, statement, as_of)
    if not hasattr(warehouse, "run_plan"):  # sharded: per-shard plans
        return warehouse.explain(key_range, interval,
                                 _aggregate_named(statement.agg.name))
    return explain_query(warehouse, key_range, interval,
                         _aggregate_named(statement.agg.name))
