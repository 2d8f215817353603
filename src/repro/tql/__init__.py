"""TQL — a small temporal query language over the warehouse.

The paper's introduction motivates RTA queries as the warehouse manager's
tool: "focus the aggregation to any time-interval and/or key-range".  TQL
is that interface as text, so the examples and ad-hoc exploration read
like the sentences in the paper::

    SELECT SUM(value)  WHERE key IN [1000, 2000) AND time DURING [50, 100)
    SELECT AVG(value)  WHERE key = 1042
    SELECT COUNT(*)    WHERE time AT 75
    SELECT TIMELINE(SUM, 4) WHERE key IN [1, 500) AND time DURING [1, 101)
    SNAPSHOT AT 75     WHERE key IN [1000, 2000)
    HISTORY OF 1042

Semantics are exactly the library's: half-open ranges and intervals,
``time AT t`` is the instant ``[t, t+1)``, a missing key predicate means
the whole key space and a missing time predicate means everything up to
``now``.  ``MIN``/``MAX`` route through the warehouse's retrieval plan
(open problem (ii)); ``SUM``/``COUNT``/``AVG`` always run Equation (1).

Entry points: :func:`parse` (text -> statement AST),
:func:`execute` (text or AST + warehouse -> result),
:func:`explain` (text + warehouse -> the plan and its cost estimates), and
:func:`explain_select` (SELECT AST + warehouse -> traced
:class:`~repro.obs.explain.ExplainReport`); ``EXPLAIN SELECT ...`` routes
through the latter.
"""

from repro.tql.executor import execute, explain, explain_select
from repro.tql.parser import (
    DeleteStatement,
    ExplainStatement,
    HistoryStatement,
    InsertStatement,
    SelectStatement,
    SnapshotStatement,
    TQLSyntaxError,
    parse,
)
from repro.tql.render import render

__all__ = [
    "DeleteStatement",
    "ExplainStatement",
    "HistoryStatement",
    "InsertStatement",
    "SelectStatement",
    "SnapshotStatement",
    "TQLSyntaxError",
    "execute",
    "explain",
    "explain_select",
    "parse",
    "render",
]
