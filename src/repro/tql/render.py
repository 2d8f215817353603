"""Render TQL statement ASTs back to canonical text.

``parse(render(statement)) == statement`` for every statement the parser
can produce — the round-trip property the test suite enforces.  Canonical
form: upper-case keywords, ``COUNT(*)``, explicit half-open ranges, key
predicate before time predicate.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.tql.parser import (
    AggSpec,
    DeleteStatement,
    HistoryStatement,
    InsertStatement,
    LoadStatement,
    SelectStatement,
    SnapshotStatement,
)


def _render_agg(agg: AggSpec) -> str:
    if agg.timeline_buckets is not None:
        return f"TIMELINE({agg.name}, {agg.timeline_buckets})"
    if agg.name == "COUNT":
        return "COUNT(*)"
    return f"{agg.name}(value)"


def _render_predicates(statement: SelectStatement) -> str:
    parts = []
    if statement.key_range is not None:
        low, high = statement.key_range
        if high == low + 1:
            parts.append(f"key = {low}")
        else:
            parts.append(f"key IN [{low}, {high})")
    if statement.interval is not None:
        start, end = statement.interval
        if end == start + 1:
            parts.append(f"time AT {start}")
        else:
            parts.append(f"time DURING [{start}, {end})")
    if not parts:
        return ""
    return " WHERE " + " AND ".join(parts)


def render(statement) -> str:
    """Canonical TQL text for a statement AST."""
    if isinstance(statement, SelectStatement):
        return (f"SELECT {_render_agg(statement.agg)}"
                f"{_render_predicates(statement)}")
    if isinstance(statement, SnapshotStatement):
        text = f"SNAPSHOT AT {statement.at}"
        if statement.key_range is not None:
            low, high = statement.key_range
            if high == low + 1:
                text += f" WHERE key = {low}"
            else:
                text += f" WHERE key IN [{low}, {high})"
        return text
    if isinstance(statement, HistoryStatement):
        return f"HISTORY OF {statement.key}"
    if isinstance(statement, InsertStatement):
        value = statement.value
        value_text = str(int(value)) if value == int(value) else repr(value)
        return (f"INSERT KEY {statement.key} VALUE {value_text} "
                f"AT {statement.at}")
    if isinstance(statement, DeleteStatement):
        return f"DELETE KEY {statement.key} AT {statement.at}"
    if isinstance(statement, LoadStatement):
        rows = []
        for op, key, value, time in statement.events:
            if op == "insert":
                rows.append(render(InsertStatement(key=key, value=value,
                                                   at=time)))
            else:
                rows.append(render(DeleteStatement(key=key, at=time)))
        return "LOAD " + ", ".join(rows)
    raise QueryError(f"cannot render {type(statement).__name__}")
