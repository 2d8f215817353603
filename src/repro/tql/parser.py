"""TQL recursive-descent parser producing statement ASTs.

Grammar (keywords case-insensitive; ``[a, b)`` denotes half-open)::

    statement  := explain | select | snapshot | history | load
    explain    := EXPLAIN select
    load       := LOAD loadevent (',' loadevent)*
    loadevent  := INSERT KEY INT VALUE NUMBER AT INT
                | DELETE KEY INT AT INT
    select     := SELECT aggspec WHERE predicates
                | SELECT aggspec                      -- no filter: whole space
    aggspec    := (SUM|AVG|MIN|MAX) '(' VALUE ')'
                | COUNT '(' '*' ')'
                | TIMELINE '(' (SUM|COUNT|AVG) ',' INT ')'
    snapshot   := SNAPSHOT AT INT [WHERE keypred]
    history    := HISTORY OF INT
    predicates := pred (AND pred)*
    pred       := keypred | timepred
    keypred    := KEY IN range | KEY '=' INT
    timepred   := TIME DURING range | TIME AT INT
    range      := '[' INT ',' INT ')'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.tql.lexer import Token, tokenize

AGG_NAMES = ("SUM", "COUNT", "AVG", "MIN", "MAX")
TIMELINE_AGGS = ("SUM", "COUNT", "AVG")


class TQLSyntaxError(QueryError):
    """Malformed TQL (reported with the offending token)."""

    code = "SYNTAX"


@dataclass(frozen=True)
class AggSpec:
    """The aggregate of a SELECT: name, plus bucket count for TIMELINE."""

    name: str
    timeline_buckets: Optional[int] = None


@dataclass(frozen=True)
class SelectStatement:
    """``SELECT agg WHERE ...`` — an RTA (or timeline of RTAs)."""

    agg: AggSpec
    key_range: Optional[Tuple[int, int]]    # half-open; None = whole space
    interval: Optional[Tuple[int, int]]     # half-open; None = up to now


@dataclass(frozen=True)
class SnapshotStatement:
    """``SNAPSHOT AT t [WHERE key ...]`` — alive tuples of one version."""

    at: int
    key_range: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class HistoryStatement:
    """``HISTORY OF key`` — every version the key ever had."""

    key: int


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT KEY k VALUE v AT t`` — open a tuple at instant ``t``."""

    key: int
    value: float
    at: int


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE KEY k AT t`` — logically delete the alive tuple."""

    key: int
    at: int


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN SELECT ...`` — trace the select and render its span tree."""

    select: SelectStatement


@dataclass(frozen=True)
class LoadStatement:
    """``LOAD INSERT ..., DELETE ...`` — a bulk event batch.

    ``events`` holds plain ``(op, key, value, time)`` rows in statement
    order.
    """

    events: Tuple[Tuple[str, int, float, int], ...]


Statement = (SelectStatement, SnapshotStatement, HistoryStatement,
             InsertStatement, DeleteStatement, ExplainStatement,
             LoadStatement)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers -------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _take(self, kind: str) -> Token:
        token = self._current
        if token.kind != kind:
            raise TQLSyntaxError(
                f"expected {kind} at position {token.position}, "
                f"found {token.text or 'end of input'!r}"
            )
        self._index += 1
        return token

    def _accept(self, kind: str) -> Optional[Token]:
        if self._current.kind == kind:
            return self._take(kind)
        return None

    def _int(self) -> int:
        token = self._take("NUMBER")
        try:
            return int(token.text)
        except ValueError:
            raise TQLSyntaxError(
                f"expected an integer at position {token.position}, "
                f"found {token.text!r}"
            ) from None

    def _number(self) -> float:
        return float(self._take("NUMBER").text)

    # -- grammar -------------------------------------------------------------------

    def statement(self):
        """Parse one complete statement followed by end of input."""
        if self._accept("EXPLAIN"):
            self._take("SELECT")
            result = ExplainStatement(select=self._select())
        elif self._accept("SELECT"):
            result = self._select()
        elif self._accept("SNAPSHOT"):
            result = self._snapshot()
        elif self._accept("HISTORY"):
            result = self._history()
        elif self._accept("INSERT"):
            result = self._insert()
        elif self._accept("DELETE"):
            result = self._delete()
        elif self._accept("LOAD"):
            result = self._load()
        else:
            token = self._current
            raise TQLSyntaxError(
                f"expected SELECT, EXPLAIN, SNAPSHOT, HISTORY, INSERT, "
                f"DELETE or LOAD, found {token.text or 'end of input'!r}"
            )
        self._take("EOF")
        return result

    def _select(self) -> SelectStatement:
        agg = self._aggspec()
        key_range = interval = None
        if self._accept("WHERE"):
            key_range, interval = self._predicates()
        return SelectStatement(agg=agg, key_range=key_range,
                               interval=interval)

    def _aggspec(self) -> AggSpec:
        token = self._current
        if token.kind == "TIMELINE":
            self._take("TIMELINE")
            self._take("(")
            inner = self._current
            if inner.kind not in TIMELINE_AGGS:
                raise TQLSyntaxError(
                    f"TIMELINE supports {'/'.join(TIMELINE_AGGS)}, found "
                    f"{inner.text!r}"
                )
            self._take(inner.kind)
            self._take(",")
            buckets = self._int()
            self._take(")")
            if buckets < 1:
                raise TQLSyntaxError("TIMELINE needs at least one bucket")
            return AggSpec(name=inner.kind, timeline_buckets=buckets)
        if token.kind not in AGG_NAMES:
            raise TQLSyntaxError(
                f"expected an aggregate, found {token.text!r}"
            )
        self._take(token.kind)
        self._take("(")
        if token.kind == "COUNT":
            # COUNT(*) is canonical; COUNT(value) is accepted too.
            if self._accept("*") is None:
                self._take("VALUE")
        else:
            self._take("VALUE")
        self._take(")")
        return AggSpec(name=token.kind)

    def _predicates(self) -> Tuple[Optional[Tuple[int, int]],
                                   Optional[Tuple[int, int]]]:
        key_range = interval = None
        while True:
            if self._accept("KEY"):
                if key_range is not None:
                    raise TQLSyntaxError("duplicate key predicate")
                key_range = self._key_predicate()
            elif self._accept("TIME"):
                if interval is not None:
                    raise TQLSyntaxError("duplicate time predicate")
                interval = self._time_predicate()
            else:
                token = self._current
                raise TQLSyntaxError(
                    f"expected KEY or TIME, found {token.text!r}"
                )
            if self._accept("AND") is None:
                break
        return key_range, interval

    def _key_predicate(self) -> Tuple[int, int]:
        if self._accept("IN"):
            return self._range()
        if self._accept("="):
            key = self._int()
            return (key, key + 1)
        raise TQLSyntaxError(
            f"expected IN or = after KEY, found {self._current.text!r}"
        )

    def _time_predicate(self) -> Tuple[int, int]:
        if self._accept("DURING"):
            return self._range()
        if self._accept("AT"):
            instant = self._int()
            return (instant, instant + 1)
        raise TQLSyntaxError(
            f"expected DURING or AT after TIME, found {self._current.text!r}"
        )

    def _range(self) -> Tuple[int, int]:
        self._take("[")
        low = self._int()
        self._take(",")
        high = self._int()
        self._take(")")
        if low >= high:
            raise TQLSyntaxError(f"empty range [{low}, {high})")
        return (low, high)

    def _snapshot(self) -> SnapshotStatement:
        self._take("AT")
        at = self._int()
        key_range = None
        if self._accept("WHERE"):
            self._take("KEY")
            key_range = self._key_predicate()
        return SnapshotStatement(at=at, key_range=key_range)

    def _history(self) -> HistoryStatement:
        self._take("OF")
        return HistoryStatement(key=self._int())

    def _insert(self) -> InsertStatement:
        self._take("KEY")
        key = self._int()
        self._take("VALUE")
        value = self._number()
        self._take("AT")
        return InsertStatement(key=key, value=value, at=self._int())

    def _delete(self) -> DeleteStatement:
        self._take("KEY")
        key = self._int()
        self._take("AT")
        return DeleteStatement(key=key, at=self._int())

    def _load(self) -> LoadStatement:
        events: List[Tuple[str, int, float, int]] = []
        while True:
            if self._accept("INSERT"):
                row = self._insert()
                events.append(("insert", row.key, row.value, row.at))
            elif self._accept("DELETE"):
                row = self._delete()
                events.append(("delete", row.key, 0.0, row.at))
            else:
                raise TQLSyntaxError(
                    f"expected INSERT or DELETE in LOAD, found "
                    f"{self._current.text or 'end of input'!r}"
                )
            if self._accept(",") is None:
                break
        return LoadStatement(events=tuple(events))


def parse(text: str):
    """Parse one TQL statement; returns the statement dataclass."""
    return _Parser(tokenize(text)).statement()
