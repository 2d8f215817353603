"""MVSBT records: rectangles in key-time space carrying aggregate deltas.

A leaf record is ``<range, interval, value>``; an index record additionally
routes to a child page (paper section 4.1).  Property 1: the records of a
page tile the page's rectangle — at any instant of the page's lifespan the
records alive at that instant partition the page's key range.

A ``value`` is a member of an additive group: the kernels only ever use
``+``, unary ``-`` and ``==`` on it.  The RTA index stores ``complex(sum,
count)`` — both aggregates of one tuple stream in one record, added
component by component by one C-level ``+`` — and the one record layout
writes it as two doubles (``<qqqqdd``); a plain number is written with a
zero second half and read back as a ``complex`` whose ``real`` it is.

Under the default "aggregation in a page" mode (section 4.2.1) a record's
``value`` is a *delta* over the next-lower alive record of the same page:
the page's contribution to a point query ``(k, t)`` is the sum of values of
its records alive at ``t`` with ``low <= k`` (exactly Appendix A's
``PagePointQuery``).  Under the unoptimized physical mode each record's
value is its full contribution and a query reads one record per page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import NOW
from repro.storage.serialization import RecordCodec, register_codec

LEAF_KIND = "mvsbt-leaf"
INDEX_KIND = "mvsbt-index"


@dataclass(slots=True)
class MVSBTLeafRecord:
    """Rectangle ``[low, high) x [start, end)`` carrying ``value``."""

    low: int
    high: int
    start: int
    end: int
    value: float

    @property
    def alive(self) -> bool:
        return self.end == NOW

    def alive_at(self, t: int) -> bool:
        """True when the record's interval contains instant ``t``."""
        return self.start <= t < self.end

    def covers_key(self, key: int) -> bool:
        """True when the record's range contains ``key``."""
        return self.low <= key < self.high

    def contains(self, key: int, t: int) -> bool:
        """True when the rectangle contains the key-time point."""
        return self.covers_key(key) and self.alive_at(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = "now" if self.end == NOW else self.end
        return f"L([{self.low},{self.high})x[{self.start},{end}) v={self.value})"


@dataclass(slots=True)
class MVSBTIndexRecord:
    """Leaf record fields plus the child page router."""

    low: int
    high: int
    start: int
    end: int
    value: float
    child: int

    @property
    def alive(self) -> bool:
        return self.end == NOW

    def alive_at(self, t: int) -> bool:
        """True when the record's interval contains instant ``t``."""
        return self.start <= t < self.end

    def covers_key(self, key: int) -> bool:
        """True when the record's range contains ``key``."""
        return self.low <= key < self.high

    def contains(self, key: int, t: int) -> bool:
        """True when the rectangle contains the key-time point."""
        return self.covers_key(key) and self.alive_at(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = "now" if self.end == NOW else self.end
        return (
            f"I([{self.low},{self.high})x[{self.start},{end}) "
            f"v={self.value} -> {self.child})"
        )


def _seal_dead(kind: str, columns: list, meta: dict):
    """The codecs' ``seal`` hook: a dead page comes back from bytes as the
    columnar block a buffered-ingest window would have left — nothing
    routes an insertion to it again, so no kernel ever needs its records
    as objects.  An alive page gets record objects."""
    leaf = kind == LEAF_KIND
    if meta.get("death", NOW) == NOW:
        record = MVSBTLeafRecord if leaf else MVSBTIndexRecord
        return [record(*row) for row in zip(*columns)], None
    from repro.mvsbt.columnar import ColumnarBlock  # imports this module

    return None, ColumnarBlock.from_columns(leaf, columns)


register_codec(LEAF_KIND, RecordCodec(
    fmt="<qqqqdd",
    to_tuple=lambda r: (r.low, r.high, r.start, r.end,
                        r.value.real, r.value.imag),
    from_tuple=lambda t: MVSBTLeafRecord(*t[:4], complex(t[4], t[5])),
    seal=_seal_dead, pair=4,
))
register_codec(INDEX_KIND, RecordCodec(
    fmt="<qqqqddq",
    to_tuple=lambda r: (r.low, r.high, r.start, r.end,
                        r.value.real, r.value.imag, r.child),
    from_tuple=lambda t: MVSBTIndexRecord(*t[:4], complex(t[4], t[5]), t[6]),
    seal=_seal_dead, pair=4,
))

LEAF_RECORD_BYTES = 48
INDEX_RECORD_BYTES = 56

#: The paper's 4-byte-field layout (section 5): range + interval + the
#: two-component value.
PAPER_LEAF_RECORD_BYTES = 24
PAPER_INDEX_RECORD_BYTES = 28
