"""Columnar page blocks: the buffered MVSBT ingestion path's working
form of a page, and every dead page's final one.

During a buffered-ingest window (see :mod:`repro.mvsbt.buffered`) every
page touched by the router descent is *sealed*: its per-record objects are
exploded into parallel scalar arrays held in a :class:`ColumnarBlock`
parked in ``Page.cache``, and ``Page.records`` is set to ``None`` so any
code path that was not taught about the window fails loudly instead of
reading half a page.  The block is the page — same rectangles, same
record order — just stored column-major so the hot ingest kernels touch
plain ints and floats instead of dataclass instances.

When the window closes, alive pages go back to object records (the
insert kernels mutate those in place) and **dead pages stay blocks**: a
time-split page is never routed to again, and the read path scans a
block faster than a list of dataclass instances.  A checkpoint read
leaves dead pages the same way (:meth:`ColumnarBlock.from_columns`).  A
page whose ``death`` is ``NOW`` never holds a block outside a window.

Two representation details the kernels rely on:

* **Tombstones.**  Rows are never physically deleted (later rows are
  referenced by index from the alive list and the closes map), so a
  removal sets ``ends[i] = starts[i]``.  An empty interval can never be
  observed (``alive_at`` is ``start <= t < end``), is excluded from the
  closes map, and is dropped on materialization — exactly mirroring the
  physical ``records.remove`` of the object kernels, including record
  order, because surviving rows keep their positions.
* **Alive index.**  ``alive`` holds the row indices of the alive records
  sorted by ``low`` (Property 1 tiling makes the lows strictly
  increasing) with ``alive_lows`` the parallel bisect key list — the
  columnar twin of :class:`repro.mvsbt.pageops._AliveMirror`, maintained
  incrementally instead of being version-validated.

``pending`` is the leaf-level update buffer of the buffer-tree design:
deposited ``(key, t, value)`` triples waiting for their amortized apply.
Interior blocks never buffer (their mutations are applied on arrival, see
the module docstring of :mod:`repro.mvsbt.buffered` for why).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.model import NOW
from repro.mvsbt.records import (
    LEAF_KIND,
    MVSBTIndexRecord,
    MVSBTLeafRecord,
)
from repro.storage.page import Page

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


class ColumnarBlock:
    """One page's records as struct-of-arrays plus derived ingest state."""

    __slots__ = (
        "leaf",
        "lows",
        "highs",
        "starts",
        "ends",
        "values",
        "childs",
        "alive",
        "alive_lows",
        "closes",
        "pending",
        "count",
    )

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.lows: List[int] = []
        self.highs: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.values: List[float] = []
        #: Child page ids; ``None`` for leaf blocks.
        self.childs: Optional[List[int]] = None if leaf else []
        #: Row indices of alive records, sorted by ``low``.
        self.alive: List[int] = []
        #: ``lows[row]`` for each alive row (the bisect key list).
        self.alive_lows: List[int] = []
        #: Lazily built ``(low, high) -> row`` map of the latest-closed
        #: dead record per key range (time-merge candidate probing).
        self.closes: Optional[Dict[Tuple[int, int], int]] = None
        #: Leaf update buffer: deposited ``(key, t, value)`` triples.
        self.pending: List[Tuple[int, int, float]] = []
        #: Physical (non-tombstone) row count — the overflow metric,
        #: equal to ``len(page.records)`` of the object representation.
        self.count = 0

    # -- conversion --------------------------------------------------------------

    @classmethod
    def from_page(cls, page: Page) -> "ColumnarBlock":
        """Explode ``page.records`` into a block (record order preserved)."""
        block = cls(page.kind == LEAF_KIND)
        lows, highs = block.lows, block.highs
        starts, ends, values = block.starts, block.ends, block.values
        childs = block.childs
        for rec in page.records:
            lows.append(rec.low)
            highs.append(rec.high)
            starts.append(rec.start)
            ends.append(rec.end)
            values.append(rec.value)
            if childs is not None:
                childs.append(rec.child)
        block.count = len(lows)
        block.rebuild_alive()
        return block

    @classmethod
    def from_columns(cls, leaf: bool, columns: list) -> "ColumnarBlock":
        """A *dead* page's block straight from its decoded columns (one
        tuple per record field, as
        :func:`~repro.storage.serialization.decode_columns` returns them;
        none for an empty page).

        The state a window leaves a page in when it dies there: the
        columns (immutable tuples here — a dead page is never routed
        again) and an empty alive index.
        """
        block = cls(leaf)
        if columns:
            (block.lows, block.highs, block.starts, block.ends,
             block.values) = columns[:5]
            if not leaf:
                block.childs = columns[5]
            block.count = len(block.lows)
        return block

    def rebuild_alive(self) -> None:
        """Recompute the alive index from the arrays (seal/prune time)."""
        ends, lows = self.ends, self.lows
        rows = sorted(
            (r for r in range(len(ends)) if ends[r] == NOW),
            key=lows.__getitem__,
        )
        self.alive = rows
        self.alive_lows = [lows[r] for r in rows]

    def live_rows(self) -> List[tuple]:
        """The non-tombstone rows as record-field tuples —
        :meth:`from_columns`'s inverse.  Surviving rows keep their relative
        order, so the result matches what the object kernels' physical
        appends/removals would have produced for the same mutations."""
        columns = [self.lows, self.highs, self.starts, self.ends,
                   self.values]
        if self.childs is not None:
            columns.append(self.childs)
        return [row for row in zip(*columns) if row[2] != row[3]]

    def to_records(self) -> list:
        """Rebuild the object-record list, dropping tombstoned rows."""
        record = MVSBTLeafRecord if self.leaf else MVSBTIndexRecord
        return [record(*row) for row in self.live_rows()]

    def to_rows(self) -> Tuple[int, list]:
        """``(count, flat)``: every surviving row's fields concatenated in
        the page codec's field order — the input
        :func:`repro.storage.serialization.encode_page_flat` turns into a
        page image with one bulk ``struct.pack`` instead of a per-record
        encode loop, each value as its two halves.  Byte-identical to
        encoding :meth:`to_records`."""
        columns = [self.lows, self.highs, self.starts, self.ends,
                   map(_REAL, self.values), map(_IMAG, self.values)]
        if self.childs is not None:
            columns.append(self.childs)
        rows = [row for row in zip(*columns) if row[2] != row[3]]
        return len(rows), list(chain.from_iterable(rows))

    # -- row primitives -----------------------------------------------------------

    def append_row(self, low: int, high: int, start: int, end: int,
                   value: float, child: int = -1) -> int:
        """Append one record row; returns its index."""
        self.lows.append(low)
        self.highs.append(high)
        self.starts.append(start)
        self.ends.append(end)
        self.values.append(value)
        if self.childs is not None:
            self.childs.append(child)
        self.count += 1
        return len(self.lows) - 1

    def tombstone(self, row: int) -> None:
        """Logically remove ``row`` (the columnar ``records.remove``)."""
        self.ends[row] = self.starts[row]
        self.count -= 1

    def build_closes(self) -> Dict[Tuple[int, int], int]:
        """(Re)build and memoize the latest-closed-dead-row map."""
        closes: Dict[Tuple[int, int], int] = {}
        lows, highs = self.lows, self.highs
        starts, ends = self.starts, self.ends
        for r in range(len(ends)):
            e = ends[r]
            if e == NOW or starts[r] == e:
                continue
            key_range = (lows[r], highs[r])
            cur = closes.get(key_range)
            if cur is None or e > ends[cur]:
                closes[key_range] = r
        self.closes = closes
        return closes

    def scan(self, key: int, t: int) -> Tuple[float, Optional[int]]:
        """``PagePointQuery`` over the arrays (logical mode).

        Returns the page's contribution at ``(key, t)`` and the row index
        of the containing record (``None`` breaks tiling upstream).
        Tombstones fail the aliveness test by construction.
        """
        acc = 0.0
        containing: Optional[int] = None
        lows, highs, ends, values = (self.lows, self.highs, self.ends,
                                     self.values)
        for r, start in enumerate(self.starts):
            if start <= t < ends[r] and lows[r] <= key:
                acc += values[r]
                if key < highs[r]:
                    containing = r
        return acc, containing

    def scan_pair(self, key_a: int, key_b: int, t: int
                  ) -> Tuple[float, Optional[int], float, Optional[int]]:
        """:meth:`scan` for two keys at one instant in one pass.

        Both probes meet the same alive set, so the aliveness test runs
        once per row; each key keeps its own sum in row order, which
        makes either half bit-identical to its solo :meth:`scan` — the
        pair descent's byte-identity guarantee rests on this.
        """
        acc_a = acc_b = 0.0
        row_a: Optional[int] = None
        row_b: Optional[int] = None
        lows, highs, ends, values = (self.lows, self.highs, self.ends,
                                     self.values)
        for r, start in enumerate(self.starts):
            if start <= t < ends[r]:
                low = lows[r]
                if low <= key_a:
                    acc_a += values[r]
                    if key_a < highs[r]:
                        row_a = r
                if low <= key_b:
                    acc_b += values[r]
                    if key_b < highs[r]:
                        row_b = r
        return acc_a, row_a, acc_b, row_b


def seal_page(page: Page) -> ColumnarBlock:
    """Convert ``page`` to columnar representation (idempotent).

    ``page.records`` becomes ``None`` — any unguarded object-path access
    during the window raises immediately instead of misreading the page.
    """
    block = page.cache
    if type(block) is ColumnarBlock:
        return block
    block = ColumnarBlock.from_page(page)
    page.cache = block
    page.records = None
    return block


def materialize_page(page: Page) -> None:
    """Restore ``page`` to the object-record representation."""
    block = page.cache
    if type(block) is not ColumnarBlock:
        return
    page.records = block.to_records()
    page.cache = None
    page.mark_dirty()
