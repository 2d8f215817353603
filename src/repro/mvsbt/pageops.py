"""Page-level operations of the MVSBT insertion algorithm.

The vocabulary comes straight from section 4.1 of the paper.  For a page
``p`` and insertion key ``k``, among the records *alive* in ``p``:

* the **partly-covered** record is the unique one whose key range contains
  ``k`` strictly inside (``low < k < high``) — its range intersects the
  quadrant ``[k, maxkey]`` without being contained in it;
* a **fully-covered** record has ``low >= k``;
* the **first fully-covered** record is the fully-covered record with the
  lowest range.

Vertical (time) splits are the persistence primitive: a record alive since
``start < t`` is closed at ``t`` and a copy alive from ``t`` carries the new
value.  A record already born at ``t`` is updated in place — the paper's
page-disposal philosophy applied at record granularity (an empty-lifespan
record can never be observed by any version).

Lookups exploit Property 1 (the alive records of a page tile its key range,
so their ``low`` endpoints are strictly increasing): each page keeps a
sorted *alive mirror* in ``Page.cache``, validated against ``Page.version``,
and the ``find_*`` helpers binary-search it.  Tiling makes each sought
record unique, so the bisect results are exactly the records the original
linear scans returned.  The logical-mode insert kernel
(``MVSBT._mirror_at_lowest`` / ``_mirror_at_parent``) keeps the mirror
current across its own mutations; the split and merge helpers below are
Appendix A's transcription, which physical mode runs and the tests hold
the kernel to, and leave the mirror to be rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.core.model import NOW
from repro.storage.page import Page
from repro.mvsbt.records import (
    INDEX_KIND,
    LEAF_KIND,
    MVSBTIndexRecord,
    MVSBTLeafRecord,
)

Record = Union[MVSBTLeafRecord, MVSBTIndexRecord]


def is_leaf(page: Page) -> bool:
    """True for MVSBT leaf pages."""
    return page.kind == LEAF_KIND


class _AliveMirror:
    """Sorted snapshot of a page's alive records, tagged with ``Page.version``.

    ``alive`` is the alive records sorted by ``low`` (Property 1 makes the
    lows strictly increasing), ``lows`` the parallel key list fed to
    :mod:`bisect`.  ``closes`` is a lazily built map from a record's
    ``(low, high)`` range to the *latest-closed* dead record with that range,
    which gives the tree's insert kernel its O(1) time-merge candidate probe.
    """

    __slots__ = ("version", "alive", "lows", "closes")

    def __init__(self, page: Page) -> None:
        self.version = page.version
        self.alive: List[Record] = sorted(
            (rec for rec in page.records if rec.alive),
            key=lambda rec: rec.low,
        )
        self.lows: List[int] = [rec.low for rec in self.alive]
        self.closes: Optional[Dict[Tuple[int, int], Record]] = None


def mirror(page: Page) -> _AliveMirror:
    """The page's alive mirror, rebuilt when ``Page.version`` moved on.

    ``Page.cache`` is an opaque slot other layers park things in too, so
    only a mirror counts as one — whatever else sits there is replaced.
    """
    m = page.cache
    if type(m) is not _AliveMirror or m.version != page.version:
        m = _AliveMirror(page)
        page.cache = m
    return m


def alive_records(page: Page) -> List[Record]:
    """Alive records sorted by key range (they tile the page's range)."""
    return list(mirror(page).alive)


def find_partly_covered(page: Page, key: int) -> Optional[Record]:
    """The alive record with ``low < key < high``, if any."""
    m = mirror(page)
    i = bisect_right(m.lows, key) - 1
    if i >= 0:
        rec = m.alive[i]
        if rec.low < key < rec.high:
            return rec
    return None


def find_first_fully_covered(page: Page, key: int) -> Optional[Record]:
    """The alive record with the smallest ``low >= key``, if any."""
    m = mirror(page)
    i = bisect_left(m.lows, key)
    if i < len(m.alive):
        return m.alive[i]
    return None


def find_successor(page: Page, boundary: int) -> Optional[Record]:
    """The alive record starting exactly at key ``boundary``, if any."""
    m = mirror(page)
    i = bisect_left(m.lows, boundary)
    if i < len(m.alive) and m.alive[i].low == boundary:
        return m.alive[i]
    return None


def find_alive_by_child(page: Page, child_id: int) -> Optional[MVSBTIndexRecord]:
    """The alive router pointing at ``child_id``, if any."""
    for rec in page.records:
        if rec.alive and rec.child == child_id:
            return rec
    return None


def append_record(page: Page, record: Record) -> None:
    """Append without the transient-overflow guard of :meth:`Page.add`.

    MVSBT insertions may legitimately push a page several records past
    capacity before the time split runs.
    """
    page.records.append(record)
    page.mark_dirty()


def clone(record: Record, start: int) -> Record:
    """An alive copy of ``record`` starting at ``start`` (time-split copy)."""
    if isinstance(record, MVSBTIndexRecord):
        return MVSBTIndexRecord(record.low, record.high, start, NOW,
                                record.value, record.child)
    return MVSBTLeafRecord(record.low, record.high, start, NOW, record.value)


def vertical_split(page: Page, record: Record, t: int,
                   new_value: float) -> Record:
    """Close ``record`` at ``t`` and create its successor carrying ``new_value``.

    A record born at ``t`` is updated in place instead (its old state was
    never observable).  Returns the record that is alive after the call.
    """
    if record.start == t:
        record.value = new_value
        page.mark_dirty()
        return record
    record.end = t
    fresh = clone(record, t)
    fresh.value = new_value
    append_record(page, fresh)
    return fresh


def horizontal_split_leaf(page: Page, record: MVSBTLeafRecord, key: int,
                          t: int, upper_value: float) -> MVSBTLeafRecord:
    """Split a leaf record at ``t`` (vertically) and ``key`` (horizontally).

    The lower piece ``[low, key)`` keeps the record's value; the upper piece
    ``[key, high)`` carries ``upper_value`` (the insertion delta in logical
    mode, the full updated value in physical mode).  Returns the upper piece.
    """
    assert record.low < key < record.high, "not a partly-covered record"
    if record.start == t:
        upper = MVSBTLeafRecord(key, record.high, t, NOW, upper_value)
        record.high = key
        append_record(page, upper)
        return upper
    record.end = t
    lower = MVSBTLeafRecord(record.low, key, t, NOW, record.value)
    upper = MVSBTLeafRecord(key, record.high, t, NOW, upper_value)
    append_record(page, lower)
    append_record(page, upper)
    return upper


def prune_born_at(page: Page, t: int) -> None:
    """Drop records born at ``t`` from a page dying at ``t``.

    Such records have an empty responsibility window in this page — their
    authoritative copies live in the page's successors — and pruning them
    restores the page to within physical capacity.
    """
    page.records = [rec for rec in page.records if rec.start != t]
    page.mark_dirty()


def try_time_merge(page: Page, record: Record) -> Optional[Record]:
    """Undo a vertical split whose effect cancelled out (section 4.2.2).

    If a dead record in the page has the same range (and child), ends
    exactly where ``record`` begins, and carries the same value, the split
    carried no information: ``record`` is removed and the dead record is
    resurrected.  Returns the surviving record on success.
    """
    if not record.alive:
        return None
    for dead in page.records:
        if dead is record or dead.alive:
            continue
        if (dead.low == record.low and dead.high == record.high
                and dead.end == record.start
                and dead.value == record.value
                and _same_child(dead, record)):
            page.records.remove(record)
            dead.end = NOW
            page.mark_dirty()
            return dead
    return None


def try_key_merge(page: Page, record: Record) -> Optional[Record]:
    """Merge a zero-delta leaf record into its lower neighbour (section 4.2.2).

    Requires equal intervals (both alive, equal start) and range adjacency;
    only meaningful under logical (delta) value semantics, where a zero
    delta means "same aggregate as the record below".  Returns the widened
    survivor on success.
    """
    if not isinstance(record, MVSBTLeafRecord) or not record.alive:
        return None
    survivor: Optional[Record] = None
    if record.value == 0:
        for lower in page.records:
            if (lower is not record and lower.alive
                    and isinstance(lower, MVSBTLeafRecord)
                    and lower.high == record.low
                    and lower.start == record.start):
                lower.high = record.high
                page.records.remove(record)
                page.mark_dirty()
                survivor = lower
                break
    target = survivor if survivor is not None else record
    # The upper neighbour may itself hold a zero delta: absorb it too.
    for upper in list(page.records):
        if (upper is not target and upper.alive
                and isinstance(upper, MVSBTLeafRecord)
                and upper.value == 0
                and upper.low == target.high
                and upper.start == target.start):
            target.high = upper.high
            page.records.remove(upper)
            page.mark_dirty()
            survivor = target
            break
    return survivor


def _same_child(a: Record, b: Record) -> bool:
    a_child = getattr(a, "child", None)
    b_child = getattr(b, "child", None)
    return a_child == b_child


def check_tiling_at(page: Page, t: int) -> Optional[str]:
    """Property 1 at one instant: alive-at-t records tile the page range."""
    alive = sorted(
        (rec for rec in page.records if rec.alive_at(t)),
        key=lambda rec: rec.low,
    )
    if not alive:
        return f"page {page.page_id}: no alive records at t={t}"
    if alive[0].low != page.meta["low"]:
        return (
            f"page {page.page_id} at t={t}: coverage starts at "
            f"{alive[0].low}, page range starts at {page.meta['low']}"
        )
    if alive[-1].high != page.meta["high"]:
        return (
            f"page {page.page_id} at t={t}: coverage ends at "
            f"{alive[-1].high}, page range ends at {page.meta['high']}"
        )
    for left, right in zip(alive, alive[1:]):
        if left.high != right.low:
            return (
                f"page {page.page_id} at t={t}: gap/overlap at "
                f"[{left.high}, {right.low})"
            )
    return None
