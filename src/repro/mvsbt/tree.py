"""The Multiversion SB-Tree (paper section 4, algorithms of Appendix A).

The MVSBT maintains a value surface ``V(key, time)`` under quadrant updates
``insert(k, t, v)`` (add ``v`` over ``[k, maxkey] x [t, maxtime]``, ``t``
non-decreasing) and point queries ``query(k, t)``, both in logarithmic I/Os.
It is an SB-tree over the key axis made partially persistent over time:
records are rectangles in key-time space, each page's records tile the
page's rectangle (Property 1), and the roots of the embedded SB-trees
partition the time axis through ``root*``.

Two write modes:

* **logical** (default; section 4.2.1 "aggregation in a page") — a record's
  value is a delta over the next-lower alive record of its page; a point
  query sums, per page on the descent path, the values of records alive at
  ``t`` with ``low <= k`` (Appendix A's ``PagePointQuery``).  An insertion
  physically splits at most one record per page.
* **physical** — every record carries the full contribution of its
  rectangle at its level, a query reads one record per page, and an
  insertion must split *every* fully-covered record (Theta(b) per page).
  Kept for the A2 ablation; answers are identical.

Overflow handling (section 4.1): a page with more than ``b`` records is
*time split* — alive records are copied, restarted at ``t``, into a fresh
page; if the copy *strong overflows* (more than ``f*b`` records, ``f`` the
strong factor) it is *key split* into evenly loaded pages.  In logical mode
a key split folds the running prefix of lower pages into the first record
of each higher page, and of the index records replacing the dead page's
router the lowest inherits the router's value while the rest carry 0 —
together these preserve the path-sum invariant:

    for every (k, t):  V(k, t) = sum over pages p on the root(t)-to-leaf
    path of  sum { rec.value : rec in p alive at t, rec.low <= k }.

Record merging (4.2.2) and page disposal (4.2.3) are space optimizations,
both on by default and individually toggleable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.model import MAX_KEY, NOW
from repro.errors import InvariantViolation, QueryError, TimeOrderError
from repro.mvsbt import pageops as ops
from repro.mvsbt.columnar import materialize_page
from repro.mvsbt.records import (
    INDEX_KIND,
    LEAF_KIND,
    MVSBTIndexRecord,
    MVSBTLeafRecord,
)
from repro.storage.buffer import BufferPool
from repro.storage.page import Page
from repro.storage.rootstar import RootDirectory

#: What an untraced read enters in place of a span.
_NO_SPAN = nullcontext()


def _uncovered(page: Page, key: int, t: int) -> InvariantViolation:
    return InvariantViolation(
        f"page {page.page_id} does not cover key {key} at t={t}")


@dataclass(frozen=True)
class MVSBTConfig:
    """MVSBT parameters: page capacity ``b``, strong factor ``f``, toggles.

    The paper requires ``f`` large enough that a time-split copy still
    allows a fan-out of at least two (section 4.4); concretely we require
    ``floor(f * b) >= 2``.  The paper's experiments use ``f = 0.9``.
    """

    capacity: int = 32
    strong_factor: float = 0.9
    logical_split: bool = True
    record_merging: bool = True
    page_disposal: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 4:
            raise ValueError("MVSBT needs page capacity >= 4")
        if not (0.0 < self.strong_factor <= 1.0):
            raise ValueError(
                f"strong factor must be in (0, 1], got {self.strong_factor}"
            )
        if self.strong_bound < 2:
            raise ValueError(
                f"floor(f*b) = {self.strong_bound} < 2: key splits could "
                "not guarantee fan-out 2"
            )
        if self.record_merging and not self.logical_split:
            raise ValueError(
                "record merging is defined for the logical (delta) value "
                "semantics of section 4.2.1; disable it in physical mode"
            )

    @property
    def strong_bound(self) -> int:
        """Maximum records in a freshly time-split page (``floor(f*b)``)."""
        return int(self.strong_factor * self.capacity)


@dataclass
class MVSBTCounters:
    """Operation counters for experiments and ablations."""

    insertions: int = 0
    noop_insertions: int = 0
    time_splits: int = 0
    key_splits: int = 0
    new_pages: int = 0
    disposals: int = 0
    time_merges: int = 0
    key_merges: int = 0
    records_created: int = 0


class MVSBT:
    """Partially persistent SB-tree over ``key_space`` x time.

    Parameters
    ----------
    pool:
        Buffer pool supplying pages.
    config:
        Capacity, strong factor and optimization toggles.
    key_space:
        Half-open key domain ``[lo, hi)``; inserts with ``k >= hi`` are
        empty quadrants (accepted as no-ops), ``k < lo`` covers everything.
    start_time:
        Birth instant of the initial (empty) root.
    paged_roots:
        Store root* as directory pages, charging the Theorem 2
        ``O(log_b n)`` root-lookup I/Os; default keeps the paper's
        "main-memory array" remark.
    """

    #: Observability hook set by :func:`repro.obs.attach_metrics`; a class
    #: attribute (not set in ``__init__``) because :meth:`restore` builds
    #: trees via ``cls.__new__``.
    metrics = None
    #: Optional :class:`repro.core.cache.PointMemo` set by
    #: :meth:`enable_memo`; class attribute for the same ``cls.__new__``
    #: reason, and so the unmemoized query path pays one ``is None`` check.
    memo = None
    #: Insertion epoch the memo validates open-frontier entries against;
    #: only bumped while a memo is attached.
    _memo_epoch = 0
    #: Active :class:`repro.mvsbt.buffered.MVSBTIngestBuffer` while a
    #: buffered-ingest window is open (see :meth:`begin_buffered`); a class
    #: attribute for the same ``cls.__new__`` reason as ``memo``.
    _buffer = None

    def __init__(self, pool: BufferPool, config: Optional[MVSBTConfig] = None,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 start_time: int = 1, paged_roots: bool = False) -> None:
        self.pool = pool
        self.config = config or MVSBTConfig()
        self.key_space = key_space
        self.counters = MVSBTCounters()
        self.roots = RootDirectory(pool=pool, paged=paged_roots)
        self.now = start_time
        self.start_time = start_time
        root = self._new_page(LEAF_KIND, key_space[0], key_space[1],
                              start_time, level=0)
        root.add(MVSBTLeafRecord(key_space[0], key_space[1], start_time,
                                 NOW, 0.0))
        self.roots.append(start_time, root.page_id)

    # -- public API -----------------------------------------------------------------

    @property
    def root_id(self) -> int:
        return self.roots.latest.root_id

    def begin_buffered(self):
        """Open a buffered-ingest window (buffer-tree path; not nestable).

        Insertions are absorbed by a root intake buffer and routed through
        columnar page kernels with per-leaf update buffers; queries cross a
        drain barrier that force-flushes only their search path.  Answers
        are identical to the direct path at every point of the window.
        Requires the logical (delta) value semantics.  Returns the
        attached :class:`~repro.mvsbt.buffered.MVSBTIngestBuffer`.

        The window pins every page it routes through and must keep the
        pages it allocates resident, so it lives inside the pool's own
        batch window (which over-commits instead of evicting a dirty
        page, keeps the victim scan amortized O(1) meanwhile, and
        coalesces the write-backs into one closing flush):
        :class:`~repro.core.ingest.BatchLoader` opens both, a direct
        caller opens the pool's first and closes it last.
        """
        from repro.mvsbt.buffered import MVSBTIngestBuffer

        if self._buffer is not None:
            raise ValueError("begin_buffered() inside an open window")
        if not self.pool.in_batch:
            raise ValueError(
                "begin_buffered() outside the pool's batch window")
        self._buffer = MVSBTIngestBuffer(self)
        return self._buffer

    def end_buffered(self) -> None:
        """Close the buffered window: drain and flush every pending buffer.

        Frontier (alive) pages are restored to object records; historical
        pages written during the window stay columnar — the query descent
        and the page codecs read both representations.
        """
        if self._buffer is None:
            raise ValueError("end_buffered() without begin_buffered()")
        buffer = self._buffer
        self._buffer = None
        buffer.finalize()

    def enable_memo(self, capacity: int = 8192) -> None:
        """Attach a point-query memo (see :mod:`repro.core.cache`).

        Entries for instants below the tree clock are version-pinned
        (immutable forever); entries at the open frontier are dropped when
        any later insertion bumps the memo epoch.
        """
        from repro.core.cache import PointMemo

        self.memo = PointMemo(capacity)

    def disable_memo(self) -> None:
        """Detach the memo, restoring the unmemoized query path."""
        self.memo = None

    def insert(self, key: int, t: int, value: float) -> None:
        """Add ``value`` to every point of ``[key, maxkey] x [t, maxtime]``.

        ``t`` must be non-decreasing across calls (transaction-time model).
        ``key`` at or above the key-space top is an empty quadrant (no-op);
        below the bottom it covers the whole key space.  Zero values are
        accepted and skipped (they change no point).
        """
        if self._buffer is not None:
            self._buffer.add(key, t, value)
            return
        tracer = self.pool.tracer
        if tracer.enabled:
            with tracer.span("mvsbt.insert", key=key, t=t, value=value):
                self._insert(key, t, value)
            return
        self._insert(key, t, value)

    def _insert(self, key: int, t: int, value: float) -> None:
        """The four-phase insertion of Appendix A (see :meth:`insert`)."""
        if t < self.now:
            raise TimeOrderError(
                f"insertion at t={t} after the clock reached {self.now}"
            )
        self.now = t
        if key >= self.key_space[1] or value == 0:
            self.counters.noop_insertions += 1
            return
        key = max(key, self.key_space[0])
        self.counters.insertions += 1
        if self.memo is not None:
            # Any effective insertion may rewrite the open frontier; bump
            # the epoch so open-frontier memo entries read as stale.
            self._memo_epoch += 1

        # Phase 1 (Appendix A lines 1-8): follow partly-covered routers down.
        path: List[Page] = []
        routers: List[MVSBTIndexRecord] = []
        page = self.pool.fetch(self.root_id)
        while page.kind == INDEX_KIND:
            router = ops.find_partly_covered(page, key)
            if router is None:
                break
            path.append(page)
            routers.append(router)
            page = self.pool.fetch(router.child)

        # Phases 2-3 exist twice: Appendix A's transcription, the only
        # kernel physical mode has, and its incremental-mirror twin for
        # the logical value mode.  The value mode picks; pages come out
        # the same to the last byte either way (tests/core/test_ingest.py).
        if self.config.logical_split:
            at_lowest, at_parent = (self._mirror_at_lowest,
                                    self._mirror_at_parent)
        else:
            at_lowest, at_parent = (self._apply_at_lowest,
                                    self._apply_at_parent)

        # Phase 2 (lines 9-29): apply the insertion at the lowest page.
        new_children = at_lowest(page, key, t, value)

        # Phase 3 (lines 30-43): walk back up through the router pages.
        for parent, router in zip(reversed(path), reversed(routers)):
            new_children = at_parent(parent, router, new_children, t, value)

        # Phase 4 (lines 44-47): install a new root if the old one split.
        if new_children:
            self._install_new_root(new_children, t)

    def query(self, key: int, t: int, use_memo: bool = True) -> float:
        """``V(key, t)`` — Appendix A's ``PointQuery``/``PagePointQuery``.

        ``use_memo=False`` descends with an attached memo untouched: no
        lookup, no store (an Equation (1) reduction over a closed
        rectangle, :meth:`repro.core.rta.RTAIndex._reduce`).
        """
        if self._buffer is not None:
            return self._buffer.query(key, t)
        self._check_key(key)
        if t < self.start_time:
            return 0.0
        tracer = self.pool.tracer if self.pool.tracer.enabled else None
        memo = self.memo if use_memo else None
        if memo is None and tracer is None:
            return self._descend(key, t, None, self.pool.fetch,
                                 self.roots.find(t).root_id)[0]
        # The epoch is read *before* the descent; if an insertion raced in
        # between (no single-writer discipline at this layer), the entry
        # is stored against the pre-descent epoch and a post-bump lookup
        # drops it — stale values are never served.
        epoch = self._memo_epoch
        hit = memo.get(key, t, epoch) if memo is not None else None
        with (tracer.span("mvsbt.query", key=key, t=t) if tracer is not None
              else _NO_SPAN) as span:
            if span is not None and memo is not None:
                span.attrs["memo"] = "miss" if hit is None else "hit"
            if hit is not None:
                return hit[0]
            value, pages = self._descend(key, t, tracer, self.pool.fetch,
                                         self.roots.find(t).root_id)
        if memo is not None:
            memo.put(key, t, value, pages, closed=t < self.now, epoch=epoch)
        return value

    def query_pair(self, key_hi: int, key_lo: int, t: int,
                   use_memo: bool = True) -> Tuple[float, float]:
        """``(V(key_hi, t), V(key_lo, t))`` in one shared descent.

        The two halves of an Equation (1) pair enter through the same
        root* entry and meet the same alive set in every page they share,
        so each shared page is fetched and walked once
        (:meth:`_descend_pair`).  Either value is bit-identical to its own
        :meth:`query`; an attached memo sees each probe on its own, with
        its own descent length — unless ``use_memo`` is false, which
        leaves it untouched as in :meth:`query`.
        """
        if self._buffer is not None or key_hi == key_lo:
            return (self.query(key_hi, t, use_memo),
                    self.query(key_lo, t, use_memo))
        self._check_key(key_hi)
        self._check_key(key_lo)
        if t < self.start_time:
            return 0.0, 0.0
        tracer = self.pool.tracer if self.pool.tracer.enabled else None
        memo = self.memo if use_memo else None
        if memo is None and tracer is None:
            hi, _, lo, _ = self._descend_pair(key_hi, key_lo, t, None)
            return hi, lo
        epoch = self._memo_epoch    # before the descent, as in query()
        hit_hi = hit_lo = None
        if memo is not None:
            hit_hi = memo.get(key_hi, t, epoch)
            hit_lo = memo.get(key_lo, t, epoch)
            if tracer is None and hit_hi is not None and hit_lo is not None:
                return hit_hi[0], hit_lo[0]
        with (tracer.span("mvsbt.query_pair", k_hi=key_hi, k_lo=key_lo, t=t)
              if tracer is not None else _NO_SPAN) as span:
            if span is not None and memo is not None:
                span.attrs["memo_hits"] = ((hit_hi is not None)
                                           + (hit_lo is not None))
            if hit_hi is None and hit_lo is None:
                hi, pages_hi, lo, pages_lo = self._descend_pair(
                    key_hi, key_lo, t, tracer)
            else:   # one hit (a ``(value, pages)`` tuple), one descent
                root_id = self.roots.find(t).root_id
                hi, pages_hi = hit_hi or self._descend(
                    key_hi, t, tracer, self.pool.fetch, root_id)
                lo, pages_lo = hit_lo or self._descend(
                    key_lo, t, tracer, self.pool.fetch, root_id)
        if memo is not None:
            closed = t < self.now
            if hit_hi is None:
                memo.put(key_hi, t, hi, pages_hi, closed=closed, epoch=epoch)
            if hit_lo is None:
                memo.put(key_lo, t, lo, pages_lo, closed=closed, epoch=epoch)
        return hi, lo

    def _check_key(self, key: int) -> None:
        if not (self.key_space[0] <= key < self.key_space[1]):
            raise QueryError(f"key {key} outside key space {self.key_space}")

    def _traced_fetch(self, fetch, pid: int, tracer, probes: int) -> Page:
        """``fetch(pid)`` inside an ``mvsbt.page`` span (``probes`` = how
        many point queries the visit serves), so per-page I/O deltas sum
        exactly to the whole descent's I/O."""
        with tracer.span("mvsbt.page", page=pid, probes=probes) as span:
            page = fetch(pid)
            span.attrs["level"] = page.meta["level"]
            span.attrs["kind"] = page.kind
        return page

    def _descend(self, key: int, t: int, tracer, fetch, pid: int,
                 acc: float = 0.0, pages: int = 0) -> Tuple[float, int]:
        """The descent loop: from page ``pid`` down to the leaf, adding
        each page's contribution at ``(key, t)`` to ``acc``; returns
        ``(V(key, t), pages visited)``.

        A whole query starts at the root* entry of ``t`` with nothing
        accumulated, the tail of a pair descent where the pair parted.
        ``fetch`` is the page getter (the pool's, or an ingest window's).
        """
        logical = self.config.logical_split
        while True:
            page = (fetch(pid) if tracer is None
                    else self._traced_fetch(fetch, pid, tracer, 1))
            pages += 1
            if page.records is None:
                # A sealed (dead) page, or a columnar one inside a window.
                block = page.cache
                delta, row = block.scan(key, t)
                if row is None:
                    raise _uncovered(page, key, t)
                acc += delta if logical else block.values[row]
                if page.kind == LEAF_KIND:
                    break
                pid = block.childs[row]
            else:
                delta, rec = self._scan_page(page, key, t, logical)
                if rec is None:
                    raise _uncovered(page, key, t)
                acc += delta
                if page.kind == LEAF_KIND:
                    break
                pid = rec.child
        if self.metrics is not None:
            self.metrics.descent_pages.observe(pages)
        return acc, pages

    def _descend_pair(self, key_a: int, key_b: int, t: int, tracer
                      ) -> Tuple[float, int, float, int]:
        """Two point queries at one instant, one path while they share it:
        ``(V(key_a, t), pages_a, V(key_b, t), pages_b)``.

        While both keys route to the same child each page is fetched once
        and — a sealed page — walked once, each key adding its own
        per-page contribution to its own sum: the float arithmetic of two
        solo descents.  Where they part, two :meth:`_descend` tails finish
        from what the shared pages gave them.
        """
        logical = self.config.logical_split
        fetch = self.pool.fetch
        pid = self.roots.find(t).root_id
        acc_a = acc_b = 0.0
        pages = 0
        while True:
            page = (fetch(pid) if tracer is None
                    else self._traced_fetch(fetch, pid, tracer, 2))
            pages += 1
            if page.records is None:
                block = page.cache
                delta_a, row_a, delta_b, row_b = block.scan_pair(
                    key_a, key_b, t)
                if row_a is None or row_b is None:
                    raise _uncovered(page, key_a if row_a is None else key_b,
                                     t)
                if logical:
                    acc_a += delta_a
                    acc_b += delta_b
                else:
                    acc_a += block.values[row_a]
                    acc_b += block.values[row_b]
                if page.kind == LEAF_KIND:
                    break
                pid, pid_b = block.childs[row_a], block.childs[row_b]
            else:
                delta_a, rec_a = self._scan_page(page, key_a, t, logical)
                delta_b, rec_b = self._scan_page(page, key_b, t, logical)
                if rec_a is None or rec_b is None:
                    raise _uncovered(page, key_a if rec_a is None else key_b,
                                     t)
                acc_a += delta_a
                acc_b += delta_b
                if page.kind == LEAF_KIND:
                    break
                pid, pid_b = rec_a.child, rec_b.child
            if pid != pid_b:
                value_a, pages_a = self._descend(key_a, t, tracer, fetch,
                                                 pid, acc_a, pages)
                value_b, pages_b = self._descend(key_b, t, tracer, fetch,
                                                 pid_b, acc_b, pages)
                return value_a, pages_a, value_b, pages_b
        # Both keys ended in one leaf.
        if self.metrics is not None:
            self.metrics.descent_pages.observe(pages)
            self.metrics.descent_pages.observe(pages)
        return acc_a, pages, acc_b, pages

    @staticmethod
    def _scan_page(page: Page, key: int, t: int, logical: bool
                   ) -> Tuple[float, Optional[object]]:
        """One object page's ``PagePointQuery`` step: contribution + next
        router (:meth:`ColumnarBlock.scan
        <repro.mvsbt.columnar.ColumnarBlock.scan>` for record objects).

        Logical mode sums every alive record with ``low <= key``; physical
        mode reads only the containing record's value.
        """
        acc = 0.0
        containing = None
        for rec in page.records:
            if rec.start <= t < rec.end and rec.low <= key:
                if logical:
                    acc += rec.value
                if key < rec.high:
                    containing = rec
        if not logical and containing is not None:
            acc = containing.value
        return acc, containing

    # -- insertion internals ------------------------------------------------------------

    def _apply_at_lowest(self, page: Page, key: int, t: int,
                         value: float) -> List[Page]:
        """Insert into the lowest page of the router path.

        The page is a leaf, or an index page where ``key`` falls on a record
        boundary (no partly-covered record).  Returns replacement pages if
        the page overflowed, else an empty list.
        """
        logical = self.config.logical_split
        partly = ops.find_partly_covered(page, key) \
            if page.kind == LEAF_KIND else None
        if partly is not None:
            boundary = partly.high  # before the split may shrink it in place
            upper_value = value if logical else partly.value + value
            upper = ops.horizontal_split_leaf(page, partly, key, t,
                                              upper_value)
            self.counters.records_created += 2
            self._merge_around(page, upper)
            if not logical:
                self._split_fully_covered(page, boundary, t, value)
        else:
            first = ops.find_first_fully_covered(page, key)
            assert first is not None, (
                f"page {page.page_id} has neither partly- nor fully-covered "
                f"record for key {key}"
            )
            fresh = ops.vertical_split(page, first, t, first.value + value)
            self.counters.records_created += 1
            self._merge_around(page, fresh)
            if not logical:
                self._split_fully_covered(page, fresh.high, t, value)
        if page.overflowed:
            return self._time_split(page, t)
        return []

    def _apply_at_parent(self, parent: Page, router: MVSBTIndexRecord,
                         new_children: List[Page], t: int,
                         value: float) -> List[Page]:
        """Bottom-up step at a page whose router was partly covered."""
        logical = self.config.logical_split
        boundary = router.high
        if new_children:
            # The routed child was time-split: retire the router and install
            # records for its replacements.  In logical mode the lowest new
            # router inherits the old router's value (the others carry 0) so
            # the page's prefix sums are unchanged; in physical mode each
            # carries the old router's full value.
            if router.start == t:
                parent.records.remove(router)
                parent.mark_dirty()
            else:
                router.end = t
                parent.mark_dirty()
            for position, child in enumerate(new_children):
                if logical:
                    inherited = router.value if position == 0 else 0.0
                else:
                    inherited = router.value
                rec = MVSBTIndexRecord(child.meta["low"], child.meta["high"],
                                       t, NOW, inherited, child.page_id)
                ops.append_record(parent, rec)
                self.counters.records_created += 1
                self._merge_around(parent, rec)
        if logical:
            successor = ops.find_successor(parent, boundary)
            if successor is not None:
                fresh = ops.vertical_split(parent, successor, t,
                                           successor.value + value)
                self.counters.records_created += 1
                self._merge_around(parent, fresh)
        else:
            self._split_fully_covered(parent, boundary, t, value)
        if parent.overflowed:
            return self._time_split(parent, t)
        return []

    # -- incremental-mirror kernel ------------------------------------------------------
    #
    # What every logical-mode insertion runs.  The methods replay the exact
    # record-level mutation sequence of their Appendix A counterparts above
    # (same records, same page.records order, same counters) but keep each
    # page's alive mirror valid incrementally and probe merge candidates in
    # O(1).  Property 1 tiling makes every sought record unique, which is
    # what licenses the bisect/neighbour lookups below.  The mirror is
    # touched on the write path only and any mutation outside this kernel
    # bumps ``Page.version``, so a mirror it did not keep current reads as
    # stale and is rebuilt; the metamorphic tests enforce the equivalence.

    def _mirror_at_lowest(self, page: Page, key: int, t: int,
                          value: float) -> List[Page]:
        """Mirror-kernel :meth:`_apply_at_lowest` (logical semantics only)."""
        m = ops.mirror(page)
        partly = None
        i = -1
        if page.kind == LEAF_KIND:
            i = bisect_right(m.lows, key) - 1
            if i >= 0:
                rec = m.alive[i]
                if rec.low < key < rec.high:
                    partly = rec
        if partly is not None:
            # Inline horizontal_split_leaf with mirror maintenance.
            if partly.start == t:
                upper = MVSBTLeafRecord(key, partly.high, t, NOW, value)
                partly.high = key
                page.records.append(upper)
                page.mark_dirty()
                m.alive.insert(i + 1, upper)
                m.lows.insert(i + 1, key)
            else:
                partly.end = t
                if m.closes is not None:
                    m.closes[(partly.low, partly.high)] = partly
                lower = MVSBTLeafRecord(partly.low, key, t, NOW, partly.value)
                upper = MVSBTLeafRecord(key, partly.high, t, NOW, value)
                page.records.append(lower)
                page.records.append(upper)
                page.mark_dirty()
                m.alive[i] = lower
                m.alive.insert(i + 1, upper)
                m.lows.insert(i + 1, key)
            self.counters.records_created += 2
            fresh, idx = upper, i + 1
        else:
            j = bisect_left(m.lows, key)
            assert j < len(m.alive), (
                f"page {page.page_id} has neither partly- nor fully-covered "
                f"record for key {key}"
            )
            fresh, idx = self._mirror_vertical_split(page, m, j, t, value)
            self.counters.records_created += 1
        self._mirror_merge_around(page, m, fresh, idx)
        m.version = page.version
        if page.overflowed:
            return self._time_split(page, t)
        return []

    def _mirror_at_parent(self, parent: Page, router: MVSBTIndexRecord,
                          new_children: List[Page], t: int,
                          value: float) -> List[Page]:
        """Mirror-kernel :meth:`_apply_at_parent` (logical semantics only).

        The rare child-was-split case delegates to the reference method;
        its mutations bump ``Page.version`` so the mirror self-invalidates.
        """
        if new_children:
            return self._apply_at_parent(parent, router, new_children, t,
                                         value)
        m = ops.mirror(parent)
        boundary = router.high
        j = bisect_left(m.lows, boundary)
        if j < len(m.alive) and m.alive[j].low == boundary:
            fresh, idx = self._mirror_vertical_split(parent, m, j, t, value)
            self.counters.records_created += 1
            self._mirror_merge_around(parent, m, fresh, idx)
            m.version = parent.version
        if parent.overflowed:
            return self._time_split(parent, t)
        return []

    def _mirror_vertical_split(self, page: Page, m, j: int, t: int,
                               value: float):
        """Vertically split the alive record at mirror slot ``j``, adding
        ``value`` to its successor's value; returns ``(alive_record, slot)``."""
        record = m.alive[j]
        new_value = record.value + value
        if record.start == t:
            record.value = new_value
            page.mark_dirty()
            return record, j
        record.end = t
        if m.closes is not None:
            m.closes[(record.low, record.high)] = record
        fresh = ops.clone(record, t)
        fresh.value = new_value
        page.records.append(fresh)
        page.mark_dirty()
        m.alive[j] = fresh
        return fresh, j

    def _mirror_merge_around(self, page: Page, m, record, idx: int) -> None:
        """Mirror-kernel :meth:`_merge_around` with O(1) candidate probing.

        Time merge: the only possible partner is the latest-closed dead
        record with ``record``'s exact range (``record.start == now``, and
        two same-range records cannot both die at one instant without
        having violated tiling), which the mirror's ``closes`` map yields
        directly.  Key merge: tiling makes the mergeable lower/upper
        neighbours exactly the mirror-adjacent alive records.
        """
        if not self.config.record_merging:
            return
        if m.closes is None:
            closes = {}
            for rec in page.records:
                if rec.alive:
                    continue
                key_range = (rec.low, rec.high)
                cur = closes.get(key_range)
                if cur is None or rec.end > cur.end:
                    closes[key_range] = rec
            m.closes = closes
        cand = m.closes.get((record.low, record.high))
        if (cand is not None and cand.end == record.start
                and cand.value == record.value
                and getattr(cand, "child", None)
                == getattr(record, "child", None)):
            page.records.remove(record)
            cand.end = NOW
            page.mark_dirty()
            del m.closes[(record.low, record.high)]
            m.alive[idx] = cand
            self.counters.time_merges += 1
            record = cand
        if page.kind != LEAF_KIND:
            return
        merged = False
        if record.value == 0 and idx > 0:
            lower = m.alive[idx - 1]
            if lower.high == record.low and lower.start == record.start:
                lower.high = record.high
                page.records.remove(record)
                page.mark_dirty()
                del m.alive[idx]
                del m.lows[idx]
                idx -= 1
                record = lower
                merged = True
        if idx + 1 < len(m.alive):
            upper = m.alive[idx + 1]
            if (upper.value == 0 and upper.low == record.high
                    and upper.start == record.start):
                record.high = upper.high
                page.records.remove(upper)
                page.mark_dirty()
                del m.alive[idx + 1]
                del m.lows[idx + 1]
                merged = True
        if merged:
            self.counters.key_merges += 1

    def _split_fully_covered(self, page: Page, from_key: int, t: int,
                             value: float) -> None:
        """Physical mode: vertically split every alive record with
        ``low >= from_key``, adding ``value`` to each copy."""
        for rec in [r for r in page.records if r.alive and r.low >= from_key]:
            ops.vertical_split(page, rec, t, rec.value + value)
            self.counters.records_created += 1

    def _time_split(self, page: Page, t: int) -> List[Page]:
        """Copy alive records to fresh page(s); key split on strong overflow.

        Returns the replacement pages.  The dead page keeps only records
        born before ``t`` (records born at ``t`` have an empty window here)
        and is disposed of entirely when its own lifespan is empty.
        """
        cfg = self.config
        self.counters.time_splits += 1
        buffer = [ops.clone(rec, t) for rec in ops.alive_records(page)]
        page.meta["death"] = t
        ops.prune_born_at(page, t)

        chunks: List[List] = []
        if len(buffer) > cfg.strong_bound:
            self.counters.key_splits += 1
            pieces = -(-len(buffer) // cfg.strong_bound)  # ceil division
            base, extra = divmod(len(buffer), pieces)
            cursor = 0
            for i in range(pieces):
                size = base + (1 if i < extra else 0)
                chunks.append(buffer[cursor:cursor + size])
                cursor += size
            if cfg.logical_split:
                # Section 4.2.1: each higher page's lowest record absorbs
                # the prefix sum of all lower pages' original values.
                originals = [sum(rec.value for rec in chunk)
                             for chunk in chunks]
                cumulative = 0.0
                for i, chunk in enumerate(chunks):
                    if i > 0:
                        chunk[0].value += cumulative
                    cumulative += originals[i]
        else:
            chunks.append(buffer)

        level = page.meta["level"]
        new_pages: List[Page] = []
        for chunk in chunks:
            fresh = self._new_page(page.kind, chunk[0].low, chunk[-1].high,
                                   t, level)
            fresh.records = chunk
            fresh.meta["born_count"] = len(chunk)
            fresh.mark_dirty()
            new_pages.append(fresh)
            self.counters.records_created += len(chunk)

        if cfg.page_disposal and page.meta["birth"] == t:
            self.pool.free(page.page_id)
            self.counters.disposals += 1
        return new_pages

    def _install_new_root(self, new_children: List[Page], t: int) -> None:
        if len(new_children) == 1:
            self.roots.append(t, new_children[0].page_id)
            return
        level = new_children[0].meta["level"] + 1
        root = self._new_page(INDEX_KIND, self.key_space[0],
                              self.key_space[1], t, level)
        for child in new_children:
            root.add(MVSBTIndexRecord(child.meta["low"], child.meta["high"],
                                      t, NOW, 0.0, child.page_id))
            self.counters.records_created += 1
        self.roots.append(t, root.page_id)

    def _merge_around(self, page: Page, record) -> None:
        """Apply section 4.2.2 record merging around a fresh/updated record."""
        if not self.config.record_merging:
            return
        survivor = ops.try_time_merge(page, record)
        if survivor is not None:
            self.counters.time_merges += 1
            record = survivor
        if page.kind == LEAF_KIND:
            if ops.try_key_merge(page, record) is not None:
                self.counters.key_merges += 1

    def _new_page(self, kind: str, low: int, high: int, birth: int,
                  level: int) -> Page:
        page = self.pool.allocate(self.config.capacity, kind)
        page.meta.update(low=low, high=high, birth=birth, death=NOW,
                         level=level)
        self.counters.new_pages += 1
        return page

    # -- persistence -------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-safe structural state (pages live in the pool's disk)."""
        from dataclasses import asdict

        return {
            "type": "mvsbt",
            "config": asdict(self.config),
            "key_space": list(self.key_space),
            "start_time": self.start_time,
            "now": self.now,
            "roots": [[e.start, e.root_id] for e in self.roots.entries()],
            "counters": asdict(self.counters),
        }

    @classmethod
    def restore(cls, pool: BufferPool, state: dict) -> "MVSBT":
        """Rebuild a tree over a pool restored from a checkpoint.

        root* is restored in its in-memory form (paged mode is a query-cost
        accounting device, not extra state).
        """
        tree = cls.__new__(cls)
        tree.pool = pool
        tree.config = MVSBTConfig(**state["config"])
        tree.key_space = tuple(state["key_space"])
        tree.start_time = state["start_time"]
        tree.now = state["now"]
        tree.counters = MVSBTCounters(**state["counters"])
        tree.roots = RootDirectory()
        for start, root_id in state["roots"]:
            tree.roots.append(start, root_id)
        return tree

    def save(self, directory: str) -> None:
        """Checkpoint the tree (pages + structure) into ``directory``."""
        from repro.storage.checkpoint import write_checkpoint

        if self._buffer is not None:
            # Pending leaf updates must land in the page images; columnar
            # pages themselves checkpoint fine (encode_page_image).
            self._buffer.flush_all_pending()
        write_checkpoint(self.pool, self.state(), directory)

    @classmethod
    def load(cls, directory: str, buffer_pages: int = 64) -> "MVSBT":
        """Reopen a tree from a checkpoint written by :meth:`save`."""
        from repro.storage.checkpoint import read_checkpoint

        pool, state = read_checkpoint(directory, buffer_pages)
        if state.get("type") != "mvsbt":
            raise ValueError(
                f"checkpoint holds a {state.get('type')!r}, not an MVSBT"
            )
        return cls.restore(pool, state)

    # -- introspection & invariants ----------------------------------------------------

    def page_ids(self) -> set[int]:
        """Every page reachable from any registered root."""
        if self._buffer is not None:
            # The intake may still hold updates whose routing allocates
            # pages; the per-leaf pending buffers cannot (the deposit
            # guard proves their flush never splits).
            self._buffer.drain()
        seen: set[int] = set()
        for entry in self.roots.entries():
            stack = [entry.root_id]
            while stack:
                pid = stack.pop()
                if pid in seen:
                    continue
                seen.add(pid)
                page = self.pool.fetch(pid)
                if page.kind == INDEX_KIND:
                    if page.records is None:
                        stack.extend(row[5]
                                     for row in page.cache.live_rows())
                    else:
                        stack.extend(rec.child for rec in page.records)
        return seen

    def page_count(self) -> int:
        """Reachable pages plus paged-root* pages — the space metric."""
        return len(self.page_ids()) + self.roots.page_count

    def height(self) -> int:
        """Levels of the latest version's tree (1 = root is a leaf)."""
        return self.pool.fetch(self.root_id).meta["level"] + 1

    def check_invariants(self) -> None:
        """Structural audit; raises ``AssertionError`` on the first failure.

        Checks physical capacity, Property 1 tiling at every critical
        instant, the strong condition at page birth, router/child metadata
        agreement, and (when record merging never fired) the Lemma 3
        alive-count lower bound for non-root pages.
        """
        cfg = self.config
        ever_roots = {entry.root_id for entry in self.roots.entries()}
        check_lemma3 = (self.counters.time_merges == 0
                        and self.counters.key_merges == 0)
        lemma3_bound = -(-cfg.strong_bound // 2)  # ceil(f*b / 2)
        for pid in self.page_ids():
            page = self.pool.fetch(pid)
            if page.records is None:
                materialize_page(page)
            assert len(page.records) <= cfg.capacity, (
                f"page {pid} holds {len(page.records)} > b={cfg.capacity}"
            )
            birth, death = page.meta["birth"], page.meta["death"]
            # Records appended later at the birth instant are legitimate;
            # the strong condition constrains the time-split copy itself.
            born_here = page.meta.get("born_count", 1)
            if pid not in ever_roots:
                assert born_here <= cfg.strong_bound, (
                    f"page {pid} born with {born_here} records > "
                    f"f*b={cfg.strong_bound}"
                )
            instants = {birth}
            for rec in page.records:
                if birth <= rec.start < death:
                    instants.add(rec.start)
                if birth < rec.end < death:
                    instants.add(rec.end)
            for t in instants:
                problem = ops.check_tiling_at(page, t)
                assert problem is None, problem
                if check_lemma3 and pid not in ever_roots:
                    alive = sum(1 for r in page.records if r.alive_at(t))
                    assert alive >= min(lemma3_bound, born_here), (
                        f"page {pid} at t={t}: {alive} alive records "
                        f"below the Lemma 3 bound"
                    )
            if page.kind == INDEX_KIND:
                for rec in page.records:
                    child = self.pool.fetch(rec.child)
                    assert child.meta["low"] == rec.low \
                        and child.meta["high"] == rec.high, (
                            f"router range mismatch {pid} -> {rec.child}"
                        )
                    assert child.meta["level"] == page.meta["level"] - 1, (
                        f"level mismatch {pid} -> {rec.child}"
                    )
