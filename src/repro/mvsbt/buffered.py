"""Buffer-tree ingestion for the MVSBT: amortized bulk inserts.

:class:`MVSBTIngestBuffer` gives a tree in a buffered window (between
``MVSBT.begin_buffered()`` and ``MVSBT.end_buffered()``) a two-level
update-buffer hierarchy in the spirit of the persistent buffer tree:

* a **root intake buffer** absorbs ``insert`` calls as raw
  ``(key, t, value)`` triples — no descent, no page touch — and drains in
  one streaming pass once full;
* **per-leaf pending buffers** (``ColumnarBlock.pending``) hold each
  drained update at the end of its router path until the leaf's buffer
  fills, so the leaf-level record surgery for a run of co-located updates
  happens in one resident-page burst.

The drain pass routes each update down the current frontier with bisect
probes over columnar alive indexes, applying **interior** mutations (the
boundary successor splits of Appendix A's phase 3, plus any time/key
splits they trigger) immediately at the update's timestamp, and only
*deposits* the leaf-level work.  Interior steps cannot be deferred under
partial persistence: a later flush time would retire routers after
descendant records already referenced them, inverting version intervals —
so the amortization is exactly the leaf share of the work, which is where
the record churn is.

**Flush safety.**  A deposit is admitted only while

    ``count + 2 * (len(pending) + 1) <= capacity``

(each leaf apply creates at most two records), so flushing a pending
buffer can never overflow the page mid-flush — which matters because a
mid-flush time split would have to happen at a *buffered* timestamp older
than routers installed since, again inverting intervals.  When the guard
fails, the pending buffer is flushed, the incoming update is applied
directly (its timestamp is the current clock, so a time split is legal),
and any replacement pages propagate up the freshly captured router chain.

**Drain barrier.**  ``query(key, t)`` drains the intake, then force-
flushes only the frontier leaf on ``key``'s search path: a deposited
update ``(k', t', v)`` affects leaf-level contributions only for keys in
``[k', leaf.high)`` — a subset of its leaf's key range — while its effect
on higher keys travelled through the interior splits that were applied on
arrival.  Off-path leaves keep their buffers, so reads stay live during
ingest without paying for it.  Answers are byte-identical to the direct
path: every record mutation replays the object kernels' arithmetic on the
same values in the same order.  The barrier mutates the tree, so it
belongs to the thread that opened the window: a ``query`` from any other
thread raises :class:`~repro.errors.ConcurrentAccessError` before touching
anything (a latch-free reader treats that as the torn read it is).

The kernels below are line-for-line columnar twins of the tree's insert
kernel (``_mirror_at_lowest`` / ``_mirror_at_parent`` /
``_mirror_vertical_split`` / ``_mirror_merge_around`` / ``_time_split``)
— the metamorphic tests in ``tests/mvsbt/test_buffered.py`` hold the two
paths to identical query answers over random workloads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import List, Tuple

from repro.core.model import NOW
from repro.errors import (
    ConcurrentAccessError,
    InvariantViolation,
    QueryError,
    TimeOrderError,
)
from repro.mvsbt.columnar import ColumnarBlock, materialize_page, seal_page
from repro.mvsbt.records import LEAF_KIND
from repro.storage.page import Page

#: Intake triples buffered before a drain pass.
INTAKE_LIMIT = 8192
#: Hard cap on one leaf's pending buffer (the capacity guard usually
#: binds first; this bounds pathological all-one-leaf workloads).
PENDING_LIMIT = 64


class MVSBTIngestBuffer:
    """The buffered-window ingestion engine attached to one MVSBT."""

    def __init__(self, tree) -> None:
        if not tree.config.logical_split:
            raise ValueError(
                "buffered ingestion requires the logical (delta) value "
                "semantics; physical mode has no mirror kernel to twin"
            )
        self.tree = tree
        #: The thread that opened the window; the only one whose reads may
        #: cross the drain barrier (see :meth:`query`).
        self._owner = threading.get_ident()
        self._intake: List[Tuple[int, int, float]] = []
        #: Sealed pages by id.  Double duty: the routing pass resolves page
        #: ids here before falling back to the pool (sealed pages are
        #: pinned, so the registry and the pool frame are the same object),
        #: and finalization walks it to flush pending buffers and restore
        #: the frontier.
        self._sealed: dict[int, Page] = {}
        # Hot-loop caches of per-window constants.
        self._capacity = tree.config.capacity
        self._merging = tree.config.record_merging
        self._counters = tree.counters
        #: Window statistics (drains, leaf flushes, deposited updates).
        self.drains = 0
        self.leaf_flushes = 0
        self.deposited = 0

    # -- intake ------------------------------------------------------------------

    def add(self, key: int, t: int, value: float) -> None:
        """Buffer one quadrant update (the window's ``insert``)."""
        tree = self.tree
        if t < tree.now:
            raise TimeOrderError(
                f"insertion at t={t} after the clock reached {tree.now}"
            )
        tree.now = t
        if key >= tree.key_space[1] or value == 0:
            tree.counters.noop_insertions += 1
            return
        key = max(key, tree.key_space[0])
        tree.counters.insertions += 1
        if tree.memo is not None:
            tree._memo_epoch += 1
        self._intake.append((key, t, value))
        if len(self._intake) >= INTAKE_LIMIT:
            self.drain()

    def drain(self) -> None:
        """Route every intake triple down the frontier (streaming pass)."""
        intake = self._intake
        if not intake:
            return
        self._intake = []
        self.drains += 1
        route = self._route
        for key, t, value in intake:
            route(key, t, value)

    # -- the per-update routing pass ---------------------------------------------

    def _adopt(self, pid: int) -> Page:
        """Cold path of page resolution: fetch, register, pin.

        Sealed pages are pinned for the life of the window, so the pool can
        never replace the frame object behind the registry's back (the pool
        over-commits instead; the loader's pool batch window keeps its
        victim scan amortized O(1)).
        """
        pool = self.tree.pool
        page = pool.fetch(pid)
        self._sealed[pid] = page
        pool.pin(pid)
        return page

    def _route(self, key: int, t: int, value: float) -> None:
        """One update's descent: immediate interior work, deferred leaf work."""
        tree = self.tree
        sealed_get = self._sealed.get
        pid = tree.roots.latest.root_id
        page = sealed_get(pid)
        if page is None:
            page = self._adopt(pid)
        block = page.cache
        if type(block) is not ColumnarBlock:
            block = seal_page(page)
        # (page, block, router row, alive slot, router.high) per level with
        # a partly-covered router — the phase-3 walk-back chain.
        chain: List[Tuple[Page, ColumnarBlock, int, int, int]] = []
        append = chain.append
        while not block.leaf:
            i = bisect_right(block.alive_lows, key) - 1
            row = block.alive[i]
            lows = block.lows
            highs = block.highs
            if lows[row] < key < highs[row]:
                append((page, block, row, i, highs[row]))
                pid = block.childs[row]
                page = sealed_get(pid)
                if page is None:
                    page = self._adopt(pid)
                block = page.cache
                if type(block) is not ColumnarBlock:
                    block = seal_page(page)
                continue
            break

        if block.leaf:
            new_children = self._deposit(page, block, key, t, value)
        else:
            # Lowest page is an index page (key on a record boundary).
            new_children = self._apply_index_lowest(page, block, key, t,
                                                    value)
        for ppage, pblock, prow, pidx, boundary in reversed(chain):
            new_children = self._parent_step(ppage, pblock, prow, pidx,
                                             boundary, new_children, t,
                                             value)
        if new_children:
            tree._install_new_root(new_children, t)

    def _deposit(self, page: Page, block: ColumnarBlock, key: int, t: int,
                 value: float) -> Tuple[Page, ...]:
        """Queue the leaf-level work, or flush-and-apply when full."""
        pending = block.pending
        n = len(pending)
        if n < PENDING_LIMIT and \
                block.count + 2 * n + 2 <= self._capacity:
            pending.append((key, t, value))
            self.deposited += 1
            return ()
        self._flush_leaf(page, block)
        self._leaf_apply(page, block, key, t, value)
        if block.count > self._capacity:
            return self._time_split(page, block, t)
        return ()

    def _flush_leaf(self, page: Page, block: ColumnarBlock) -> None:
        """Apply a leaf's pending updates in deposit (= time) order.

        The deposit guard proved ``count`` stays within capacity for the
        whole run, so no split can be needed mid-flush.
        """
        pending = block.pending
        if not pending:
            return
        block.pending = []
        self.leaf_flushes += 1
        apply = self._leaf_apply
        for k, te, v in pending:
            apply(page, block, k, te, v)

    # -- columnar twins of the batch kernels -------------------------------------

    def _leaf_apply(self, page: Page, block: ColumnarBlock, key: int, t: int,
                    value: float) -> None:
        """Columnar ``_mirror_at_lowest`` for a leaf (sans overflow)."""
        counters = self._counters
        lows, highs = block.lows, block.highs
        starts, ends, values = block.starts, block.ends, block.values
        alive, alive_lows = block.alive, block.alive_lows
        i = bisect_right(alive_lows, key) - 1
        row = alive[i] if i >= 0 else -1
        if i >= 0 and lows[row] < key < highs[row]:
            # Horizontal split of the partly-covered record (``append_row``
            # inlined; a leaf block has no child column).
            if starts[row] == t:
                high = highs[row]
                highs[row] = key
                upper = len(lows)
                lows.append(key)
                highs.append(high)
                starts.append(t)
                ends.append(NOW)
                values.append(value)
                block.count += 1
                alive.insert(i + 1, upper)
                alive_lows.insert(i + 1, key)
            else:
                ends[row] = t
                low, high, old_value = lows[row], highs[row], values[row]
                if block.closes is not None:
                    block.closes[(low, high)] = row
                lower = len(lows)
                upper = lower + 1
                lows.append(low)
                highs.append(key)
                starts.append(t)
                ends.append(NOW)
                values.append(old_value)
                lows.append(key)
                highs.append(high)
                starts.append(t)
                ends.append(NOW)
                values.append(value)
                block.count += 2
                alive[i] = lower
                alive.insert(i + 1, upper)
                alive_lows.insert(i + 1, key)
            page.mark_dirty()
            counters.records_created += 2
            fresh, idx = upper, i + 1
        else:
            j = bisect_left(alive_lows, key)
            assert j < len(alive), (
                f"page {page.page_id} has neither partly- nor fully-covered "
                f"record for key {key}"
            )
            fresh, idx = self._vertical_split(page, block, j, t, value)
            counters.records_created += 1
        self._merge_around(page, block, fresh, idx)

    def _apply_index_lowest(self, page: Page, block: ColumnarBlock, key: int,
                            t: int, value: float) -> Tuple[Page, ...]:
        """Phase 2 when the lowest page of the path is an index page."""
        j = bisect_left(block.alive_lows, key)
        assert j < len(block.alive), (
            f"page {page.page_id} has neither partly- nor fully-covered "
            f"record for key {key}"
        )
        fresh, idx = self._vertical_split(page, block, j, t, value)
        self._counters.records_created += 1
        self._merge_around(page, block, fresh, idx)
        if block.count > self._capacity:
            return self._time_split(page, block, t)
        return ()

    def _parent_step(self, page: Page, block: ColumnarBlock, row: int,
                     idx: int, boundary: int, new_children, t: int,
                     value: float) -> Tuple[Page, ...]:
        """Columnar ``_mirror_at_parent`` (including child installs)."""
        if new_children:
            self._retire_install(page, block, row, idx, new_children, t)
        alive_lows = block.alive_lows
        j = bisect_left(alive_lows, boundary)
        if j < len(alive_lows) and alive_lows[j] == boundary:
            fresh, fidx = self._vertical_split(page, block, j, t, value)
            self._counters.records_created += 1
            self._merge_around(page, block, fresh, fidx)
        if block.count > self._capacity:
            return self._time_split(page, block, t)
        return ()

    def _retire_install(self, page: Page, block: ColumnarBlock, row: int,
                        idx: int, new_children, t: int) -> None:
        """Retire the split child's router, install its replacements."""
        counters = self._counters
        router_value = block.values[row]
        if block.starts[row] == t:
            block.tombstone(row)
        else:
            block.ends[row] = t
            if block.closes is not None:
                block.closes[(block.lows[row], block.highs[row])] = row
        page.mark_dirty()
        alive, alive_lows = block.alive, block.alive_lows
        del alive[idx]
        del alive_lows[idx]
        pos = idx
        for position, child in enumerate(new_children):
            inherited = router_value if position == 0 else 0.0
            meta = child.meta
            new_row = block.append_row(meta["low"], meta["high"], t, NOW,
                                       inherited, child.page_id)
            counters.records_created += 1
            alive.insert(pos, new_row)
            alive_lows.insert(pos, meta["low"])
            # Index pages only time-merge; the alive list length is stable.
            self._merge_around(page, block, new_row, pos)
            pos += 1

    def _vertical_split(self, page: Page, block: ColumnarBlock, j: int,
                        t: int, value: float) -> Tuple[int, int]:
        """Columnar ``_mirror_vertical_split``: returns ``(row, slot)``."""
        alive = block.alive
        row = alive[j]
        values = block.values
        new_value = values[row] + value
        starts = block.starts
        if starts[row] == t:
            values[row] = new_value
            page.mark_dirty()
            return row, j
        # Close the old row and append its restarted clone (inlined
        # ``append_row`` — this is the hottest allocation site).
        ends = block.ends
        ends[row] = t
        lows, highs = block.lows, block.highs
        low, high = lows[row], highs[row]
        if block.closes is not None:
            block.closes[(low, high)] = row
        fresh = len(lows)
        lows.append(low)
        highs.append(high)
        starts.append(t)
        ends.append(NOW)
        values.append(new_value)
        childs = block.childs
        if childs is not None:
            childs.append(childs[row])
        block.count += 1
        page.mark_dirty()
        alive[j] = fresh
        return fresh, j

    def _merge_around(self, page: Page, block: ColumnarBlock, row: int,
                      idx: int) -> None:
        """Columnar ``_mirror_merge_around`` (section 4.2.2 merging)."""
        if not self._merging:
            return
        counters = self._counters
        closes = block.closes
        if closes is None:
            closes = block.build_closes()
        lows, highs = block.lows, block.highs
        starts, ends, values = block.starts, block.ends, block.values
        childs = block.childs
        alive, alive_lows = block.alive, block.alive_lows
        cand = closes.get((lows[row], highs[row]))
        if (cand is not None and ends[cand] == starts[row]
                and values[cand] == values[row]
                and (childs is None or childs[cand] == childs[row])):
            del closes[(lows[row], highs[row])]
            # The fresh row is removed; the candidate was dead (physical)
            # all along, so resurrecting it leaves the count unchanged.
            block.tombstone(row)
            ends[cand] = NOW
            page.mark_dirty()
            alive[idx] = cand
            counters.time_merges += 1
            row = cand
        if not block.leaf:
            return
        merged = False
        if values[row] == 0 and idx > 0:
            lower = alive[idx - 1]
            if highs[lower] == lows[row] and starts[lower] == starts[row]:
                highs[lower] = highs[row]
                block.tombstone(row)
                page.mark_dirty()
                del alive[idx]
                del alive_lows[idx]
                idx -= 1
                row = lower
                merged = True
        if idx + 1 < len(alive):
            upper = alive[idx + 1]
            if (values[upper] == 0 and lows[upper] == highs[row]
                    and starts[upper] == starts[row]):
                highs[row] = highs[upper]
                block.tombstone(upper)
                page.mark_dirty()
                del alive[idx + 1]
                del alive_lows[idx + 1]
                merged = True
        if merged:
            counters.key_merges += 1

    def _time_split(self, page: Page, block: ColumnarBlock,
                    t: int) -> List[Page]:
        """Columnar ``MVSBT._time_split``: restart alive rows in fresh pages."""
        tree = self.tree
        cfg = tree.config
        counters = self._counters
        counters.time_splits += 1
        alive = block.alive
        b_lows = [block.lows[r] for r in alive]
        b_highs = [block.highs[r] for r in alive]
        b_values = [block.values[r] for r in alive]
        b_childs = (None if block.childs is None
                    else [block.childs[r] for r in alive])
        n = len(alive)
        page.meta["death"] = t
        dispose = cfg.page_disposal and page.meta["birth"] == t
        if not dispose:
            # A disposed page is freed below — pruning it is dead work.
            self._prune_born_at(block, t)
            page.mark_dirty()

        if n > cfg.strong_bound:
            counters.key_splits += 1
            pieces = -(-n // cfg.strong_bound)  # ceil division
            base, extra = divmod(n, pieces)
            bounds: List[Tuple[int, int]] = []
            cursor = 0
            for i in range(pieces):
                size = base + (1 if i < extra else 0)
                bounds.append((cursor, cursor + size))
                cursor += size
            # Section 4.2.1 folding: each higher page's lowest record
            # absorbs the prefix sum of the lower pages' original values.
            originals = [sum(b_values[lo:hi]) for lo, hi in bounds]
            cumulative = 0.0
            for i, (lo, _hi) in enumerate(bounds):
                if i > 0:
                    b_values[lo] += cumulative
                cumulative += originals[i]
        else:
            bounds = [(0, n)]

        level = page.meta["level"]
        kind = page.kind
        new_pages: List[Page] = []
        for lo, hi in bounds:
            fresh = tree._new_page(kind, b_lows[lo], b_highs[hi - 1], t,
                                   level)
            nb = ColumnarBlock(block.leaf)
            size = hi - lo
            nb.lows = b_lows[lo:hi]
            nb.highs = b_highs[lo:hi]
            nb.starts = [t] * size
            nb.ends = [NOW] * size
            nb.values = b_values[lo:hi]
            if b_childs is not None:
                nb.childs = b_childs[lo:hi]
            nb.alive = list(range(size))
            nb.alive_lows = b_lows[lo:hi]
            nb.count = size
            fresh.records = None
            fresh.cache = nb
            fresh.meta["born_count"] = size
            fresh.mark_dirty()
            self._sealed[fresh.page_id] = fresh
            tree.pool.pin(fresh.page_id)
            new_pages.append(fresh)
            counters.records_created += size

        if dispose:
            if self._sealed.pop(page.page_id, None) is not None:
                tree.pool.unpin(page.page_id)
            tree.pool.free(page.page_id)
            counters.disposals += 1
        return new_pages

    @staticmethod
    def _prune_born_at(block: ColumnarBlock, t: int) -> None:
        """Drop rows born at ``t`` from a page dying at ``t`` (tombstoning).

        A row with ``start == t`` at the instant the clock *is* ``t`` can
        only be alive or already a tombstone, so tombstoning it (empty
        interval) is exactly the object kernel's physical removal under
        this module's representation — surviving rows keep their order and
        the arrays are not rebuilt.  The page is dead after this call: its
        router is retired, so it is never routed again — the alive index
        is cleared, not rebuilt.
        """
        starts, ends = block.starts, block.ends
        count = block.count
        for r in range(len(starts)):
            if starts[r] == t and ends[r] != t:
                ends[r] = t
                count -= 1
        block.count = count
        block.closes = None
        block.alive = []
        block.alive_lows = []

    # -- the drain barrier (reads during the window) ------------------------------

    def query(self, key: int, t: int) -> float:
        """``V(key, t)`` through the barrier: drain, path-flush, descend.

        The barrier drains the intake and flushes a leaf, so only the
        window's owning thread may cross it.  Any other thread is a
        reader that overlapped the writer's window; it is refused before
        any state is touched.
        """
        if threading.get_ident() != self._owner:
            raise ConcurrentAccessError(
                "MVSBT.query from another thread while a buffered-ingest "
                "window is open; reads must wait for (or retry after) the "
                "writer that owns the window"
            )
        tree = self.tree
        if not (tree.key_space[0] <= key < tree.key_space[1]):
            raise QueryError(
                f"key {key} outside key space {tree.key_space}"
            )
        if t < tree.start_time:
            return 0.0
        self.drain()
        self._flush_frontier(key)
        return tree._descend(key, t, None, self._page,
                             tree.roots.find(t).root_id)[0]

    def _page(self, pid: int) -> Page:
        """The window's page getter: the registry before the pool (sealed
        pages are pinned, so both name the same frame object)."""
        page = self._sealed.get(pid)
        return page if page is not None else self.tree.pool.fetch(pid)

    def _flush_frontier(self, key: int) -> None:
        """Force-flush only the frontier leaf on ``key``'s search path."""
        pid = self.tree.roots.latest.root_id
        while True:
            page = self._page(pid)
            block = page.cache
            if type(block) is ColumnarBlock:
                if block.leaf:
                    if block.pending:
                        self._flush_leaf(page, block)
                    return
                i = bisect_right(block.alive_lows, key) - 1
                pid = block.childs[block.alive[i]]
                continue
            # Unsealed page (e.g. a fresh object-record root): object leaves
            # hold no pending buffer, object routers are scanned directly.
            if page.kind == LEAF_KIND:
                return
            nxt = None
            for rec in page.records:
                if rec.alive and rec.low <= key < rec.high:
                    nxt = rec.child
                    break
            if nxt is None:
                raise InvariantViolation(
                    f"page {page.page_id} does not cover key {key} on the "
                    "frontier"
                )
            pid = nxt

    # -- window teardown -----------------------------------------------------------

    def flush_all_pending(self) -> None:
        """Drain the intake and flush every leaf's pending buffer."""
        self.drain()
        for page in list(self._sealed.values()):
            block = page.cache
            if (type(block) is ColumnarBlock and block.leaf
                    and block.pending):
                self._flush_leaf(page, block)

    def barrier_all(self) -> None:
        """Full barrier: flush everything and restore object records.

        For whole-tree observers that insist on object records inside the
        window; the window stays open (pages remain registered and pinned)
        and pages reseal on next touch.
        """
        self.flush_all_pending()
        for page in self._sealed.values():
            materialize_page(page)

    def finalize(self) -> None:
        """Close the window: flush everything, restore the frontier.

        Only **alive** pages are materialized back to object records — the
        object insertion kernels touch nothing else.  Historical pages
        written during the window stay columnar; the query descent and the
        page codecs (``encode_page_image``) read them directly, so closing
        the window costs O(frontier), not O(pages written).
        """
        self.flush_all_pending()
        unpin = self.tree.pool.unpin
        for pid, page in self._sealed.items():
            if page.meta["death"] == NOW:
                materialize_page(page)
            unpin(pid)
        self._sealed.clear()
