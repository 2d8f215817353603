"""The Multiversion B-Tree ([BGO+96]).

Partial persistence of a B+-tree over a transaction-time stream: an update
at time ``t`` produces version ``t`` while every earlier version stays
queryable.  The implementation follows the published algorithm:

* **weak version condition** — every non-root page holds at least
  ``d`` entries alive at any instant of its lifespan, giving snapshot
  queries their ``O(log_b n + s/b)`` optimality;
* **version split** — an overflowing (or weakly underflowing) page is
  logically killed and its alive entries are copied to fresh page(s);
* **strong version condition** — a fresh page must hold between
  ``strong_min`` and ``strong_max`` entries: below, the alive entries of an
  adjacent sibling are merged in (killing the sibling too); above, the pool
  is key-split at the median.  The slack on both sides is what amortizes
  restructuring cost over O(b) intervening updates.

Leaf copies keep the tuple's *logical* start time, so ``(key, start)``
identifies a logical tuple across all its physical copies; rectangle queries
deduplicate on it and qualify tuples through per-copy *responsibility
intervals* (the copy's lifespan clipped to its page's lifespan), which
partition the tuple's true lifespan across its copies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.model import MAX_KEY, NOW
from repro.errors import (
    DuplicateKeyError,
    InvariantViolation,
    KeyNotFoundError,
    QueryError,
    TimeOrderError,
)
from repro.mvbt.config import MVBTConfig
from repro.mvbt.entries import INDEX_KIND, LEAF_KIND, IndexEntry, LeafEntry
from repro.storage.buffer import BufferPool
from repro.storage.page import Page
from repro.storage.rootstar import RootDirectory


class _AliveMirror:
    """Sorted snapshot of a page's alive entries, tagged with ``Page.version``.

    Index pages sort by ``low`` (their alive entries tile the page's key
    range), leaves by ``key`` (1TNF makes alive keys unique), so both admit
    binary search.  ``keys`` is the parallel list fed to :mod:`bisect`.
    """

    __slots__ = ("version", "alive", "keys")

    def __init__(self, page: Page) -> None:
        self.version = page.version
        if page.kind == LEAF_KIND:
            self.alive = sorted((e for e in page.records if e.alive),
                                key=lambda e: e.key)
            self.keys = [e.key for e in self.alive]
        else:
            self.alive = sorted((e for e in page.records if e.alive),
                                key=lambda e: e.low)
            self.keys = [e.low for e in self.alive]


def _mirror(page: Page) -> _AliveMirror:
    m = page.cache
    if m is None or m.version != page.version:
        m = _AliveMirror(page)
        page.cache = m
    return m


@dataclass
class MVBTCounters:
    """Operation counters exposed for experiments and ablations."""

    inserts: int = 0
    deletes: int = 0
    version_splits: int = 0
    key_splits: int = 0
    merges: int = 0
    disposals: int = 0
    root_shrinks: int = 0
    strong_underflows_unmerged: int = 0


class MVBT:
    """A multiversion B+-tree over (key, value) tuples in transaction time.

    Parameters
    ----------
    pool:
        Buffer pool supplying pages.
    config:
        Capacity and version-condition parameters.
    key_space:
        Half-open key domain; keys outside are rejected.
    paged_roots:
        Store root* as directory pages (adds the Theorem 2 ``O(log_b n)``
        lookup I/Os); defaults to the in-memory array.
    dispose_pages:
        Physically free pages whose lifespan came out empty (killed at
        their birth instant).
    """

    #: Observability hook set by :func:`repro.obs.attach_metrics`; a class
    #: attribute (not set in ``__init__``) because :meth:`restore` builds
    #: trees via ``cls.__new__``.
    metrics = None

    def __init__(self, pool: BufferPool, config: Optional[MVBTConfig] = None,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 start_time: int = 1, paged_roots: bool = False,
                 dispose_pages: bool = True) -> None:
        self.pool = pool
        self.config = config or MVBTConfig()
        self.key_space = key_space
        self.dispose_pages = dispose_pages
        self.counters = MVBTCounters()
        self.roots = RootDirectory(pool=pool, paged=paged_roots)
        self.now = start_time
        self._ever_roots: Set[int] = set()
        root = self._new_page(LEAF_KIND, key_space[0], key_space[1],
                              start_time, level=0)
        self._register_root(start_time, root.page_id)

    # -- time & bookkeeping helpers ---------------------------------------------------

    def _advance_time(self, t: int) -> None:
        if t < self.now:
            raise TimeOrderError(
                f"update at t={t} after the clock reached {self.now}"
            )
        self.now = t

    def _new_page(self, kind: str, low: int, high: int, birth: int,
                  level: int) -> Page:
        page = self.pool.allocate(self.config.capacity, kind)
        page.meta.update(low=low, high=high, birth=birth, death=NOW,
                         level=level)
        return page

    def _register_root(self, t: int, page_id: int) -> None:
        self.roots.append(t, page_id)
        self._ever_roots.add(page_id)

    @property
    def root_id(self) -> int:
        return self.roots.latest.root_id

    # -- updates ----------------------------------------------------------------------

    def insert(self, key: int, value: float, t: int) -> None:
        """Insert a tuple alive from ``t`` (transaction-time semantics).

        Raises :class:`DuplicateKeyError` if ``key`` is currently alive
        (1TNF) and :class:`TimeOrderError` on out-of-order timestamps.
        """
        self._advance_time(t)
        self._check_key(key)
        path = self._descend_alive(key)
        leaf = path[-1]
        m = _mirror(leaf)
        i = bisect_left(m.keys, key)
        if i < len(m.alive) and m.alive[i].key == key:
            raise DuplicateKeyError(
                f"key {key} is alive since t={m.alive[i].start}"
            )
        entry = LeafEntry(key, t, NOW, value)
        leaf.add(entry)
        # Keep the leaf's mirror current instead of letting the next access
        # re-sort it.  Restructuring below bumps ``Page.version`` without
        # telling the mirror, which then reads as stale and is rebuilt.
        m.alive.insert(i, entry)
        m.keys.insert(i, key)
        m.version = leaf.version
        self.counters.inserts += 1
        if leaf.overflowed:
            self._restructure(path, t)
            self._maybe_shrink_root(t)

    def delete(self, key: int, t: int) -> float:
        """Logically delete the alive tuple with ``key`` at time ``t``.

        Returns the tuple's value.  A tuple inserted and deleted at the same
        instant never existed for any queryable version and is removed
        physically.
        """
        self._advance_time(t)
        self._check_key(key)
        path = self._descend_alive(key)
        leaf = path[-1]
        m = _mirror(leaf)
        i = bisect_left(m.keys, key)
        target: Optional[LeafEntry] = None
        if i < len(m.alive) and m.alive[i].key == key:
            target = m.alive[i]
        if target is None:
            raise KeyNotFoundError(f"no alive tuple with key {key}")
        if target.start == t:
            leaf.remove(target)
        else:
            target.end = t
        leaf.mark_dirty()
        del m.alive[i]
        del m.keys[i]
        m.version = leaf.version
        self.counters.deletes += 1
        if (leaf.page_id != self.root_id
                and len(_mirror(leaf).alive) < self.config.weak_min):
            self._restructure(path, t)
            self._maybe_shrink_root(t)
        return target.value

    def update(self, key: int, value: float, t: int) -> None:
        """Replace the alive tuple's value at ``t`` (delete + insert)."""
        self.delete(key, t)
        self.insert(key, value, t)

    def _check_key(self, key: int) -> None:
        if not (self.key_space[0] <= key < self.key_space[1]):
            raise QueryError(f"key {key} outside key space {self.key_space}")

    def _descend_alive(self, key: int) -> List[Page]:
        """Path of pages from the latest root to the leaf covering ``key``."""
        path = [self.pool.fetch(self.root_id)]
        while path[-1].kind == INDEX_KIND:
            page = path[-1]
            m = _mirror(page)
            i = bisect_right(m.keys, key) - 1
            child_id = None
            if i >= 0:
                entry = m.alive[i]
                if entry.covers_key(key):
                    child_id = entry.child
            if child_id is None:
                raise InvariantViolation(
                    f"index page {page.page_id} has no alive route for "
                    f"key {key}"
                )
            path.append(self.pool.fetch(child_id))
        return path

    @staticmethod
    def _alive_count(page: Page) -> int:
        return sum(1 for entry in page.records if entry.alive)

    @staticmethod
    def _alive_entries(page: Page) -> List:
        return [entry for entry in page.records if entry.alive]

    # -- restructuring -----------------------------------------------------------------

    def _restructure(self, path: List[Page], t: int) -> None:
        """Version split ``path[-1]`` (plus strong-condition repair) at ``t``."""
        page = path[-1]
        parent = path[-2] if len(path) >= 2 else None
        cfg = self.config
        self.counters.version_splits += 1

        pool_entries = self._copy_alive(page)
        dead_pages = [page]

        if len(pool_entries) < cfg.strong_min and parent is not None:
            sibling = self._find_sibling(parent, page)
            if sibling is not None:
                pool_entries.extend(self._copy_alive(sibling))
                dead_pages.append(sibling)
                self.counters.merges += 1
            else:
                self.counters.strong_underflows_unmerged += 1

        low = min(p.meta["low"] for p in dead_pages)
        high = max(p.meta["high"] for p in dead_pages)
        level = page.meta["level"]
        kind = page.kind

        new_pages: List[Page] = []
        if len(pool_entries) > cfg.strong_max:
            new_pages.extend(
                self._key_split(pool_entries, kind, low, high, t, level)
            )
        else:
            fresh = self._new_page(kind, low, high, t, level)
            for entry in sorted(pool_entries, key=self._sort_key):
                fresh.add(entry)
            new_pages.append(fresh)

        for dead in dead_pages:
            dead.meta["death"] = t
            # An alive entry born at the split instant has an empty
            # responsibility interval in the dying page (the page is never
            # consulted for instants >= t): its authoritative copy lives in
            # the new page(s).  Pruning it returns the dead page to <= b
            # records — in [BGO+96] the triggering entry goes straight to
            # the new block.
            dead.records = [
                entry for entry in dead.records
                if not (entry.alive and entry.start == t)
            ]
            dead.mark_dirty()

        if parent is None:
            self._install_new_root(new_pages, t, level)
        else:
            self._update_parent(path, dead_pages, new_pages, t)

        for dead in dead_pages:
            if self.dispose_pages and dead.meta["birth"] == t:
                # Empty lifespan: no version can ever consult this page.
                self.pool.free(dead.page_id)
                self.counters.disposals += 1

    def _copy_alive(self, page: Page) -> List:
        if page.kind == LEAF_KIND:
            return [LeafEntry(e.key, e.start, e.end, e.value)
                    for e in page.records if e.alive]
        return [IndexEntry(e.low, e.high, e.start, e.end, e.child)
                for e in page.records if e.alive]

    @staticmethod
    def _sort_key(entry) -> int:
        return entry.key if isinstance(entry, LeafEntry) else entry.low

    def _key_split(self, pool_entries: List, kind: str, low: int, high: int,
                   t: int, level: int) -> List[Page]:
        self.counters.key_splits += 1
        ordered = sorted(pool_entries, key=self._sort_key)
        mid = len(ordered) // 2
        split_key = self._sort_key(ordered[mid])
        assert self._sort_key(ordered[mid - 1]) < split_key, (
            "cannot key-split: duplicate split keys"
        )
        lower = self._new_page(kind, low, split_key, t, level)
        upper = self._new_page(kind, split_key, high, t, level)
        for entry in ordered[:mid]:
            lower.add(entry)
        for entry in ordered[mid:]:
            upper.add(entry)
        return [lower, upper]

    def _find_sibling(self, parent: Page, page: Page) -> Optional[Page]:
        """An alive page adjacent to ``page`` under the same parent."""
        low, high = page.meta["low"], page.meta["high"]
        right = left = None
        for entry in parent.records:
            if not entry.alive or entry.child == page.page_id:
                continue
            if entry.low == high:
                right = entry
            elif entry.high == low:
                left = entry
        chosen = right if right is not None else left
        return self.pool.fetch(chosen.child) if chosen is not None else None

    def _install_new_root(self, new_pages: List[Page], t: int,
                          level: int) -> None:
        if len(new_pages) == 1:
            self._register_root(t, new_pages[0].page_id)
            return
        root = self._new_page(INDEX_KIND, self.key_space[0],
                              self.key_space[1], t, level + 1)
        for child in new_pages:
            root.add(IndexEntry(child.meta["low"], child.meta["high"],
                                t, NOW, child.page_id))
        self._register_root(t, root.page_id)

    def _update_parent(self, path: List[Page], dead_pages: List[Page],
                       new_pages: List[Page], t: int) -> None:
        parent = path[-2]
        dead_ids = {p.page_id for p in dead_pages}
        for entry in list(parent.records):
            if entry.alive and entry.child in dead_ids:
                if entry.start == t:
                    parent.remove(entry)
                else:
                    entry.end = t
        for child in new_pages:
            # Direct append: a key split legitimately pushes the parent two
            # records past capacity for the duration of this restructure.
            parent.records.append(
                IndexEntry(child.meta["low"], child.meta["high"],
                           t, NOW, child.page_id)
            )
        parent.mark_dirty()
        if parent.overflowed:
            self._restructure(path[:-1], t)
        elif (parent.page_id != self.root_id
              and self._alive_count(parent) < self.config.weak_min):
            self._restructure(path[:-1], t)

    def _maybe_shrink_root(self, t: int) -> None:
        """Route around single-child index roots (keeps heights tight)."""
        while True:
            root = self.pool.fetch(self.root_id)
            if root.kind != INDEX_KIND:
                return
            alive = self._alive_entries(root)
            if len(alive) != 1:
                return
            child_id = alive[0].child
            root.meta["death"] = t
            self.counters.root_shrinks += 1
            self._register_root(t, child_id)
            if self.dispose_pages and root.meta["birth"] == t:
                self.pool.free(root.page_id)
                self.counters.disposals += 1

    # -- queries ------------------------------------------------------------------------

    def snapshot_point(self, key: int, t: int) -> Optional[float]:
        """Value of the tuple with ``key`` alive at instant ``t`` (or None)."""
        self._check_key(key)
        tracer = self.pool.tracer
        if tracer.enabled:
            with tracer.span("mvbt.snapshot_point", key=key, t=t):
                return self._snapshot_point(key, t, tracer)
        return self._snapshot_point(key, t, None)

    def _snapshot_point(self, key: int, t: int, tracer) -> Optional[float]:
        """Version-``t`` root-to-leaf descent behind :meth:`snapshot_point`."""
        page = self.pool.fetch(self.roots.find(t).root_id)
        pages = 1
        if tracer is not None:
            tracer.event("mvbt.page", page=page.page_id, kind=page.kind)
        result = None
        while page.kind == INDEX_KIND:
            child_id = None
            for entry in page.records:
                if entry.alive_at(t) and entry.covers_key(key):
                    child_id = entry.child
                    break
            if child_id is None:
                break
            page = self.pool.fetch(child_id)
            pages += 1
            if tracer is not None:
                tracer.event("mvbt.page", page=page.page_id, kind=page.kind)
        else:
            for entry in page.records:
                if entry.key == key and entry.alive_at(t):
                    result = entry.value
                    break
        if self.metrics is not None:
            self.metrics.descent_pages.observe(pages)
        return result

    def range_snapshot(self, low: int, high: int,
                       t: int) -> List[Tuple[int, float]]:
        """All (key, value) pairs with key in ``[low, high)`` alive at ``t``.

        The optimal MVBT query: ``O(log_b n + s/b)`` I/Os for ``s`` results.
        """
        if low >= high:
            raise QueryError(f"empty key range [{low}, {high})")
        tracer = self.pool.tracer
        if tracer.enabled:
            with tracer.span("mvbt.range_snapshot", low=low, high=high, t=t):
                return self._range_snapshot(low, high, t, tracer)
        return self._range_snapshot(low, high, t, None)

    def _range_snapshot(self, low: int, high: int, t: int,
                        tracer) -> List[Tuple[int, float]]:
        """Version-``t`` subtree traversal behind :meth:`range_snapshot`."""
        results: List[Tuple[int, float]] = []
        try:
            root_id = self.roots.find(t).root_id
        except LookupError:
            return results
        stack = [root_id]
        pages = 0
        while stack:
            page = self.pool.fetch(stack.pop())
            pages += 1
            if tracer is not None:
                tracer.event("mvbt.page", page=page.page_id, kind=page.kind)
            if page.kind == INDEX_KIND:
                for entry in page.records:
                    if entry.alive_at(t) and entry.low < high and low < entry.high:
                        stack.append(entry.child)
            else:
                for entry in page.records:
                    if entry.alive_at(t) and low <= entry.key < high:
                        results.append((entry.key, entry.value))
        if self.metrics is not None:
            self.metrics.descent_pages.observe(pages)
        results.sort()
        return results

    def rectangle_query(self, low: int, high: int, t_start: int,
                        t_end: int) -> List[Tuple[int, int, int, float]]:
        """All logical tuples with key in ``[low, high)`` whose lifespan
        intersects the instants ``[t_start, t_end)``.

        Returns ``(key, start, end, value)`` per tuple, deduplicated across
        physical copies; ``end`` is the tightest bound among the copies the
        traversal encountered.  This is the access path of the paper's naive
        RTA baseline — its cost grows with the query-rectangle size.
        """
        if low >= high or t_start >= t_end:
            raise QueryError("empty query rectangle")
        tracer = self.pool.tracer
        if tracer.enabled:
            with tracer.span("mvbt.rectangle_query", low=low, high=high,
                             t_start=t_start, t_end=t_end) as span:
                found = self._rectangle_query(low, high, t_start, t_end,
                                              tracer, span)
                return sorted(found.values())
        found = self._rectangle_query(low, high, t_start, t_end, None, None)
        return sorted(found.values())

    def _rectangle_query(self, low: int, high: int, t_start: int, t_end: int,
                         tracer, span
                         ) -> Dict[Tuple[int, int],
                                   Tuple[int, int, int, float]]:
        """Multi-root traversal behind :meth:`rectangle_query`."""
        found: Dict[Tuple[int, int], Tuple[int, int, int, float]] = {}
        # Tightest stored end per tuple over ALL copies in key range, even
        # those whose responsibility misses the query window.  A copy's
        # ``end`` is either the open sentinel or the true death time (1TNF:
        # one delete per logical tuple), so the minimum is authoritative.
        # Without this, a delete coinciding with a version split leaves the
        # closed copy in a page born at the death instant — an empty
        # responsibility interval — and only stale open copies would report.
        ends: Dict[Tuple[int, int], int] = {}
        visited: Set[int] = set()
        for root in self.roots.roots_intersecting(t_start, t_end):
            stack = [root.root_id]
            while stack:
                page_id = stack.pop()
                if page_id in visited:
                    continue
                visited.add(page_id)
                page = self.pool.fetch(page_id)
                if tracer is not None:
                    tracer.event("mvbt.page", page=page_id, kind=page.kind)
                if page.kind == INDEX_KIND:
                    for entry in page.records:
                        if entry.intersects(low, high, t_start, t_end):
                            stack.append(entry.child)
                    continue
                birth, death = page.meta["birth"], page.meta["death"]
                for entry in page.records:
                    if not (low <= entry.key < high):
                        continue
                    tid = entry.tuple_id
                    known_end = ends.get(tid)
                    if known_end is None or entry.end < known_end:
                        ends[tid] = entry.end
                    resp_start = max(entry.start, birth)
                    resp_end = min(entry.end, death)
                    if resp_start < resp_end and resp_start < t_end \
                            and t_start < resp_end:
                        if tid not in found:
                            found[tid] = (entry.key, entry.start,
                                          entry.end, entry.value)
        for tid, (key, start, _end, value) in found.items():
            found[tid] = (key, start, ends[tid], value)
        if span is not None:
            span.attrs["pages"] = len(visited)
        if self.metrics is not None:
            self.metrics.descent_pages.observe(len(visited))
        return found

    # -- persistence -------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-safe structural state (pages live in the pool's disk)."""
        from dataclasses import asdict

        return {
            "type": "mvbt",
            "config": asdict(self.config),
            "key_space": list(self.key_space),
            "now": self.now,
            "dispose_pages": self.dispose_pages,
            "roots": [[e.start, e.root_id] for e in self.roots.entries()],
            "ever_roots": sorted(self._ever_roots),
            "counters": asdict(self.counters),
        }

    @classmethod
    def restore(cls, pool: BufferPool, state: dict) -> "MVBT":
        tree = cls.__new__(cls)
        tree.pool = pool
        tree.config = MVBTConfig(**state["config"])
        tree.key_space = tuple(state["key_space"])
        tree.now = state["now"]
        tree.dispose_pages = state["dispose_pages"]
        tree.counters = MVBTCounters(**state["counters"])
        tree._ever_roots = set(state["ever_roots"])
        tree.roots = RootDirectory()
        for start, root_id in state["roots"]:
            tree.roots.append(start, root_id)
        return tree

    def save(self, directory: str) -> None:
        """Checkpoint the tree (pages + structure) into ``directory``."""
        from repro.storage.checkpoint import write_checkpoint

        write_checkpoint(self.pool, self.state(), directory)

    @classmethod
    def load(cls, directory: str, buffer_pages: int = 64) -> "MVBT":
        """Reopen a tree from a checkpoint written by :meth:`save`."""
        from repro.storage.checkpoint import read_checkpoint

        pool, state = read_checkpoint(directory, buffer_pages)
        if state.get("type") != "mvbt":
            raise ValueError(
                f"checkpoint holds a {state.get('type')!r}, not an MVBT"
            )
        return cls.restore(pool, state)

    # -- introspection & invariants ---------------------------------------------------

    def page_ids(self) -> Set[int]:
        """Ids of every page reachable from any root (live structure)."""
        seen: Set[int] = set()
        for root in self.roots.entries():
            stack = [root.root_id]
            while stack:
                pid = stack.pop()
                if pid in seen:
                    continue
                seen.add(pid)
                page = self.pool.fetch(pid)
                if page.kind == INDEX_KIND:
                    stack.extend(e.child for e in page.records)
        return seen

    def page_count(self) -> int:
        """Pages reachable from root* — the space metric of Figure 4a."""
        return len(self.page_ids()) + self.roots.page_count

    def check_invariants(self) -> None:
        """Exhaustive structural check; raises AssertionError on violation.

        Verifies: capacity, the weak version condition at every critical
        instant of every never-root page, alive-children tiling of index
        pages, entry/child metadata agreement, and per-instant key
        uniqueness (1TNF) in leaves.
        """
        cfg = self.config
        for pid in self.page_ids():
            page = self.pool.fetch(pid)
            assert len(page.records) <= cfg.capacity, (
                f"page {pid} over capacity"
            )
            birth, death = page.meta["birth"], page.meta["death"]
            assert birth < death or not page.records, (
                f"page {pid} has non-empty lifespan violation"
            )
            instants = {birth}
            for entry in page.records:
                if birth <= entry.start < death:
                    instants.add(entry.start)
                if birth < entry.end < death:
                    instants.add(entry.end)
            for t in instants:
                alive = [e for e in page.records if e.alive_at(t)]
                if pid not in self._ever_roots:
                    assert len(alive) >= cfg.weak_min, (
                        f"page {pid} violates weak condition at t={t}: "
                        f"{len(alive)} < {cfg.weak_min}"
                    )
                if page.kind == INDEX_KIND:
                    self._check_tiling(page, alive, t)
                else:
                    keys = [e.key for e in alive]
                    assert len(keys) == len(set(keys)), (
                        f"1TNF violation in page {pid} at t={t}"
                    )
            if page.kind == INDEX_KIND:
                for entry in page.records:
                    child = self.pool.fetch(entry.child)
                    assert child.meta["low"] >= page.meta["low"] \
                        and child.meta["high"] <= page.meta["high"], (
                            f"child {entry.child} range escapes parent {pid}"
                        )
                    assert child.meta["level"] == page.meta["level"] - 1, (
                        f"level mismatch {pid} -> {entry.child}"
                    )

    def _check_tiling(self, page: Page, alive: Sequence[IndexEntry],
                      t: int) -> None:
        ordered = sorted(alive, key=lambda e: e.low)
        for left, right in zip(ordered, ordered[1:]):
            assert left.high == right.low, (
                f"index page {page.page_id} at t={t}: alive children do not "
                f"tile ({left.high} != {right.low})"
            )
        if ordered:
            assert ordered[0].low == page.meta["low"], (
                f"index page {page.page_id} at t={t}: leftmost gap"
            )
            assert ordered[-1].high == page.meta["high"], (
                f"index page {page.page_id} at t={t}: rightmost gap"
            )
