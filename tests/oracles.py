"""Brute-force reference implementations the indexes are tested against.

Every oracle works directly over small explicit collections, trading any
efficiency for obvious correctness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.model import NOW
from repro.mvbt import tree as mvbt_tree
from repro.mvsbt.tree import MVSBT


@dataclass
class IntervalFunctionOracle:
    """Oracle for SB-tree semantics: a function V(t) updated over intervals."""

    identity: float = 0.0
    combine: object = None  # callable; defaults to addition
    _updates: List[Tuple[int, int, float]] = field(default_factory=list)

    def insert(self, start: int, end: int, value: float) -> None:
        self._updates.append((start, end, value))

    def query(self, t: int) -> float:
        combine = self.combine or (lambda a, b: a + b)
        acc = self.identity
        for start, end, value in self._updates:
            if start <= t < end:
                acc = combine(acc, value)
        return acc


@dataclass
class DominanceSumOracle:
    """Oracle for MVSBT semantics.

    ``insert(k, t, v)`` adds ``v`` to every point of the quadrant
    ``[k, +inf) x [t, +inf)``; ``query(k, t)`` returns the accumulated value
    at the point — i.e. the sum of v over updates with ``k' <= k`` and
    ``t' <= t`` (a dominance sum).
    """

    _updates: List[Tuple[int, int, float]] = field(default_factory=list)

    def insert(self, key: int, t: int, value: float) -> None:
        self._updates.append((key, t, value))

    def query(self, key: int, t: int) -> float:
        return sum(
            value for k, s, value in self._updates if k <= key and s <= t
        )


@dataclass
class TupleStoreOracle:
    """Oracle over explicit temporal tuples: snapshots and RTA aggregates.

    Mirrors the transaction-time model: ``insert`` opens a tuple alive to
    ``NOW``; ``delete`` closes the alive tuple with that key.
    """

    tuples: List[Tuple[int, int, int, float]] = field(default_factory=list)
    # each entry: (key, start, end, value); end == NOW while alive
    _alive: Dict[int, int] = field(default_factory=dict)  # key -> index

    def insert(self, key: int, value: float, t: int) -> None:
        assert key not in self._alive, f"1TNF violation for key {key}"
        self._alive[key] = len(self.tuples)
        self.tuples.append((key, t, NOW, value))

    def delete(self, key: int, t: int) -> None:
        idx = self._alive.pop(key)
        k, s, _, v = self.tuples[idx]
        self.tuples[idx] = (k, s, t, v)

    def snapshot(self, t: int) -> List[Tuple[int, float]]:
        """(key, value) pairs of tuples alive at instant ``t``."""
        return [
            (k, v) for (k, s, e, v) in self.tuples if s <= t < e
        ]

    def range_snapshot(self, low: int, high: int, t: int) -> List[Tuple[int, float]]:
        return [
            (k, v) for (k, v) in self.snapshot(t) if low <= k < high
        ]

    def rta_sum(self, low: int, high: int, t_start: int, t_end: int) -> float:
        """SUM over tuples with key in [low, high) whose interval intersects
        the instants [t_start, t_end)."""
        return sum(
            v for (k, s, e, v) in self.tuples
            if low <= k < high and s < t_end and e > t_start
        )

    def rta_count(self, low: int, high: int, t_start: int, t_end: int) -> int:
        return sum(
            1 for (k, s, e, v) in self.tuples
            if low <= k < high and s < t_end and e > t_start
        )

    def rta_avg(self, low: int, high: int, t_start: int,
                t_end: int) -> Optional[float]:
        count = self.rta_count(low, high, t_start, t_end)
        if count == 0:
            return None
        return self.rta_sum(low, high, t_start, t_end) / count

    def rectangle_tuples(self, low: int, high: int, t_start: int,
                         t_end: int) -> List[Tuple[int, int, int, float]]:
        return [
            (k, s, e, v) for (k, s, e, v) in self.tuples
            if low <= k < high and s < t_end and e > t_start
        ]


@contextmanager
def reference_kernels():
    """Run tree updates inside the block through the reference kernels.

    A logical-mode MVSBT insertion runs Appendix A's transcription
    (``_apply_at_lowest`` / ``_apply_at_parent`` / ``_merge_around``)
    instead of the incremental-mirror kernel production always runs, and
    the MVBT re-sorts a leaf's alive mirror on every access instead of
    trusting the one its updates keep current.  This is the only way to
    reach either: no constructor, config or public method selects them.
    """
    mirror_kernel = MVSBT._mirror_at_lowest, MVSBT._mirror_at_parent
    kept_mirror = mvbt_tree._mirror

    def rebuilt_mirror(page):
        page.cache = None
        return kept_mirror(page)

    MVSBT._mirror_at_lowest = MVSBT._apply_at_lowest
    MVSBT._mirror_at_parent = MVSBT._apply_at_parent
    mvbt_tree._mirror = rebuilt_mirror
    try:
        yield
    finally:
        MVSBT._mirror_at_lowest, MVSBT._mirror_at_parent = mirror_kernel
        mvbt_tree._mirror = kept_mirror


def open_window(tree):
    """The buffer-tree window on one MVSBT, inside the pool batch window
    it requires — what a ``BatchLoader.load`` of at least
    ``BUFFERED_MIN_EVENTS`` events opens."""
    tree.pool.begin_batch()
    return tree.begin_buffered()


def close_window(tree):
    tree.end_buffered()
    tree.pool.end_batch()


def halves(answers):
    """MVSBT answers (values, or tuples of them) as ``repr`` of their
    ``(real, imag)`` halves.  Every value comes back from bytes a
    ``complex`` — the tree's own float zeros included, so where nothing
    was ever inserted a reopened tree answers ``0j`` for ``0.0`` — and no
    half may differ in a bit, sign of zero included."""
    def split(answer):
        if isinstance(answer, tuple):
            return tuple(split(each) for each in answer)
        return answer.real, answer.imag
    return repr([split(answer) for answer in answers])


def canonical_tree_dump(tree, page_bytes=4096):
    """Tree structure with page IDs relabeled in DFS visit order.

    The RTA index runs two MVSBTs over ONE pool; buffered flush batches
    legitimately reorder page *allocations* across the trees, so raw page
    IDs (and the child pointers embedded in index records) are not
    comparable across twins.  Everything else must be: records decode
    through the page codecs (representation-independent), child pointers
    are canonicalized, and record payloads compare by repr.
    """
    from repro.storage.serialization import decode_page, encode_page_image

    tree.pool.flush_all()
    relabel = {}
    pages = []

    def visit(pid):
        if pid in relabel:
            return relabel[pid]
        relabel[pid] = len(relabel)
        mine = relabel[pid]
        kind, records = decode_page(
            encode_page_image(tree.pool.fetch(pid), page_bytes))
        rows = []
        for record in records:
            if kind == "mvsbt-index":
                rows.append((record.low, record.high, record.start,
                             record.end, record.value, visit(record.child)))
            else:
                rows.append(repr(record))
        pages.append((mine, kind, tuple(rows)))
        return mine

    roots = tuple((entry.start, visit(entry.root_id))
                  for entry in tree.roots.entries())
    return roots, tuple(sorted(pages))


class ReferencePointMemo:
    """The point memo as it was before it became a flat table, verbatim:
    an LRU of ``(key, t) -> (value, epoch, pages)`` over the
    ``OrderedDict`` map that still serves the result cache.  Swap it in
    with ``tree.memo = ReferencePointMemo(capacity)``; the two-way
    table's hit rate is measured against this one's."""

    __slots__ = ("_lru",)

    def __init__(self, capacity: int = 8192,
                 thread_safe: bool = False) -> None:
        from repro.core.cache import _VersionedLRU

        self._lru = _VersionedLRU(capacity, thread_safe)

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: int, t: int, epoch: int) -> Optional[Tuple[float, int]]:
        """``(value, pages)`` on a fresh hit, else ``None``."""
        hit = self._lru.lookup((key, t), epoch)
        if hit is None:
            return None
        self._lru.stats.pages_saved += hit[1]
        return hit

    def put(self, key: int, t: int, value: float, pages: int, *,
            closed: bool, epoch: int) -> None:
        """Memoize one point answer with the length of its descent."""
        self._lru.store((key, t), value, closed=closed, epoch=epoch,
                        extra=pages)

    def clear(self) -> None:
        """Drop every memoized point."""
        self._lru.clear()
