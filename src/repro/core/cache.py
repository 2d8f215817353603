"""Version-pinned read-path caches, correct by construction.

The transaction-time model makes caching unusually easy to get right:
updates arrive with non-decreasing timestamps, so every version strictly
before the current clock is **closed** — immutable forever.  The two
caches here exploit that single fact at two granularities:

* :class:`ResultCache` memoizes whole aggregate answers at the warehouse
  layer, keyed ``(entry name, key_range, interval)``.  A query whose
  interval ends at or before the warehouse clock only touches closed
  versions, so its answer can be cached *forever* (bounded only by LRU
  capacity).  A query whose interval reaches the open present is cached
  too, but tagged with the warehouse's **write epoch**; the single-writer
  update path bumps the epoch, so a stale open-present entry is detected
  (and dropped) at lookup time, never served.

* :class:`PointMemo` memoizes MVSBT point queries ``V(key, t)`` — the
  four-probe Equation (1) repeats boundary probes across overlapping
  rectangles, and every probe at ``t`` below the tree clock is a closed
  version.  The memo also records the length of the root-to-leaf
  descent, so EXPLAIN can report how many page visits a hit
  short-circuited.  Only rectangles that reach the open present consult
  it: a closed rectangle's whole answer is the result cache's to keep,
  so its probes recur only when another rectangle shares them, which
  pays less than a lookup and a store each
  (:meth:`repro.core.rta.RTAIndex._reduce`).

Both caches are **opt-in** and *absent by default*: an unconfigured
warehouse holds ``None`` and pays one attribute check on the query path,
which is what keeps the twin-run trace-invariance tests byte-identical
with caching off.  Under the multi-reader server the result cache is
constructed ``thread_safe=True``, which guards its LRU bookkeeping with
a mutex (readers share the shard read lock, so they do race each other);
the memo needs none — every access to its table is one list operation
on an immutable entry.

Why results cannot go stale — the two-line proof the tests enforce:
an update at time ``t'`` only changes the value surface at instants
``>= t'``, and the clock guarantees ``t' >= now``; a closed entry only
aggregates instants ``< now <= t'``, so no update can touch it.  Open
entries make no such claim and are invalidated wholesale by the epoch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Hashable, Optional, Tuple

#: Marker epoch for entries over closed intervals: valid forever.
_CLOSED = -1

#: Per-thread deferred-store state for optimistic (seqlock) readers.  A
#: torn optimistic read must never publish into a shared cache: a closed
#: entry is pinned *forever*, so one poisoned store would serve wrong
#: answers until eviction.  While a thread is inside an optimistic read
#: section every ``_VersionedLRU.store`` and ``PointMemo.put`` is parked
#: here (as a zero-argument callable) instead of applied; the reader
#: commits the parked stores only after its epoch validation proves the
#: traversal was untorn, or discards them.
_deferred = threading.local()


def begin_deferred_stores() -> None:
    """Park this thread's cache stores until commit/discard (re-entrant
    per thread only in the sense that the latest call wins — optimistic
    read sections do not nest)."""
    _deferred.pending = []


def commit_deferred_stores() -> None:
    """Apply the parked stores — call only after epoch validation."""
    pending = getattr(_deferred, "pending", None)
    _deferred.pending = None
    if pending:
        for store in pending:
            store()


def discard_deferred_stores() -> None:
    """Drop the parked stores — the optimistic read was torn or failed."""
    _deferred.pending = None


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for the layered read-path cache.

    ``result_entries`` bounds the warehouse-level :class:`ResultCache`
    (an LRU: about 300 bytes of bookkeeping per entry beside the answer).
    ``memo_entries`` bounds each MVSBT's :class:`PointMemo` — one
    (LKS, LKLT) tree pair, so two tables per warehouse and as many per
    shard; a table has the largest power of two of slots within the
    bound (8 bytes each, allocated on the first store, which only an
    open-present rectangle makes) and an entry is one five-field tuple,
    so a full default memo holds about 1.4 MB per tree.  Zero disables
    the respective layer.
    """

    result_entries: int = 4096
    memo_entries: int = 8192

    def __post_init__(self) -> None:
        if self.result_entries < 0 or self.memo_entries < 0:
            raise ValueError("cache capacities must be non-negative")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters one cache instance maintains."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_drops: int = 0
    #: Page visits a memo hit avoided (descent length at store time).
    pages_saved: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (metrics export, snapshots)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "pages_saved": self.pages_saved,
        }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before any traffic."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _VersionedLRU:
    """LRU map of ``key -> (value, epoch, extra)`` with epoch validation.

    Entries stored with the :data:`_CLOSED` epoch never expire; any other
    epoch must match the caller's current epoch at lookup or the entry is
    dropped as stale.  All methods are O(1); the optional mutex makes the
    structure safe under the server's concurrent readers.
    """

    __slots__ = ("capacity", "stats", "_entries", "_lock")

    def __init__(self, capacity: int, thread_safe: bool = False) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Tuple[Any, int, Any]]" = \
            OrderedDict()
        self._lock: Optional[threading.Lock] = \
            threading.Lock() if thread_safe else None

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable, epoch: int) -> Optional[Tuple[Any, Any]]:
        """``(value, extra)`` when fresh, else ``None`` (stats updated)."""
        lock = self._lock
        if lock is None:
            return self._lookup(key, epoch)
        with lock:
            return self._lookup(key, epoch)

    def _lookup(self, key: Hashable, epoch: int) -> Optional[Tuple[Any, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        value, stored_epoch, extra = entry
        if stored_epoch != _CLOSED and stored_epoch != epoch:
            del self._entries[key]
            self.stats.stale_drops += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value, extra

    def peek(self, key: Hashable, epoch: int) -> bool:
        """Would :meth:`lookup` hit?  No stats, no recency, no drops."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        stored_epoch = entry[1]
        return stored_epoch == _CLOSED or stored_epoch == epoch

    def store(self, key: Hashable, value: Any, *, closed: bool, epoch: int,
              extra: Any = None) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full.

        Inside an optimistic read section (see
        :func:`begin_deferred_stores`) the store is parked thread-locally
        and only lands if the reader's epoch validation later commits it
        — lookups keep reading the shared map directly, which is safe
        because they can only observe *committed* entries.
        """
        if self.capacity <= 0:
            return
        pending = getattr(_deferred, "pending", None)
        if pending is not None:
            pending.append(partial(self.store, key, value, closed=closed,
                                   epoch=epoch, extra=extra))
            return
        lock = self._lock
        if lock is None:
            return self._store(key, value, closed, epoch, extra)
        with lock:
            return self._store(key, value, closed, epoch, extra)

    def _store(self, key: Hashable, value: Any, closed: bool, epoch: int,
               extra: Any) -> None:
        self._entries[key] = (value, _CLOSED if closed else epoch, extra)
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (used by tests and explicit resets)."""
        lock = self._lock
        if lock is None:
            self._entries.clear()
            return
        with lock:
            self._entries.clear()


class ResultCache:
    """Warehouse-level cache of whole aggregate answers.

    Keys are flat ``(name, key low, key high, start, end)`` tuples (see
    :meth:`key`); ``name`` is ``"mvsbt"`` for the rectangle's whole
    :class:`~repro.core.rta.RTAResult` (SUM, COUNT and AVG read the one
    entry), ``"MIN"``/``"MAX"`` for theirs.  The ``as_of`` pinning of
    the serving layer needs no extra key component: the executor folds a
    snapshot into the interval (clipping its end to ``as_of + 1``), so
    two requests with different snapshots already carry different
    intervals.
    """

    __slots__ = ("_lru",)

    def __init__(self, capacity: int = 4096,
                 thread_safe: bool = False) -> None:
        self._lru = _VersionedLRU(capacity, thread_safe)

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    @staticmethod
    def key(name: str, key_range: Any, interval: Any) -> Tuple:
        """The canonical cache key for one entry of one rectangle.

        The rectangle's four bounds, not the model objects: an entry
        then keeps one tuple alive instead of two dataclass instances
        (about 290 bytes less), and hashing never leaves C.
        """
        return (name, key_range.low, key_range.high,
                interval.start, interval.end)

    def lookup(self, key: Tuple, epoch: int) -> Optional[Tuple[Any, Any]]:
        """``(result, None)`` on a fresh hit, else ``None``."""
        return self._lru.lookup(key, epoch)

    def peek(self, key: Tuple, epoch: int) -> bool:
        """Non-mutating hit probe (EXPLAIN uses this)."""
        return self._lru.peek(key, epoch)

    def store(self, key: Tuple, result: Any, *, closed: bool,
              epoch: int) -> None:
        """Cache ``result``: pinned forever if ``closed``, else at ``epoch``."""
        self._lru.store(key, result, closed=closed, epoch=epoch)

    def clear(self) -> None:
        """Drop every cached result."""
        self._lru.clear()


class PointMemo:
    """Per-MVSBT memo of point queries with descent-length bookkeeping:
    a flat, two-way table.

    It serves the open present: an Equation (1) reduction consults it
    only for a rectangle that ends after the index clock, and a closed
    rectangle descends with the memo untouched — no ``get``, no ``put``
    (``MVSBT.query_pair(..., use_memo=False)``).  Its counters therefore
    count open-present probes only.

    ``get``/``put`` carry the tree's insertion epoch: entries for closed
    instants (``t`` below the tree clock at store time) are pinned
    forever, entries at the open frontier are epoch-validated.  ``put``
    records how many pages the descent visited (an int — nothing ever
    read the page ids themselves); a hit credits it to
    ``stats.pages_saved`` — the exact number of ``fetch`` calls (and
    hence logical reads) the memo short-circuited.

    The table is one list of ``capacity`` slots (a power of two), each
    ``None`` or an immutable ``(key, t, value, epoch, pages)`` tuple.  A
    probe hashes to two slots, ``h & mask`` and ``(h >> 17) & mask``.  A
    newcomer always takes its first; the tenant it finds there moves on
    to *its own* second slot if this was its first, and is evicted if it
    had been moved once already — an entry survives one collision, so
    two hot probes that share a slot do not evict each other on every
    read.  There is no recency order to keep (``docs/INTERNALS.md`` §11
    has the measurements behind both choices).

    No lock: a slot is read and written by single list operations, and a
    reader believes an entry only after comparing the ``key`` and ``t``
    inside the tuple it got, so under racing threads it sees ``None`` or
    a whole entry for its own probe, never a mixture.  A race can lose
    an entry or a counter increment: ``stats`` are exact single-threaded
    (the benchmark's counted replay) and approximate under concurrent
    readers.  The list is allocated by the first ``put``, so a memo on
    a tree that is never read costs nothing.
    """

    __slots__ = ("capacity", "stats", "_slots", "_mask")

    def __init__(self, capacity: int = 8192) -> None:
        #: Slot count: the largest power of two within the asked bound.
        self.capacity = 1 << (capacity.bit_length() - 1) if capacity > 0 \
            else 0
        self.stats = CacheStats()
        self._mask = self.capacity - 1
        self._slots: Optional[list] = None

    def __len__(self) -> int:
        slots = self._slots
        return 0 if slots is None else len(slots) - slots.count(None)

    def get(self, key: int, t: int, epoch: int) -> Optional[Tuple[float, int]]:
        """``(value, pages)`` on a fresh hit, else ``None``."""
        slots, stats = self._slots, self.stats
        if slots is None:
            stats.misses += 1
            return None
        h = hash((key, t))
        at = h & self._mask
        entry = slots[at]
        if entry is None or entry[0] != key or entry[1] != t:
            at = (h >> 17) & self._mask
            entry = slots[at]
            if entry is None or entry[0] != key or entry[1] != t:
                stats.misses += 1
                return None
        if entry[3] != _CLOSED and entry[3] != epoch:
            slots[at] = None
            stats.stale_drops += 1
            stats.misses += 1
            return None
        stats.hits += 1
        stats.pages_saved += entry[4]
        return entry[2], entry[4]

    def put(self, key: int, t: int, value: float, pages: int, *,
            closed: bool, epoch: int) -> None:
        """Memoize one point answer with the length of its descent.

        Inside an optimistic read section (see
        :func:`begin_deferred_stores`) the entry is parked and placed
        only if the reader's epoch validation commits it.
        """
        if not self.capacity:
            return
        entry = (key, t, value, _CLOSED if closed else epoch, pages)
        pending = getattr(_deferred, "pending", None)
        if pending is not None:
            pending.append(partial(self._place, entry))
        else:
            self._place(entry)

    def _place(self, entry: Tuple) -> None:
        """``entry`` into its first slot; the tenant moves on or out."""
        slots, mask = self._slots, self._mask
        if slots is None:
            slots = self._slots = [None] * self.capacity
        probe = entry[:2]
        first = hash(probe) & mask
        tenant = slots[first]
        slots[first] = entry
        if tenant is None or tenant[:2] == probe:
            return
        h = hash(tenant[:2])
        second = (h >> 17) & mask
        if h & mask == first and second != first:
            tenant, slots[second] = slots[second], tenant
            if tenant is None:
                return
        self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every memoized point (and the table with them)."""
        self._slots = None


@dataclass
class CacheSnapshot:
    """Point-in-time roll-up of every cache layer behind a warehouse.

    ``merge`` folds several snapshots (one per shard) into fleet totals;
    the serving layer publishes the merged counters through the
    ``metrics`` op and EXPLAIN renders the per-query deltas.
    """

    result: Dict[str, int] = field(default_factory=dict)
    memo: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _add(into: Dict[str, int], other: Dict[str, int]) -> None:
        for name, value in other.items():
            into[name] = into.get(name, 0) + value

    def merge(self, other: "CacheSnapshot") -> "CacheSnapshot":
        """Fold ``other``'s counters into this snapshot; returns ``self``."""
        self._add(self.result, other.result)
        self._add(self.memo, other.memo)
        return self

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """``layer -> counters`` (layers a warehouse never attached are empty)."""
        return {"result": dict(self.result), "memo": dict(self.memo)}
