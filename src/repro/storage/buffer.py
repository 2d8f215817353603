"""LRU buffer pool with pin/unpin semantics and exact I/O accounting.

Every index in this library accesses pages exclusively through a
:class:`BufferPool`, so physical reads (buffer misses) and writes (dirty
evictions plus explicit flushes) are counted identically for all competitors.
The paper's experiments use an LRU buffer of 64 pages by default and sweep
the buffer size in Figure 4c; both are plain constructor parameters here.

A small convenience departure from textbook pools: :meth:`fetch` returns the
page *unpinned* by default, because the single-threaded simulation never has
concurrent evict-while-in-use hazards unless an algorithm holds several pages
across further fetches — which the index code does during splits, using
:meth:`pin`/:meth:`unpin` (or the :meth:`pinned` context manager) around
those windows.

Batch windows (:meth:`begin_batch` / :meth:`flush_batch` / :meth:`end_batch`)
support buffer-tree-style ingestion: while a window is open, eviction prefers
clean victims and keeps dirty pages resident so repeated mutations of a hot
page coalesce into one eventual write-back.  Each deferral is counted once
per page per window in ``IOStats.coalesced_writes``; if no victim is
evictable at all, the pool transiently over-commits and counts it in
``IOStats.overcommit``.

The pool is **not thread-safe by default** — the simulation is
single-threaded and the hot path stays branch-free.  The
:mod:`repro.serve` query server, which runs readers in a thread pool,
opts into guard rails per pool: :meth:`enable_locking` wraps the public
protocol in one :class:`threading.RLock`, and
:meth:`enable_concurrency_assertions` (tests) detects unlocked concurrent
entry and raises :class:`~repro.errors.ConcurrentAccessError` instead of
corrupting frames silently.  Both rebind the instance's methods, so a
pool that never opts in pays nothing.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.errors import (
    BufferPoolError,
    ConcurrentAccessError,
    PageNotFoundError,
)
from repro.obs.tracer import NULL_TRACER
from repro.storage.disk import DiskManager
from repro.storage.page import Page
from repro.storage.stats import IOStats

DEFAULT_BUFFER_PAGES = 64

#: Public methods serialized by :meth:`BufferPool.enable_locking` and
#: checked by :meth:`BufferPool.enable_concurrency_assertions`.
_GUARDED_METHODS = (
    "fetch", "allocate", "free", "flush", "flush_all", "clear",
    "begin_batch", "flush_batch", "end_batch", "pin", "unpin",
)


class _EntryGuard:
    """Re-entrancy-aware detector of concurrent unlocked access.

    Best-effort by design (the bookkeeping itself is unlocked — adding a
    lock would mask exactly the bug being hunted), but any overlap where
    one thread is inside a guarded method while another enters is caught
    at the second thread's entry point.
    """

    __slots__ = ("_owner", "_depth")

    def __init__(self) -> None:
        self._owner: Optional[int] = None
        self._depth = 0

    def wrap(self, method):
        @functools.wraps(method)
        def guarded(*args, **kwargs):
            me = threading.get_ident()
            owner = self._owner
            if owner is not None and owner != me:
                raise ConcurrentAccessError(
                    f"thread {me} entered BufferPool.{method.__name__} "
                    f"while thread {owner} is inside the pool; wrap access "
                    "in a lock (see BufferPool.enable_locking)"
                )
            self._owner = me
            self._depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self._owner = None
        return guarded


class BufferPool:
    """LRU cache of :class:`Page` objects in front of a :class:`DiskManager`.

    Parameters
    ----------
    disk:
        Backing disk manager (shared between indexes only if they should
        share one I/O budget; experiments give each competitor its own).
    capacity:
        Number of page frames (the paper's default is 64).
    stats:
        Optional externally owned :class:`IOStats`; one is created otherwise.
    """

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_BUFFER_PAGES,
                 stats: Optional[IOStats] = None) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        #: Observability hooks: a (usually null) tracer receiving
        #: ``buffer.*`` events, and metrics instruments when attached via
        #: :func:`repro.obs.attach_metrics`.  Both read-only for the pool's
        #: own state — they never change eviction or write decisions.
        self.tracer = NULL_TRACER
        self.metrics = None
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        self._batch_depth = 0
        self._batch_deferred: set[int] = set()
        # Batch-mode eviction candidates: pages last seen clean (admitted by
        # a fetch miss, flushed, or unpinned).  Entries may be stale — the
        # index layer dirties pages without telling the pool — so the victim
        # scan re-checks and discards; each page re-enters only on another
        # clean transition, keeping eviction amortized O(1) even when every
        # frame is dirty.
        self._maybe_clean: Dict[int, None] = {}
        #: Set by :meth:`enable_locking`; ``None`` means unguarded.
        self._lock: Optional[threading.RLock] = None
        self._entry_guard: Optional[_EntryGuard] = None

    # -- thread-safety guard rails ----------------------------------------------

    def enable_locking(self) -> threading.RLock:
        """Serialize the pool's public protocol behind one ``RLock``.

        Idempotent; returns the lock so callers holding several pages
        across calls (splits) can take it around the whole window.  The
        methods in ``_GUARDED_METHODS`` are rebound on *this instance*, so
        pools that never call this keep the branch-free fast path.
        """
        if self._lock is None:
            self._lock = threading.RLock()
            lock = self._lock

            def locked(method):
                @functools.wraps(method)
                def wrapper(*args, **kwargs):
                    with lock:
                        return method(*args, **kwargs)
                return wrapper

            for name in _GUARDED_METHODS:
                setattr(self, name, locked(getattr(self, name)))
        return self._lock

    def enable_concurrency_assertions(self) -> None:
        """Detect (don't prevent) concurrent unlocked access, for tests.

        Rebinds the public protocol behind a re-entrancy-aware entry
        guard: a second thread entering while another is inside raises
        :class:`~repro.errors.ConcurrentAccessError`.  Call *before*
        :meth:`enable_locking` if combining both (the lock then wraps the
        guard, which consequently never fires).
        """
        if self._entry_guard is None:
            self._entry_guard = _EntryGuard()
            for name in _GUARDED_METHODS:
                setattr(self, name,
                        self._entry_guard.wrap(getattr(self, name)))

    # -- core protocol ---------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Return the page, reading it from disk on a miss (counted)."""
        self.stats.logical_reads += 1
        frames = self._frames
        page = frames.get(page_id)
        if page is not None:
            frames.move_to_end(page_id)
            if self.tracer.enabled:
                self.tracer.event("buffer.hit", page=page_id)
            return page
        if self.tracer.enabled:
            self.tracer.event("buffer.miss", page=page_id)
        page = self.disk.read(page_id)
        self.stats.reads += 1
        self._maybe_clean[page_id] = None
        frames[page_id] = page      # a new key: it enters at the MRU end
        if len(frames) > self.capacity:
            # A fetched page is clean and not yet pinned (callers pin
            # only after fetch returns): without the exclusion a pool
            # whose other frames are all pinned or batch-deferred would
            # evict the page it is admitting, and the caller's pin()
            # would fail on a non-resident page.
            self._evict(keep=page_id)
        return page

    def allocate(self, capacity: int, kind: str = "raw") -> Page:
        """Allocate a fresh page; it enters the buffer dirty (will be written)."""
        page = self.disk.allocate(capacity, kind)
        self.stats.allocations += 1
        page.dirty = True
        # Candidate from birth: a batch-mode victim scan then sees the page,
        # defers it (it is dirty) and counts the coalesced write.
        self._maybe_clean[page.page_id] = None
        self._frames[page.page_id] = page
        if len(self._frames) > self.capacity:
            # A freshly allocated page deliberately stays evictable: with
            # every other frame pinned it spills (written back at once)
            # while the caller's reference stays usable.
            self._evict()
        return page

    def free(self, page_id: int) -> None:
        """Drop a page from buffer and disk (page-disposal optimization).

        A freed page that was never flushed costs no write; one already on
        disk is released without further I/O (freeing is a metadata update).
        """
        if self._pins.get(page_id, 0) > 0:
            raise BufferPoolError(f"cannot free pinned page {page_id}")
        self._frames.pop(page_id, None)
        self._maybe_clean.pop(page_id, None)
        self.disk.free(page_id)
        self.stats.frees += 1

    def flush(self, page_id: int) -> None:
        """Write one page through to disk if dirty (counted)."""
        page = self._frames.get(page_id)
        if page is None:
            return
        if page.dirty:
            self.disk.write(page)
            self.stats.writes += 1
            page.dirty = False
            self._maybe_clean[page_id] = None

    def flush_all(self) -> None:
        """Write every dirty buffered page (end-of-run checkpoint)."""
        for pid in list(self._frames.keys()):
            self.flush(pid)

    def clear(self) -> None:
        """Flush then empty the buffer (cold-cache start for a query phase)."""
        if any(count > 0 for count in self._pins.values()):
            raise BufferPoolError("cannot clear buffer while pages are pinned")
        self.flush_all()
        self._frames.clear()
        self._pins.clear()
        self._maybe_clean.clear()

    # -- batch windows ----------------------------------------------------------

    def begin_batch(self) -> None:
        """Open a (nestable) batch window that defers dirty-page evictions.

        While the window is open, :meth:`_evict` skips dirty frames
        when hunting for a victim, so a page mutated by many events in the
        batch is written back once by :meth:`flush_batch` instead of once per
        eviction.  The first deferral of each page per window increments
        ``IOStats.coalesced_writes``.
        """
        self._batch_depth += 1

    def flush_batch(self) -> int:
        """Write every dirty frame once and trim the pool back to capacity.

        Returns the number of pages written.  Pinned dirty pages are written
        in place (writing does not evict); only clean, unpinned frames are
        then evicted until the pool is within ``capacity`` again.
        """
        written = 0
        for page in self._frames.values():
            if page.dirty:
                self.disk.write(page)
                self.stats.writes += 1
                page.dirty = False
                written += 1
        self._batch_deferred.clear()
        self._maybe_clean = dict.fromkeys(self._frames)
        self._evict()
        if self.metrics is not None:
            self.metrics.flush_batch_pages.observe(written)
        return written

    def end_batch(self) -> None:
        """Close one batch window level; the outermost close flushes."""
        if self._batch_depth <= 0:
            raise BufferPoolError("end_batch() without matching begin_batch()")
        self._batch_depth -= 1
        if self._batch_depth == 0:
            self.flush_batch()

    @property
    def in_batch(self) -> bool:
        """True while at least one batch window is open."""
        return self._batch_depth > 0

    # -- pinning ----------------------------------------------------------------

    def pin(self, page_id: int) -> None:
        """Protect a buffered page from eviction (nestable)."""
        if page_id not in self._frames:
            raise BufferPoolError(f"cannot pin non-resident page {page_id}")
        self._pins[page_id] = self._pins.get(page_id, 0) + 1

    def unpin(self, page_id: int) -> None:
        """Release one pin level."""
        count = self._pins.get(page_id, 0)
        if count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        if count == 1:
            del self._pins[page_id]
            if page_id in self._frames:
                self._maybe_clean[page_id] = None
        else:
            self._pins[page_id] = count - 1

    @contextmanager
    def pinned(self, page: Page) -> Iterator[Page]:
        """Context manager pinning ``page`` for the duration of a block."""
        self.pin(page.page_id)
        try:
            yield page
        finally:
            self.unpin(page.page_id)

    # -- internals ----------------------------------------------------------------

    def _evict(self, keep: Optional[int] = None) -> None:
        """Evict until the pool is within capacity again (never ``keep``):
        the least recently used unpinned frame, or inside a batch window
        the first clean candidate (:meth:`_batch_victim`)."""
        frames, pins = self._frames, self._pins
        while len(frames) > self.capacity:
            if self._batch_depth:
                victim_id = self._batch_victim(keep)
            else:
                victim_id = None
                for pid in frames:  # OrderedDict iterates LRU-first
                    if pid != keep and pins.get(pid, 0) == 0:
                        victim_id = pid
                        break
            if victim_id is None:
                # No evictable victim (everything pinned, or dirty inside a
                # batch window); allow transient over-commit rather than
                # deadlock, and make the violation observable.
                self.stats.overcommit += 1
                if self.tracer.enabled:
                    self.tracer.event("buffer.overcommit",
                                      resident=len(frames))
                if self.metrics is not None:
                    self.metrics.overcommits.inc()
                return
            victim = frames.pop(victim_id)
            self._maybe_clean.pop(victim_id, None)
            if self.tracer.enabled:
                self.tracer.event("buffer.evict", page=victim_id,
                                  dirty=victim.dirty)
            if self.metrics is not None:
                self.metrics.evictions.inc()
            if victim.dirty:
                self.disk.write(victim)
                self.stats.writes += 1
                victim.dirty = False

    def _batch_victim(self, keep: Optional[int]) -> Optional[int]:
        """Batch window: only clean pages are evictable; walk the candidate
        list instead of rescanning every (mostly dirty) frame.  A stale
        candidate that turned dirty is deferred — kept resident so later
        events coalesce into flush_batch's single write — and counted
        once per window in ``coalesced_writes``."""
        kept_candidate = False
        try:
            while self._maybe_clean:
                pid = next(iter(self._maybe_clean))
                del self._maybe_clean[pid]
                if pid == keep:
                    kept_candidate = True  # restored below, stays a candidate
                    continue
                page = self._frames.get(pid)
                if page is None:
                    continue
                if self._pins.get(pid, 0) > 0:
                    continue  # re-enters the candidate list on unpin
                if page.dirty:
                    if pid not in self._batch_deferred:
                        self._batch_deferred.add(pid)
                        self.stats.coalesced_writes += 1
                    continue
                return pid
            return None
        finally:
            if kept_candidate:
                self._maybe_clean[keep] = None

    # -- introspection ----------------------------------------------------------

    @property
    def resident_page_ids(self) -> list[int]:
        """Page ids currently buffered, LRU first (debug/tests)."""
        return list(self._frames.keys())

    def is_resident(self, page_id: int) -> bool:
        """True when the page currently occupies a buffer frame."""
        return page_id in self._frames
