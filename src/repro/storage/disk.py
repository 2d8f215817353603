"""Disk managers: page allocation and persistence.

Two implementations share one protocol:

* :class:`InMemoryDiskManager` keeps page objects in a dict.  It is the
  default for simulation — I/O *counting* happens in the buffer pool, so a
  real file adds nothing to the paper's metric while costing wall time.
* :class:`FileDiskManager` serializes pages to a single file through the
  codecs in :mod:`repro.storage.serialization`, proving the structures
  survive a real byte round-trip (and giving durability tests a target).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Dict, Iterator, Optional

from repro.errors import PageNotFoundError, StorageError
from repro.obs.tracer import NULL_TRACER
from repro.storage.page import Page
from repro.storage.serialization import (
    DEFAULT_PAGE_BYTES,
    DecodedPageCache,
    decode_page,
    encode_page_image,
)


class DiskManager(ABC):
    """Allocation and persistence protocol all disk managers implement."""

    #: Observability hook: ``disk.read``/``disk.write`` events mark every
    #: physical page transfer.  The shared null tracer makes this one
    #: branch on the (hot) untraced path.
    tracer = NULL_TRACER

    #: A :class:`~repro.storage.serialization.DecodedPageCache` when the
    #: manager keeps one (the buffer pool parks clean victims there).
    decoded_cache = None

    def __init__(self) -> None:
        self._next_page_id = 0

    def allocate(self, capacity: int, kind: str = "raw") -> Page:
        """Create a brand-new empty page and return it (not yet persisted)."""
        page = Page(self._next_page_id, capacity, kind)
        self._next_page_id += 1
        self._register(page)
        return page

    @property
    def allocated_count(self) -> int:
        """Total pages ever allocated (monotone; frees do not decrease it)."""
        return self._next_page_id

    @abstractmethod
    def _register(self, page: Page) -> None:
        """Record a freshly allocated page."""

    @abstractmethod
    def read(self, page_id: int) -> Page:
        """Fetch a page from storage.  Raises :class:`PageNotFoundError`."""

    @abstractmethod
    def write(self, page: Page) -> None:
        """Persist a page image."""

    @abstractmethod
    def free(self, page_id: int) -> None:
        """Release a page (page-disposal optimization).  Freed ids stay dead."""

    @abstractmethod
    def live_page_ids(self) -> Iterator[int]:
        """Iterate ids of pages that are allocated and not freed."""

    @property
    @abstractmethod
    def live_page_count(self) -> int:
        """Number of live (allocated, not freed) pages — the space metric."""


class InMemoryDiskManager(DiskManager):
    """Dict-backed manager; the workhorse for simulation and tests."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: Dict[int, Page] = {}

    def _register(self, page: Page) -> None:
        self._pages[page.page_id] = page

    def read(self, page_id: int) -> Page:
        try:
            page = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        if self.tracer.enabled:
            self.tracer.event("disk.read", page=page_id)
        return page

    def write(self, page: Page) -> None:
        # The dict already holds the live object; writing is a no-op beyond
        # validation.  Physical-write accounting lives in the buffer pool.
        if page.page_id not in self._pages:
            raise PageNotFoundError(page.page_id)
        if self.tracer.enabled:
            self.tracer.event("disk.write", page=page.page_id)

    def free(self, page_id: int) -> None:
        if self._pages.pop(page_id, None) is None:
            raise PageNotFoundError(page_id)

    def live_page_ids(self) -> Iterator[int]:
        return iter(self._pages.keys())

    @property
    def live_page_count(self) -> int:
        return len(self._pages)


class FileDiskManager(DiskManager):
    """Single-file page store using the registered record codecs.

    Pages are fixed ``page_bytes`` slots at offset ``page_id * page_bytes``.
    Freed pages are tracked in an in-memory free set; their slots are zeroed.
    Page *capacity* (record count) is a property of the owning index, so
    :meth:`read` requires the caller-supplied capacity hint given at
    construction via ``default_capacity`` or per-page via ``capacity_of``.

    Ownership is **per process**: the free set, known-id set, and capacity
    map live only in the constructing process's memory, so a manager
    reached from any other process (a fork, an unpickled warehouse) would
    silently desynchronize from the file.  Every physical operation
    therefore asserts the caller's pid matches the constructing pid —
    the procpool backend relies on exactly this discipline, rebuilding
    storage inside each worker instead of sharing handles.
    """

    def __init__(self, path: str, page_bytes: int = DEFAULT_PAGE_BYTES,
                 default_capacity: int = 64,
                 decoded_cache: Optional["DecodedPageCache"] = None) -> None:
        super().__init__()
        self.path = path
        self.page_bytes = page_bytes
        self.default_capacity = default_capacity
        #: Optional :class:`~repro.storage.serialization.DecodedPageCache`;
        #: ``None`` keeps the decode-on-every-read behavior.
        self.decoded_cache = decoded_cache
        self._freed: set[int] = set()
        self._known: set[int] = set()
        self._capacities: Dict[int, int] = {}
        self._owner_pid = os.getpid()
        # Create or truncate: a manager owns its file for its lifetime.
        with open(self.path, "wb"):
            pass

    def _check_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise StorageError(
                f"FileDiskManager for {self.path!r} is owned by pid "
                f"{self._owner_pid}, not {os.getpid()}; storage never "
                "crosses process boundaries — rebuild it in the worker"
            )

    def _register(self, page: Page) -> None:
        self._known.add(page.page_id)
        self._capacities[page.page_id] = page.capacity
        self.write(page)

    def _offset(self, page_id: int) -> int:
        return page_id * self.page_bytes

    def read(self, page_id: int) -> Page:
        self._check_owner()
        if page_id not in self._known or page_id in self._freed:
            raise PageNotFoundError(page_id)
        if self.decoded_cache is not None:
            entry = self.decoded_cache.take(page_id)
            if entry is not None:
                # The cached records were synced with the on-disk bytes by
                # the write/eviction that parked them here; skip both the
                # byte read and the struct decode loop.
                kind, records, capacity = entry
                page = Page(page_id, capacity, kind)
                page.records = records
                if self.tracer.enabled:
                    self.tracer.event("disk.read", page=page_id, cached=True)
                return page
        with open(self.path, "rb") as fh:
            fh.seek(self._offset(page_id))
            raw = fh.read(self.page_bytes)
        if len(raw) < self.page_bytes:
            raise StorageError(
                f"short read for page {page_id}: {len(raw)} bytes"
            )
        kind, records = decode_page(raw)
        page = Page(page_id, self._capacities.get(page_id, self.default_capacity), kind)
        page.records = records
        if self.tracer.enabled:
            self.tracer.event("disk.read", page=page_id, bytes=len(raw))
        return page

    def write(self, page: Page) -> None:
        self._check_owner()
        if page.page_id in self._freed:
            raise PageNotFoundError(page.page_id)
        image = encode_page_image(page, self.page_bytes)
        self._capacities[page.page_id] = page.capacity
        with open(self.path, "r+b") as fh:
            fh.seek(self._offset(page.page_id))
            fh.write(image)
        if self.decoded_cache is not None and page.records is not None:
            # The records now match the bytes just written; park them so a
            # post-eviction re-read skips the decode.
            self.decoded_cache.put(page.page_id, page.kind, page.records,
                                   page.capacity)
        if self.tracer.enabled:
            self.tracer.event("disk.write", page=page.page_id,
                              bytes=len(image))

    def free(self, page_id: int) -> None:
        self._check_owner()
        if page_id not in self._known or page_id in self._freed:
            raise PageNotFoundError(page_id)
        if self.decoded_cache is not None:
            self.decoded_cache.invalidate(page_id)
        self._freed.add(page_id)
        with open(self.path, "r+b") as fh:
            fh.seek(self._offset(page_id))
            fh.write(b"\0" * self.page_bytes)

    def live_page_ids(self) -> Iterator[int]:
        return iter(sorted(self._known - self._freed))

    @property
    def live_page_count(self) -> int:
        return len(self._known) - len(self._freed)

    def close(self) -> None:
        """Remove the backing file (managers own their file)."""
        if os.path.exists(self.path):
            os.unlink(self.path)
