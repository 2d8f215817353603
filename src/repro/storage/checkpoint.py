"""Checkpointing: durable snapshots of any paged index.

A checkpoint is a directory with two files:

* ``pages.dat`` — every live page serialized through its registered record
  codec (fixed-width slots, same format as
  :class:`~repro.storage.disk.FileDiskManager`);
* ``meta.json`` — per-page metadata (kind, capacity, the index-specific
  ``page.meta`` dict) plus an index-owned metadata blob (configuration,
  root* entries, clocks).

The transaction-time model makes this simple and sound: updates never
rewrite history, so a checkpoint taken between updates is a consistent
version of the whole index, and the indexes' ``save``/``load`` methods
round-trip through here.  Recovery of in-flight updates (a WAL) is out of
scope — the paper's warehouse applies updates in batch time order, where
replaying the tail of the source stream *is* the recovery protocol.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.serialization import (
    PAGE_HEADER_BYTES,
    codec_for,
    decode_columns,
    encode_page_image,
)

PAGES_FILE = "pages.dat"
META_FILE = "meta.json"
MAGIC = "repro-checkpoint-v3"


@dataclass(frozen=True)
class CheckpointInfo:
    """What a checkpoint directory holds, before loading the pages."""

    directory: str
    page_bytes: int
    page_count: int
    index_meta: Dict[str, Any]


def _slot_bytes(pool: BufferPool) -> int:
    """Smallest slot size that fits every live page at full capacity."""
    largest = 2 * PAGE_HEADER_BYTES
    for page_id in pool.disk.live_page_ids():
        page = pool.fetch(page_id)
        codec = codec_for(page.kind)
        needed = PAGE_HEADER_BYTES + page.capacity * codec.record_bytes
        largest = max(largest, needed)
    # Round up to the next multiple of 256 for tidy offsets.
    return (largest + 255) // 256 * 256


def write_checkpoint(pool: BufferPool, index_meta: Dict[str, Any],
                     directory: str) -> CheckpointInfo:
    """Persist every live page of ``pool`` plus ``index_meta``.

    The pool is flushed first; the checkpoint is self-contained and does
    not reference the pool afterwards.
    """
    os.makedirs(directory, exist_ok=True)
    pool.flush_all()
    page_bytes = _slot_bytes(pool)
    page_ids = sorted(pool.disk.live_page_ids())

    pages_meta: Dict[str, Any] = {}
    with open(os.path.join(directory, PAGES_FILE), "wb") as fh:
        for slot, page_id in enumerate(page_ids):
            page = pool.fetch(page_id)
            fh.write(encode_page_image(page, page_bytes))
            pages_meta[str(page_id)] = {
                "slot": slot,
                "capacity": page.capacity,
                "meta": dict(page.meta),
            }

    blob = {
        "magic": MAGIC,
        "page_bytes": page_bytes,
        "next_page_id": pool.disk.allocated_count,
        "pages": pages_meta,
        "index_meta": index_meta,
    }
    with open(os.path.join(directory, META_FILE), "w") as fh:
        json.dump(blob, fh)
    return CheckpointInfo(directory=directory, page_bytes=page_bytes,
                          page_count=len(page_ids), index_meta=index_meta)


def read_checkpoint(directory: str, buffer_pages: int = 64
                    ) -> Tuple[BufferPool, Dict[str, Any]]:
    """Rebuild a buffer pool (over an in-memory disk) from a checkpoint.

    Returns ``(pool, index_meta)``.  Page ids, capacities, kinds, records
    (as objects, or as the block a codec's ``seal`` hook keeps — the same
    bytes either way) and per-page metadata are restored exactly; the
    disk's allocation cursor continues where the checkpointed index left
    off.  Equal field values across the whole checkpoint come back as one
    object (:func:`~repro.storage.serialization.decode_columns`; the
    table that finds them lives for this call only), as they were in the
    index that was saved.
    """
    meta_path = os.path.join(directory, META_FILE)
    pages_path = os.path.join(directory, PAGES_FILE)
    if not (os.path.exists(meta_path) and os.path.exists(pages_path)):
        raise StorageError(f"{directory} is not a checkpoint directory")
    with open(meta_path) as fh:
        blob = json.load(fh)
    if blob.get("magic") != MAGIC:
        raise StorageError(
            f"unrecognized checkpoint format in {directory}: "
            f"{blob.get('magic')!r}"
        )
    page_bytes = blob["page_bytes"]

    size = os.path.getsize(pages_path)
    expected = len(blob["pages"]) * page_bytes
    if size != expected:
        raise StorageError(
            f"checkpoint pages file is {size} bytes, expected {expected}"
        )

    from repro.storage.page import Page  # local import to avoid cycles

    disk = InMemoryDiskManager()
    shared: Dict[str, dict] = {}
    image = memoryview(bytearray(page_bytes))  # every page image in turn
    with open(pages_path, "rb") as fh:
        for page_id_str, entry in blob["pages"].items():
            page_id = int(page_id_str)
            fh.seek(entry["slot"] * page_bytes)
            fh.readinto(image)
            kind, codec, columns = decode_columns(image, shared)
            page = Page(page_id, entry["capacity"], kind)
            if codec.seal is None:
                page.records = [codec.from_tuple(row)
                                for row in zip(*columns)]
            else:
                # The kind's own say (a dead MVSBT page stays sealed:
                # columns, never record objects).
                page.records, page.cache = codec.seal(kind, columns,
                                                      entry["meta"])
            page.meta.update(entry["meta"])
            disk._pages[page_id] = page  # restore under the original id
    disk._next_page_id = blob["next_page_id"]

    pool = BufferPool(disk, capacity=buffer_pages)
    return pool, blob["index_meta"]
