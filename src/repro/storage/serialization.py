"""Fixed-width record codecs and records-per-page capacity math.

The paper's setting is 4 KB pages with 4-byte key/start/end/value fields.
These codecs serve two purposes:

* compute ``b`` (records per page) for each record layout, so the simulated
  indexes use realistic fan-outs;
* give checkpoints (:mod:`repro.storage.checkpoint`) and the
  :class:`~repro.storage.disk.FileDiskManager` round-trip target a concrete
  on-disk format, proving the structures survive real bytes.

All codecs are :mod:`struct`-based and little-endian.  Timestamps use 8-byte
fields because the library's ``NOW`` sentinel (2**62) exceeds 32 bits; the
capacity helpers accept an explicit layout so benchmarks can model the
paper's exact 4-byte widths when desired.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Bytes reserved per page for header bookkeeping (page id, kind tag, record
#: count, lifespan).  A real system needs roughly this much; the exact value
#: only perturbs ``b`` by a fraction of one record.
PAGE_HEADER_BYTES = 32

#: The paper's page size.
DEFAULT_PAGE_BYTES = 4096


def records_per_page(record_bytes: int, page_bytes: int = DEFAULT_PAGE_BYTES,
                     header_bytes: int = PAGE_HEADER_BYTES) -> int:
    """Capacity ``b`` for a page of ``page_bytes`` holding fixed-width records.

    >>> records_per_page(16)   # MVBT leaf record: key,start,end,value @ 4 B
    254
    """
    if record_bytes <= 0:
        raise ValueError("record_bytes must be positive")
    usable = page_bytes - header_bytes
    if usable < 2 * record_bytes:
        raise ValueError(
            f"page of {page_bytes} B cannot hold two {record_bytes} B records"
        )
    return usable // record_bytes


@dataclass(frozen=True)
class RecordCodec:
    """A ``struct`` layout plus encode/decode between records and tuples.

    ``to_tuple``/``from_tuple`` adapt an index's record class to the flat
    field tuple the struct format expects.  ``pair`` is the position of
    the first of two adjacent ``d`` fields that spell ONE value of two
    components (the MVSBT's ``(sum, count)``, a ``complex`` in memory):
    :func:`decode_columns` hands the two back as a single column.
    ``seal`` is an index's say in how a checkpoint restores its pages:
    called with a page's kind, its columns (:func:`decode_columns`) and
    ``meta``, it returns the page's ``(records, cache)`` — record objects
    and ``None``, or ``None`` and the block the page keeps in their place
    (as :func:`encode_page_image` reads it).
    """

    fmt: str
    to_tuple: Callable[[Any], Tuple]
    from_tuple: Callable[[Tuple], Any]
    seal: Optional[Callable[[str, List[Tuple], dict],
                            Tuple[Optional[list], Any]]] = None
    pair: Optional[int] = None

    @property
    def record_bytes(self) -> int:
        return struct.calcsize(self.fmt)

    def encode(self, record: Any) -> bytes:
        """Serialize one record to its fixed-width byte form."""
        return struct.pack(self.fmt, *self.to_tuple(record))

    def decode(self, raw: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        return self.from_tuple(struct.unpack(self.fmt, raw))


#: Registry mapping a page ``kind`` tag to its codec.  Index packages register
#: their record layouts at import time; the file-backed disk manager looks the
#: codec up by the page's kind.
_CODECS: Dict[str, RecordCodec] = {}


def register_codec(kind: str, codec: RecordCodec) -> None:
    """Register ``codec`` for pages tagged ``kind`` (idempotent re-registration)."""
    _CODECS[kind] = codec


def codec_for(kind: str) -> RecordCodec:
    """Look up the codec for a page kind; raises ``KeyError`` if unregistered."""
    return _CODECS[kind]


def encode_page(page_kind: str, records: Sequence[Any], page_bytes: int) -> bytes:
    """Serialize ``records`` into a page image of exactly ``page_bytes`` bytes.

    Header layout: kind tag (16 bytes, NUL-padded ASCII) + record count (u32)
    + 12 reserved bytes.
    """
    codec = codec_for(page_kind)
    kind_raw = page_kind.encode("ascii")[:16].ljust(16, b"\0")
    header = kind_raw + struct.pack("<I", len(records)) + b"\0" * 12
    body = b"".join(codec.encode(rec) for rec in records)
    image = header + body
    if len(image) > page_bytes:
        raise ValueError(
            f"{len(records)} records of kind {page_kind!r} exceed "
            f"{page_bytes} B page"
        )
    return image.ljust(page_bytes, b"\0")


def encode_page_flat(page_kind: str, count: int, flat: Sequence[Any],
                     page_bytes: int) -> bytes:
    """Bulk twin of :func:`encode_page` for columnar page state.

    ``flat`` holds ``count`` records' fields concatenated in the codec's
    field order (see ``ColumnarBlock.to_rows``); the whole body is packed
    by one ``struct.pack`` call.  Little-endian formats have no padding,
    so the image is byte-identical to the record-at-a-time encoder's.
    """
    codec = codec_for(page_kind)
    kind_raw = page_kind.encode("ascii")[:16].ljust(16, b"\0")
    header = kind_raw + struct.pack("<I", count) + b"\0" * 12
    body = struct.pack("<" + codec.fmt[1:] * count, *flat) if count else b""
    image = header + body
    if len(image) > page_bytes:
        raise ValueError(
            f"{count} records of kind {page_kind!r} exceed "
            f"{page_bytes} B page"
        )
    return image.ljust(page_bytes, b"\0")


def encode_page_image(page: Any, page_bytes: int) -> bytes:
    """Encode a page in whichever representation it currently holds.

    Object pages go through :func:`encode_page`; a page whose ``records``
    is ``None`` parks its state in ``page.cache`` — any object exposing
    ``to_rows()`` (the MVSBT's columnar ingest blocks) — and is encoded in
    bulk via :func:`encode_page_flat`.
    """
    records = page.records
    if records is None:
        count, flat = page.cache.to_rows()
        return encode_page_flat(page.kind, count, flat, page_bytes)
    return encode_page(page.kind, records, page_bytes)


#: ``pack_events`` wire magic + version (guards against foreign blobs).
_EVENTS_MAGIC = b"rpev1\0"


def pack_events(events: Sequence[Any]) -> bytes:
    """Pack an update-event batch into one columnar binary blob.

    Events are anything with ``op``/``key``/``value``/``time`` attributes
    or bare ``(op, key, value, time)`` sequences.  Layout: magic, ``<I``
    count, ``count`` op bytes (1 insert / 0 delete), then the keys,
    values and times as contiguous ``<q``/``<d``/``<q`` arrays — four
    ``struct.pack`` calls however large the batch, which is what lets a
    procpool LOAD ship a shard's partition as one buffer instead of a
    list of pickled tuples.
    """
    ops = bytearray()
    keys: List[int] = []
    values: List[float] = []
    times: List[int] = []
    for row in events:
        if hasattr(row, "op"):
            op, key = row.op, row.key
            value, time = getattr(row, "value", 0.0), row.time
        else:
            op, key, value, time = row
        if op == "insert":
            ops.append(1)
        elif op == "delete":
            ops.append(0)
        else:
            raise ValueError(f"unknown event op {op!r}")
        keys.append(int(key))
        values.append(float(value))
        times.append(int(time))
    n = len(ops)
    return b"".join((
        _EVENTS_MAGIC,
        struct.pack("<I", n),
        bytes(ops),
        struct.pack(f"<{n}q", *keys),
        struct.pack(f"<{n}d", *values),
        struct.pack(f"<{n}q", *times),
    ))


def unpack_events(blob: bytes) -> List[Tuple[str, int, float, int]]:
    """Inverse of :func:`pack_events`: plain ``(op, key, value, time)`` rows.

    Returns bare tuples (no ingest-layer import) that
    :func:`repro.core.ingest.coerce_events` accepts directly.
    """
    if blob[:len(_EVENTS_MAGIC)] != _EVENTS_MAGIC:
        raise ValueError("not a pack_events blob (bad magic)")
    offset = len(_EVENTS_MAGIC)
    (n,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    ops = blob[offset:offset + n]
    offset += n
    keys = struct.unpack_from(f"<{n}q", blob, offset)
    offset += 8 * n
    values = struct.unpack_from(f"<{n}d", blob, offset)
    offset += 8 * n
    times = struct.unpack_from(f"<{n}q", blob, offset)
    return [("insert" if ops[i] else "delete", keys[i], values[i], times[i])
            for i in range(n)]


def decode_columns(raw: Any, shared: Dict[str, dict]
                   ) -> Tuple[str, RecordCodec, List[Tuple]]:
    """A page image's kind, its codec and its records as one tuple per
    field (the two halves of a codec's ``pair`` as one tuple of
    ``complex``), equal values being one object wherever ``shared`` has
    seen them — what a checkpoint restore builds its pages from.

    Unpacking mints a fresh ``int``/``float`` for every field, where the
    load that wrote the page left one object per distinct bound, instant
    and value, copied by reference into every record that repeats it; a
    restored index is several times the size of the one that was saved
    for no other reason.  ``shared`` is the caller's to create (empty)
    and drop: format character (``"dd"`` for a pair) -> first object seen
    per value, so an integer field never receives a float (the column
    must pack again) nor the other way round.  Every field is keyed by
    the integer its eight bytes spell (a pair by both), the one key
    under which ``0.0`` and ``-0.0`` (equal, so one dict key as floats)
    stay two values and a NaN finds its own payload again.  Only
    ``q``/``d`` layouts — all the indexes register —
    can be read this way.  ``raw`` is any buffer; a ``memoryview`` slice
    is decoded without copying the image.
    """
    kind = bytes(raw[:16]).rstrip(b"\0").decode("ascii")
    (count,) = struct.unpack_from("<I", raw, 16)
    codec = codec_for(kind)
    chars = codec.fmt[1:]
    if codec.fmt[0] != "<" or chars.strip("qd"):
        raise ValueError(f"codec {codec.fmt!r} of kind {kind!r} is not a "
                         f"little-endian q/d layout")
    if not count:
        return kind, codec, []
    width = len(chars)
    body = raw[PAGE_HEADER_BYTES:PAGE_HEADER_BYTES + count * 8 * width]
    as_ints, as_floats = array("q"), array("d")
    for typed in (as_ints, as_floats):
        typed.frombytes(body)
        if sys.byteorder == "big":
            typed.byteswap()
    columns = []
    pair = codec.pair
    for i, char in enumerate(chars):
        if pair is not None and i == pair + 1:
            continue    # the second half went with the first
        keys = as_ints[i::width].tolist()
        if i == pair:
            char = "dd"
            keys = zip(keys, as_ints[i + 1::width].tolist())
            column = map(complex, as_floats[i::width].tolist(),
                         as_floats[i + 1::width].tolist())
        else:
            column = keys if char == "q" else as_floats[i::width].tolist()
        columns.append(tuple(map(shared.setdefault(char, {}).setdefault,
                                 keys, column)))
    return kind, codec, columns


def decode_page(raw: bytes) -> Tuple[str, list]:
    """Inverse of :func:`encode_page`: returns ``(kind, records)``, every
    field a fresh object (what a file-backed read pays per fetch, and the
    reference :func:`decode_columns` is tested against)."""
    kind = raw[:16].rstrip(b"\0").decode("ascii")
    (count,) = struct.unpack("<I", raw[16:20])
    codec = codec_for(kind)
    end = PAGE_HEADER_BYTES + count * codec.record_bytes
    return kind, [codec.from_tuple(row) for row in struct.iter_unpack(
        codec.fmt, raw[PAGE_HEADER_BYTES:end])]

