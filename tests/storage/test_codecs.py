"""Round-trip tests for every registered record codec.

The checkpoint machinery and the file-backed disk manager both rely on
these codecs; a drift between a record class and its struct layout would
corrupt reopened indexes silently, so every kind is exercised explicitly.
"""

import struct

import pytest

from repro.core.model import NOW
from repro.mvbt.entries import IndexEntry, LeafEntry
from repro.mvsbt.records import MVSBTIndexRecord, MVSBTLeafRecord
from repro.sbtree.node import SBRecord
from repro.storage.serialization import (
    RecordCodec,
    codec_for,
    decode_columns,
    decode_page,
    encode_page,
    encode_page_flat,
    pack_events,
    register_codec,
    unpack_events,
)

CASES = [
    ("sbtree-leaf", SBRecord(start=1, end=NOW, value=2.5)),
    ("sbtree-index", SBRecord(start=10, end=500, value=-3.25, child=42,
                              child_agg=7.125)),
    ("mvbt-leaf", LeafEntry(key=123, start=5, end=NOW, value=9.75)),
    ("mvbt-leaf", LeafEntry(key=1, start=1, end=2, value=-0.5)),
    ("mvbt-index", IndexEntry(low=1, high=10**9, start=1, end=NOW,
                              child=77)),
    ("mvsbt-leaf", MVSBTLeafRecord(low=1, high=50, start=2, end=NOW,
                                   value=complex(1.5, 1))),
    ("mvsbt-index", MVSBTIndexRecord(low=50, high=100, start=2, end=9,
                                     value=complex(-1.5, -1), child=3)),
    ("rootstar", (12345, 678)),
]


@pytest.mark.parametrize("kind,record", CASES,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CASES)])
def test_codec_round_trip(kind, record):
    codec = codec_for(kind)
    assert codec.decode(codec.encode(record)) == record


@pytest.mark.parametrize("kind,record", CASES,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CASES)])
def test_page_image_round_trip(kind, record):
    image = encode_page(kind, [record, record], page_bytes=512)
    decoded_kind, records = decode_page(image)
    assert decoded_kind == kind
    assert records == [record, record]


def test_now_sentinel_survives_serialization():
    """NOW is 2**62 — it must fit the signed 64-bit fields exactly."""
    codec = codec_for("mvsbt-leaf")
    record = MVSBTLeafRecord(low=1, high=2, start=NOW - 1, end=NOW,
                             value=0.0)
    back = codec.decode(codec.encode(record))
    assert back.end == NOW
    assert back.alive


def test_unknown_kind_raises():
    with pytest.raises(KeyError):
        codec_for("no-such-kind")


def test_float_precision_preserved():
    codec = codec_for("mvbt-leaf")
    record = LeafEntry(key=1, start=1, end=2, value=0.1 + 0.2)
    assert codec.decode(codec.encode(record)).value == record.value


@pytest.mark.parametrize("kind,record", CASES[:-1],
                         ids=[f"{k}-{i}"
                              for i, (k, _) in enumerate(CASES[:-1])])
def test_flat_encoder_is_byte_identical(kind, record):
    """One bulk struct.pack over concatenated fields must produce the
    exact bytes of the record-at-a-time encoder (the columnar flush
    path's correctness rests on this)."""
    codec = codec_for(kind)
    records = [record] * 3
    flat = []
    for rec in records:
        flat.extend(struct.unpack(codec.fmt, codec.encode(rec)))
    assert (encode_page_flat(kind, len(records), flat, page_bytes=512)
            == encode_page(kind, records, page_bytes=512))


def test_flat_encoder_empty_page():
    assert (encode_page_flat("mvsbt-leaf", 0, [], page_bytes=256)
            == encode_page("mvsbt-leaf", [], page_bytes=256))


def test_flat_encoder_overflow_raises():
    codec = codec_for("mvsbt-leaf")
    flat = list(struct.unpack(
        codec.fmt,
        codec.encode(MVSBTLeafRecord(low=1, high=2, start=1, end=2,
                                     value=0.0)))) * 100
    with pytest.raises(ValueError, match="exceed"):
        encode_page_flat("mvsbt-leaf", 100, flat, page_bytes=256)


class TestEventWireFormat:
    """pack_events/unpack_events — the procpool LOAD fan-out codec."""

    EVENTS = [
        ("insert", 10, 2.5, 1),
        ("delete", 10, 0.0, 7),
        ("insert", 999999999, -0.125, 7),
        ("insert", 1, 0.1 + 0.2, 1000000),
    ]

    def test_round_trip_bare_tuples(self):
        assert unpack_events(pack_events(self.EVENTS)) == self.EVENTS

    def test_round_trip_attr_objects(self):
        class Row:
            def __init__(self, op, key, value, time):
                self.op, self.key = op, key
                self.value, self.time = value, time

        rows = [Row(*event) for event in self.EVENTS]
        assert unpack_events(pack_events(rows)) == self.EVENTS

    def test_empty_batch(self):
        assert unpack_events(pack_events([])) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_events(b"not-a-blob" + b"\0" * 64)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown event op"):
            pack_events([("upsert", 1, 1.0, 1)])

    def test_one_contiguous_buffer(self):
        # magic + count + n ops + n*(8+8+8) column bytes, nothing else.
        blob = pack_events(self.EVENTS)
        n = len(self.EVENTS)
        assert len(blob) == 6 + 4 + n + 24 * n


@pytest.mark.parametrize("kind,record", CASES,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CASES)])
def test_columns_hold_what_decode_page_reads(kind, record):
    codec = codec_for(kind)
    image = encode_page(kind, [record, record, record], page_bytes=512)
    got_kind, got_codec, columns = decode_columns(memoryview(image), {})
    assert (got_kind, got_codec) == (kind, codec)
    want = [codec.to_tuple(rec) for rec in decode_page(image)[1]]
    at = codec.pair
    if at is not None:      # its two doubles come back one ``complex``
        assert {type(value) for value in columns[at]} == {complex}
        columns[at:at + 1] = [tuple(value.real for value in columns[at]),
                              tuple(value.imag for value in columns[at])]
    assert list(zip(*columns)) == want
    for column, char in zip(columns, codec.fmt[1:]):
        assert {type(value) for value in column} \
            == {int if char == "q" else float}


def test_a_pair_is_shared_whole_and_keyed_by_both_halves():
    """``(0.0, 1)`` and ``(-0.0, 1)`` are equal and must stay two values;
    a plain number (written with a zero second half) reads back as the
    ``complex`` whose ``real`` it is."""
    shared = {}
    values = [complex(0.0, 1), complex(-0.0, 1), complex(0.0, 1), 2.5,
              complex(2.5, -0.0)]
    pages = [decode_columns(encode_page(
        "mvsbt-leaf", [MVSBTLeafRecord(1, 2, 1, NOW, value)
                       for value in values], page_bytes=512), shared)[2]
        for _ in range(2)]
    column = pages[0][4]
    assert len(pages[0]) == 5 and {type(v) for v in column} == {complex}
    assert all(a is b for a, b in zip(column, pages[1][4]))
    assert column[0] is column[2] and column[0] is not column[1]
    assert struct.pack("<4d", column[0].real, column[1].real,
                       column[3].imag, column[4].imag) \
        == struct.pack("<4d", 0.0, -0.0, 0.0, -0.0)
    assert sorted(shared) == ["dd", "q"]


def test_columns_share_equal_values_across_pages_but_not_across_types():
    shared = {}
    first = decode_columns(encode_page(
        "mvbt-leaf", [LeafEntry(key=7000, start=7000, end=NOW, value=7000.0),
                      LeafEntry(key=7001, start=7000, end=NOW, value=-0.0)],
        page_bytes=512), shared)[2]
    second = decode_columns(encode_page(
        "mvbt-leaf", [LeafEntry(key=7000, start=9, end=7000, value=0.0)],
        page_bytes=512), shared)[2]
    keys, starts, ends, values = first
    assert keys[0] is starts[0] is starts[1] is second[0][0] is second[2][0]
    assert ends[0] is ends[1]
    assert type(values[0]) is float and values[0] == keys[0]
    assert struct.pack("<dd", values[1], second[3][0]) \
        == struct.pack("<dd", -0.0, 0.0)
    assert sorted(shared) == ["d", "q"]


def test_columns_of_an_empty_page_and_of_a_foreign_layout():
    assert decode_columns(encode_page("mvbt-leaf", [], page_bytes=512),
                          {})[2] == []
    register_codec("test-narrow", RecordCodec(
        fmt="<iq", to_tuple=tuple, from_tuple=tuple))
    with pytest.raises(ValueError, match="q/d layout"):
        decode_columns(encode_page("test-narrow", [(1, 2)], page_bytes=512),
                       {})

