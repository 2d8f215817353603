"""Struct-framed hot-path RPC: codec round trips, pickle fallback, and
end-to-end equivalence through real shard workers."""

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.model import Interval, KeyRange
from repro.serve.procpool import (
    ProcessShardedWarehouse,
    _AggRef,
    _STRUCT_MAGIC,
    _pack_request,
    _unpack_request,
)

KEYS = 40
KEY_SPACE = (1, KEYS + 1)


class TestCodec:
    def test_round_trips_every_hot_op(self):
        cases = [
            ("insert", (7, 2.5, 10)),
            ("delete", (7, 11)),
            ("aggregate", (KeyRange(1, 9), Interval(0, 20), _AggRef("SUM"))),
            ("aggregate_all", (KeyRange(1, 9), Interval(0, 20))),
            ("snapshot", (KeyRange(1, 9), 7)),
        ]
        for method, args in cases:
            frame = _pack_request(42, method, args)
            assert frame is not None and frame[0] == _STRUCT_MAGIC
            rid, out_method, out_args = _unpack_request(frame)
            assert (rid, out_method) == (42, method)
            if method == "aggregate":
                key_range, interval, agg = out_args
                assert (key_range, interval) == args[:2]
                assert agg is SUM  # rehydrated from the registry
            else:
                assert out_args == args

    def test_every_aggregate_has_a_wire_code(self):
        for agg in (SUM, COUNT, AVG, MIN, MAX):
            frame = _pack_request(
                1, "aggregate", (KeyRange(1, 2), Interval(0, 1), agg))
            assert frame is not None
            _rid, _method, (_kr, _iv, out) = _unpack_request(frame)
            assert out is agg

    def test_unpackable_requests_fall_back_to_pickle(self):
        # Unknown method, out-of-range int, wrong arg type, bool value:
        # each returns None so the caller ships a pickle instead.
        assert _pack_request(1, "load_events_packed", (b"x", 10)) is None
        assert _pack_request(1, "insert", (2 ** 63, 1.0, 1)) is None
        assert _pack_request(1, "insert", ("seven", 1.0, 1)) is None
        assert _pack_request(1, "insert", (7, True, 1)) is None
        assert _pack_request(1, "delete", (7,)) is None
        assert _pack_request(
            1, "aggregate", (KeyRange(1, 2), Interval(0, 1), "SUM")) is None

    def test_negative_keys_and_times_survive(self):
        frame = _pack_request(9, "insert", (-5, -1.25, -3))
        assert frame is not None
        assert _unpack_request(frame) == (9, "insert", (-5, -1.25, -3))


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def pool(self):
        warehouse = ProcessShardedWarehouse(shards=2, key_space=KEY_SPACE)
        yield warehouse
        warehouse.close()

    def test_struct_framed_ops_round_trip_through_workers(self, pool):
        for key in range(1, KEYS + 1):
            pool.insert(key, float(key), 1)
        pool.delete(1, 2)
        whole, interval = KeyRange(*KEY_SPACE), Interval(1, 2)
        expected = sum(range(1, KEYS + 1))
        assert pool.sum(whole, interval) == float(expected)
        assert pool.count(whole, interval) == float(KEYS)
        assert len(pool.snapshot(whole, 1)) == KEYS
        packed = sum(pool.handle(sid).primary.packed_requests
                     for sid in pool.shard_ids())
        # Every insert/delete/aggregate/snapshot above shipped as a
        # struct frame, none fell back to pickle.
        assert packed >= KEYS + 1 + 2 * 2 + 2

    def test_worker_stats_surface_packed_counts(self, pool):
        rows = pool.worker_stats()
        assert len(rows) == 2
        for row in rows:
            assert row["alive"] is True
            assert row["packed_requests"] >= 0
        assert sum(row["packed_requests"] for row in rows) > 0
