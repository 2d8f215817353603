"""Unit tests for the per-request telemetry plumbing.

Covers the pieces :mod:`repro.serve.telemetry` adds for PR 7: the
request context and its thread-local slot, the probabilistic sampler,
the slow-query ring and the metrics HTTP endpoint.
"""

import random
import threading
import urllib.request

import pytest

from repro.serve.telemetry import (
    MetricsHTTPServer,
    RequestContext,
    Sampler,
    SlowQueryLog,
    clear_context,
    clip_tql,
    current_context,
    new_span_id,
    new_trace_id,
    set_context,
    shard_record,
)


class TestRequestContext:
    def test_starts_unsampled(self):
        ctx = RequestContext("r-1", "query")
        assert not ctx.sampled and not ctx.detail
        assert ctx.trace_id is None and ctx.span_id is None

    def test_begin_sampling_mints_w3c_sized_ids(self):
        ctx = RequestContext("r-1", "query")
        ctx.begin_sampling()
        assert ctx.sampled and not ctx.detail
        assert len(ctx.trace_id) == 32  # 128-bit hex
        assert len(ctx.span_id) == 16   # 64-bit hex
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)

    def test_detail_only_from_explicit_override(self):
        ctx = RequestContext("r-1", "query")
        ctx.begin_sampling(detail=True)
        assert ctx.detail
        assert ctx.trace_context()["detail"] is True

    def test_trace_context_carries_lineage(self):
        ctx = RequestContext("r-1", "query")
        ctx.begin_sampling()
        propagated = ctx.trace_context()
        assert propagated["trace_id"] == ctx.trace_id
        assert propagated["parent_span_id"] == ctx.span_id
        assert propagated["detail"] is False

    def test_note_shard_accumulates(self):
        ctx = RequestContext("r-1", "query")
        ctx.note_shard(2, 0.5)
        ctx.note_shard(2, 0.25)
        ctx.note_shard(0, 0.1)
        assert ctx.shard_seconds == {2: 0.75, 0: 0.1}

    def test_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()
        assert new_span_id() != new_span_id()


class TestContextSlot:
    def test_set_and_clear(self):
        ctx = RequestContext("r-1", "query")
        set_context(ctx)
        try:
            assert current_context() is ctx
        finally:
            clear_context()
        assert current_context() is None

    def test_unset_thread_sees_none(self):
        seen = []
        set_context(RequestContext("r-1", "query"))
        try:
            thread = threading.Thread(
                target=lambda: seen.append(current_context()))
            thread.start()
            thread.join()
        finally:
            clear_context()
        assert seen == [None]


class TestSampler:
    def test_rate_zero_never_samples(self):
        sampler = Sampler(0.0)
        assert not any(sampler.sample() for _ in range(1000))

    def test_rate_one_always_samples(self):
        sampler = Sampler(1.0)
        assert all(sampler.sample() for _ in range(1000))

    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            Sampler(-0.1)
        with pytest.raises(ValueError):
            Sampler(1.5)

    def test_seeded_rate_is_probabilistic(self):
        sampler = Sampler(0.25, rng=random.Random(7))
        hits = sum(sampler.sample() for _ in range(10_000))
        assert 2000 < hits < 3000


class TestSlowQueryLog:
    def test_ring_evicts_oldest_and_counts_total(self):
        log = SlowQueryLog(capacity=3)
        for n in range(5):
            log.add({"request_id": f"r-{n}"})
        assert log.total == 5
        assert len(log) == 3
        assert [e["request_id"] for e in log.entries()] == \
            ["r-4", "r-3", "r-2"]

    def test_limit_clamps(self):
        log = SlowQueryLog(capacity=8)
        for n in range(4):
            log.add({"request_id": f"r-{n}"})
        assert len(log.entries(limit=2)) == 2
        assert log.entries(limit=0) == []


class TestShardRecord:
    def test_schema_valid_and_carries_lineage(self):
        from repro.obs.tracefile import validate_record

        ctx = RequestContext("r-9", "query")
        ctx.begin_sampling()
        record = shard_record("shard.aggregate", 3, 0.01, ctx,
                              backend="thread")
        validate_record(record)
        assert record["attrs"]["trace_id"] == ctx.trace_id
        assert record["attrs"]["parent_span_id"] == ctx.span_id
        assert record["attrs"]["shard"] == 3


class TestClipTql:
    def test_short_passes_through(self):
        assert clip_tql("SELECT SUM(value)") == "SELECT SUM(value)"
        assert clip_tql(None) is None

    def test_long_is_truncated_with_ellipsis(self):
        clipped = clip_tql("x" * 500)
        assert len(clipped) == 203 and clipped.endswith("...")


class TestMetricsHTTPServer:
    def test_serves_render_output_on_metrics_only(self):
        endpoint = MetricsHTTPServer("127.0.0.1", 0,
                                     lambda: "repro_test_metric 1\n")
        endpoint.start()
        try:
            base = f"http://{endpoint.host}:{endpoint.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                assert r.status == 200
                assert "text/plain" in r.headers["Content-Type"]
                assert b"repro_test_metric 1" in r.read()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/other", timeout=5)
            assert err.value.code == 404
        finally:
            endpoint.stop()

    def test_render_failure_is_a_500_not_a_crash(self):
        def boom() -> str:
            raise RuntimeError("render exploded")

        endpoint = MetricsHTTPServer("127.0.0.1", 0, boom)
        endpoint.start()
        try:
            url = f"http://{endpoint.host}:{endpoint.port}/metrics"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=5)
            assert err.value.code == 500
        finally:
            endpoint.stop()

