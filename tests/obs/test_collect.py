"""The bench trace collector and its wiring into the harness and runner."""

import pytest

from repro.bench.harness import (
    BenchSettings,
    build_rta_index,
    measure_queries,
    measure_updates,
)
from repro.core.aggregates import COUNT, SUM
from repro.core.ingest import BatchLoader
from repro.obs.collect import BenchCollector, active, collecting
from repro.obs.tracefile import validate_record
from repro.storage.stats import IOStats
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)

SETTINGS = BenchSettings()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(paper_config("uniform-long", scale=0.0005))


@pytest.fixture(scope="module")
def rects(dataset):
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=0.1, count=4, key_space=dataset.config.key_space,
        time_space=dataset.config.time_space, seed=11,
    ))


class TestCollector:
    def test_record_builds_valid_records(self):
        collector = BenchCollector("exp")
        collector.record("bench.queries", IOStats(reads=3, writes=1,
                                                  logical_reads=9),
                         cpu_s=0.5, operations=10, aggregate="SUM")
        (record,) = collector.records
        validate_record(record)
        assert record["name"] == "bench.queries"
        assert record["attrs"]["experiment"] == "exp"
        assert record["attrs"]["operations"] == 10
        assert record["attrs"]["aggregate"] == "SUM"
        assert record["reads"] == 3

    def test_records_feed_the_phase_histograms(self):
        collector = BenchCollector("exp")
        collector.record("bench.updates", IOStats(reads=5), cpu_s=0.01,
                         operations=2)
        payload = collector.registry.to_json()
        assert payload["repro_bench_phase_ios"]["series"][0]["count"] == 1
        assert payload["repro_bench_operations_total"]["series"]

    def test_collecting_installs_and_restores(self):
        assert active() is None
        with collecting("outer") as outer:
            assert active() is outer
            with collecting("inner") as inner:
                assert active() is inner
            assert active() is outer
        assert active() is None


class TestHarnessEmission:
    def test_measures_emit_one_record_per_phase(self, dataset, rects):
        with collecting("twin") as collector:
            index = build_rta_index(SETTINGS, dataset)
            measure_updates(index, dataset.events, SETTINGS)
            measure_queries(index, rects, SETTINGS, aggregate=SUM)
            fresh = build_rta_index(SETTINGS, dataset)
            # A load is not a measured phase: it rides no record.
            BatchLoader(fresh, batch_size=32).load(dataset.events)
        names = [r["name"] for r in collector.records]
        assert names == ["bench.updates", "bench.queries"]
        for record in collector.records:
            validate_record(record)
            assert record["attrs"]["experiment"] == "twin"
            assert record["attrs"]["competitor"] == "RTAIndex"
            assert "estimated_s" in record["attrs"]
        assert collector.records[1]["attrs"]["aggregate"] == "SUM"

    def test_no_collector_means_no_side_channel(self, dataset, rects):
        index = build_rta_index(SETTINGS, dataset)
        measure_updates(index, dataset.events, SETTINGS)
        cost = measure_queries(index, rects, SETTINGS)
        assert active() is None
        assert cost.operations == len(rects)


class TestRunnerTracing:
    def test_run_one_rides_records_on_the_result(self):
        from repro.bench.runner import run_one

        result = run_one("fig4a", page_bytes=512, buffer_pages=64,
                         scale=0.0003, trace=True)
        assert result.trace_records, "traced run produced no records"
        for record in result.trace_records:
            validate_record(record)
        assert result.metrics is not None
        assert "repro_bench_phase_ios" in result.metrics

    def test_run_one_untraced_is_empty(self):
        from repro.bench.runner import run_one

        result = run_one("fig4a", page_bytes=512, buffer_pages=64,
                         scale=0.0003)
        assert result.trace_records == ()
        assert result.metrics is None
