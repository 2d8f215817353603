"""Tests for the benchmark harness and CLI."""

import pytest

from repro.bench.harness import (
    BenchSettings,
    build_heap_baseline,
    build_mvbt_baseline,
    build_rta_index,
    measure_queries,
    measure_updates,
    space_pages,
)
from repro.core.aggregates import COUNT, SUM
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset
from repro.workloads.queries import (
    QueryRectangleConfig,
    generate_query_rectangles,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(paper_config("uniform-long", scale=0.001))


class TestBenchSettings:
    def test_paper_page_size_gives_paper_fanouts(self):
        settings = BenchSettings(page_bytes=4096)
        assert settings.mvsbt_capacity == 169   # (4096-32)/24
        assert settings.mvbt_capacity == 254    # (4096-32)/16

    def test_default_page_size_preserves_ratio(self):
        settings = BenchSettings()
        ratio_default = settings.mvbt_capacity / settings.mvsbt_capacity
        paper = BenchSettings(page_bytes=4096)
        ratio_paper = paper.mvbt_capacity / paper.mvsbt_capacity
        assert ratio_default == pytest.approx(ratio_paper, rel=0.05)

    def test_cost_model_latency(self):
        assert BenchSettings().cost_model.io_latency_s == 0.010


class TestMeasurement:
    def test_measure_updates_counts_operations(self, dataset):
        settings = BenchSettings()
        index = build_rta_index(settings, dataset)
        cost = measure_updates(index, dataset.events, settings)
        assert cost.operations == len(dataset.events)
        assert cost.ios > 0
        assert cost.estimated_s >= cost.cpu_s

    def test_measure_queries_cold_buffer(self, dataset):
        settings = BenchSettings()
        index = build_rta_index(settings, dataset)
        measure_updates(index, dataset.events, settings)
        rects = generate_query_rectangles(QueryRectangleConfig(
            qrs=0.01, count=10, key_space=dataset.config.key_space,
            time_space=dataset.config.time_space,
        ))
        first = measure_queries(index, rects, settings, SUM)
        again = measure_queries(index, rects, settings, SUM)
        # Cold start each time: physical reads happen on both batches.
        assert first.stats.reads > 0
        assert again.stats.reads > 0

    def test_warm_buffer_option(self, dataset):
        settings = BenchSettings()
        index = build_rta_index(settings, dataset)
        measure_updates(index, dataset.events, settings)
        rects = generate_query_rectangles(QueryRectangleConfig(
            qrs=0.01, count=10, key_space=dataset.config.key_space,
            time_space=dataset.config.time_space,
        ))
        measure_queries(index, rects, settings, SUM)           # warm it up
        warm = measure_queries(index, rects, settings, SUM,
                               cold_buffer=False)
        assert warm.stats.reads <= 2  # everything needed is resident

    def test_per_operation_metrics(self, dataset):
        settings = BenchSettings()
        index = build_mvbt_baseline(settings, dataset)
        cost = measure_updates(index, dataset.events, settings)
        assert cost.per_operation_ios == pytest.approx(
            cost.ios / cost.operations)
        assert cost.per_operation_s == pytest.approx(
            cost.estimated_s / cost.operations)

    def test_space_pages_matches_disk(self, dataset):
        settings = BenchSettings()
        index = build_heap_baseline(settings, dataset)
        measure_updates(index, dataset.events, settings)
        assert space_pages(index) == index.pool.disk.live_page_count

    def test_competitors_have_isolated_pools(self, dataset):
        settings = BenchSettings()
        a = build_rta_index(settings, dataset)
        b = build_mvbt_baseline(settings, dataset)
        assert a.pool is not b.pool
        assert a.pool.disk is not b.pool.disk

    def test_count_aggregate_queries(self, dataset):
        settings = BenchSettings()
        index = build_rta_index(settings, dataset)
        measure_updates(index, dataset.events, settings)
        rects = generate_query_rectangles(QueryRectangleConfig(
            qrs=0.1, count=5, key_space=dataset.config.key_space,
            time_space=dataset.config.time_space,
        ))
        cost = measure_queries(index, rects, settings, COUNT)
        assert cost.operations == 5


class TestCli:
    def test_cli_runs_selected_experiments(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        code = main(["--scale", "0.001", "--only", "fig4a",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig4a_space.txt").exists()
        out = capsys.readouterr().out
        assert "Figure 4a" in out
        assert "done in" in out

    def test_cli_rejects_unknown_experiment(self, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "figZZ", "--out", str(tmp_path)])

    def test_cli_no_scale_experiment(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        code = main(["--only", "scalar-context", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "scalar_context.txt").exists()
