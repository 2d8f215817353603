"""Micro-benchmarks: wall-clock latency of the core single operations.

Unlike the figure reproductions (which report the paper's estimated-time
metric), these use pytest-benchmark's timing loop directly, so regressions
in the CPU cost of an MVSBT insertion, an MVSBT point query, a full RTA
query, and an MVBT insertion show up in the benchmark history.
"""

import itertools

import pytest

from repro.bench.harness import (
    BenchSettings,
    build_mvbt_baseline,
    build_rta_index,
    measure_updates,
)
from repro.core.model import Interval, KeyRange
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.workloads.datasets import paper_config
from repro.workloads.generator import generate_dataset


@pytest.fixture(scope="module")
def loaded():
    """A dataset replayed into both competitors once per module."""
    settings = BenchSettings()
    dataset = generate_dataset(paper_config("uniform-long", scale=0.002))
    rta = build_rta_index(settings, dataset)
    mvbt = build_mvbt_baseline(settings, dataset)
    measure_updates(rta, dataset.events, settings)
    measure_updates(mvbt, dataset.events, settings)
    return settings, dataset, rta, mvbt


def test_mvsbt_insert_op(benchmark):
    pool = BufferPool(InMemoryDiskManager(), capacity=256)
    tree = MVSBT(pool, MVSBTConfig(capacity=24), key_space=(1, 10**9))
    counter = itertools.count(1)

    def op():
        i = next(counter)
        tree.insert((i * 7919) % (10**9 - 1) + 1, i, 1.0)

    benchmark(op)


def test_mvsbt_point_query_op(benchmark, loaded):
    _, dataset, rta, _ = loaded
    lks, _lklt = rta.trees()
    t_end = dataset.config.time_space[1]
    counter = itertools.count(1)

    def op():
        i = next(counter)
        lks.query((i * 104729) % (10**9) + 1, (i * 31) % (t_end - 1) + 1)

    benchmark(op)


def test_rta_query_op(benchmark, loaded):
    _, dataset, rta, _ = loaded
    k_hi = dataset.config.key_space[1]
    t_hi = dataset.config.time_space[1]

    def op():
        rta.sum(KeyRange(k_hi // 4, 3 * k_hi // 4),
                Interval(t_hi // 4, 3 * t_hi // 4))

    benchmark(op)


def test_mvbt_insert_op(benchmark):
    settings = BenchSettings()
    dataset = generate_dataset(paper_config("uniform-long", scale=0.002))
    mvbt = build_mvbt_baseline(settings, dataset)
    t_hi = dataset.config.time_space[1]
    counter = itertools.count(1)

    def op():
        i = next(counter)
        mvbt.insert((i * 7919) % (10**9 - 1) + 1, 1.0, t_hi + i)

    benchmark(op)
