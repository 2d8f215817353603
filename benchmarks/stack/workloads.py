"""Deterministic inputs of the five workloads, from ``--seed`` alone.

Everything the program under test sees is generated here: the event
stream and where it is split into *loaded* prefix and *write tail*, the
read-statement streams, and the open-loop write schedule.  The same
seed gives byte-identical inputs; :attr:`Inputs.stream_hash` is recorded
in every output so two runs can prove they measured the same traffic.

Why these five workloads (the sentences also stored in
``BENCHMARK.json``) is explained in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.workloads.generator import (DatasetConfig, UpdateEvent,
                                       generate_dataset)
from repro.workloads.queries import (QueryRectangleConfig,
                                     generate_query_rectangles)

KEY_SPACE = (1, 1_000_001)
TIME_SPACE = (1, 1_000_001)
LOAD_BATCH = 1024          # a `load` line over 64 KiB trips the server
SHARDS = 2
AGGREGATES = ("SUM", "COUNT", "AVG")
SCAN_QRS = (0.001, 0.01, 0.1, 0.5)
HOT_QRS = 0.5
HOT_COUNT = 16
FRESH_EVERY = 10           # dash_hot: 90% hot, 10% fresh

WORKLOADS = ("scan_thread", "scan_process", "dash_hot", "htap_mixed",
             "ingest_bulk")


@dataclass(frozen=True)
class Scale:
    """Sizes that differ between a full run and ``--smoke``."""

    n_records: int
    n_keys: int
    tail: int            # events held back as the closing write tail
    htap_tail: int       # events held back for htap_mixed's write stream
    write_rate: float    # htap_mixed open-loop writes per second
    warm_s: float        # unrecorded warm-up before the measured window
    stream_len: int      # read statements generated per workload: more
    #                      than a run sends, or "fresh" reads would repeat
    replay_ops: int      # ops of the counted / traced in-process replay
    setups: int          # set-ups per run; setup_s is their median


FULL = Scale(n_records=8_000, n_keys=800, tail=768, htap_tail=2_400,
             write_rate=200.0, warm_s=2.0, stream_len=60_000,
             replay_ops=2_000, setups=2)
SMOKE = Scale(n_records=1_000, n_keys=100, tail=64, htap_tail=300,
              write_rate=100.0, warm_s=0.25, stream_len=6_000,
              replay_ops=150, setups=1)


class Read(NamedTuple):
    """One read statement and the rectangle the oracle needs."""

    tql: str
    agg: str
    k_lo: int
    k_hi: int
    t_lo: int
    t_hi: int
    qrs: float


@dataclass
class Inputs:
    """What one workload run feeds the program."""

    workload: str
    seed: int
    events: List[UpdateEvent]
    n_loaded: int              # events[:n_loaded] are bulk-loaded
    reads: List[Read]          # cycled if a run outlasts it
    write_rate: float          # > 0: the tail is sent open-loop beside reads
    stream_hash: str

    @property
    def loaded(self) -> List[UpdateEvent]:
        return self.events[:self.n_loaded]

    @property
    def tail(self) -> List[UpdateEvent]:
        return self.events[self.n_loaded:]

    @property
    def load_snapshot(self) -> int:
        """The warehouse's ``now`` once the loaded prefix is in."""
        return self.events[self.n_loaded - 1].time


def write_tql(event: UpdateEvent) -> str:
    """The single-statement form of one tail event."""
    if event.op == "insert":
        return f"INSERT KEY {event.key} VALUE {event.value} AT {event.time}"
    return f"DELETE KEY {event.key} AT {event.time}"


def _read(agg: str, k_lo: int, k_hi: int, t_lo: int, t_hi: int,
          qrs: float) -> Read:
    target = "COUNT(*)" if agg == "COUNT" else f"{agg}(value)"
    tql = (f"SELECT {target} WHERE key IN [{k_lo}, {k_hi}) "
           f"AND time DURING [{t_lo}, {t_hi})")
    return Read(tql, agg, k_lo, k_hi, t_lo, t_hi, qrs)


def _rectangles(qrs: float, count: int, time_hi: int, seed: int):
    """``count`` QRS-sized, shape-1 rectangles ending at or before
    ``time_hi`` (so none is empty at the load snapshot)."""
    return generate_query_rectangles(QueryRectangleConfig(
        qrs=qrs, shape=1.0, count=count, key_space=KEY_SPACE,
        time_space=(TIME_SPACE[0], time_hi), seed=seed))


def _fresh_reads(qrs_classes: Tuple[float, ...], count: int, time_hi: int,
                 seed: int) -> List[Read]:
    """Never-repeating rectangles at random positions.  QRS class and
    aggregate rotate instead of being drawn, so every window of the
    stream holds exactly equal shares and seeds differ only in *where*
    the rectangles fall."""
    each = -(-count // len(qrs_classes))
    per_class = [_rectangles(qrs, each, time_hi, seed * 7 + i)
                 for i, qrs in enumerate(qrs_classes)]
    reads = []
    for i in range(count):
        turn, slot = divmod(i, len(qrs_classes))
        rect = per_class[slot][turn]
        reads.append(_read(AGGREGATES[turn % len(AGGREGATES)],
                           rect.range.low, rect.range.high,
                           rect.interval.start, rect.interval.end,
                           qrs_classes[slot]))
    return reads


def _hot_set(rng: random.Random, time_hi: int, seed: int,
             open_present: int = 0) -> List[Read]:
    """The 16 fixed QRS-0.1 rectangles; the last ``open_present`` of
    them end beyond any ``now`` the run reaches, so their cached
    answers go stale with every write."""
    hot = []
    for i, rect in enumerate(_rectangles(HOT_QRS, HOT_COUNT, time_hi,
                                         seed * 11 + 5)):
        t_hi = rect.interval.end
        if i >= HOT_COUNT - open_present:
            t_hi = TIME_SPACE[1]
        hot.append(_read(rng.choice(AGGREGATES), rect.range.low,
                         rect.range.high, rect.interval.start, t_hi,
                         HOT_QRS))
    return hot


def _dash_reads(rng: random.Random, count: int, time_hi: int,
                seed: int) -> List[Read]:
    """Every ``FRESH_EVERY``-th statement is fresh, the rest are drawn
    from the hot set with weight 1/rank."""
    hot = _hot_set(rng, time_hi, seed)
    weights = [1.0 / rank for rank in range(1, HOT_COUNT + 1)]
    fresh = _fresh_reads((HOT_QRS,), count // FRESH_EVERY + 1, time_hi, seed)
    picks = rng.choices(hot, weights, k=count)
    return [fresh[i // FRESH_EVERY] if i % FRESH_EVERY == FRESH_EVERY - 1
            else picks[i] for i in range(count)]


def _htap_reads(rng: random.Random, count: int, time_hi: int,
                seed: int) -> List[Read]:
    hot = _hot_set(rng, time_hi, seed, open_present=HOT_COUNT // 2)
    return rng.choices(hot, k=count)


def _stream_hash(inputs_events, n_loaded, reads, write_rate) -> str:
    digest = hashlib.sha256()
    digest.update(f"{n_loaded}|{write_rate}|".encode())
    for e in inputs_events:
        digest.update(f"{e.op},{e.key},{e.value},{e.time};".encode())
    for read in reads:
        digest.update(read.tql.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def generate(workload: str, seed: int, scale: Scale = FULL) -> Inputs:
    """The inputs of ``workload`` for ``seed`` at ``scale``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    events = generate_dataset(DatasetConfig(
        n_records=scale.n_records, n_keys=scale.n_keys,
        key_space=KEY_SPACE, time_space=TIME_SPACE, seed=seed)).events
    htap = workload == "htap_mixed"
    n_loaded = len(events) - (scale.htap_tail if htap else scale.tail)
    time_hi = events[n_loaded - 1].time + 1
    # One stream of draws per traffic *shape*: scan_thread, scan_process
    # and ingest_bulk (the same statements as library calls) must see
    # the identical rectangles, so their differences are the layers'.
    shape = workload if workload in ("dash_hot", "htap_mixed") else "scan"
    rng = random.Random(f"{seed}/{shape}")
    if shape == "dash_hot":
        reads = _dash_reads(rng, scale.stream_len, time_hi, seed)
    elif htap:
        reads = _htap_reads(rng, scale.stream_len, time_hi, seed)
    else:
        reads = _fresh_reads(SCAN_QRS, scale.stream_len, time_hi, seed)
    write_rate = scale.write_rate if htap else 0.0
    return Inputs(workload, seed, events, n_loaded, reads, write_rate,
                  _stream_hash(events, n_loaded, reads, write_rate))
