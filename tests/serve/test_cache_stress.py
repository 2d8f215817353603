"""Cache invalidation under concurrent writer stress, oracle-checked.

The cached counterpart of ``test_stress``: a writer streams updates into
a thread-safe :class:`ShardedWarehouse` *with the read-path caches
attached* while reader threads hammer a small set of repeated rectangles
below the write watermark.  Every answer must equal the single-threaded
:class:`TupleStoreOracle` — a cache serving one stale value fails the
run.  Repetition makes the cache do real work (hits are asserted), and a
deterministic epilogue drives open-frontier queries across explicit
epoch bumps to pin down the invalidation contract exactly.
"""

import random
import threading

from repro.core.model import Interval, KeyRange
from repro.serve.sharded import ShardedWarehouse

from tests.oracles import TupleStoreOracle
from tests.serve.test_stress import build_events

KEY_SPACE = (1, 201)
READERS = 4


class TestCachedWriterReaderStress:
    def test_cached_snapshot_reads_match_oracle(self):
        events = build_events(31)
        final_t = max(t for *_rest, t in events)
        probes = [
            (KeyRange(1, 201), "sum"),
            (KeyRange(1, 201), "count"),
            (KeyRange(40, 120), "sum"),
            (KeyRange(90, 180), "count"),
        ]

        oracle = TupleStoreOracle()
        for op, key, value, t in events:
            if op == "insert":
                oracle.insert(key, value, t)
            else:
                oracle.delete(key, t)

        def expected(probe_index, snap):
            kr, kind = probes[probe_index]
            fn = oracle.rta_sum if kind == "sum" else oracle.rta_count
            return fn(kr.low, kr.high, 1, snap + 1)

        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE,
                                   page_capacity=8, thread_safe=True)
        sharded.enable_cache()

        watermark = {"t": 0}
        stop = threading.Event()
        failures = []
        checked = [0] * READERS

        def writer():
            try:
                for op, key, value, t in events:
                    if op == "insert":
                        sharded.insert(key, value, t)
                    else:
                        sharded.delete(key, t)
                    watermark["t"] = max(watermark["t"], t - 1)
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"writer: {exc!r}")
            finally:
                stop.set()

        def reader(index):
            rng = random.Random(2000 + index)
            try:
                while not failures:
                    snap = watermark["t"]
                    if snap < 1:
                        if stop.is_set():
                            break
                        continue
                    pi = rng.randrange(len(probes))
                    kr, kind = probes[pi]
                    interval = Interval(1, snap + 1)
                    want = expected(pi, snap)
                    # Ask twice: the repeat is the cache's bread and
                    # butter, and both answers must match the oracle.
                    for _ in range(2):
                        got = (sharded.sum(kr, interval) if kind == "sum"
                               else sharded.count(kr, interval))
                        if got != want:
                            failures.append(
                                f"reader {index}: {kind} {kr} AS OF "
                                f"{snap}: got {got!r} want {want!r}")
                            return
                    checked[index] += 1
                    if stop.is_set() and checked[index] >= 5:
                        break
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(f"reader {index}: {exc!r}")

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(i,))
                    for i in range(READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "stress test hung"
        assert not failures, failures[:5]
        assert all(n > 0 for n in checked), checked

        snapshot = sharded.cache_snapshot().as_dict()
        assert snapshot["result"]["hits"] > 0, snapshot

        # Settled state still matches the oracle (served from cache now).
        for pi in range(len(probes)):
            kr, kind = probes[pi]
            interval = Interval(1, final_t + 1)
            for _ in range(2):
                got = (sharded.sum(kr, interval) if kind == "sum"
                       else sharded.count(kr, interval))
                assert got == expected(pi, final_t)
        sharded.check_invariants()

    def test_epoch_bumps_never_serve_stale_open_entries(self):
        """Deterministic epilogue: open-frontier rectangle, cached, then
        written under, re-queried — across many bump/probe rounds."""
        sharded = ShardedWarehouse(shards=4, key_space=KEY_SPACE,
                                   page_capacity=8, thread_safe=True)
        sharded.enable_cache()
        oracle = TupleStoreOracle()
        kr = KeyRange(1, 201)
        t = 1
        for round_no in range(30):
            key = 2 * round_no + 1
            sharded.insert(key, float(key), t)
            oracle.insert(key, float(key), t)
            open_interval = Interval(1, sharded.now + 1)
            want = oracle.rta_sum(kr.low, kr.high, 1, open_interval.end)
            assert sharded.sum(kr, open_interval) == want   # fill
            assert sharded.sum(kr, open_interval) == want   # hit
            # Write at the SAME frontier instant, then re-ask the exact
            # rectangle: the epoch bump must force a recompute.
            bump = 2 * round_no + 2
            sharded.insert(bump, float(bump), t)
            oracle.insert(bump, float(bump), t)
            want = oracle.rta_sum(kr.low, kr.high, 1, open_interval.end)
            assert sharded.sum(kr, open_interval) == want
            t += 1
        snapshot = sharded.cache_snapshot().as_dict()
        assert snapshot["result"]["stale_drops"] > 0, snapshot
        assert snapshot["result"]["hits"] > 0, snapshot
