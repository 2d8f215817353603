"""The hit lane: result-cache hits answered on the event loop.

Four groups: (a) a seeded statement stream driven against a default
server, a ``cache=False`` server and the brute-force oracle while a
writer runs — the lane may only ever change *where* an answer is
computed; (b) :meth:`ShardedWarehouse.probe` unit cases — every reason to
answer :data:`MISS`; (c) the ``"ALL"`` result-cache entry behind AVG;
(d) the server's statement LRU.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.cache import CacheConfig
from repro.core.model import Interval, KeyRange
from repro.core.warehouse import RTA_ENTRY, TemporalWarehouse
from repro.serve.client import Client, ServerReplyError
from repro.serve.cluster import ClusterWarehouse
from repro.serve.procpool import ProcessShardedWarehouse, WorkerGroup
from repro.serve.server import (STATEMENT_CACHE_ENTRIES, ServerConfig,
                                TQLServer, serve_in_thread)
from repro.serve.sharded import MISS, ShardedWarehouse, ShardRouter
from repro.serve.telemetry import RequestContext
from repro.tql.parser import SelectStatement
from tests.oracles import TupleStoreOracle

KEYS = 200
KEY_SPACE = (1, KEYS + 1)


def _counter(registry, name):
    family = registry.get(name) or {}
    return sum(entry.get("value", 0.0)
               for entry in family.get("series", []))


# -- (a) twin: lane vs pool path vs oracle, beside a writer ------------------------------


def _rounds(seed, rounds=6, writes=25):
    """Chronological write batches: integer values, so oracle sums are
    exact whatever the order of addition."""
    rng = random.Random(seed)
    alive, t, out = set(), 1, []
    for _ in range(rounds):
        batch = []
        for _ in range(writes):
            t += rng.randint(1, 3)
            if alive and rng.random() < 0.3:
                key = rng.choice(sorted(alive))
                alive.discard(key)
                batch.append(("delete", key, 0.0, t))
            else:
                key = rng.choice([k for k in range(1, KEYS + 1)
                                  if k not in alive])
                alive.add(key)
                batch.append(("insert", key, float(rng.randint(1, 9)), t))
        out.append(batch)
    return out


def _statements(rng, snapshot, count=18):
    """``(agg, key range, interval or None, as_of or None)`` draws from a
    pool of six rectangles, so most statements repeat: closed ones, ones
    reaching past the snapshot (open-present, clamped), and bare ones."""
    pool = []
    for _ in range(6):
        low = rng.randint(1, KEYS - 20)
        key_range = (low, rng.randint(low + 10, KEYS + 1))
        shape = rng.choice(("closed", "open", "bare"))
        if shape == "closed" and snapshot > 4:
            start = rng.randint(1, snapshot - 2)
            interval = (start, rng.randint(start + 1, snapshot))
        elif shape == "open":
            interval = (rng.randint(1, snapshot), snapshot + 50)
        else:
            interval = None
        pool.append((key_range, interval))
    out = []
    for _ in range(count):
        key_range, interval = rng.choice(pool)
        as_of = rng.choice((None, None, snapshot, max(snapshot - 3, 1)))
        out.append((rng.choice(("SUM", "COUNT", "AVG")), key_range,
                    interval, as_of))
    return out


def _tql(agg, key_range, interval):
    text = (f"SELECT {'COUNT(*)' if agg == 'COUNT' else agg + '(value)'} "
            f"WHERE key IN [{key_range[0]}, {key_range[1]})")
    if interval is not None:
        text += f" AND time DURING [{interval[0]}, {interval[1]})"
    return text


def _oracle_answer(oracle, agg, key_range, interval, as_of):
    """The executor's rectangle resolution, then brute force."""
    horizon = as_of + 1
    start, end = interval if interval is not None else (1, max(horizon, 2))
    end = min(end, horizon)
    if start >= end:
        return "QUERY"
    fn = {"SUM": oracle.rta_sum, "COUNT": oracle.rta_count,
          "AVG": oracle.rta_avg}[agg]
    return fn(key_range[0], key_range[1], start, end)


def _run_twin(config, seed):
    """Drive the seeded schedule; returns (answers, inline hits)."""
    handle = serve_in_thread(config)
    rng = random.Random(seed)
    oracle = TupleStoreOracle()
    answers = []
    try:
        with Client(handle.host, handle.port) as reader, \
                Client(handle.host, handle.port) as writer:

            def read(statements, snapshot):
                for agg, key_range, interval, as_of in statements:
                    text = _tql(agg, key_range, interval)
                    try:
                        got = reader.execute(text, as_of=as_of)
                    except ServerReplyError as exc:
                        got = exc.code
                    want = _oracle_answer(oracle, agg, key_range, interval,
                                          as_of if as_of is not None
                                          else snapshot)
                    assert got == want, (text, as_of, snapshot)
                    answers.append(repr(got))

            def write(batch):
                for op, key, value, t in batch:
                    writer.execute(
                        f"INSERT KEY {key} VALUE {value} AT {t}"
                        if op == "insert" else f"DELETE KEY {key} AT {t}")

            for batch in _rounds(seed):
                snapshot = reader.repin()
                statements = _statements(rng, snapshot)
                read(statements[:6], snapshot)        # quiet: lane warms
                reader.repin()                        # repin between reads
                read(statements[:6], snapshot)
                # Every write of this round is later than the pinned
                # snapshot, so it cannot change a pinned answer — but it
                # bumps epochs under the open-present entries.
                thread = threading.Thread(target=write, args=(batch,))
                thread.start()
                read(statements, snapshot)
                thread.join(timeout=30)
                assert not thread.is_alive()
                for op, key, value, t in batch:
                    if op == "insert":
                        oracle.insert(key, value, t)
                    else:
                        oracle.delete(key, t)
            hits = _counter(reader.metrics(),
                            "repro_serve_inline_hits_total")
    finally:
        handle.stop()
    return answers, hits


class TestTwin:
    def test_lane_pool_and_oracle_agree_beside_a_writer(self):
        laned, hits = _run_twin(
            ServerConfig(shards=2, key_space=KEY_SPACE, page_capacity=8), 7)
        pooled, no_hits = _run_twin(
            ServerConfig(shards=2, key_space=KEY_SPACE, page_capacity=8,
                         cache=False), 7)
        assert laned == pooled
        assert hits > 0 and no_hits == 0

    def test_read_after_acknowledged_write_sees_it(self):
        """Own inserts (value 100) beside a second writer (value 1): an
        open-present SUM over both shards, read straight after the ack,
        must hold every own write plus a growing count of the other's —
        never the value cached before the write."""
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, page_capacity=8))
        tql = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        other_keys = list(range(2, KEYS + 1, 4))   # 50 of them: < 100
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # loop, pool and writers interleave
        try:
            with Client(handle.host, handle.port) as mine, \
                    Client(handle.host, handle.port) as other:

                def background():
                    for key in other_keys:
                        other.execute(f"INSERT KEY {key} VALUE 1.0 AT 5")

                thread = threading.Thread(target=background)
                thread.start()
                seen_other = 0
                for n, key in enumerate(range(1, 80, 2), start=1):
                    mine.execute(f"INSERT KEY {key} VALUE 100.0 AT 5")
                    mine.repin()
                    for _ in range(3):  # repeats: lane when quiet
                        total = mine.execute(tql)
                        own, others = divmod(total, 100.0)
                        assert own == n, (total, n)
                        assert seen_other <= others <= len(other_keys)
                        seen_other = others
                thread.join(timeout=30)
                assert not thread.is_alive()
                mine.repin()
                assert mine.execute(tql) == 100.0 * n + len(other_keys)
                assert mine.execute(tql) == 100.0 * n + len(other_keys)
                assert _counter(mine.metrics(),
                                "repro_serve_inline_hits_total") >= 1
        finally:
            sys.setswitchinterval(interval)
            handle.stop()


# -- (b) probe: every reason to answer MISS --------------------------------------------


def _warehouse(cache=True):
    warehouse = ShardedWarehouse(shards=2, key_space=KEY_SPACE,
                                 page_capacity=8, thread_safe=True)
    if cache:
        warehouse.enable_cache(CacheConfig())
    for key in range(1, KEYS + 1, 3):
        warehouse.insert(key, float(key % 7 + 1), key)
    return warehouse


BOTH = KeyRange(20, 180)            # touches both shards
CLOSED = Interval(10, 90)


class TestProbe:
    def test_hit_equals_aggregate_for_sum_count_avg(self):
        """Whichever of the three ran first stored the entry all read."""
        for first in (SUM, COUNT, AVG):
            warehouse, plain = _warehouse(), _warehouse(cache=False)
            for aggregate in (SUM, COUNT, AVG):
                assert warehouse.probe(BOTH, CLOSED, aggregate) is MISS
            warehouse.aggregate(BOTH, CLOSED, first)
            for aggregate in (SUM, COUNT, AVG):
                got = warehouse.probe(BOTH, CLOSED, aggregate)
                assert repr(got) == repr(plain.aggregate(BOTH, CLOSED,
                                                         aggregate))

    def test_empty_rectangle_avg_is_none_not_miss(self):
        warehouse = _warehouse()
        empty = Interval(1, 2)
        assert warehouse.aggregate(KeyRange(2, 3), empty, AVG) is None
        assert warehouse.probe(KeyRange(2, 3), empty, AVG) is None

    def test_miss_while_a_write_is_mid_bracket(self):
        warehouse = _warehouse()
        warehouse.aggregate(BOTH, CLOSED, SUM)
        warehouse.handle(1).epoch.begin_write()
        try:
            assert warehouse.probe(BOTH, CLOSED, SUM) is MISS
        finally:
            warehouse.handle(1).epoch.end_write()
        assert warehouse.probe(BOTH, CLOSED, SUM) is not MISS

    def test_partial_hit_is_a_miss_and_touches_no_counter(self):
        warehouse = _warehouse()
        warehouse.aggregate(BOTH, CLOSED, SUM)
        warehouse.shards[1].result_cache.clear()
        before = [shard.result_cache.stats.as_dict()
                  for shard in warehouse.shards]
        assert warehouse.probe(BOTH, CLOSED, SUM) is MISS
        after = [shard.result_cache.stats.as_dict()
                 for shard in warehouse.shards]
        assert after == before

    def test_open_present_entry_goes_stale_with_a_write(self):
        warehouse = _warehouse()
        open_present = Interval(10, warehouse.now + 1)
        before = warehouse.aggregate(BOTH, open_present, SUM)
        assert warehouse.probe(BOTH, open_present, SUM) == before
        warehouse.insert(21, 50.0, warehouse.now)
        assert warehouse.probe(BOTH, open_present, SUM) is MISS
        assert warehouse.aggregate(BOTH, open_present, SUM) == before + 50.0
        assert warehouse.probe(BOTH, open_present, SUM) == before + 50.0

    @pytest.mark.parametrize("aggregate", [MIN, MAX])
    def test_min_max_always_miss(self, aggregate):
        warehouse = _warehouse()
        warehouse.aggregate(BOTH, CLOSED, aggregate)
        assert warehouse.probe(BOTH, CLOSED, aggregate) is MISS

    def test_no_cache_miss(self):
        warehouse = _warehouse(cache=False)
        warehouse.aggregate(BOTH, CLOSED, SUM)
        assert warehouse.probe(BOTH, CLOSED, SUM) is MISS

    def test_worker_backends_inherit_the_default(self):
        # One probe, on the one router; a worker group's half of it
        # answers MISS from no state at all (its caches are a pipe away).
        assert ProcessShardedWarehouse.probe is ShardRouter.probe
        assert ClusterWarehouse.probe is ShardRouter.probe
        assert WorkerGroup.probe(None, SUM.name, BOTH, CLOSED) is MISS


class TestLaneSelection:
    """Server-level: which requests may take the lane."""

    @staticmethod
    def _hits_after(config, statements, prepare=None):
        handle = serve_in_thread(config)
        try:
            with Client(handle.host, handle.port) as client:
                for key in range(1, KEYS + 1, 5):
                    client.execute(f"INSERT KEY {key} VALUE 2.0 AT {key}")
                client.repin()
                answers = [client.execute(text)
                           for text in statements for _ in range(3)]
                return answers, _counter(client.metrics(),
                                         "repro_serve_inline_hits_total")
        finally:
            handle.stop()

    def test_repeats_take_the_lane_by_default(self):
        text = f"SELECT AVG(value) WHERE key IN [1, {KEYS + 1})"
        answers, hits = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE), [text])
        assert answers == [2.0, 2.0, 2.0] and hits == 2

    @pytest.mark.parametrize("overrides", [
        {"cache": False}, {"executor": "process"},
        {"executor": "process", "replicas": 1}])
    def test_backends_that_cannot_probe_never_do(self, overrides, tmp_path):
        if overrides.get("replicas"):
            overrides = dict(overrides, durable_dir=str(tmp_path))
        text = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        answers, hits = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE, **overrides),
            [text])
        assert answers == [80.0, 80.0, 80.0] and hits == 0

    def test_timeline_min_max_never_do(self):
        _, hits = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE), [
                "SELECT TIMELINE(SUM, 2) WHERE time DURING [1, 101)",
                f"SELECT MAX(value) WHERE key IN [1, {KEYS + 1})",
                f"SELECT MIN(value) WHERE key IN [1, {KEYS + 1})"])
        assert hits == 0

    def test_query_errors_match_the_pool_path(self):
        handle = serve_in_thread(ServerConfig(shards=2,
                                              key_space=KEY_SPACE))
        try:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServerReplyError) as excinfo:
                    client.execute(
                        "SELECT SUM(value) WHERE time DURING [50, 60)",
                        as_of=10)
                assert excinfo.value.code == "QUERY"
                assert "empty at snapshot time 10" in str(excinfo.value)
        finally:
            handle.stop()

    def test_a_warm_statement_is_refused_while_draining(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, drain_timeout=5.0, readers=2))
        text = f"SELECT COUNT(*) WHERE key IN [1, {KEYS + 1})"
        try:
            with Client(handle.host, handle.port, timeout=10) as holder, \
                    Client(handle.host, handle.port, timeout=10) as other:
                other.execute(text)
                other.execute(text)  # a lane hit
                thread = threading.Thread(target=lambda: holder.sleep(0.8))
                thread.start()
                time.sleep(0.2)
                other.shutdown()
                with pytest.raises(ServerReplyError) as excinfo:
                    other.execute(text)
                assert excinfo.value.code == "SHUTTING_DOWN"
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            handle.stop()


class TestLaneVisibility:
    def test_slowlog_entry_and_shard_counters_name_the_lane(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, slow_ms=0.0,
            slowlog_explain=False))
        text = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.repin()
                client.execute(text)
                client.execute(text)
                entries = [e for e in client.slowlog()["entries"]
                           if e["tql"] == text]
                registry = client.metrics()
        finally:
            handle.stop()
        assert [e["lane"] for e in entries] == ["hit", None]  # newest first
        queries = {entry["labels"]["shard"]: entry["value"]
                   for entry in registry["repro_serve_shard_queries_total"]
                   ["series"]}
        assert queries == {"0": 2.0, "1": 2.0}  # pooled + inline alike

    def test_a_read_is_routed_once_on_the_loop(self, monkeypatch):
        """The probe's own split of the key range feeds the per-shard
        read counters: one ``parts_for`` per statement on the event loop,
        hit or miss (the miss's second one is the worker thread's)."""
        calls = []
        routed = ShardRouter.parts_for

        def counting(self, key_range):
            calls.append(threading.current_thread().name)
            return routed(self, key_range)

        monkeypatch.setattr(ShardRouter, "parts_for", counting)
        handle = serve_in_thread(ServerConfig(shards=2,
                                              key_space=KEY_SPACE))
        text = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.repin()
                del calls[:]
                client.execute(text)            # miss
                miss, calls[:] = list(calls), []
                client.execute(text)            # hit
                hit = list(calls)
        finally:
            handle.stop()
        assert hit == ["repro-serve-loop"]
        assert sorted(miss) == ["repro-serve-0", "repro-serve-loop"]

    def test_sampled_request_record_carries_the_lane(self):
        ctx = RequestContext("r-1", "query")
        ctx.begin_sampling()
        assert "lane" not in TQLServer._request_record(
            ctx, 0.001, "ok")["attrs"]
        ctx.lane = "hit"
        assert TQLServer._request_record(
            ctx, 0.001, "ok")["attrs"]["lane"] == "hit"

    def test_explain_reports_the_all_entry_for_avg(self):
        warehouse = _warehouse()
        rows = warehouse.explain_trace(BOTH, CLOSED, AVG)
        assert [row["cache"]["result"] for row in rows] == ["miss", "miss"]
        warehouse.aggregate(BOTH, CLOSED, AVG)
        rows = warehouse.explain_trace(BOTH, CLOSED, AVG)
        assert [row["cache"]["result"] for row in rows] == ["hit", "hit"]


# -- (c) the "ALL" entry ----------------------------------------------------------------


def _single(cache=True):
    warehouse = TemporalWarehouse(key_space=KEY_SPACE, page_capacity=8)
    if cache:
        warehouse.enable_cache(CacheConfig())
    for key in range(1, KEYS + 1, 3):
        warehouse.insert(key, float(key % 7 + 1), key)
    return warehouse


class TestAllEntry:
    RECTANGLES = [(KeyRange(5, 150), Interval(10, 90)),
                  (KeyRange(1, KEYS + 1), Interval(1, 40)),
                  (KeyRange(60, 61), Interval(1, 2))]

    def test_serial_and_batch_twins_hit_each_other(self):
        plain = _single(cache=False)
        want = [plain.aggregate_all(kr, iv) for kr, iv in self.RECTANGLES]
        serial_first, batch_first = _single(), _single()
        slots = [(kr, iv, None) for kr, iv in self.RECTANGLES]
        assert [serial_first.aggregate_all(kr, iv)
                for kr, iv in self.RECTANGLES] == want
        assert batch_first.aggregate_batch(slots) == want
        for warehouse in (serial_first, batch_first):
            stats = warehouse.result_cache.stats
            assert (stats.hits, stats.misses) == (0, 3)
        # Each twin now answers the other shape from the cache.
        assert serial_first.aggregate_batch(slots) == want
        assert [batch_first.aggregate_all(kr, iv)
                for kr, iv in self.RECTANGLES] == want
        for warehouse in (serial_first, batch_first):
            stats = warehouse.result_cache.stats
            assert (stats.hits, stats.misses) == (3, 3)

    def test_closed_entry_is_pinned_open_entry_goes_stale(self):
        warehouse = _single()
        key_range = KeyRange(1, KEYS + 1)
        closed, open_present = Interval(1, 50), Interval(1, warehouse.now + 1)
        pinned = warehouse.aggregate_all(key_range, closed)
        before = warehouse.aggregate_all(key_range, open_present)
        warehouse.insert(2, 9.0, warehouse.now)
        assert warehouse.cache_probe(key_range, closed, AVG) == "hit"
        assert warehouse.cache_probe(key_range, open_present, AVG) == "miss"
        assert warehouse.aggregate_all(key_range, closed) is pinned
        after = warehouse.aggregate_all(key_range, open_present)
        assert (after.sum, after.count) == (before.sum + 9.0,
                                            before.count + 1)
        assert warehouse.result_cache.stats.stale_drops == 1

    def test_all_key_is_not_an_aggregate_name(self):
        """MIN/MAX answers are keyed by their own names beside it."""
        assert RTA_ENTRY not in {a.name for a in (SUM, COUNT, AVG, MIN, MAX)}

    def test_sum_then_avg_of_one_rectangle_is_one_miss_and_one_hit(self):
        """One entry a rectangle: whichever additive aggregate came
        first paid for all three, serial and batched."""
        warehouse = _single()
        kr, iv = self.RECTANGLES[0]
        plain = _single(cache=False)
        assert warehouse.aggregate(kr, iv, SUM) == plain.sum(kr, iv)
        assert warehouse.cache_snapshot().result["misses"] == 1
        assert warehouse.aggregate(kr, iv, AVG) == plain.avg(kr, iv)
        assert warehouse.aggregate(kr, iv, COUNT) == plain.count(kr, iv)
        assert warehouse.aggregate_all(kr, iv) == plain.aggregate_all(kr, iv)
        assert warehouse.aggregate_batch([(kr, iv, AVG), (kr, iv, None)]) \
            == [plain.avg(kr, iv), plain.aggregate_all(kr, iv)]
        result = warehouse.cache_snapshot().result
        assert (result["misses"], result["hits"]) == (1, 5)
        assert len(warehouse.result_cache) == 1
        # MIN reads its own entry.
        warehouse.aggregate(kr, iv, MIN)
        assert warehouse.cache_snapshot().result["misses"] == 2
        # In one batch each of the three looks the entry up (and misses),
        # then they are one executed slot — six probes — and one store.
        kr, iv = self.RECTANGLES[1]
        probes = warehouse.batch_snapshot()["probes"]
        assert warehouse.aggregate_batch(
            [(kr, iv, SUM), (kr, iv, AVG), (kr, iv, COUNT)]) \
            == [plain.sum(kr, iv), plain.avg(kr, iv), plain.count(kr, iv)]
        assert warehouse.cache_snapshot().result["misses"] == 5
        assert warehouse.batch_snapshot()["probes"] == probes + 6
        assert len(warehouse.result_cache) == 3


# -- (d) the statement LRU --------------------------------------------------------------


class TestStatementCache:
    def test_only_selects_are_kept_and_the_cache_is_bounded(self):
        handle = serve_in_thread(ServerConfig(shards=2,
                                              key_space=KEY_SPACE))
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.execute("LOAD INSERT KEY 6 VALUE 1.0 AT 2, "
                               "DELETE KEY 5 AT 3")
                client.execute("DELETE KEY 6 AT 4")
                client.execute("HISTORY OF 5")
                client.execute("SNAPSHOT AT 2")
                assert len(handle.server._statements) == 0
                first = "SELECT COUNT(*) WHERE key IN [1, 2)"
                client.execute(first)
                assert list(handle.server._statements) == [first]
                kept = handle.server._statements[first]
                client.execute(first)
                assert handle.server._statements[first] is kept
                for high in range(3, STATEMENT_CACHE_ENTRIES + 40):
                    client.execute(
                        f"SELECT COUNT(*) WHERE key IN [1, {high})")
                statements = handle.server._statements
                assert len(statements) == STATEMENT_CACHE_ENTRIES
                assert first not in statements  # least recent went first
                assert all(isinstance(s, SelectStatement)
                           for s in statements.values())
        finally:
            handle.stop()
