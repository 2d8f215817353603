"""The hit lane: plain SELECT aggregates answered on the event loop —
from the result cache (``lane: hit``) or, on the thread backend, executed
there as one seqlock-validated attempt (``lane: loop``).

Five groups: (a) a seeded statement stream driven against a default
server, a ``cache=False`` server, a process-executor server and the
brute-force oracle while a writer runs — the lane may only ever change
*where* an answer is computed; (b) :meth:`ShardedWarehouse.probe` /
:meth:`~ShardedWarehouse.attempt` unit cases — every reason to answer
:data:`MISS`; (b') the server's loop lane, one case per reason to fall
through to the admitted path; (c) the ``"ALL"`` result-cache entry behind
AVG; (d) the server's statement LRU.
"""

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.cache import CacheConfig
from repro.core.model import NOW, Interval, KeyRange
from repro.core.warehouse import RTA_ENTRY, TemporalWarehouse
from repro.errors import (ProtocolError, QueryError, ReproError,
                          ServerShuttingDownError)
from repro.serve.client import Client, ServerReplyError
from repro.serve.cluster import ClusterWarehouse
from repro.serve.procpool import ProcessShardedWarehouse, WorkerGroup
from repro.serve.rwlock import ReadWriteLock
from repro.serve.server import (STATEMENT_CACHE_ENTRIES, ServerConfig,
                                TQLServer, _Session, serve_in_thread)
from repro.serve.sharded import MISS, ShardedWarehouse, ShardRouter
from repro.serve.telemetry import RequestContext
from repro.tql import executor
from repro.tql.parser import SelectStatement, parse
from tests.oracles import TupleStoreOracle, close_window, open_window

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
    """Drive the seeded schedule; returns (answers, inline hits, loop
    executions)."""
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
            registry = reader.metrics()
    finally:
        handle.stop()
    return (answers, _counter(registry, "repro_serve_inline_hits_total"),
            _counter(registry, "repro_serve_loop_reads_total"))


class TestTwin:
    def test_lane_pool_and_oracle_agree_beside_a_writer(self):
        shape = dict(shards=2, key_space=KEY_SPACE, page_capacity=8)
        laned, hits, loops = _run_twin(ServerConfig(**shape), 7)
        uncached, no_hits, uncached_loops = _run_twin(
            ServerConfig(cache=False, **shape), 7)
        pooled, process_hits, process_loops = _run_twin(
            ServerConfig(executor="process", **shape), 7)
        assert laned == uncached == pooled
        assert hits > 0 and no_hits == 0 and process_hits == 0
        assert loops > 0 and uncached_loops > 0 and process_loops == 0

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


class _Remote:
    """A shard handle that is not in-thread — a :class:`WorkerGroup`'s
    shape: every call still reaches the shard, but its probe has no
    cache to look at and the router may not run it on its own thread."""

    probe = WorkerGroup.probe

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


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
        """The probe leaves the counters alone; the attempt that follows
        it runs on the calling thread and counts exactly what the pooled
        path would: shard 0's entry hit, shard 1's miss and store."""
        warehouse, plain = _warehouse(), _warehouse(cache=False)
        warehouse.aggregate(BOTH, CLOSED, SUM)
        warehouse.shards[1].result_cache.clear()
        before = [shard.result_cache.stats.as_dict()
                  for shard in warehouse.shards]
        assert warehouse.probe(BOTH, CLOSED, SUM) is MISS
        after = [shard.result_cache.stats.as_dict()
                 for shard in warehouse.shards]
        assert after == before
        ran = []
        for shard in warehouse.shards:
            real = shard.aggregate_all
            shard.aggregate_all = lambda *args, real=real: (
                ran.append(threading.current_thread().name) or real(*args))
        run = warehouse.attempt(BOTH, CLOSED, SUM)
        assert ran == []                      # phase one executes nothing
        assert repr(run()) == repr(plain.aggregate(BOTH, CLOSED, SUM))
        assert ran == [threading.current_thread().name] * 2
        after = [shard.result_cache.stats.as_dict()
                 for shard in warehouse.shards]
        assert (after[0]["hits"], after[0]["misses"]) == (
            before[0]["hits"] + 1, before[0]["misses"])
        assert (after[1]["hits"], after[1]["misses"]) == (
            before[1]["hits"], before[1]["misses"] + 1)
        assert len(warehouse.shards[1].result_cache) == 1
        assert warehouse.probe(BOTH, CLOSED, SUM) == run()

    def test_attempt_equals_aggregate_for_sum_count_avg(self):
        for cache in (True, False):
            warehouse, plain = _warehouse(cache), _warehouse(cache=False)
            for key_range, interval in ((BOTH, CLOSED),
                                        (KeyRange(2, 3), Interval(1, 2)),
                                        (KeyRange(500, 600), CLOSED)):
                for aggregate in (SUM, COUNT, AVG):
                    run = warehouse.attempt(key_range, interval, aggregate)
                    assert repr(run()) == repr(
                        plain.aggregate(key_range, interval, aggregate))

    def test_attempt_never_runs_min_max_or_a_part_behind_a_pipe(self):
        warehouse = _warehouse()
        for aggregate in (MIN, MAX):
            assert warehouse.attempt(BOTH, CLOSED, aggregate) is MISS
        warehouse._handles[1] = _Remote(warehouse._handles[1])
        assert warehouse.attempt(BOTH, CLOSED, SUM) is MISS
        assert warehouse.attempt(KeyRange(1, 50), CLOSED, SUM) is not MISS

    def test_attempt_is_a_miss_while_a_write_is_mid_bracket(self):
        warehouse = _warehouse()
        run = warehouse.attempt(BOTH, CLOSED, SUM)
        warehouse.handle(1).epoch.begin_write()
        try:
            assert run() is MISS
        finally:
            warehouse.handle(1).epoch.end_write()
        assert run() == warehouse.aggregate(BOTH, CLOSED, SUM)

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
                registry = client.metrics()
                return (answers,
                        _counter(registry, "repro_serve_inline_hits_total"),
                        _counter(registry, "repro_serve_loop_reads_total"))
        finally:
            handle.stop()

    def test_repeats_take_the_lane_by_default(self):
        """The first read executes on the loop, its repeats hit."""
        text = f"SELECT AVG(value) WHERE key IN [1, {KEYS + 1})"
        answers, hits, loops = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE), [text])
        assert answers == [2.0, 2.0, 2.0] and (hits, loops) == (2, 1)

    @pytest.mark.parametrize("overrides", [
        {"cache": False}, {"executor": "process"},
        {"executor": "process", "replicas": 1}])
    def test_backends_that_cannot_probe_never_do(self, overrides, tmp_path):
        """Without a cache nothing hits, but the thread backend still
        executes every read on the loop; worker backends do neither."""
        if overrides.get("replicas"):
            overrides = dict(overrides, durable_dir=str(tmp_path))
        text = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        answers, hits, loops = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE, **overrides),
            [text])
        assert answers == [80.0, 80.0, 80.0] and hits == 0
        assert loops == (0 if overrides.get("executor") else 3)

    def test_timeline_min_max_never_do(self):
        _, hits, loops = self._hits_after(
            ServerConfig(shards=2, key_space=KEY_SPACE), [
                "SELECT TIMELINE(SUM, 2) WHERE time DURING [1, 101)",
                f"SELECT MAX(value) WHERE key IN [1, {KEYS + 1})",
                f"SELECT MIN(value) WHERE key IN [1, {KEYS + 1})"])
        assert hits == 0 and loops == 0

    def test_query_errors_match_the_pool_path(self):
        """Deterministic errors — an interval empty at the snapshot, an
        interval before time 1 (raised inside the loop's own read) — and
        key ranges reaching or lying outside the space (clipped, no
        error) answer on the lane what a process server's worker path
        answers."""
        statements = [
            ("SELECT SUM(value) WHERE time DURING [50, 60)", 10),
            ("SELECT COUNT(*) WHERE key IN [0, 10)", None),
            ("SELECT AVG(value) WHERE time DURING [0, 40)", None),
            (f"SELECT SUM(value) WHERE key IN [{KEYS + 10}, {KEYS + 20})",
             None)]
        outcomes = {}
        for executor_name in ("thread", "process"):
            handle = serve_in_thread(ServerConfig(
                shards=2, key_space=KEY_SPACE, executor=executor_name))
            try:
                with Client(handle.host, handle.port) as client:
                    client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                    client.repin()
                    got = []
                    for text, as_of in statements:
                        try:
                            got.append(repr(client.execute(text,
                                                           as_of=as_of)))
                        except ServerReplyError as exc:
                            got.append((exc.code, exc.message))
                    outcomes[executor_name] = got
            finally:
                handle.stop()
        assert outcomes["thread"] == outcomes["process"]
        empty, reaching, before_one, outside = outcomes["thread"]
        assert empty[0] == "QUERY" and "empty at snapshot time 10" in empty[1]
        assert before_one[0] == "QUERY"
        assert "starts before time 1" in before_one[1]
        assert (reaching, outside) == ("1.0", "0")

    def test_admission_covers_the_worker_path_only(self):
        """With the one worker slot held and no queue, a SUM is still
        executed on the loop; a MAX, which needs a worker, is refused."""
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, max_inflight=1, max_queue=0))
        try:
            with Client(handle.host, handle.port, timeout=10) as holder, \
                    Client(handle.host, handle.port, timeout=10) as other:
                other.execute("INSERT KEY 5 VALUE 3.0 AT 1")
                other.repin()
                thread = threading.Thread(target=lambda: holder.sleep(0.5))
                thread.start()
                time.sleep(0.1)
                assert other.execute(
                    f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})") == 3.0
                with pytest.raises(ServerReplyError) as excinfo:
                    other.execute(
                        f"SELECT MAX(value) WHERE key IN [1, {KEYS + 1})")
                assert excinfo.value.code == "SERVER_BUSY"
                thread.join(timeout=10)
                assert not thread.is_alive()
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


# -- (b') the loop lane: every reason to fall through ----------------------------------


TEXT = ("SELECT SUM(value) WHERE key IN [20, 180) "
        "AND time DURING [10, 90)")     # BOTH x CLOSED


def _lane(monkeypatch, warehouse, tql=TEXT, prepare=None, on_admitted=None,
          sampled=False, as_of=None):
    """One statement through ``TQLServer._query`` on a fresh loop.

    Returns ``(answer or raised error, ctx, admitted, yields)``:
    ``admitted`` holds, per entry to the admitted path, every shard's
    result-cache size at that moment; ``yields`` counts the lane's
    ``asyncio.sleep`` calls.  ``prepare(server)`` runs on the loop just
    before the statement; ``on_admitted()`` when it reaches the admitted
    path, before that path runs.  ``as_of`` is the request's own field
    (the session's snapshot when ``None``)."""
    server = TQLServer(ServerConfig(shards=2, key_space=KEY_SPACE),
                       warehouse)
    admitted, yields = [], []
    real_admitted, real_sleep = server._admitted, asyncio.sleep

    async def spy(fn, ctx=None):
        admitted.append([len(shard.result_cache)
                         for shard in warehouse.shards])
        if on_admitted is not None:
            on_admitted()
        return await real_admitted(fn, ctx)

    async def counted_sleep(delay, *args):
        yields.append(delay)
        return await real_sleep(delay, *args)

    server._admitted = spy
    monkeypatch.setattr(asyncio, "sleep", counted_sleep)
    ctx = RequestContext("r-1", "query")
    if sampled:
        ctx.begin_sampling()

    async def main():
        if prepare is not None:
            prepare(server)
        message = {"tql": tql}
        if as_of is not None:
            message["as_of"] = as_of
        return await server._query(message,
                                   _Session(snapshot=warehouse.now), ctx)

    try:
        outcome = asyncio.run(main())[0]
    except ReproError as exc:
        outcome = exc
    finally:
        server.workers.close()
    return outcome, ctx, admitted, yields


def _want(tql=TEXT):
    plain = _warehouse(cache=False)
    try:
        return repr(executor.execute(plain, parse(tql), as_of=plain.now))
    except ReproError as exc:
        return repr(exc)


class TestLoopLane:
    """Server-level: the lane executes on the loop, and each reason not
    to sends the statement down the admitted path having stored nothing."""

    def test_a_miss_executes_on_the_loop_inside_its_context(
            self, monkeypatch):
        warehouse = _warehouse()
        answer, ctx, admitted, yields = _lane(monkeypatch, warehouse,
                                              sampled=True)
        assert repr(answer) == _want()
        assert admitted == [] and yields == [0] and ctx.lane == "loop"
        assert ctx.queue_s == 0 and ctx.exec_s > 0
        assert set(ctx.shard_seconds) == {0, 1}
        assert [r["name"] for r in ctx.records] == \
            ["shard.aggregate_all"] * 2
        assert [len(shard.result_cache) for shard in warehouse.shards] \
            == [1, 1]

    def test_a_write_mid_bracket_falls_through(self, monkeypatch):
        warehouse = _warehouse()
        epoch = warehouse.handle(0).epoch
        answer, ctx, admitted, _ = _lane(
            monkeypatch, warehouse,
            prepare=lambda server: epoch.begin_write(),
            on_admitted=epoch.end_write)
        assert repr(answer) == _want()
        assert admitted == [[0, 0]] and ctx.lane is None

    def test_a_torn_validation_falls_through(self, monkeypatch):
        warehouse = _warehouse()
        shard, epoch = warehouse.shards[0], warehouse.handle(0).epoch
        real = shard.aggregate_all

        def torn(*args):
            del shard.aggregate_all        # once
            out = real(*args)
            epoch.begin_write()            # a write lands underneath
            epoch.end_write()
            return out

        shard.aggregate_all = torn
        answer, ctx, admitted, _ = _lane(monkeypatch, warehouse)
        assert "aggregate_all" not in vars(shard)   # the lane read, torn
        assert repr(answer) == _want()
        assert admitted == [[0, 0]] and ctx.lane is None

    def test_an_open_buffer_window_falls_through(self, monkeypatch):
        """A LOAD opens its buffer-tree window after the lane captured
        the epoch: the tree refuses the loop's read from another thread,
        the epoch has moved, so it is a conflict, not an error."""
        warehouse = _warehouse()
        shard, epoch = warehouse.shards[0], warehouse.handle(0).epoch
        tree = shard.aggregates.trees()[0]
        opened, release, refused = (threading.Event(), threading.Event(),
                                    [])

        def loader():   # a LOAD's bracket and window, as the server's are
            epoch.begin_write()
            open_window(tree)
            opened.set()
            assert release.wait(10)
            close_window(tree)
            epoch.end_write()

        thread = threading.Thread(target=loader)
        real = shard.aggregate_all

        def overtaken(*args):
            del shard.aggregate_all
            thread.start()
            assert opened.wait(10)
            try:
                return real(*args)
            except ReproError as exc:
                refused.append(type(exc).__name__)
                raise

        def finish_load():
            release.set()
            thread.join(10)

        shard.aggregate_all = overtaken
        answer, ctx, admitted, _ = _lane(monkeypatch, warehouse,
                                         on_admitted=finish_load)
        assert refused == ["ConcurrentAccessError"]
        assert repr(answer) == _want()
        assert admitted == [[0, 0]] and ctx.lane is None

    def test_a_part_behind_a_pipe_never_yields(self, monkeypatch):
        warehouse = _warehouse()
        warehouse._handles[1] = _Remote(warehouse._handles[1])
        answer, ctx, admitted, yields = _lane(monkeypatch, warehouse)
        assert repr(answer) == _want()
        assert admitted == [[0, 0]] and yields == [] and ctx.lane is None

    def test_a_draining_server_refuses(self, monkeypatch):
        def drain(server):
            server._draining = True

        def drain_during_the_yield(server):
            asyncio.get_running_loop().call_soon(drain, server)

        for prepare, want_yields in ((drain, []),
                                     (drain_during_the_yield, [0])):
            warehouse = _warehouse()
            answer, ctx, admitted, yields = _lane(monkeypatch, warehouse,
                                                  prepare=prepare)
            assert isinstance(answer, ServerShuttingDownError)
            assert admitted == [[0, 0]] and yields == want_yields
            assert ctx.lane is None

    def test_a_deterministic_error_is_the_pool_paths(self, monkeypatch):
        """Raised inside the loop's own read with the epoch unchanged:
        re-raised there, never retried on the worker path."""
        text = "SELECT AVG(value) WHERE time DURING [0, 40)"
        warehouse = _warehouse()
        error, _, admitted, _ = _lane(monkeypatch, warehouse, tql=text)
        assert repr(error) == _want(text) and "before time 1" in str(error)
        assert admitted == []


    def test_a_snapshot_at_now_is_refused_before_the_lane(self,
                                                          monkeypatch):
        """``as_of = NOW`` would make the window end past the alive
        sentinel: a protocol error, with nothing probed, run or stored."""
        warehouse = _warehouse()
        error, ctx, admitted, yields = _lane(monkeypatch, warehouse,
                                             as_of=NOW)
        assert isinstance(error, ProtocolError) and '"as_of"' in str(error)
        assert admitted == [] and yields == [] and ctx.lane is None
        assert [len(shard.result_cache) for shard in warehouse.shards] \
            == [0, 0]

    def test_a_window_past_now_is_a_query_error_in_the_attempt(self):
        warehouse = _warehouse()
        run = warehouse.attempt(BOTH, Interval(1, 10**30), SUM)
        with pytest.raises(QueryError, match="ends after NOW"):
            run()


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
        assert [e["lane"] for e in entries] == ["hit", "loop"]  # newest first
        queries = {entry["labels"]["shard"]: entry["value"]
                   for entry in registry["repro_serve_shard_queries_total"]
                   ["series"]}
        assert queries == {"0": 2.0, "1": 2.0}  # executed + hit alike

    def test_a_read_is_routed_once_on_the_loop(self, monkeypatch):
        """The probe's own split of the key range feeds the per-shard
        read counters and the loop's execution: one ``parts_for`` per
        statement, hit or miss, and a miss's shard reads run on the
        event loop too."""
        calls, reads = [], []
        routed = ShardRouter.parts_for
        read_all = TemporalWarehouse.aggregate_all

        def counting(self, key_range):
            calls.append(threading.current_thread().name)
            return routed(self, key_range)

        def reading(self, key_range, interval):
            reads.append(threading.current_thread().name)
            return read_all(self, key_range, interval)

        monkeypatch.setattr(ShardRouter, "parts_for", counting)
        monkeypatch.setattr(TemporalWarehouse, "aggregate_all", reading)
        handle = serve_in_thread(ServerConfig(shards=2,
                                              key_space=KEY_SPACE))
        text = f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})"
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                client.repin()
                del calls[:]
                client.execute(text)            # miss: executed
                miss, calls[:] = list(calls), []
                client.execute(text)            # hit
                hit = list(calls)
        finally:
            handle.stop()
        assert hit == miss == ["repro-serve-loop"]
        assert reads == ["repro-serve-loop"] * 2   # one per shard

    def test_the_loop_never_sleeps_or_takes_a_shard_lock(self, monkeypatch):
        """Reads and a writer interleave finely; whatever the lane meets
        (a bracket, a torn read), the event-loop thread never reaches
        ``time.sleep`` or either side of a :class:`ReadWriteLock` — the
        retries and the read-lock fallback are the worker path's."""
        violations = []
        real_sleep = time.sleep
        real_read, real_write = (ReadWriteLock.read_locked,
                                 ReadWriteLock.write_locked)

        def on_loop(what):
            if threading.current_thread().name == "repro-serve-loop":
                violations.append(what)

        def sleep(seconds):
            on_loop("time.sleep")
            return real_sleep(seconds)

        def read_locked(self):
            on_loop("read_locked")
            return real_read(self)

        def write_locked(self):
            on_loop("write_locked")
            return real_write(self)

        monkeypatch.setattr(time, "sleep", sleep)
        monkeypatch.setattr(ReadWriteLock, "read_locked", read_locked)
        monkeypatch.setattr(ReadWriteLock, "write_locked", write_locked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, hits, loops = _run_twin(ServerConfig(
                shards=2, key_space=KEY_SPACE, page_capacity=8,
                cache=False), 3)
        finally:
            sys.setswitchinterval(interval)
        assert violations == []
        assert loops > 0 and hits == 0

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
        first paid for all three."""
        warehouse = _single()
        kr, iv = self.RECTANGLES[0]
        plain = _single(cache=False)
        assert warehouse.aggregate(kr, iv, SUM) == plain.sum(kr, iv)
        assert warehouse.cache_snapshot().result["misses"] == 1
        assert warehouse.aggregate(kr, iv, AVG) == plain.avg(kr, iv)
        assert warehouse.aggregate(kr, iv, COUNT) == plain.count(kr, iv)
        assert warehouse.aggregate_all(kr, iv) == plain.aggregate_all(kr, iv)
        result = warehouse.cache_snapshot().result
        assert (result["misses"], result["hits"]) == (1, 3)
        assert len(warehouse.result_cache) == 1
        # MIN reads its own entry.
        warehouse.aggregate(kr, iv, MIN)
        assert warehouse.cache_snapshot().result["misses"] == 2
        assert len(warehouse.result_cache) == 2


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
