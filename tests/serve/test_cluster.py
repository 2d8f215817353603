"""Cluster plane correctness: routing, split, merge, replicas, protocol.

The elastic backend must be answer-identical to a single
:class:`~repro.core.warehouse.TemporalWarehouse` over the same update
stream — through splits, merges, and replica-served reads.  Replica reads
are checked for *byte-identical* results (``repr`` equality) at the same
pinned version: partial persistence makes a version-pinned read touch
only closed versions, so a caught-up replica's answer is exactly the
primary's.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core.model import Interval, KeyRange
from repro.core.warehouse import TemporalWarehouse
from repro.errors import QueryError, ShardRedirectError
from repro.serve.client import Client
from repro.serve.cluster import ClusterWarehouse
from repro.serve.server import ServerConfig, serve_in_thread

KEYS = 80


def _seed_events(n=KEYS):
    events = [("insert", key, float(key), 1 + key % 5)
              for key in range(1, n + 1)]
    events.sort(key=lambda e: e[3])
    return events


def _oracle(events, key_space=(1, KEYS + 1)):
    warehouse = TemporalWarehouse(key_space=key_space)
    warehouse.load_events(events)
    return warehouse


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster")
    warehouse = ClusterWarehouse(
        shards=2, key_space=(1, KEYS + 1), durable_dir=str(root),
        replicas=1, planner_interval=0.25)
    warehouse.load_events(_seed_events())
    yield warehouse
    warehouse.close()


class TestClusterAnswers:
    def test_matches_single_warehouse_oracle(self, cluster):
        oracle = _oracle(_seed_events())
        interval = Interval(1, cluster.now + 1)
        for key_range in (KeyRange(1, KEYS + 1), KeyRange(10, 30),
                          KeyRange(35, 70)):
            assert repr(cluster.sum(key_range, interval)) == \
                repr(oracle.sum(key_range, interval))
            assert repr(cluster.aggregate_all(key_range, interval)) == \
                repr(oracle.aggregate_all(key_range, interval))
        assert repr(cluster.snapshot(KeyRange(1, KEYS + 1), cluster.now)) \
            == repr(oracle.snapshot(KeyRange(1, KEYS + 1), oracle.now))

    def test_replica_read_byte_identical_at_pinned_version(self, cluster):
        cluster.sync_replicas(0)
        interval = Interval(1, cluster.now + 1)
        span = KeyRange(*cluster.handle(0).spec.key_space)
        for method in ("sum", "aggregate_all", "tuples_in"):
            primary = cluster.primary_probe(0, method, span, interval)
            replica = cluster.replica_probe(0, 0, method, span, interval)
            assert repr(primary) == repr(replica)

    def test_worker_stats_has_replica_rows_with_lag(self, cluster):
        rows = cluster.worker_stats()
        roles = {row["role"] for row in rows}
        assert roles == {"primary", "replica"}
        for row in rows:
            if row["role"] == "replica":
                assert row["lag"] >= 0
                assert "applied_seq" in row
            else:
                assert "acked_seq" in row


class TestSplitMerge:
    def test_split_preserves_answers_and_routes_new_writes(self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, KEYS + 1),
            durable_dir=str(tmp_path / "split"), replicas=0)
        try:
            warehouse.load_events(_seed_events())
            oracle = _oracle(_seed_events())
            interval = Interval(1, warehouse.now + 1)
            whole = KeyRange(1, KEYS + 1)
            before = repr(oracle.sum(whole, interval))

            result = warehouse.split(0)
            assert result["at"] == (1 + KEYS + 1) // 2
            assert warehouse.topology_version == 2
            assert repr(warehouse.sum(whole, interval)) == before

            # both halves answer exactly from their own group
            child = result["child"]
            lo, hi = (warehouse.handle(child).lo,
                      warehouse.handle(child).hi)
            assert repr(warehouse.sum(KeyRange(lo, hi), interval)) == \
                repr(oracle.sum(KeyRange(lo, hi), interval))

            # writes on either side of the cut route to the right group
            # (delete-then-reinsert keeps 1TNF: seeded keys are alive)
            t = warehouse.now + 1
            for target in (warehouse, oracle):
                target.delete(result["at"] - 1, t)
                target.delete(result["at"], t)
                target.insert(result["at"] - 1, 1.0, t + 1)
                target.insert(result["at"], 2.0, t + 1)
            t += 1
            interval = Interval(1, t + 1)
            assert repr(warehouse.sum(whole, interval)) == \
                repr(oracle.sum(whole, interval))
        finally:
            warehouse.close()

    def test_merge_rebuilds_one_group_with_identical_answers(self,
                                                             tmp_path):
        warehouse = ClusterWarehouse(
            shards=2, key_space=(1, KEYS + 1),
            durable_dir=str(tmp_path / "merge"), replicas=0)
        try:
            events = _seed_events()
            warehouse.load_events(events)
            # a few deletes so merged histories carry closed intervals
            t = warehouse.now + 1
            for key in (3, 41, 77):
                warehouse.delete(key, t)
            oracle = _oracle(events)
            for key in (3, 41, 77):
                oracle.delete(key, t)

            gids = [gid for gid, _lo, _hi in warehouse._topology.entries]
            result = warehouse.merge(gids[0], gids[1])
            assert len(warehouse._topology.entries) == 1
            interval = Interval(1, t + 1)
            whole = KeyRange(1, KEYS + 1)
            assert repr(warehouse.sum(whole, interval)) == \
                repr(oracle.sum(whole, interval))
            assert repr(warehouse.tuples_in(whole, interval)) == \
                repr(oracle.tuples_in(whole, interval))

            # retired gids now redirect (the client retries transparently)
            with pytest.raises(ShardRedirectError):
                warehouse.handle(gids[0])
            # the merged group accepts writes
            warehouse.insert(3, 9.0, t + 1)
            oracle.insert(3, 9.0, t + 1)
            interval = Interval(1, t + 2)
            assert repr(warehouse.sum(whole, interval)) == \
                repr(oracle.sum(whole, interval))
            assert result["gid"] in warehouse.shard_ids()
        finally:
            warehouse.close()

    def test_merge_rejects_non_adjacent_groups(self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=3, key_space=(1, 31),
            durable_dir=str(tmp_path / "nonadj"), replicas=0)
        try:
            gids = [gid for gid, _lo, _hi in warehouse._topology.entries]
            with pytest.raises(QueryError):
                warehouse.merge(gids[0], gids[2])
        finally:
            warehouse.close()

    def test_split_rejects_unsplittable_span(self, tmp_path):
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, 2),
            durable_dir=str(tmp_path / "narrow"), replicas=0)
        try:
            with pytest.raises(QueryError):
                warehouse.split(0)
        finally:
            warehouse.close()


class TestTopologyPersistence:
    def test_reopen_recovers_post_split_topology_and_data(self, tmp_path):
        root = str(tmp_path / "persist")
        warehouse = ClusterWarehouse(
            shards=2, key_space=(1, KEYS + 1), durable_dir=root,
            replicas=0)
        warehouse.load_events(_seed_events())
        warehouse.split(1)
        interval = Interval(1, warehouse.now + 1)
        whole = KeyRange(1, KEYS + 1)
        before = repr(warehouse.sum(whole, interval))
        entries = list(warehouse._topology.entries)
        warehouse.checkpoint()
        warehouse.close()

        reopened = ClusterWarehouse(
            shards=2, key_space=(1, KEYS + 1), durable_dir=root,
            replicas=0)
        try:
            assert reopened._topology.entries == entries
            assert repr(reopened.sum(whole, interval)) == before
        finally:
            reopened.close()


class TestClusterProtocol:
    @pytest.fixture(scope="class")
    def handle(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("server")
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=(1, KEYS + 1), executor="process",
            durable_dir=str(root), replicas=1, planner_interval=0.25))
        yield handle
        handle.stop()

    def test_topology_split_merge_promote_ops(self, handle):
        with Client(handle.host, handle.port) as client:
            client.load(_seed_events())
            client.repin()
            total = client.execute(
                f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})")

            topo = client.topology()
            assert topo["version"] == 1
            assert [g["span"] for g in topo["groups"]] == \
                [[1, 41], [41, KEYS + 1]]
            assert all(g["primary"]["alive"] for g in topo["groups"])
            assert all(len(g["replicas"]) == 1 for g in topo["groups"])

            split = client.split(topo["groups"][0]["gid"])
            assert split["version"] == 2
            client.repin()
            assert client.execute(
                f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})") == total

            merged = client.merge(split["parent"], split["child"])
            assert merged["version"] == 3
            client.repin()
            assert client.execute(
                f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})") == total

            promoted = client.promote(merged["gid"])
            assert promoted["gid"] == merged["gid"]
            client.repin()
            assert client.execute(
                f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})") == total
            # the promoted primary accepts writes through its adopted WAL
            # (delete-then-reinsert keeps 1TNF: key 5 is alive)
            t = client.repin() + 1
            client.execute(f"DELETE KEY 5 AT {t}")
            client.execute(f"INSERT KEY 5 VALUE 1.0 AT {t + 1}")
            client.repin()
            # history-interval sum: the reinserted tuple adds its value,
            # the closed original still counts
            assert client.execute(
                f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})") == \
                total + 1.0

    def test_metrics_text_exports_cluster_gauges(self, handle):
        with Client(handle.host, handle.port) as client:
            client.execute(f"SELECT COUNT(*) WHERE key IN [1, {KEYS + 1})")
            text = client.metrics_text()
        for needle in ("repro_serve_op_latency_seconds_bucket",
                       "repro_serve_op_phase_seconds",
                       "repro_procpool_requests", 'shard="0"',
                       "repro_procpool_shard_qps",
                       "repro_procpool_shard_queue_depth",
                       "repro_cluster_replica_lag",
                       "repro_cluster_splits", "repro_cluster_merges",
                       "repro_cluster_failovers",
                       "repro_cluster_promotions",
                       "repro_cluster_topology_version",
                       "repro_cluster_groups"):
            assert needle in text, f"missing gauge {needle}"
        # replica series are disambiguated from their primary's
        assert 'replica="0"' in text


class TestClientRetry:
    """Satellite contract: one transparent re-send on the retriable
    routing codes, counted so harnesses can surface it."""

    @staticmethod
    def _scripted_server(replies):
        """A one-connection server answering each request from a list of
        ``(ok, payload)`` scripts; returns (host, port, thread)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                conn.sendall(b'{"server":"fake","snapshot":0}\n')
                for ok, payload in replies:
                    line = reader.readline()
                    if not line:
                        return
                    rid = json.loads(line).get("id")
                    body = {"id": rid, "ok": ok}
                    body.update(payload)
                    conn.sendall((json.dumps(body) + "\n").encode())
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname() + (thread,)

    def test_retries_shard_down_once_and_counts_recovery(self):
        host, port, thread = self._scripted_server([
            (False, {"error": {"code": "SHARD_DOWN", "message": "dead"}}),
            (True, {"result": "pong"}),
        ])
        with Client(host, port, retry_backoff=0.0) as client:
            assert client.ping()
            assert client.retries_sent == 1
            assert client.retries_recovered == 1
        thread.join(timeout=5)

    def test_redirect_exhausting_retries_surfaces_typed_error(self):
        from repro.serve.client import ServerReplyError

        host, port, thread = self._scripted_server([
            (False, {"error": {"code": "SHARD_REDIRECT",
                               "message": "moved"}}),
            (False, {"error": {"code": "SHARD_REDIRECT",
                               "message": "moved"}}),
        ])
        with Client(host, port, retry_backoff=0.0) as client:
            with pytest.raises(ServerReplyError) as excinfo:
                client.ping()
            assert excinfo.value.code == "SHARD_REDIRECT"
            assert client.retries_sent == 1
            assert client.retries_recovered == 0
        thread.join(timeout=5)

    def test_non_retriable_errors_are_not_retried(self):
        from repro.serve.client import ServerReplyError

        host, port, thread = self._scripted_server([
            (False, {"error": {"code": "QUERY", "message": "bad"}}),
        ])
        with Client(host, port, retry_backoff=0.0) as client:
            with pytest.raises(ServerReplyError) as excinfo:
                client.ping()
            assert excinfo.value.code == "QUERY"
            assert client.retries_sent == 0
        thread.join(timeout=5)


class TestSplitLoadBarrier:
    def test_split_waits_for_buffered_ingest_window(self, tmp_path):
        """A split racing a buffered LOAD must fence behind it: the
        topology write lock cannot be granted while the load holds the
        read lock, so every event of the batch lands exactly once."""
        warehouse = ClusterWarehouse(
            shards=1, key_space=(1, 2001), durable_dir=str(tmp_path),
            replicas=0)
        try:
            warehouse.load_events(
                [("insert", key, 1.0, 1) for key in range(1, 1001)])
            batch = [("insert", key, 1.0, 2)
                     for key in range(1001, 2001)]
            started = threading.Event()

            def load():
                started.set()
                # 1,000 events: a buffer-tree window on the worker.
                warehouse.load_events(batch, batch_size=64)

            loader = threading.Thread(target=load)
            loader.start()
            started.wait()
            warehouse.split(0)  # blocks until the batch has drained
            loader.join(timeout=60)
            assert not loader.is_alive()

            interval = Interval(1, warehouse.now + 1)
            assert warehouse.count(KeyRange(1, 2001), interval) == 2000
            assert len(warehouse._topology.entries) == 2
        finally:
            warehouse.close()
