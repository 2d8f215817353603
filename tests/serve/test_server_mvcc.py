"""Server-level MVCC: commit groups under ``writers > 1``, concurrency
gauges in the metrics plane, and byte-identity with the serialized path."""

import threading

import pytest

from repro.serve.client import Client
from repro.serve.server import ServerConfig, serve_in_thread

KEYS = 64
KEY_SPACE = (1, KEYS + 1)


def _metric(registry, name):
    family = registry.get(name) or {}
    return sum(entry.get("value", 0.0)
               for entry in family.get("series", []))


def _drive(handle, writers):
    """``writers`` client threads insert disjoint keys at one timestamp."""
    errors = []

    def run(w):
        try:
            with Client(handle.host, handle.port, retries=0) as client:
                for key in range(w + 1, KEYS + 1, writers):
                    client.execute(f"INSERT KEY {key} VALUE {key}.0 AT 1")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]


def _answers(handle):
    stmts = [
        f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})",
        f"SELECT COUNT(*) WHERE key IN [1, {KEYS + 1})",
        f"SELECT MAX(value) WHERE key IN [20, 50)",
    ]
    with Client(handle.host, handle.port) as client:
        client.repin()
        return [repr(client.execute(s)) for s in stmts]


class TestCommitGroups:
    def test_multi_writer_matches_serial_and_forms_groups(self):
        multi = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, writers=4, readers=4,
            max_inflight=16))
        try:
            _drive(multi, 4)
            multi_answers = _answers(multi)
            with Client(multi.host, multi.port) as client:
                registry = client.metrics()
            groups = _metric(registry, "repro_commit_groups")
            records = _metric(registry, "repro_commit_group_records")
            assert groups > 0
            assert records == KEYS
            assert _metric(registry, "repro_commit_group_max_size") >= 1
        finally:
            multi.stop()

        serial = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, writers=1))
        try:
            _drive(serial, 1)
            serial_answers = _answers(serial)
            with Client(serial.host, serial.port) as client:
                registry = client.metrics()
            # The writers=1 path never touches the commit-group plumbing.
            assert _metric(registry, "repro_commit_groups") == 0
        finally:
            serial.stop()
        assert multi_answers == serial_answers

    def test_group_member_error_is_isolated(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE, writers=4))
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 5 VALUE 1.0 AT 1")
                from repro.serve.client import ServerReplyError
                with pytest.raises(ServerReplyError) as info:
                    client.execute("INSERT KEY 5 VALUE 2.0 AT 1")
                assert info.value.code == "DUPLICATE_KEY"
                # The connection and the write path stay healthy.
                client.execute("INSERT KEY 6 VALUE 2.0 AT 1")
                client.repin()
                total = client.execute(
                    f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})")
                assert total == 3.0
        finally:
            handle.stop()


class TestMVCCGauges:
    def test_epoch_and_read_gauges_published(self):
        handle = serve_in_thread(ServerConfig(
            shards=2, key_space=KEY_SPACE))
        try:
            with Client(handle.host, handle.port) as client:
                client.execute("INSERT KEY 3 VALUE 1.0 AT 1")
                client.execute("INSERT KEY 40 VALUE 2.0 AT 1")
                client.repin()
                client.execute(
                    f"SELECT SUM(value) WHERE key IN [1, {KEYS + 1})")
                registry = client.metrics()
            epochs = registry.get("repro_shard_write_epoch") or {}
            by_shard = {entry["labels"].get("shard"): entry["value"]
                        for entry in epochs.get("series", [])}
            assert set(by_shard) == {"0", "1"}
            assert all(value >= 1 for value in by_shard.values())
            assert _metric(registry, "repro_mvcc_reads_optimistic") > 0
            assert _metric(registry, "repro_mvcc_reads_fallbacks") == 0
        finally:
            handle.stop()


class TestCLIFlags:
    def test_parser_accepts_new_flags(self):
        from repro.serve.__main__ import build_parser

        args = build_parser().parse_args(
            ["--writers", "4", "--merge-qps", "8.5"])
        assert args.writers == 4
        assert args.merge_qps == 8.5
        defaults = build_parser().parse_args([])
        assert defaults.writers == 1
        assert defaults.merge_qps is None
