"""SUM and COUNT are JSON floats on the wire, whichever shards own the range.

A plain SELECT answers a float (``docs/TQL.md``).  A rectangle whose key
range no shard owns gathers an empty list of per-shard partials, and that
total must still be ``0.0``, not ``0``: in Python ``0 == 0.0``, so these
tests read the reply's JSON text, where an integer and a float differ.
"""

import json
import socket

import pytest

from repro.serve.server import ServerConfig, serve_in_thread

KEY_SPACE = (1, 1001)


def _tagged_int(text):
    return ("int", text)


@pytest.fixture(scope="module", params=["thread", "process"])
def server(request):
    handle = serve_in_thread(ServerConfig(
        shards=2, key_space=KEY_SPACE, page_capacity=8,
        executor=request.param))
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30) as sock, \
            sock.makefile("rb") as fh:
        fh.readline()       # hello
        handle.raw = (sock, fh)
        ask(handle, "INSERT KEY 10 VALUE 4 AT 5")
        ask(handle, "INSERT KEY 900 VALUE 6 AT 6")
        sock.sendall(b'{"op": "snapshot"}\n')     # re-pin past the inserts
        fh.readline()
        yield handle
    handle.stop()


def ask(server, tql):
    """The reply's ``result`` with every JSON integer tagged ``("int",
    text)``, so an integer zero cannot pass for a float one."""
    sock, fh = server.raw
    sock.sendall(json.dumps({"op": "query", "tql": tql, "id": 1}).encode()
                 + b"\n")
    reply = json.loads(fh.readline(), parse_int=_tagged_int)
    assert reply["ok"] is True, reply
    return reply["result"]


@pytest.mark.parametrize("aggregate", ["SUM(value)", "COUNT(*)"])
@pytest.mark.parametrize("where", [
    "KEY = 1001",                   # just past the key space
    "KEY IN [2000, 3000)",          # far past it
    "KEY = 1000",                   # owned, empty
    "KEY IN [1, 1001)",             # owned, not empty
])
def test_a_plain_select_answers_a_float(server, aggregate, where):
    result = ask(server, f"SELECT {aggregate} WHERE {where}")
    assert type(result) is float, result


def test_an_unowned_range_answers_float_zeros(server):
    for aggregate in ("SUM(value)", "COUNT(*)"):
        result = ask(server, f"SELECT {aggregate} WHERE KEY IN [2000, 3000)")
        assert result == 0.0 and type(result) is float


@pytest.mark.parametrize("aggregate", ["SUM", "COUNT"])
def test_timeline_buckets_of_an_unowned_range_are_floats(server, aggregate):
    buckets = ask(server, f"SELECT TIMELINE({aggregate}, 3) "
                          "WHERE KEY IN [2000, 3000) AND TIME DURING [1, 7)")
    assert len(buckets) == 3
    values = [bucket[-1] for bucket in buckets]
    assert values == [0.0] * 3
    assert all(type(value) is float for value in values), buckets
