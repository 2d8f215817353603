"""The load generator: one process, one thread, at most two connections.

Two blocking ``Client`` threads served *fewer* requests than one on this
2-core box (the generator's own GIL became the bottleneck), so the
two-connection workloads drive non-blocking sockets from one
``selectors`` loop.  Single-connection workloads use the repository's
blocking :class:`~repro.serve.client.Client`, the library a user would.

Closed loop: a connection sends its next request when the previous
reply lands.  Open loop (``htap_mixed`` writes): request *k* is due at
``t0 + k / rate`` whatever the server is doing, its latency runs from
that due time, and how late the generator itself ran is recorded.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.client import Client, ServerReplyError

from .workloads import Read, write_tql

IO_TIMEOUT_S = 60.0


@dataclass
class Samples:
    """Completed ops of one kind, in completion order."""

    done: List[float] = field(default_factory=list)        # perf_counter
    latency_ms: List[float] = field(default_factory=list)
    # reads: (stream index, answer, snapshot, acked writes when pinned,
    # writes sent when answered); writes: the tail index
    detail: List[Any] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    def add(self, done: float, latency_ms: float, detail: Any) -> None:
        self.done.append(done)
        self.latency_ms.append(latency_ms)
        self.detail.append(detail)

    def error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1


class CpuClock:
    """CPU seconds of the program under test, read every ``every_s`` of
    wall time from inside the drive loop, so CPU per op can be taken
    over any stretch of the window."""

    def __init__(self, read_cpu: Callable[[], float], every_s: float
                 ) -> None:
        self._read_cpu = read_cpu
        self._every = every_s
        self._next = time.perf_counter()
        self.ticks: List[Tuple[float, float]] = []    # (wall, cpu seconds)

    def poll(self, now: float) -> None:
        if now >= self._next:
            self.ticks.append((now, self._read_cpu()))
            self._next = now + self._every


def closed_loop(client: Client, reads: Sequence[Read], first: int,
                t_end: float, snapshot: int, prefix: int,
                clock: Optional[CpuClock] = None) -> Samples:
    """One blocking client, back-to-back reads until ``t_end``."""
    samples = Samples()
    index = first
    while True:
        started = time.perf_counter()
        if clock is not None:
            clock.poll(started)
        if started >= t_end:
            return samples
        read = reads[index % len(reads)]
        try:
            got = client.execute(read.tql)
        except ServerReplyError as exc:
            samples.error(exc.code)
        else:
            done = time.perf_counter()
            samples.add(done, (done - started) * 1e3,
                        (index, got, snapshot, prefix, prefix))
        index += 1


def write_tail(client: Client, events: Sequence, first: int = 0) -> Samples:
    """Send ``events`` as single statements, closed loop, one client."""
    samples = Samples()
    for offset, event in enumerate(events):
        started = time.perf_counter()
        try:
            client.execute(write_tql(event))
        except ServerReplyError as exc:
            samples.error(exc.code)
        else:
            done = time.perf_counter()
            samples.add(done, (done - started) * 1e3, first + offset)
    return samples


class _Wire:
    """One protocol connection whose replies are read without blocking."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port),
                                             timeout=IO_TIMEOUT_S)
        self._buffer = b""
        while b"\n" not in self._buffer:       # the server's hello line
            self._buffer += self._recv()
        hello, _, self._buffer = self._buffer.partition(b"\n")
        self.snapshot = int(json.loads(hello).get("snapshot", 0))
        self.sock.setblocking(False)

    def _recv(self) -> bytes:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        return data

    def send(self, message: Dict[str, Any]) -> None:
        # Requests are a few hundred bytes with one in flight per
        # connection, so the kernel buffer always takes the whole line.
        data = protocol.encode(message)
        if self.sock.send(data) != len(data):
            raise ConnectionError("short write to the server")

    def replies(self) -> List[Dict[str, Any]]:
        self._buffer += self._recv()
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines]

    def close(self) -> None:
        self.sock.close()


class _Reader:
    """Closed-loop reads; with ``repin`` each op is a snapshot + query
    pair, so the reader follows the writer's ``now``."""

    def __init__(self, wire: _Wire, mix: "Mix", repin: bool) -> None:
        self.wire = wire
        self.mix = mix
        self.repin = repin
        self.busy = False
        self._snapshot = wire.snapshot
        self._started = 0.0
        self._index = 0
        self._acked_at_pin = 0
        self._querying = False

    def due(self) -> Optional[float]:
        return 0.0          # always ready

    def send(self, now: float) -> None:
        self.busy = True
        self._started = now
        self._index = self.mix.take_read()
        self._acked_at_pin = self.mix.writes_acked
        if self.repin:
            self._querying = False
            self.wire.send({"op": "snapshot"})
        else:
            self._send_query()

    def _send_query(self) -> None:
        self._querying = True
        read = self.mix.reads[self._index % len(self.mix.reads)]
        self.wire.send({"op": "query", "tql": read.tql})

    def on_reply(self, reply: Dict[str, Any], now: float) -> None:
        if not reply.get("ok", False):
            self.mix.read_samples.error(
                (reply.get("error") or {}).get("code", "INTERNAL"))
            self.busy = False
        elif not self._querying:
            self._snapshot = int(reply["result"])
            self._send_query()
        else:
            self.mix.read_samples.add(
                now, (now - self._started) * 1e3,
                (self._index, reply["result"], self._snapshot,
                 self.mix.first_write + self._acked_at_pin,
                 self.mix.first_write + self.mix.writes_sent))
            self.busy = False


class _Writer:
    """Open-loop single-statement writes at a fixed rate."""

    def __init__(self, wire: _Wire, mix: "Mix", rate: float,
                 t0: float) -> None:
        self.wire = wire
        self.mix = mix
        self.busy = False
        self._gap = 1.0 / rate
        self._t0 = t0
        self._due = t0
        self._idle_since = t0

    def due(self) -> Optional[float]:
        if self.mix.writes_sent >= len(self.mix.tail):
            return None
        return self._due

    def send(self, now: float) -> None:
        self.busy = True
        self.mix.late_ms.append(
            (now - max(self._due, self._idle_since)) * 1e3)
        self.wire.send({"op": "query",
                        "tql": write_tql(self.mix.tail[self.mix.writes_sent])})
        self.mix.writes_sent += 1

    def on_reply(self, reply: Dict[str, Any], now: float) -> None:
        if reply.get("ok", False):
            self.mix.write_samples.add(now, (now - self._due) * 1e3,
                                       self.mix.writes_sent - 1)
            self.mix.writes_acked += 1
        else:
            self.mix.write_samples.error(
                (reply.get("error") or {}).get("code", "INTERNAL"))
        self.busy = False
        self._idle_since = now
        self._due = self._t0 + self.mix.writes_sent * self._gap


@dataclass
class Mix:
    """Shared state of one selector-driven run, and its results."""

    reads: Sequence[Read]
    tail: Sequence = ()
    first_write: int = 0          # event index of tail[0]
    next_read: int = 0
    writes_sent: int = 0
    writes_acked: int = 0
    read_samples: Samples = field(default_factory=Samples)
    write_samples: Samples = field(default_factory=Samples)
    late_ms: List[float] = field(default_factory=list)

    def take_read(self) -> int:
        index = self.next_read
        self.next_read += 1
        return index


def selector_loop(host: str, port: int, mix: Mix, t_end: float,
                  readers: int, repin: bool, write_rate: float,
                  clock: Optional[CpuClock] = None) -> None:
    """Drive ``readers`` closed-loop connections, plus one open-loop
    writer when ``write_rate`` > 0, until ``t_end``; results land in
    ``mix``.  In-flight requests are waited for, never abandoned."""
    wires = [_Wire(host, port) for _ in range(readers + (write_rate > 0))]
    try:
        actors: List[Any] = [_Reader(w, mix, repin) for w in wires[:readers]]
        if write_rate > 0:
            actors.append(_Writer(wires[-1], mix, write_rate,
                                  time.perf_counter()))
        _run(actors, t_end, clock)
    finally:
        for wire in wires:
            wire.close()


def _run(actors: List[Any], t_end: float,
         clock: Optional[CpuClock]) -> None:
    selector = selectors.DefaultSelector()
    for actor in actors:
        selector.register(actor.wire.sock, selectors.EVENT_READ, actor)
    try:
        while True:
            now = time.perf_counter()
            if clock is not None:
                clock.poll(now)
            wake = now + IO_TIMEOUT_S
            if now < t_end:
                wake = t_end
                for actor in actors:
                    if actor.busy:
                        continue
                    due = actor.due()
                    if due is None:
                        continue
                    if due <= now:
                        actor.send(now)
                    else:
                        wake = min(wake, due)
            elif not any(actor.busy for actor in actors):
                return
            ready = selector.select(max(0.0, wake - time.perf_counter()))
            if not ready and time.perf_counter() >= now + IO_TIMEOUT_S:
                raise TimeoutError("no reply from the server")
            for key, _ in ready:
                actor = key.data
                for reply in actor.wire.replies():
                    actor.on_reply(reply, time.perf_counter())
    finally:
        selector.close()
