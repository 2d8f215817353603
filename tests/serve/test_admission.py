"""Admission control and the worker threads, driven directly.

Every test runs ``TQLServer._admitted`` on a fresh event loop with
``threading.Event``-gated functions, so the interleavings are forced, not
slept for: the only clock is the ``request_timeout`` under test.
"""

import asyncio
import sys
import threading
import time

import pytest

from repro.errors import (RequestTimeoutError, ServerBusyError,
                          ServerShuttingDownError)
from repro.serve.server import ServerConfig, TQLServer
from repro.serve.telemetry import RequestContext, current_context


def drive(scenario, **config):
    """Run ``scenario(server)`` on its own loop, bounded, and clean up."""
    async def main():
        server = TQLServer(ServerConfig(shards=1, key_space=(1, 101),
                                        **config))
        try:
            await asyncio.wait_for(scenario(server), 30)
        finally:
            server.warehouse.close()
            server.workers.close()

    asyncio.run(main())


class Gate:
    """A job that reports it has started, then blocks until opened."""

    def __init__(self, result=None):
        self.entered = threading.Event()
        self.open = threading.Event()
        self.result = result

    def __call__(self):
        self.entered.set()
        assert self.open.wait(10)
        return self.result


async def until(condition):
    """Yield to the loop (and, through its select, the GIL) until
    ``condition()`` holds; ``drive`` bounds the wait."""
    while not condition():
        await asyncio.sleep(0)


def idle(server):
    return server._inflight == 0 and server._queued == 0


class TestSlotsAndQueue:
    def test_waiters_run_first_come_first_served_and_the_next_is_busy(self):
        async def scenario(server):
            holders = [Gate("a"), Gate("b")]
            held = [asyncio.ensure_future(server._admitted(gate))
                    for gate in holders]
            await until(lambda: all(g.entered.is_set() for g in holders))
            assert (server._inflight, server._queued) == (2, 0)
            order = []
            waiting = [asyncio.ensure_future(
                server._admitted(lambda n=n: order.append(n) or n))
                for n in range(3)]
            await until(lambda: server._queued == 3)
            assert server._inflight == 2
            with pytest.raises(ServerBusyError):
                await server._admitted(lambda: "never runs")
            assert server.metrics.rejected("busy").value == 1
            # One slot frees: the three waiters pass through it in
            # arrival order while the other holder keeps its own.
            holders[0].open.set()
            assert await asyncio.gather(*waiting) == [0, 1, 2]
            assert order == [0, 1, 2]
            assert (server._inflight, server._queued) == (1, 0)
            holders[1].open.set()
            assert await asyncio.gather(*held) == ["a", "b"]
            await until(lambda: idle(server))

        drive(scenario, max_inflight=2, max_queue=3, readers=2)

    def test_workers_start_on_demand_up_to_readers(self):
        async def scenario(server):
            assert server.workers._threads == []
            for n in range(5):
                assert await server._admitted(lambda n=n: n) == n
            assert len(server.workers._threads) == 1
            gates = [Gate(n) for n in range(3)]
            tasks = [asyncio.ensure_future(server._admitted(gate))
                     for gate in gates]
            # Three open jobs, two threads: the third waits for a thread
            # holding its slot, not for a third thread.
            await until(lambda: gates[0].entered.is_set()
                        and gates[1].entered.is_set())
            assert len(server.workers._threads) == 2
            assert server._inflight == 3
            assert not gates[2].entered.is_set()
            for gate in gates:
                gate.open.set()
            assert await asyncio.gather(*tasks) == [0, 1, 2]
            await until(lambda: idle(server))

        drive(scenario, max_inflight=4, readers=2)

    def test_fn_exception_reaches_the_awaiter_and_frees_the_slot(self):
        async def scenario(server):
            def broken():
                raise ValueError("boom")

            with pytest.raises(ValueError, match="boom"):
                await server._admitted(broken)
            assert idle(server)
            assert await server._admitted(lambda: 1) == 1

        drive(scenario, max_inflight=1, max_queue=0)

    def test_context_rides_into_fn_and_phases_are_timed(self):
        async def scenario(server):
            ctx = RequestContext("r-1", "query")
            assert await server._admitted(current_context, ctx) is ctx
            assert ctx.queue_s > 0 and ctx.exec_s > 0
            # ... and does not leak into the thread's next job.
            assert await server._admitted(current_context) is None

        drive(scenario, readers=1)


class TestTimeout:
    def test_timed_out_request_keeps_its_slot_until_the_worker_returns(self):
        async def scenario(server):
            gate = Gate()
            with pytest.raises(RequestTimeoutError):
                await server._admitted(gate)
            assert gate.entered.is_set() and not gate.open.is_set()
            assert server.metrics.rejected("timeout").value == 1
            # Answered, but still running: the slot is not free.
            assert server._inflight == 1
            with pytest.raises(ServerBusyError):
                await server._admitted(lambda: "oversubscribed")
            gate.open.set()
            await until(lambda: idle(server))
            assert await server._admitted(lambda: "recovered") == "recovered"

        drive(scenario, max_inflight=1, max_queue=0, request_timeout=0.05)


class TestCancellation:
    def test_cancelled_waiter_and_cancelled_runner_leave_nothing_behind(self):
        async def scenario(server):
            gate = Gate()
            runner = asyncio.ensure_future(server._admitted(gate))
            await until(gate.entered.is_set)
            waiter = asyncio.ensure_future(
                server._admitted(lambda: "never runs"))
            await until(lambda: server._queued == 1)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert (server._inflight, server._queued) == (1, 0)
            runner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await runner
            assert server._inflight == 1  # fn is still on its thread
            gate.open.set()
            await until(lambda: idle(server))
            assert await server._admitted(lambda: 7) == 7
            assert idle(server)

        drive(scenario, max_inflight=1, max_queue=2)

    def test_waiter_cancelled_holding_the_slot_passes_it_on(self):
        """The lost wake-up: the slot was handed to a waiter whose task is
        cancelled before it runs again.  Forced by freeing a slot by hand
        and cancelling in the same loop step."""
        async def scenario(server):
            server._inflight = 1  # a request holding the only slot
            first = asyncio.ensure_future(
                server._admitted(lambda: "never runs"))
            second = asyncio.ensure_future(server._admitted(lambda: 2))
            await until(lambda: server._queued == 2)
            server._release()  # ... finishes: `first` now holds the slot
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            assert await second == 2
            await until(lambda: idle(server))

        drive(scenario, max_inflight=1, max_queue=2)


class TestDrain:
    def test_drain_waits_for_the_runner_and_turns_the_waiter_away(self):
        async def scenario(server):
            gate = Gate("done")
            runner = asyncio.ensure_future(server._admitted(gate))
            await until(gate.entered.is_set)
            waiter = asyncio.ensure_future(
                server._admitted(lambda: "never runs"))
            await until(lambda: server._queued == 1)
            threads = list(server.workers._threads)
            shutdown = asyncio.ensure_future(server.shutdown())
            await until(lambda: server._draining)
            with pytest.raises(ServerShuttingDownError):
                await server._admitted(lambda: "too late")
            await asyncio.sleep(0)
            assert not shutdown.done()  # still draining the runner
            gate.open.set()
            assert await runner == "done"
            with pytest.raises(ServerShuttingDownError):
                await waiter
            await shutdown
            assert idle(server)
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()

        drive(scenario, max_inflight=1, max_queue=2, drain_timeout=20.0)


class TestStress:
    def test_many_requests_never_exceed_max_inflight(self):
        """More threads than cores, a tiny switch interval: a lost update
        on the loop-owned counters or a double hand-off would show as a
        peak above ``max_inflight`` or a counter that never returns to 0."""
        lock = threading.Lock()
        running = peak = 0

        def job(n):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            deadline = time.perf_counter() + 0.0002
            while time.perf_counter() < deadline:
                pass
            with lock:
                running -= 1
            return n

        async def scenario(server):
            results = await asyncio.gather(*[
                server._admitted(lambda n=n: job(n)) for n in range(300)])
            assert results == list(range(300))
            assert 1 <= peak <= 3
            assert len(server.workers._threads) <= 6
            await until(lambda: idle(server))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            drive(scenario, max_inflight=3, max_queue=300, readers=6)
        finally:
            sys.setswitchinterval(interval)
