"""Worker threads for an event loop: one queue in, one callback back.

:class:`LoopWorkers` is what :class:`~repro.serve.server.TQLServer` runs
its blocking warehouse calls on.  A job costs one ``SimpleQueue.put`` on
the way to a thread and one ``loop.call_soon_threadsafe`` on the way
back; everything else — the future, the count of open jobs, the decision
to start another thread — happens on the event-loop thread and needs no
lock.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Any, Callable, Optional

from repro.serve.telemetry import RequestContext, run_in_context


class LoopWorkers:
    """Up to ``limit`` daemon threads (``repro-serve-N``) draining one job
    queue, started on demand by the loop that submits to them.

    Building one starts no thread and captures no loop; :meth:`submit`
    must be called on a running loop's thread, always the same loop.
    """

    def __init__(self, limit: int) -> None:
        self._limit = max(limit, 1)
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads: list = []
        self._unfinished = 0  # jobs submitted and not yet reported back

    def submit(self, fn: Callable[[], Any],
               ctx: Optional[RequestContext] = None,
               done: Optional[Callable[[], None]] = None
               ) -> "asyncio.Future":
        """Queue ``fn``; the returned future resolves with its outcome.

        ``done`` is called on the loop once ``fn`` has returned, before
        the future resolves and whether or not anyone still awaits it (a
        cancelled or timed-out awaiter leaves a done future behind; the
        thread stays busy regardless).  With a ``ctx``, ``fn`` runs
        inside it (see :meth:`_work`).  One more thread is started only
        when every one so far has a job and ``limit`` allows it.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._unfinished += 1
        started = len(self._threads)
        if started < min(self._unfinished, self._limit):
            self._threads.append(threading.Thread(
                target=self._work, args=(loop,), daemon=True,
                name=f"repro-serve-{started}"))
            self._threads[-1].start()
        self._jobs.put((fn, ctx, future, done))
        return future

    def _work(self, loop: asyncio.AbstractEventLoop) -> None:
        """A worker thread: run jobs until :meth:`close`'s ``None``.

        Nothing propagates contextvars into the thread, so the request
        context rides a plain thread-local around ``fn``
        (:func:`~repro.serve.telemetry.run_in_context`) — the shard
        backends attribute time (and, when sampled, trace context) to
        their shard calls through it — and the wall time inside ``fn``
        is the request's exec phase.
        """
        for fn, ctx, future, done in iter(self._jobs.get, None):
            try:
                outcome = future.set_result, run_in_context(fn, ctx)
            except BaseException as exc:  # noqa: BLE001 — the awaiter's
                outcome = future.set_exception, exc
            try:
                loop.call_soon_threadsafe(self._finished, future, done,
                                          *outcome)
            except RuntimeError:
                return  # the loop closed without waiting for this job

    def _finished(self, future: "asyncio.Future",
                  done: Optional[Callable[[], None]],
                  resolve: Callable[[Any], None], outcome: Any) -> None:
        """The one callback a job makes on the loop."""
        self._unfinished -= 1
        if done is not None:
            done()
        if not future.done():
            resolve(outcome)

    def close(self, timeout: float = 5.0) -> None:
        """Post one exit sentinel per started thread and join them: each
        exits once the jobs queued before its sentinel have run.

        The join is bounded by ``timeout`` seconds over all threads — a
        job that outlived the drain keeps its (daemon) thread, not the
        caller.  A thread reports back with ``call_soon_threadsafe``,
        which never waits for the loop, so joining on the loop's own
        thread cannot deadlock.
        """
        threads, self._threads = self._threads, []
        for _ in threads:
            self._jobs.put(None)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
