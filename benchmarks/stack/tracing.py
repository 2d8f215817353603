"""Spans around the public entry points of every layer, recorded from
outside the program.

Nothing under ``src/`` knows it is being traced: :func:`installed`
swaps each layer's public functions for timing wrappers (and puts them
back), the wrappers record ``{name, start, end, parent, request}`` spans in
memory, and :meth:`Tracer.write_jsonl` dumps them when the
replay ends.  A layer's *self* time is its spans' duration minus the
part their child spans cover.

The wrappers must be in place before the server under test is built —
a thread-safe ``BufferPool`` rebinds its methods on the instance at
construction, capturing whatever the class holds then — so
installation and recording are separate switches: ``installed()`` spans
the whole replay, ``tracer.recording`` only its ops.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.serve.server as serve_server
import repro.storage.checkpoint as storage_checkpoint
import repro.storage.disk as storage_disk
import repro.tql.executor as tql_executor
from repro.core.cache import ResultCache
from repro.core.ingest import BatchLoader
from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.mvbt.tree import MVBT
from repro.mvsbt.tree import MVSBT
from repro.serve.client import Client
from repro.serve.procpool import ProcessShardedWarehouse, ShardClient
from repro.serve.sharded import ShardedWarehouse, ShardRouter
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.wal import WriteAheadLog

_ROUTER = ("insert", "delete", "apply_shard_batch", "load_events",
           "aggregate", "aggregate_all", "aggregate_batch", "checkpoint")

#: (layer, owner, public names).  A name missing from an owner's own
#: ``__dict__`` is inherited and already wrapped on the base.
TARGETS: List[Tuple[str, Any, Tuple[str, ...]]] = [
    ("serve.client", Client, ("request",)),
    ("tql", serve_server, ("parse",)),
    ("tql", tql_executor, ("execute", "execute_select_batch")),
    ("serve.sharded", ShardRouter, _ROUTER),
    ("serve.sharded", ShardedWarehouse, _ROUTER),
    ("serve.sharded", ProcessShardedWarehouse, _ROUTER),
    ("serve.procpool", ShardClient, ("call",)),
    ("core.warehouse", TemporalWarehouse,
     ("insert", "delete", "apply_batch", "load_events", "explain",
      "aggregate", "aggregate_all", "aggregate_batch", "checkpoint",
      "open_durable", "close")),
    ("core.cache", ResultCache,
     ("lookup", "store", "begin_flight", "wait_flight", "end_flight")),
    ("core.rta", RTAIndex,
     ("insert", "delete", "query", "query_batch", "aggregate_all",
      "count")),
    ("mvsbt", MVSBT, ("insert", "query", "query_batch")),
    ("mvbt", MVBT, ("insert", "delete", "rectangle_query")),
    ("storage.buffer", BufferPool,
     ("fetch", "allocate", "flush_batch", "flush_all")),
    ("storage.disk", InMemoryDiskManager, ("read", "write")),
    ("storage.disk", FileDiskManager, ("read", "write")),
    ("storage.wal", WriteAheadLog, ("append", "append_batch")),
    ("storage.checkpoint", storage_checkpoint,
     ("write_checkpoint", "read_checkpoint")),
    ("storage.serialization", storage_checkpoint,
     ("encode_page_image", "decode_page")),
    ("storage.serialization", storage_disk,
     ("encode_page_image", "decode_page")),
    ("core.ingest", BatchLoader, ("load",)),
]
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Tracer:
    """In-memory span recorder shared by every wrapper.

    Spans live in parallel ``array`` columns indexed by span id — plain
    machine integers, so a few hundred thousand spans add nothing for
    the garbage collector to walk while the program is being timed.
    """

    def __init__(self) -> None:
        self.recording = False
        self.labels: List[str] = []          # label id -> "layer:name"
        self.label = array("i")              # per span: label id
        self.start = array("q")              # perf_counter_ns
        self.end = array("q")
        self.parent = array("i")             # span id, -1 for a root
        self.request = array("i")            # spans of one request share it
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._root = -1
        self._requests = 0

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        label_id = len(self.labels)
        self.labels.append(f"{layer}:{name}")
        local, clock = self._local, time.perf_counter_ns
        label, start, end = self.label, self.start, self.end
        parents, request = self.parent, self.request
        is_wal = layer == "storage.wal"

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # One request is in flight at a time, so work on a server
            # thread with nothing above it belongs to that request.
            parent = stack[-1] if stack else self._root
            span = len(start)
            if parent < 0:
                self._requests += 1
                self._root = span
            label.append(label_id)
            parents.append(parent)
            request.append(self._requests)
            end.append(0)
            stack.append(span)
            if is_wal and args[0].fsync:
                self.counts["wal.fsyncs"] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                if parent < 0:
                    self._root = -1

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive and self nanoseconds.  Inclusive
        time counts only a layer's outermost spans, so a router method
        calling another router method is not added twice."""
        layers = [text.split(":", 1)[0] for text in self.labels]
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= self.end[span] - self.start[span]
        table = {layer: {"calls": 0, "self_ns": 0, "inclusive_ns": 0}
                 for layer in LAYERS}
        for span, parent in enumerate(self.parent):
            layer = layers[self.label[span]]
            row = table[layer]
            row["calls"] += 1
            row["self_ns"] += self_ns[span]
            if parent < 0 or layers[self.label[parent]] != layer:
                row["inclusive_ns"] += self.end[span] - self.start[span]
        return table

    def root_ns(self) -> int:
        return sum(self.end[span] - self.start[span]
                   for span, parent in enumerate(self.parent) if parent < 0)

    def name_ns(self, label: str) -> int:
        """Inclusive time of every span called ``layer:name``."""
        wanted = self.labels.index(label) if label in self.labels else -1
        return sum(self.end[span] - self.start[span]
                   for span, label_id in enumerate(self.label)
                   if label_id == wanted)

    def write_jsonl(self, path) -> None:
        """One span per line: ``{id, name, start, end, parent, request}``
        (nanoseconds on the ``perf_counter`` clock; ``parent`` is null
        for the root span of a request)."""
        with open(path, "w") as fh:
            for span in range(len(self)):
                parent = self.parent[span]
                fh.write(json.dumps({
                    "id": span, "name": self.labels[self.label[span]],
                    "start": self.start[span], "end": self.end[span],
                    "parent": parent if parent >= 0 else None,
                    "request": self.request[span]}))
                fh.write("\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Swap every target for its wrapper; restore on exit."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, owner, names in TARGETS:
            for name in names:
                original = vars(owner).get(name)
                if original is None:
                    continue
                undo.append((owner, name, original))
                owner_name = getattr(owner, "__name__", "").rsplit(".")[-1]
                label = f"{owner_name}.{name}"
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(
                        tracer.wrap(layer, label, original.__func__))
                elif isinstance(original, staticmethod):
                    wrapped = staticmethod(
                        tracer.wrap(layer, label, original.__func__))
                else:
                    wrapped = tracer.wrap(layer, label, original)
                setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
