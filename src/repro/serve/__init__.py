"""repro.serve — a concurrent TQL query server with snapshot isolation.

The production face of the warehouse: more than one client (and more than
one thread) using the temporal store at once.  The pieces:

* :mod:`repro.serve.sharded` — :class:`ShardedWarehouse`, key-range
  partitioning over N :class:`~repro.core.warehouse.TemporalWarehouse`
  shards with exact scatter-gather aggregates;
* :mod:`repro.serve.procpool` — :class:`ProcessShardedWarehouse`, the
  process-per-shard backend (``--executor process``): one worker process
  owns each shard outright, escaping the GIL for multi-core serving;
* :mod:`repro.serve.cluster` — :class:`ClusterWarehouse`, the elastic
  cluster plane over the process backend: online shard split/merge,
  WAL-shipped read replicas (:mod:`repro.serve.replica`), and router
  failover (``--replicas`` / ``--autosplit``);
* :mod:`repro.serve.rwlock` — the per-shard readers-writer lock behind
  single-writer / multi-reader concurrency;
* :mod:`repro.serve.server` — the asyncio TCP server: newline-delimited
  JSON protocol, AS OF snapshot sessions, admission control
  (``SERVER_BUSY`` backpressure, per-request timeouts), metrics, and
  graceful drain-checkpoint-shutdown;
* :mod:`repro.serve.protocol` — message schemas and result encoding;
* :mod:`repro.serve.client` — a small blocking client.

Load is driven by ``python -m benchmarks.stack run`` (the repository's
one benchmark, ``benchmarks/stack/``); :mod:`repro.serve.loadgen` keeps
only the percentile helper its reports import.

Protocol spec, error codes, routing rules, and snapshot semantics are
documented in ``docs/SERVING.md``.  Names re-export lazily (PEP 562), so
importing :mod:`repro.serve` costs nothing until used.
"""

from __future__ import annotations

from typing import Any

#: name -> submodule providing it; resolved on first attribute access.
_EXPORTS = {
    "ShardedWarehouse": "repro.serve.sharded",
    "ShardRouter": "repro.serve.sharded",
    "ShardPlan": "repro.serve.sharded",
    "ProcessShardedWarehouse": "repro.serve.procpool",
    "ShardSpec": "repro.serve.procpool",
    "ClusterWarehouse": "repro.serve.cluster",
    "ClusterPlanner": "repro.serve.cluster",
    "ReplicaSpec": "repro.serve.replica",
    "ReadWriteLock": "repro.serve.rwlock",
    "ServerConfig": "repro.serve.server",
    "TQLServer": "repro.serve.server",
    "ServerHandle": "repro.serve.server",
    "serve_in_thread": "repro.serve.server",
    "Client": "repro.serve.client",
    "ServerReplyError": "repro.serve.client",
    "PROTOCOL_VERSION": "repro.serve.protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return __all__
