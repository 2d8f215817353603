"""Wiring observability into warehouses, indexes, trees, and pools.

The instrumented objects never create tracers or registries themselves —
they hold a ``tracer`` attribute (the shared
:data:`~repro.obs.tracer.NULL_TRACER` by default) and a ``metrics``
attribute (``None`` by default).  The helpers here discover every buffer
pool, disk manager, and tree behind a target (duck-typed, same spirit as
the :class:`~repro.core.ingest.BatchLoader` discovery) and set those
attributes, so one call instruments a whole
:class:`~repro.core.warehouse.TemporalWarehouse` — both its pools, their
disks, and all its trees.

:func:`traced` is the usual entry point::

    with traced(warehouse) as tracer:
        warehouse.sum(key_range, interval)
    print(render_span_tree(tracer.last_root))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    PoolMetrics,
    QueryMetrics,
    TreeMetrics,
)
from repro.obs.tracer import NULL_TRACER, Tracer


def discover_pools(target: Any) -> List[Tuple[str, Any]]:
    """Unique ``(label, BufferPool)`` pairs behind ``target``.

    Labels name the discovery path: a warehouse yields ``tuples`` and
    ``aggregates``; a bare index or tree yields ``pool``.
    """
    from repro.storage.buffer import BufferPool

    found: dict[int, Tuple[str, Any]] = {}

    def visit(label: str, owner: Any) -> None:
        pool = owner if isinstance(owner, BufferPool) \
            else getattr(owner, "pool", None)
        if isinstance(pool, BufferPool) and id(pool) not in found:
            found[id(pool)] = (label, pool)

    visit("pool", target)
    for name in ("tuples", "aggregates", "tree", "index"):
        sub = getattr(target, name, None)
        if sub is not None and not callable(sub):
            visit(name, sub)
    return list(found.values())


def discover_trees(target: Any) -> List[Tuple[str, Any]]:
    """Unique ``(label, tree)`` pairs behind ``target`` (duck-typed).

    Covers bare MVSBT/MVBT/SB-trees (anything with ``pool`` and ``query``),
    :class:`~repro.core.rta.RTAIndex` (its (LKS, LKLT) pair, labelled
    ``SUM+COUNT.lks`` / ``SUM+COUNT.lklt``), warehouses (the tuple MVBT plus the RTA trees),
    and the MVBT baseline wrapper.
    """
    found: dict[int, Tuple[str, Any]] = {}

    def visit(label: str, tree: Any) -> None:
        if tree is None or id(tree) in found:
            return
        if hasattr(tree, "pool") and (hasattr(tree, "query")
                                      or hasattr(tree, "rectangle_query")):
            found[id(tree)] = (label, tree)

    def visit_rta(prefix: str, index: Any) -> None:
        if callable(getattr(index, "trees", None)):
            lks, lklt = index.trees()
            visit(f"{prefix}SUM+COUNT.lks", lks)
            visit(f"{prefix}SUM+COUNT.lklt", lklt)

    visit("tree", target)
    visit_rta("", target)
    visit("tuples", getattr(target, "tuples", None))
    visit_rta("", getattr(target, "aggregates", None))
    visit("tree", getattr(target, "tree", None))
    return list(found.values())


def attach_tracer(target: Any, tracer: Tracer) -> List[Tuple[Any, Any]]:
    """Point every pool and disk behind ``target`` at ``tracer``.

    The tracer also starts watching each pool's ``IOStats`` so spans get
    per-pool I/O deltas.  Returns the previous ``(object, tracer)`` pairs
    for :func:`detach`.
    """
    previous: List[Tuple[Any, Any]] = []
    for label, pool in discover_pools(target):
        previous.append((pool, pool.tracer))
        previous.append((pool.disk, pool.disk.tracer))
        pool.tracer = tracer
        pool.disk.tracer = tracer
        tracer.watch(label, pool.stats)
    return previous


def detach(previous: List[Tuple[Any, Any]]) -> None:
    """Restore tracers saved by :func:`attach_tracer`."""
    for obj, tracer in previous:
        obj.tracer = tracer


def detach_tracer(target: Any) -> None:
    """Reset every pool and disk behind ``target`` to the null tracer."""
    for _, pool in discover_pools(target):
        pool.tracer = NULL_TRACER
        pool.disk.tracer = NULL_TRACER


@contextmanager
def traced(target: Any, tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Attach a tracer to ``target`` for the duration of a ``with`` block.

    Creates a fresh :class:`~repro.obs.tracer.Tracer` unless one is given;
    previous tracer wiring is restored on exit either way.
    """
    tracer = tracer if tracer is not None else Tracer()
    previous = attach_tracer(target, tracer)
    try:
        yield tracer
    finally:
        detach(previous)


def attach_metrics(target: Any,
                   registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Give every pool and tree behind ``target`` metrics instruments.

    Pools get a :class:`~repro.obs.metrics.PoolMetrics` (batch-flush sizes,
    evictions), trees a :class:`~repro.obs.metrics.TreeMetrics`
    (pages-per-descent), and warehouse-like targets (anything with an
    ``aggregate`` method) a :class:`~repro.obs.metrics.QueryMetrics`
    (I/Os-per-query, plan choices).  Returns the registry.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for label, pool in discover_pools(target):
        pool.metrics = PoolMetrics(registry, label)
    for label, tree in discover_trees(target):
        tree.metrics = TreeMetrics(registry, label)
    if callable(getattr(target, "aggregate", None)):
        target.metrics = QueryMetrics(registry)
    return registry


def detach_metrics(target: Any) -> None:
    """Remove metrics instruments installed by :func:`attach_metrics`."""
    for _, pool in discover_pools(target):
        pool.metrics = None
    for _, tree in discover_trees(target):
        tree.metrics = None
    if callable(getattr(target, "aggregate", None)) \
            and hasattr(target, "metrics"):
        target.metrics = None
