"""Core layer: the temporal data model and the paper's RTA contribution.

* :mod:`repro.core.model` — intervals, key ranges, rectangles, temporal
  tuples, and the transaction-time conventions of the paper's section 2.3.
* :mod:`repro.core.aggregates` — SUM / COUNT / AVG (and MIN/MAX for the
  SB-tree extension) aggregate descriptors.
* :mod:`repro.core.rta` — :class:`~repro.core.rta.RTAIndex`, the paper's
  headline structure: two MVSBTs (LKS + LKLT) answering range-temporal
  aggregates via the Theorem 1 reduction, in four point queries.
"""

from repro.core.aggregates import Aggregate, AVG, COUNT, MAX, MIN, SUM
from repro.core.model import (
    Interval,
    KeyRange,
    MAX_KEY,
    MAX_TIME,
    NOW,
    Rectangle,
    TemporalTuple,
)


def __getattr__(name: str):
    # RTAIndex/TemporalWarehouse pull in the index packages; resolve lazily
    # so the model and aggregate types stay importable from lighter
    # contexts.
    if name in ("RTAIndex", "RTAResult"):
        from repro.core import rta

        value = getattr(rta, name)
        globals()[name] = value
        return value
    if name in ("TemporalWarehouse", "QueryPlan"):
        from repro.core import warehouse

        value = getattr(warehouse, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")

__all__ = [
    "Aggregate",
    "AVG",
    "COUNT",
    "Interval",
    "KeyRange",
    "MAX",
    "MAX_KEY",
    "MAX_TIME",
    "MIN",
    "NOW",
    "Rectangle",
    "RTAIndex",
    "RTAResult",
    "SUM",
    "TemporalTuple",
]
