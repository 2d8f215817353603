"""The Multiversion SB-Tree (MVSBT) — the paper's contribution (section 4).

The MVSBT is an SB-tree over the *key* axis made partially persistent over
the *time* axis.  It maintains a value surface ``V(key, time)`` (initially 0
everywhere) under two operations, both in logarithmic I/Os:

* ``insert(k, t, v)`` — add ``v`` to every point of the quadrant
  ``[k, maxkey] x [t, maxtime]`` (updates arrive in non-decreasing ``t``);
* ``query(k, t)`` — read ``V(k, t)``.

Those are exactly the primitives the paper's Theorem 1 reduction needs: a
range-temporal aggregate decomposes into four such point queries over two
MVSBTs (see :mod:`repro.core.rta`).

The implementation includes all three optimizations of section 4.2 —
aggregation-in-a-page (logical splitting, the default write mode), record
merging, and page disposal — each independently toggleable for the
ablation benchmarks.
"""

from repro.mvsbt.records import MVSBTIndexRecord, MVSBTLeafRecord
from repro.mvsbt.tree import MVSBT, MVSBTConfig, MVSBTCounters

__all__ = [
    "MVSBT",
    "MVSBTConfig",
    "MVSBTCounters",
    "MVSBTIndexRecord",
    "MVSBTLeafRecord",
]
