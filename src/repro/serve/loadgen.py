"""Nearest-rank percentiles for latency samples.

Load is driven by ``python -m benchmarks.stack`` (its own
``benchmarks/stack/loadgen.py``); its reports import :func:`percentile`
from this path.
"""

from __future__ import annotations

import math
from typing import List


def percentile(sorted_values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of pre-sorted values, nearest-rank."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
