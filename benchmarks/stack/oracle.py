"""Brute-force RTA oracle over the event list.

The answer to ``SELECT agg WHERE key IN [k_lo, k_hi) AND time DURING
[t_lo, t_hi)`` at snapshot ``S`` is the SUM / COUNT / AVG over the
tuples with a key in range whose lifetime ``[start, end)`` shares an
instant with ``[t_lo, min(t_hi, S + 1))`` — the server clips every read
to its session snapshot.  Nothing here touches an index: tuples are
rebuilt from the events and filtered with numpy masks.

Beside a writer, a snapshot does not name one state: events stamped
with the snapshot's own instant (a key that dies and is reborn in one
tick) may land between the reader's pin and its query.  The generator
knows how many writes were acknowledged before the pin and how many
had been sent when the answer arrived, so :meth:`Oracle.check` takes
that range of event prefixes and accepts the answer of any of them;
events stamped later than the snapshot are clipped away regardless.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

_NEVER = np.iinfo(np.int64).max


class Oracle:
    """Reference answers for prefixes of one event stream."""

    def __init__(self, events: Sequence) -> None:
        keys, starts, values, born, died, ends = [], [], [], [], [], []
        alive = {}
        for index, event in enumerate(events):
            if event.op == "insert":
                alive[event.key] = len(keys)
                keys.append(event.key)
                starts.append(event.time)
                values.append(event.value)
                born.append(index)
                died.append(_NEVER)
                ends.append(_NEVER)
            else:
                slot = alive.pop(event.key)
                died[slot] = index
                ends[slot] = event.time
        self._key = np.array(keys, dtype=np.int64)
        self._start = np.array(starts, dtype=np.int64)
        self._end = np.array(ends, dtype=np.int64)
        self._value = np.array(values, dtype=np.float64)
        self._born = np.array(born, dtype=np.int64)   # event index of insert
        self._died = np.array(died, dtype=np.int64)   # event index of delete

    def answer(self, agg: str, k_lo: int, k_hi: int, t_lo: int, t_hi: int,
               snapshot: int, prefix: int) -> Optional[float]:
        """The aggregate over ``events[:prefix]`` at ``snapshot``."""
        t_hi = min(t_hi, snapshot + 1)
        end = np.where(self._died < prefix, self._end, _NEVER)
        mask = ((self._born < prefix)
                & (self._key >= k_lo) & (self._key < k_hi)
                & (self._start < t_hi) & (end > t_lo))
        count = int(mask.sum())
        if agg == "COUNT":
            return float(count)
        total = float(self._value[mask].sum())
        if agg == "SUM":
            return total
        return total / count if count else None

    def check(self, got, read, snapshot: int, prefixes: Iterable[int]
              ) -> bool:
        """Is ``got`` the right answer to ``read`` at ``snapshot`` for
        one of the event ``prefixes`` the reader may have observed?"""
        return any(
            same(got, self.answer(read.agg, read.k_lo, read.k_hi,
                                  read.t_lo, read.t_hi, snapshot, prefix))
            for prefix in prefixes)


def same(got, want: Optional[float]) -> bool:
    """Value equality up to float summation order (values are small
    integers, so sums are exact; AVG divides once)."""
    if want is None or got is None:
        return got is None and want is None
    if not isinstance(got, (int, float)):
        return False
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
