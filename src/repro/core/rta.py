"""Range-temporal aggregation: the paper's headline query (sections 1 and 3).

An RTA query asks for SUM / COUNT / AVG over every tuple whose key lies in a
range *and* whose validity interval intersects a time interval.  Theorem 1
reduces it to six point queries against two auxiliary indexes:

* **LKST** (less-key, single-time): aggregate of tuples with ``key < k``
  alive at instant ``t``;
* **LKLT** (less-key, less-time): aggregate of tuples with ``key < k`` whose
  intervals ended at or before ``t``.

Both are maintained by MVSBTs under the transformation of Figure 1: a tuple
insertion at ``t1`` adds its value over the quadrant ``[key+1, maxkey] x
[t1, maxtime]`` of the LKST surface; a logical deletion at ``t2`` subtracts
it from the LKST surface and adds it to the LKLT surface from ``t2`` on.

With half-open query rectangles ``[k1, k2) x [t1, t2)`` and ``t3 = t2 - 1``
(the window's last instant), Equation (1) reads::

    RTA = LKST(k2, t3) - LKST(k1, t3)          # tuples alive at t3
        + LKLT(k2, t3) - LKLT(k1, t3)          # tuples dead by t3 ...
        - LKLT(k2, t1) + LKLT(k1, t1)          # ... but not dead by t1

:class:`RTAIndex` packages the reduction over ONE (LKST, LKLT) MVSBT pair
whose record value is ``complex(sum, count)`` — a pair of reals is an
additive group, which is all sections 2-3 ask of MVSBT values — so a tuple
insertion is one tree insertion, a deletion two, and one evaluation of
Equation (1) yields SUM, COUNT and (their quotient) AVG, each component
added up in exactly the order a tree of its own would add it.  Around it
sits the transaction-time warehouse API (``insert``/``delete`` in time
order, 1TNF enforced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.aggregates import Aggregate, SUM
from repro.core.model import Interval, KeyRange, MAX_KEY, NOW
from repro.errors import DuplicateKeyError, KeyNotFoundError, QueryError
from repro.mvsbt.tree import MVSBT, MVSBTConfig
from repro.storage.buffer import BufferPool


@dataclass(frozen=True)
class RTAResult:
    """All three aggregates of one query rectangle.

    ``avg`` is ``None`` when no tuple falls in the rectangle.
    """

    sum: float
    count: float

    @property
    def avg(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def of(self, aggregate: Aggregate) -> Optional[float]:
        """The named aggregate's share of this result."""
        return getattr(self, _field(aggregate))


_FIELDS = {"SUM": "sum", "COUNT": "count", "AVG": "avg"}


def _field(aggregate: Aggregate) -> str:
    """The :class:`RTAResult` attribute that answers ``aggregate``."""
    field = _FIELDS.get(aggregate.name)
    if field is None:
        raise QueryError(
            f"aggregate {aggregate.name} is not maintained by this index "
            "(the MVSBT machinery supports SUM/COUNT-style aggregates, "
            "paper section 3)"
        )
    return field


class RTAIndex:
    """Range-temporal SUM/COUNT/AVG over a transaction-time tuple stream.

    Parameters
    ----------
    pool:
        Buffer pool shared by both underlying MVSBTs (one I/O budget, as a
        single warehouse server would have).
    config:
        MVSBT configuration (capacity, strong factor, optimizations).
    key_space:
        Half-open key domain of the warehouse tuples.
    track_values:
        Keep the alive-tuple table (key -> (start, value)) so ``delete``
        only needs the key.  Disable for write-only streams where the
        caller supplies values on deletion.
    """

    def __init__(self, pool: BufferPool, config: Optional[MVSBTConfig] = None,
                 key_space: Tuple[int, int] = (1, MAX_KEY + 1),
                 start_time: int = 1, paged_roots: bool = False,
                 track_values: bool = True) -> None:
        self.pool = pool
        self.key_space = key_space
        # LKST inserts go to key+1; queries probe up to key_space top.
        mvsbt_space = (key_space[0], key_space[1] + 1)
        self._lkst = MVSBT(pool, config, key_space=mvsbt_space,
                          start_time=start_time, paged_roots=paged_roots)
        self._lklt = MVSBT(pool, config, key_space=mvsbt_space,
                          start_time=start_time, paged_roots=paged_roots)
        self.track_values = track_values
        self._alive: Dict[int, Tuple[int, float]] = {}
        self.now = start_time

    # -- update API ------------------------------------------------------------------

    def insert(self, key: int, value: float, t: int) -> None:
        """Insert a tuple alive from ``t`` (transaction-time, 1TNF enforced)."""
        self._check_key(key)
        if self.track_values and key in self._alive:
            raise DuplicateKeyError(
                f"key {key} is alive since t={self._alive[key][0]}"
            )
        self._lkst.insert(key + 1, t, complex(value, 1))
        if self.track_values:
            self._alive[key] = (t, value)
        self.now = max(self.now, t)

    def delete(self, key: int, t: int, value: Optional[float] = None) -> float:
        """Logically delete the alive tuple with ``key`` at time ``t``.

        With ``track_values`` the stored value is used; otherwise the caller
        must supply the value the tuple was inserted with.  Returns it.
        """
        self._check_key(key)
        if self.track_values:
            if key not in self._alive:
                raise KeyNotFoundError(f"no alive tuple with key {key}")
            _, value = self._alive.pop(key)
        elif value is None:
            raise KeyNotFoundError(
                "delete needs the tuple value when track_values is off"
            )
        both = complex(value, 1)
        self._lkst.insert(key + 1, t, -both)
        self._lklt.insert(key + 1, t, both)
        self.now = max(self.now, t)
        return value

    def update(self, key: int, value: float, t: int) -> None:
        """Replace the alive tuple's value at ``t`` (delete + insert)."""
        self.delete(key, t)
        self.insert(key, value, t)

    def load(self, events: Iterable[Tuple[str, int, float, int]]) -> None:
        """Replay a stream of ``("insert"|"delete", key, value, t)`` events."""
        for op, key, value, t in events:
            if op == "insert":
                self.insert(key, value, t)
            elif op == "delete":
                self.delete(key, t, value=None if self.track_values else value)
            else:
                raise ValueError(f"unknown event kind {op!r}")

    def alive_count(self) -> int:
        """Number of currently alive tuples (needs ``track_values``)."""
        return len(self._alive)

    # -- query API --------------------------------------------------------------------

    def query(self, key_range: KeyRange, interval: Interval,
              aggregate: Aggregate = SUM) -> Optional[float]:
        """The RTA of one rectangle for one aggregate.

        AVG returns ``None`` on an empty rectangle; SUM and COUNT return 0.
        Cost: one Equation (1) reduction — three pair descents, whichever
        aggregate is asked (Theorem 1 / Corollary 1: ``O(log_b n)`` I/Os).
        """
        field = _field(aggregate)   # a MIN/MAX fails before any descent
        return getattr(self._reduce(key_range, interval), field)

    def sum(self, key_range: KeyRange, interval: Interval) -> float:
        """RTA SUM of the rectangle (Equation 1)."""
        return self._reduce(key_range, interval).sum

    def count(self, key_range: KeyRange, interval: Interval) -> float:
        """RTA COUNT of the rectangle (Equation 1)."""
        return self._reduce(key_range, interval).count

    def avg(self, key_range: KeyRange, interval: Interval) -> Optional[float]:
        """RTA AVG = SUM/COUNT; ``None`` on an empty rectangle."""
        return self._reduce(key_range, interval).avg

    def aggregate_all(self, key_range: KeyRange,
                      interval: Interval) -> RTAResult:
        """SUM, COUNT and AVG of one rectangle in a single result."""
        return self._reduce(key_range, interval)

    def timeline(self, key_range: KeyRange, interval: Interval,
                 buckets: int, aggregate: Aggregate = SUM
                 ) -> list[Tuple[Interval, Optional[float]]]:
        """Time-bucketed rollup: the aggregate per bucket of ``interval``.

        Splits ``interval`` into ``buckets`` near-equal half-open buckets
        and runs one rectangle query per bucket — the report pattern of
        the paper's introduction ("focus the aggregation to any
        time-interval and/or key-range"), at ``O(buckets · log n)`` I/Os.
        Note the buckets partition the *time axis*, not the tuples: a
        tuple spanning a boundary contributes to both buckets (the RTA
        semantics), so SUM over buckets generally exceeds SUM overall.
        """
        if buckets < 1:
            raise QueryError("timeline needs at least one bucket")
        span = interval.length
        if buckets > span:
            raise QueryError(
                f"cannot split {span} instants into {buckets} buckets"
            )
        edges = [
            interval.start + span * i // buckets for i in range(buckets + 1)
        ]
        series: list[Tuple[Interval, Optional[float]]] = []
        for lo, hi in zip(edges, edges[1:]):
            bucket = Interval(lo, hi)
            series.append((bucket, self.query(key_range, bucket, aggregate)))
        return series

    def key_histogram(self, bands: "list[KeyRange]", interval: Interval,
                      aggregate: Aggregate = SUM
                      ) -> list[Tuple[KeyRange, Optional[float]]]:
        """Group-by-key-band rollup: one rectangle query per band."""
        return [
            (band, self.query(band, interval, aggregate)) for band in bands
        ]

    def cumulative(self, key_range: KeyRange, t: int, w: int,
                   aggregate: Aggregate = SUM) -> Optional[float]:
        """Range *cumulative* aggregate: tuples with keys in range whose
        intervals intersect the window ``[t - w, t]`` (instants).

        The paper's section 2.2 needs two scalar SB-trees for cumulative
        aggregates with arbitrary window offset ``w``; with the RTA
        machinery the *range* generalization falls out for free — the
        window is just the rectangle ``key_range x [t - w, t + 1)``.
        """
        if w < 0:
            raise QueryError(f"window offset must be non-negative, got {w}")
        start = max(t - w, 1)
        return self.query(key_range, Interval(start, t + 1), aggregate)

    def _reduce(self, key_range: KeyRange, interval: Interval) -> RTAResult:
        """Equation (1): its six point queries as three same-instant
        pairs, one shared MVSBT descent each.

        Only a rectangle that reaches the open present (ends after the
        clock) consults the trees' point memos.  A closed one reads
        immutable history, whose whole answer the result cache keeps, so
        its probes recur only if another rectangle shares them — too
        rarely to pay for a lookup and a store each.  Traced or not, the
        same choice is made.
        """
        self._validate_rectangle(key_range, interval)
        k1, k2 = key_range.low, key_range.high
        t1, t3 = interval.start, interval.end - 1
        use_memo = interval.end > self.now
        lkst, lklt = self._lkst, self._lklt
        tracer = self.pool.tracer
        if not tracer.enabled:
            return self._equation_one(lkst.query_pair, lklt.query_pair,
                                      k1, k2, t1, t3, use_memo)

        def spanned(tree: MVSBT, label: str):
            def pair(k_hi: int, k_lo: int, t: int,
                     use_memo: bool) -> Tuple[float, float]:
                with tracer.span("rta.pair", tree=label, k_hi=k_hi,
                                 k_lo=k_lo, t=t):
                    return tree.query_pair(k_hi, k_lo, t, use_memo)
            return pair

        with tracer.span("rta.reduce", key_range=str(key_range),
                         interval=str(interval)):
            return self._equation_one(spanned(lkst, "lkst"),
                                      spanned(lklt, "lklt"), k1, k2, t1, t3,
                                      use_memo)

    @staticmethod
    def _equation_one(lkst_pair, lklt_pair, k1: int, k2: int, t1: int,
                      t3: int, use_memo: bool) -> RTAResult:
        """The arithmetic of Equation (1) over two pair-query callables —
        one evaluation order (and hence float rounding), traced or not.
        ``complex`` arithmetic is component-wise, so each half rounds as
        a tree of plain floats would have rounded it."""
        hi, lo = lkst_pair(k2, k1, t3, use_memo)
        result = hi - lo
        dead = lklt_pair(k2, k1, t3, use_memo)
        result += dead[0] - dead[1]
        # A one-instant window asks the same LKLT pair twice.
        hi, lo = dead if t1 == t3 else lklt_pair(k2, k1, t1, use_memo)
        result -= hi - lo
        return RTAResult(sum=result.real, count=result.imag)

    def _validate_rectangle(self, key_range: KeyRange,
                            interval: Interval) -> None:
        if key_range.low < self.key_space[0] \
                or key_range.high > self.key_space[1]:
            raise QueryError(
                f"key range {key_range} outside key space {self.key_space}"
            )
        if interval.start < 1:
            raise QueryError(f"interval {interval} starts before time 1")
        if interval.end > NOW:
            raise QueryError(f"interval {interval} ends after NOW "
                             f"({NOW}), the end of time")

    def _check_key(self, key: int) -> None:
        if not (self.key_space[0] <= key < self.key_space[1]):
            raise QueryError(f"key {key} outside key space {self.key_space}")

    # -- persistence -------------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Checkpoint the whole index (both MVSBTs share one pool, so one
        checkpoint holds every page) plus the alive-tuple table."""
        from repro.storage.checkpoint import write_checkpoint

        meta = {
            "type": "rta-index",
            "key_space": list(self.key_space),
            "now": self.now,
            "track_values": self.track_values,
            "alive": [[key, start, value]
                      for key, (start, value) in sorted(self._alive.items())],
            "lkst": self._lkst.state(),
            "lklt": self._lklt.state(),
        }
        write_checkpoint(self.pool, meta, directory)

    @classmethod
    def load(cls, directory: str, buffer_pages: int = 64) -> "RTAIndex":
        """Reopen an index from a checkpoint written by :meth:`save`."""
        from repro.storage.checkpoint import read_checkpoint

        pool, meta = read_checkpoint(directory, buffer_pages)
        if meta.get("type") != "rta-index":
            raise ValueError(
                f"checkpoint holds a {meta.get('type')!r}, not an RTA index"
            )
        index = cls.__new__(cls)
        index.pool = pool
        index.key_space = tuple(meta["key_space"])
        index.now = meta["now"]
        index.track_values = meta["track_values"]
        index._alive = {
            key: (start, value) for key, start, value in meta["alive"]
        }
        index._lkst = MVSBT.restore(pool, meta["lkst"])
        index._lklt = MVSBT.restore(pool, meta["lklt"])
        return index

    # -- read-path caching --------------------------------------------------------------

    def enable_memo(self, capacity: int = 8192) -> None:
        """Attach a point-query memo to both underlying MVSBTs.

        Equation (1) probes tree boundaries that repeat across overlapping
        query rectangles; the memo answers repeated probes without a
        descent (see :mod:`repro.core.cache` for the staleness argument).
        """
        for tree in self.trees():
            tree.enable_memo(capacity)

    def disable_memo(self) -> None:
        """Detach both trees' memos."""
        for tree in self.trees():
            tree.disable_memo()

    def memo_stats(self) -> Optional[Dict[str, int]]:
        """Summed memo counters of both trees; ``None`` if unmemoized."""
        totals: Optional[Dict[str, int]] = None
        for tree in self.trees():
            if tree.memo is None:
                continue
            stats = tree.memo.stats.as_dict()
            if totals is None:
                totals = dict.fromkeys(stats, 0)
            for name, value in stats.items():
                totals[name] += value
        return totals

    # -- introspection -----------------------------------------------------------------

    def page_count(self) -> int:
        """Total pages of both underlying MVSBTs (Figure 4a space metric)."""
        return sum(tree.page_count() for tree in self.trees())

    def trees(self) -> Tuple[MVSBT, MVSBT]:
        """The ``(LKST, LKLT)`` pair, for inspection and tests."""
        return self._lkst, self._lklt

    def check_invariants(self) -> None:
        """Audit both underlying MVSBTs."""
        for tree in self.trees():
            tree.check_invariants()
