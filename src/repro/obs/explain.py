"""EXPLAIN: run a query under a tracer and render the span tree as a plan.

``explain_query(warehouse, key_range, interval, aggregate)`` produces an
:class:`ExplainReport` — the :class:`~repro.core.warehouse.QueryPlan`
the read path runs, the executed result, and the full span tree with
per-node I/O and CPU.  :func:`render_span_tree` turns any span into the
indented ASCII form the TQL shell prints for ``EXPLAIN SELECT ...``::

    explain aggregate=SUM                       [ios=9 reads=9 ... ]
      plan choice=mvsbt                         [ios=4 ...]
        rta.pair tree=lks k_hi=900 k_lo=100 t=699    ...
          mvsbt.query_pair k_hi=900 k_lo=100 t=699
            mvsbt.page page=12 probes=2 level=1 kind=index
              buffer.miss page=12
              disk.read page=12
            mvsbt.page page=31 probes=1 level=0 kind=leaf

Each node shows the I/O delta accumulated *while it was open* (inclusive
of children) and its CPU; leaf ``mvsbt.page`` spans (``probes`` = how many
of the pair's two point queries the visit served) therefore sum exactly
to the query's ``IOStats.total_ios``, the property the paper's entire
evaluation rests on and the acceptance test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional

from repro.obs.attach import traced
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aggregates import Aggregate
    from repro.core.model import Interval, KeyRange
    from repro.core.warehouse import QueryPlan, TemporalWarehouse


def _format_attrs(span: Span) -> str:
    return " ".join(f"{key}={value}" for key, value in span.attrs.items())


def _format_cost(span: Span) -> str:
    io = span.io
    parts = [f"ios={io.total_ios}", f"reads={io.reads}"]
    if io.writes:
        parts.append(f"writes={io.writes}")
    parts.append(f"logical={io.logical_reads}")
    parts.append(f"cpu={span.cpu_s * 1e3:.3f}ms")
    return "[" + " ".join(parts) + "]"


def render_span_tree(span: Span, indent: int = 0,
                     show_events: bool = True) -> str:
    """Indented ASCII rendering of a span tree with per-node I/O and CPU.

    Events (zero-duration spans with no I/O snapshot) render without the
    cost suffix; pass ``show_events=False`` to drop them entirely.
    """
    pad = "  " * indent
    head = span.name if not span.attrs else f"{span.name} {_format_attrs(span)}"
    is_event = span.cpu_s == 0.0 and not span.children \
        and not span.io_by_source
    line = f"{pad}{head}" if is_event else f"{pad}{head}  {_format_cost(span)}"
    lines: List[str] = [line]
    for child in span.children:
        child_is_event = child.cpu_s == 0.0 and not child.children \
            and not child.io_by_source
        if child_is_event and not show_events:
            continue
        lines.append(render_span_tree(child, indent + 1, show_events))
    return "\n".join(lines)


@dataclass
class ExplainReport:
    """Everything EXPLAIN learned about one query.

    ``plan`` is the plan the read path runs, with its cost estimates;
    ``result`` the value the executed plan produced, and ``root`` the
    span tree of the whole operation (the estimates' own reduction
    included).  ``str()`` renders the ASCII plan.
    """

    plan: "QueryPlan"
    result: Any
    root: Span
    tracer: Tracer
    #: Per-query cache outcome when the warehouse has read-path caching
    #: attached: result-cache probe (``hit``/``miss``), the memo's hit
    #: delta for this query, and the buffer-pool hit rate derived from
    #: the span tree's logical-vs-physical read counts.
    cache: Optional[dict] = None

    def render(self, show_events: bool = True) -> str:
        """The plan header plus the indented span tree."""
        header = [
            f"plan: {self.plan}",
            f"result: {self.result}",
            f"total: ios={self.root.total_ios} "
            f"reads={self.root.io.reads} writes={self.root.io.writes} "
            f"logical={self.root.io.logical_reads} "
            f"cpu={self.root.cpu_s * 1e3:.3f}ms",
        ]
        if self.cache is not None:
            bits = []
            for name, value in self.cache.items():
                if name.endswith("_rate"):
                    value = "n/a" if value is None else f"{value * 100:.1f}%"
                bits.append(f"{name}={value}")
            header.append("cache: " + " ".join(bits))
        return "\n".join(header) + "\n" + render_span_tree(
            self.root, show_events=show_events)

    def __str__(self) -> str:
        return self.render()


def explain_query(warehouse: "TemporalWarehouse",
                  key_range: "KeyRange", interval: "Interval",
                  aggregate: Optional["Aggregate"] = None) -> ExplainReport:
    """Explain, trace, and execute one aggregate query against ``warehouse``.

    A fresh tracer is attached for the duration (previous wiring is
    restored), ``warehouse.explain`` runs inside a ``plan`` span (the
    reduction behind its estimates is visible there, and is EXPLAIN's
    cost alone: the read path never pays it — the same rectangle on the
    same tree pair, so it also takes the cold reads from ``execute``),
    and the plan executes inside an ``execute`` span via
    :meth:`~repro.core.warehouse.TemporalWarehouse.run_plan`.
    """
    from repro.core.aggregates import SUM

    aggregate = aggregate if aggregate is not None else SUM
    probe = getattr(warehouse, "cache_probe", None)
    outcome = probe(key_range, interval, aggregate) if probe else None
    before = warehouse.cache_snapshot() if outcome is not None else None
    with traced(warehouse) as tracer:
        with tracer.span("explain", aggregate=aggregate.name,
                         key_range=str(key_range),
                         interval=str(interval)) as root:
            with tracer.span("plan"):
                plan = warehouse.explain(key_range, interval, aggregate)
            tracer.current.attrs["choice"] = plan.plan
            if outcome is not None:
                root.attrs["cache"] = outcome
            with tracer.span("execute", plan=plan.plan):
                result = warehouse.run_plan(plan.plan, key_range, interval,
                                            aggregate)
    cache_info = None
    if outcome is not None:
        after = warehouse.cache_snapshot()
        logical = root.io.logical_reads
        cache_info = {
            "result": outcome,
            "memo_hits": (after.memo.get("hits", 0)
                          - before.memo.get("hits", 0)),
            "buffer_hit_rate": ((logical - root.io.reads) / logical
                                if logical else None),
        }
    return ExplainReport(plan=plan, result=result, root=root, tracer=tracer,
                         cache=cache_info)
