"""ANALYZE for the temporal indexes: structural statistics and reports.

``describe(index)`` walks any index of this library and returns a plain
nested dict — page counts by level, record liveness, fill factors, version
counts, operation counters — the numbers one reads before tuning ``b``,
``f`` or the buffer size.  ``render_report`` pretty-prints it.

Supported: :class:`~repro.mvsbt.tree.MVSBT`, :class:`~repro.mvbt.tree.MVBT`,
:class:`~repro.sbtree.tree.SBTree` (and subclasses),
:class:`~repro.core.rta.RTAIndex`,
:class:`~repro.core.warehouse.TemporalWarehouse`.

The module is also a small CLI over trace files and live servers::

    python -m repro.analyze traces out.jsonl --top 10   # hottest spans
    python -m repro.analyze schema                       # print the schema
    python -m repro.analyze schema --check docs/trace_schema.json
    python -m repro.analyze slowlog --port 7654          # slow-query ring

``traces`` ranks the spans of a ``--trace`` JSONL file (bench phases or
EXPLAIN span trees alike) by physical I/O and by CPU; ``schema --check``
fails when a checked-in schema copy drifts from the one the code
enforces; ``slowlog`` pulls a live server's slow-query ring (the
``slowlog`` protocol op) and tabulates the entries, newest first.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional

from repro.core.rta import RTAIndex
from repro.core.warehouse import TemporalWarehouse
from repro.mvbt.tree import MVBT
from repro.mvsbt.tree import MVSBT
from repro.sbtree.tree import SBTree
from repro.sbtree.node import is_leaf as sbtree_is_leaf


def describe(index: Any) -> Dict[str, Any]:
    """Structural statistics for any index in the library."""
    if isinstance(index, MVSBT):
        return _describe_mvsbt(index)
    if isinstance(index, MVBT):
        return _describe_mvbt(index)
    if isinstance(index, SBTree):
        return _describe_sbtree(index)
    if isinstance(index, RTAIndex):
        return _describe_rta(index)
    if isinstance(index, TemporalWarehouse):
        return {
            "type": "temporal-warehouse",
            "tuples": _describe_mvbt(index.tuples),
            "aggregates": _describe_rta(index.aggregates),
        }
    raise TypeError(f"describe() does not support {type(index).__name__}")


def _page_walk(index) -> Dict[str, Any]:
    """Shared per-page accounting for the multiversion structures."""
    pages = 0
    records = 0
    alive = 0
    by_level: Dict[int, int] = {}
    fill_total = 0.0
    for page_id in index.page_ids():
        page = index.pool.fetch(page_id)
        pages += 1
        # Columnar pages (buffered MVSBT ingest) are described without
        # being converted back to object records.
        recs = page.records if page.records is not None \
            else page.cache.to_records()
        records += len(recs)
        alive += sum(1 for rec in recs if rec.alive)
        level = page.meta.get("level", 0)
        by_level[level] = by_level.get(level, 0) + 1
        fill_total += len(recs) / page.capacity
    return {
        "pages": pages,
        "records": records,
        "alive_records": alive,
        "dead_records": records - alive,
        "pages_by_level": dict(sorted(by_level.items())),
        "avg_fill": round(fill_total / pages, 4) if pages else 0.0,
    }


def _describe_mvsbt(tree: MVSBT) -> Dict[str, Any]:
    report = {
        "type": "mvsbt",
        "capacity": tree.config.capacity,
        "strong_factor": tree.config.strong_factor,
        "height": tree.height(),
        "roots": len(tree.roots),
        "now": tree.now,
        "counters": asdict(tree.counters),
    }
    report.update(_page_walk(tree))
    return report


def _describe_mvbt(tree: MVBT) -> Dict[str, Any]:
    report = {
        "type": "mvbt",
        "capacity": tree.config.capacity,
        "weak_min": tree.config.weak_min,
        "roots": len(tree.roots),
        "now": tree.now,
        "counters": asdict(tree.counters),
    }
    report.update(_page_walk(tree))
    return report


def _describe_sbtree(tree: SBTree) -> Dict[str, Any]:
    pages = 0
    records = 0
    leaf_records = 0
    fill_total = 0.0
    for page_id in tree._all_page_ids():
        page = tree.pool.fetch(page_id)
        pages += 1
        records += len(page.records)
        if sbtree_is_leaf(page):
            leaf_records += len(page.records)
        fill_total += len(page.records) / page.capacity
    return {
        "type": "sbtree",
        "capacity": tree.capacity,
        "height": tree.height,
        "insertions": tree.insertions,
        "pages": pages,
        "records": records,
        "leaf_records": leaf_records,
        "avg_fill": round(fill_total / pages, 4) if pages else 0.0,
    }


def _describe_rta(index: RTAIndex) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "type": "rta-index",
        "alive_tuples": index.alive_count() if index.track_values else None,
    }
    lkst, lklt = (_describe_mvsbt(tree) for tree in index.trees())
    report["trees"] = {"lkst": lkst, "lklt": lklt}
    report["pages"] = lkst["pages"] + lklt["pages"]
    return report


def render_report(report: Dict[str, Any], indent: int = 0) -> str:
    """Readable text rendering of a :func:`describe` report."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_report(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


# -- trace-file CLI ----------------------------------------------------------------


def _attr_summary(record: Dict[str, Any], width: int = 48) -> str:
    """Compact ``k=v`` rendering of a record's attrs for a table cell."""
    attrs = record.get("attrs") or {}
    text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    if len(text) > width:
        text = text[:width - 1] + "…"
    return text


def top_spans_table(records: Iterable[Dict[str, Any]], by: str,
                    top: int = 10) -> "Table":
    """Rank every span (children included) by ``"ios"`` or ``"cpu"``.

    Returns a :class:`~repro.bench.reporting.Table` of the ``top`` most
    expensive spans: physical I/O split into reads/writes, logical hits,
    and CPU milliseconds, with the span's attrs as the last column.
    """
    from repro.bench.reporting import Table
    from repro.obs.tracefile import iter_records

    if by not in ("ios", "cpu"):
        raise ValueError(f"rank spans by 'ios' or 'cpu', not {by!r}")
    flat = list(iter_records(records))

    def cost(record: Dict[str, Any]) -> float:
        if by == "ios":
            return record["reads"] + record["writes"]
        return record["cpu_s"]

    flat.sort(key=cost, reverse=True)
    table = Table(
        title=f"top {top} spans by {'physical I/O' if by == 'ios' else 'CPU'}",
        columns=("span", "ios", "reads", "writes", "logical", "cpu_ms",
                 "attrs"),
    )
    for record in flat[:top]:
        table.add(span=record["name"],
                  ios=record["reads"] + record["writes"],
                  reads=record["reads"], writes=record["writes"],
                  logical=record["logical_reads"],
                  cpu_ms=record["cpu_s"] * 1000.0,
                  attrs=_attr_summary(record))
    return table


def _cmd_traces(path: str, top: int) -> int:
    """The ``traces`` subcommand: print both top-k rankings for a file."""
    from repro.obs.tracefile import read_trace

    records = read_trace(path)
    print(f"{path}: {len(records)} top-level records")
    print()
    print(top_spans_table(records, by="ios", top=top).render())
    print(top_spans_table(records, by="cpu", top=top).render())
    return 0


def _cmd_schema(check: Optional[str]) -> int:
    """The ``schema`` subcommand: print, or diff against a checked-in copy."""
    from repro.obs.tracefile import TRACE_RECORD_SCHEMA

    if check is None:
        print(json.dumps(TRACE_RECORD_SCHEMA, indent=2, sort_keys=True))
        return 0
    with open(check) as fh:
        on_disk = json.load(fh)
    if on_disk == TRACE_RECORD_SCHEMA:
        print(f"{check}: matches the enforced trace-record schema")
        return 0
    print(f"{check}: DRIFT — does not match repro.obs.tracefile."
          f"TRACE_RECORD_SCHEMA", file=sys.stderr)
    print("regenerate with: python -m repro.analyze schema > " + check,
          file=sys.stderr)
    return 1


def _clip(text: str, width: int) -> str:
    """Truncate ``text`` to ``width`` with an ellipsis marker."""
    if len(text) > width:
        return text[:width - 1] + "…"
    return text


def _explain_cell(explain: Any) -> str:
    """One-word rendering of a slowlog entry's captured EXPLAIN."""
    if explain is None:
        return "-"
    if isinstance(explain, dict) and "error" in explain:
        code = (explain["error"] or {}).get("code", "?")
        return f"error[{code}]"
    if isinstance(explain, list):
        return f"{len(explain)} shard(s)"
    return "?"


def slowlog_table(entries: Iterable[Dict[str, Any]], total: int) -> "Table":
    """Tabulate ``slowlog`` op entries (newest first)."""
    from repro.bench.reporting import Table

    entries = list(entries)
    table = Table(
        title=f"slow-query log ({len(entries)} shown of {total} total)",
        columns=("request", "op", "status", "ms", "queue_ms", "exec_ms",
                 "trace", "explain", "tql"),
    )
    for entry in entries:
        trace_id = entry.get("trace_id")
        table.add(request=entry.get("request_id", "?"),
                  op=entry.get("op", "?"),
                  status=entry.get("status", "?"),
                  ms=round(entry.get("elapsed_ms", 0.0), 2),
                  queue_ms=round(entry.get("queue_ms", 0.0), 2),
                  exec_ms=round(entry.get("exec_ms", 0.0), 2),
                  trace=(trace_id[:8] if trace_id else "-"),
                  explain=_explain_cell(entry.get("explain")),
                  tql=_clip(entry.get("tql") or "-", 40))
    return table


def _cmd_slowlog(host: str, port: int, limit: Optional[int]) -> int:
    """The ``slowlog`` subcommand: pull and print a live server's ring."""
    from repro.serve.client import Client

    with Client(host, port) as client:
        payload = client.slowlog(limit=limit)
    entries = payload.get("entries", [])
    total = payload.get("total", len(entries))
    if not entries:
        print(f"{host}:{port}: slow-query log is empty "
              f"({total} slow requests ever recorded)")
        return 0
    print(slowlog_table(entries, total).render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.analyze``); returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Inspect trace files emitted by the observability layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    traces = sub.add_parser("traces",
                            help="rank spans of a JSONL trace by I/O and CPU")
    traces.add_argument("file", help="a --trace JSONL file")
    traces.add_argument("--top", type=int, default=10,
                        help="rows per ranking (default 10)")
    schema = sub.add_parser("schema",
                            help="print or check the trace-record schema")
    schema.add_argument("--check", default=None, metavar="FILE",
                        help="compare FILE against the enforced schema")
    slowlog = sub.add_parser("slowlog",
                             help="tabulate a live server's slow-query "
                                  "ring (the slowlog protocol op)")
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=7654)
    slowlog.add_argument("--limit", type=int, default=None,
                         help="cap on entries returned (newest first)")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "traces":
        return _cmd_traces(args.file, args.top)
    if args.command == "slowlog":
        return _cmd_slowlog(args.host, args.port, args.limit)
    return _cmd_schema(args.check)


if __name__ == "__main__":
    raise SystemExit(main())
