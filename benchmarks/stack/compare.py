"""Bounds applied: ``compare`` of two record files, ``noise`` of one.

A row is one end-to-end metric on one workload.  With ``a`` the
baseline's values and ``b`` the candidate's (one per pass):

* **unresolved** — either side's own run-to-run range is wider than
  the bound, so a difference that size proves nothing — unless every
  run of one side reads better than every run of the other;
* **worse** — ``b``'s median is worse than ``a``'s by more than the
  metric's bound;
* **better** — ``b``'s median is better by more than the bound;
* **same** — otherwise.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from . import spec


def _values(envelope_passes: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    return [p["workloads"][workload]["end_to_end"]["metrics"][metric]["value"]
            for p in envelope_passes if workload in p["workloads"]]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as the driver takes it;
    the plain range when there are too few values for quartiles."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    separated = (min(sign * v for v in b) > max(sign * v for v in a)
                 or min(sign * v for v in a) > max(sign * v for v in b))
    noisy = any(len(side) > 1 and med
                and (max(side) - min(side)) / abs(med) > bound
                for side, med in ((a, med_a), (b, med_b)))
    if noisy and not separated:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def print_compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    """Every (workload, metric) row of ``b`` against ``a``; exit status
    1 if any row is worse (or a pass recorded failed ops)."""
    worse = 0
    print(f"baseline {a['commit'][:12]} ({len(a['passes'])} passes)  "
          f"candidate {b['commit'][:12]} ({len(b['passes'])} passes)")
    for workload in a["passes"][0]["workloads"]:
        for metric in spec.END_TO_END:
            name = metric["name"]
            va = _values(a["passes"], workload, name)
            vb = _values(b["passes"], workload, name)
            if not va or not vb:
                continue
            row = verdict(va, vb, metric["better"], metric["bound"])
            worse += row == "worse"
            print(f"{workload:<13}{name:<18}"
                  f"{statistics.median(va):>12.5g} -> "
                  f"{statistics.median(vb):>12.5g} {metric['unit']:<5}"
                  f"bound {metric['bound']:<5} {row}")
    failed = sum(block["failed"] for env in (a, b) for p in env["passes"]
                 for row in p["workloads"].values()
                 for block in row.values())
    if failed:
        print(f"{failed} failed ops recorded")
    return 1 if worse or failed else 0


def print_noise(passes: Sequence[Dict[str, Any]]) -> int:
    """Each metric's spread over the passes beside its bound; exit
    status 1 if any spread exceeds its bound."""
    over = 0
    for workload in passes[0]["workloads"]:
        for metric in spec.END_TO_END:
            values = _values(passes, workload, metric["name"])
            share = spread(values)
            flag = ""
            if metric["name"] != "setup_s" and share > metric["bound"]:
                flag, over = "  OVER BOUND", over + 1
            print(f"{workload:<13}{metric['name']:<18}"
                  f"median {statistics.median(values):>12.5g} "
                  f"{metric['unit']:<5}spread {share:6.3f}  "
                  f"bound {metric['bound']:<5}{flag}")
    return 1 if over else 0
