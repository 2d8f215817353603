"""``BENCHMARK.json`` as the one list of metric names, units, directions
and bounds; the code never repeats them."""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from .harness import REPO_ROOT

SPEC: Dict[str, Any] = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END: List[Dict[str, Any]] = SPEC["end_to_end"]
PER_LAYER: List[Dict[str, Any]] = SPEC["per_layer"]
RUN_SECONDS: int = SPEC["run_seconds"]


def render(values: Dict[str, float], metrics: List[Dict[str, Any]]
           ) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly the listed metrics; a
    missing, non-finite or unlisted value is an error, not a gap."""
    unlisted = set(values) - {metric["name"] for metric in metrics}
    if unlisted:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unlisted)}")
    out = {}
    for metric in metrics:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {metric['name']!r} has no finite "
                             f"value: {value!r}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out
