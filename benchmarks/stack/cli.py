"""Command lines.

``run.py --workload W --seed N --seconds S --trace 0|1`` is the form
``BENCHMARK.json`` names: one workload, one JSON object on the last
line.  ``python -m benchmarks.stack run|compare|noise`` is for people:
a full pass over the five workloads (traced runs included) written to
one record file, a comparison of two such files against each metric's
bound, and the run-to-run spread of one commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare, layers, runner, spec
from .harness import (REPO_ROOT, adopt_orphans, pin_to_one_cpu, reap_all,
                      work_root)
from .workloads import FULL, SMOKE, WORKLOADS

SMOKE_SECONDS = 2.0


def _totals(phases: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    return {key: sum(row[key] for row in phases.values())
            for key in ("attempted", "failed")}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, spans_dir: Optional[Path] = None
            ) -> Dict[str, Any]:
    """One workload, traced or not: the contract's result object plus
    the raw record behind it."""
    scale = SMOKE if smoke else FULL
    if trace:
        spans = spans_dir or work_root()
        spans.mkdir(parents=True, exist_ok=True)
        record = layers.run_per_layer(workload, seed, seconds, scale,
                                      spans / f"spans-{workload}.jsonl")
        metrics = spec.render(record["per_layer"], spec.PER_LAYER)
    else:
        record = runner.run_end_to_end(workload, seed, seconds, scale)
        metrics = spec.render(record["end_to_end"], spec.END_TO_END)
    totals = _totals(record["phases"])
    return {"correct": totals["failed"] == 0, **totals, "metrics": metrics,
            "record": record}


def main_contract(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/stack/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="dataset / 10 (see `run --smoke`)")
    parser.add_argument("--spans-dir", type=Path,
                        help="where a traced run writes its span file")
    parser.add_argument("--record", type=Path,
                        help="also write the result with its raw record")
    args = parser.parse_args(argv)
    # Whatever way out this takes (result, exception, SIGTERM from a
    # caller that gave up), no process it started outlives it.
    adopt_orphans()
    pin_to_one_cpu()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, args.spans_dir)
    finally:
        reap_all()
    if args.record:
        args.record.write_text(json.dumps(result))
    del result["record"]
    print(json.dumps(result))
    return 0


def run_isolated(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spans_dir: Optional[Path]) -> Dict[str, Any]:
    """:func:`run_one` in a process of its own, the way the driver runs
    it: peak memory, the garbage collector and the import state of one
    workload must not leak into the next one's numbers."""
    record = work_root() / f"record-{os.getpid()}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--record", str(record)]
    if smoke:
        command.append("--smoke")
    if spans_dir is not None:
        command += ["--spans-dir", str(spans_dir)]
    try:
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        return json.loads(record.read_text())
    finally:
        record.unlink(missing_ok=True)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_pass(seed: int, seconds: float, smoke: bool, trace: bool,
             spans_dir: Optional[Path]) -> Dict[str, Any]:
    """Every workload once, untraced and (if asked) traced."""
    started = time.perf_counter()
    rows: Dict[str, Any] = {}
    for workload in WORKLOADS:
        row = {"end_to_end": run_isolated(workload, seed, seconds, False,
                                          smoke, None)}
        if trace:
            row["per_layer"] = run_isolated(workload, seed, seconds, True,
                                            smoke, spans_dir)
        rows[workload] = row
    return {"seed": seed, "wall_s": time.perf_counter() - started,
            "workloads": rows}


def envelope(passes: List[Dict[str, Any]], seconds: float, smoke: bool
             ) -> Dict[str, Any]:
    return {"schema": "benchmarks.stack/1", "commit": _commit(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "seconds": seconds, "smoke": smoke, "passes": passes}


def print_pass(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, one workload per block."""
    for workload, row in result["workloads"].items():
        for kind, block in row.items():
            print(f"[{workload}] {kind}: correct={block['correct']} "
                  f"attempted={block['attempted']} failed={block['failed']}")
            for name, metric in block["metrics"].items():
                print(f"  {name:<46}{metric['value']:>16.6g} "
                      f"{metric['unit']}")
            for flag in block["record"].get("flags", ()):
                print(f"  ! {flag}")


def _cmd_run(args: argparse.Namespace) -> int:
    seconds = SMOKE_SECONDS if args.smoke else float(spec.RUN_SECONDS)
    out = Path(args.out)
    passes = [one_pass(args.seed, seconds, args.smoke, True,
                       out.parent / (out.stem + "-spans"))
              for _ in range(args.passes)]
    for result in passes:
        print_pass(result)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(envelope(passes, seconds, args.smoke),
                              indent=1))
    failed = sum(block["failed"] for p in passes
                 for row in p["workloads"].values()
                 for block in row.values())
    print(f"wrote {out} ({sum(p['wall_s'] for p in passes):.0f} s, "
          f"{failed} failed ops)")
    return 1 if failed else 0


def _cmd_noise(args: argparse.Namespace) -> int:
    seconds = float(spec.RUN_SECONDS)
    passes = [one_pass(args.seed + (i if args.vary_seed else 0), seconds,
                       False, False, None) for i in range(args.runs)]
    if args.out:
        Path(args.out).write_text(
            json.dumps(envelope(passes, seconds, False), indent=1))
    return compare.print_noise(passes)


def _cmd_compare(args: argparse.Namespace) -> int:
    return compare.print_compare(json.loads(Path(args.a).read_text()),
                                 json.loads(Path(args.b).read_text()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.stack")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="all five workloads, untraced and traced")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", required=True)
    run.add_argument("--passes", type=int, default=1)
    run.add_argument("--smoke", action="store_true",
                     help="dataset / 10 and 2 s windows: checks the "
                          "schema, every metric and the oracle, not speed")
    run.set_defaults(handler=_cmd_run)
    noise = commands.add_parser(
        "noise", help="spread of N untraced passes beside each bound")
    noise.add_argument("--runs", type=int, default=4)
    noise.add_argument("--seed", type=int, default=1)
    noise.add_argument("--vary-seed", action="store_true",
                       help="pass i uses seed + i, as the driver does")
    noise.add_argument("--out")
    noise.set_defaults(handler=_cmd_noise)
    cmp_ = commands.add_parser(
        "compare", help="B against A: better / same / worse / unresolved")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(handler=_cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)
