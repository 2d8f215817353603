"""Gate the read path's counters, not its clock (CI `cache-smoke`).

Reads the record ``python -m benchmarks.stack run --smoke --out FILE``
wrote and fails unless, in every traced pass, the workloads whose reads
are all SUM/COUNT/AVG never plan and never retrieve: an additive read
is Equation (1) on the MVSBTs and nothing else.  The three numbers are
counts or spans that are exactly zero (or one) when that holds, so the
check means the same on a 2-core runner as on a workstation.  One more
counter rides along: ``ingest_bulk``'s loads must report the pages they
flushed — it reads 0 exactly when a buffer-tree window's closing
write-back falls out of the ``IngestReport`` again.

    python .github/scripts/check_read_budget.py /tmp/stack-smoke.json
"""

import json
import sys

WORKLOADS = ("scan_thread", "scan_process", "dash_hot", "ingest_bulk")
EXPECTED = {
    "mvbt.calls_per_op": 0,               # no MVBT retrieval
    "core.warehouse.plan_us_per_op": 0,   # no explain() on the read path
    "core.warehouse.plan_mvsbt_frac": 1,  # EXPLAIN agrees: always mvsbt
}
#: The traced pass of ``ingest_bulk`` records the load (its op is an
#: ingested event: one ``MVBT.insert`` each), so this says nothing
#: about its reads.
NOT_ABOUT_READS = {("ingest_bulk", "mvbt.calls_per_op")}


def main() -> int:
    with open(sys.argv[1]) as handle:
        passes = json.load(handle)["passes"]
    failures = []
    for number, one_pass in enumerate(passes, 1):
        for workload in WORKLOADS:
            metrics = one_pass["workloads"][workload]["per_layer"]["metrics"]
            for name, want in EXPECTED.items():
                got = metrics[name]["value"]
                if got != want and (workload, name) not in NOT_ABOUT_READS:
                    failures.append(f"pass {number} {workload}: "
                                    f"{name} = {got}, expected {want}")
        flushed = one_pass["workloads"]["ingest_bulk"]["per_layer"][
            "metrics"]["core.ingest.flushed_pages_per_kevent"]["value"]
        if not flushed > 0:
            failures.append(f"pass {number} ingest_bulk: core.ingest."
                            f"flushed_pages_per_kevent = {flushed}, "
                            f"expected > 0")
    for line in failures:
        print(line, file=sys.stderr)
    print(f"read budget: {len(passes)} pass(es), {len(WORKLOADS)} workloads, "
          f"{len(failures)} violation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
