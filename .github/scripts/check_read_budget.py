"""Gate the read path's counters, not its clock (CI `stack-smoke`).

Reads the record ``python -m benchmarks.stack run --smoke --out FILE``
wrote and fails unless, in every traced pass, the workloads whose reads
are all SUM/COUNT/AVG never plan and never retrieve: an additive read
is Equation (1) on the MVSBTs and nothing else.  The three numbers are
counts or spans that are exactly zero (or one) when that holds, so the
check means the same on a 2-core runner as on a workstation.  One more
counter rides along: ``ingest_bulk``'s loads must report the pages they
flushed — it reads 0 exactly when a buffer-tree window's closing
write-back falls out of the ``IngestReport`` again.

And one gate on how a read descends: the two halves of an Equation (1)
pair share one MVSBT descent, so the pages a read fetches sit a third
under what solo descents cost.  It was first stated per point query
(``mvsbt.pages_per_probe``: 1.8983 with six solo descents per reduction,
commit 3a84d3b; 1.2131 with three pair descents over the one ``(sum,
count)`` pair; gate 1.55), but the benchmark counts point queries as
memo lookups, and since a closed rectangle skips the memo the
``scan_*`` workloads (all closed) show none.  So it is stated per read:
``storage.buffer.fetches_per_op``, every buffer-pool fetch of the
counted replay over its reads — an exact count in the smoke (``run
--smoke``, seed 1), on ``scan_thread`` and ``scan_process`` alike.  The
threshold is 1.55 pages a point query times the stream's point queries
per read.  With Equation (1) as four point queries in two pairs (an
(LKS, LKLT) tree pair) that is 5.55 a read, so 1.55 x 5.55 = 8.6; the
smoke reads 6.5333.  The six-query form of the same stream (three
pairs, 8.32 point queries a read, commit 6a5bee3) reads 10.0933 and
fails it, and so does a read path that falls back to solo descents,
traced or not.

And one gate on the point memo, on the only workload where it hits:
``htap_mixed``'s ``core.cache.memo_hit_rate`` (memo hits over point
queries in the counted replay — single-threaded, so an exact count) was
0.3322 with four trees' memos (commit 23319b8; the LRU memo of 3d0bdb4
read the same), 0.3676 with two (fewer probes reach a memo at all:
5.6 a read against 7.5, the result cache answering an AVG from the entry
its SUM stored), and is 0.4288 with only open-present rectangles
consulting it (4.8 probes a read: the closed rectangles' probes, which
rarely hit, no longer count).  With an (LKS, LKLT) pair it is 0.5286:
a delete feeds LKLT alone, so the start tree's open-present probes stay
valid across it.  A table that lets the hot probes evict
each other (the direct-mapped form did), or a memo that closed
rectangles consult again, falls through the floor.  ``htap_mixed`` is checked for this one name only: its reads
retrieve nothing either, but its traced pass also carries the write
tail.

And one on the write side, an exact count of the counted replay:
``ingest_bulk``'s ``mvsbt.inserts_per_event`` — MVSBT insertions per
loaded event — was 2.988 with a tree pair per aggregate (an insert event
into two trees, a delete into four; commit 23319b8), 1.494 with SUM and
COUNT in one record (one and two; commit 6a5bee3), and is exactly 1
with a start tree: an insert feeds LKS, a delete LKLT.  Anything else
means an event feeds a second tree again.

And one on where a read runs, from the server's own phase histogram
(``serve.server.queue_us_per_op``: time from asking for an admission
slot to holding one, summed over the driven window's requests, per op).  On the thread
backend every SUM/COUNT/AVG is answered in the event loop's read lane
and never asks for a slot, so the sum is exactly 0 on ``scan_thread``
and ``dash_hot`` (one worker-path read would make it positive: taking
a free slot is still timed); on ``scan_process`` the worker path runs
and it is positive.  Smoke values (µs per op, ``scan_thread`` /
``dash_hot`` / ``scan_process``): 1.057 / 0.0227 / 1.150 with every read
handed to a worker thread (commit da49eae), 0 / 0 / 1.159 with the loop
lane.

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
#: Fetches per read with pairs sharing their descent (see above).
PAIRED = ("scan_thread", "scan_process")
MAX_FETCHES_PER_READ = 8.6      # 1.55 pages a probe x 5.55 probes a read
#: ``htap_mixed``: the memo's hit rate over one tree pair, open-present
#: rectangles only, less 0.01.
MIN_HTAP_MEMO_HIT_RATE = 0.5286 - 0.01
#: ``ingest_bulk``: MVSBT insertions per loaded event (see above).
INSERTS_PER_EVENT = 1.0
#: ``serve.server.queue_us_per_op``: 0 where every read takes the loop
#: lane, positive where the worker path serves them (see above).
LOOP_LANE = ("scan_thread", "dash_hot")
WORKER_PATH = ("scan_process",)
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
        for workload in PAIRED:
            fetches = one_pass["workloads"][workload]["per_layer"][
                "metrics"]["storage.buffer.fetches_per_op"]["value"]
            if not 0 < fetches < MAX_FETCHES_PER_READ:
                failures.append(f"pass {number} {workload}: storage.buffer."
                                f"fetches_per_op = {fetches}, expected "
                                f"under {MAX_FETCHES_PER_READ}")
        for workload in LOOP_LANE + WORKER_PATH:
            queued = one_pass["workloads"][workload]["per_layer"][
                "metrics"]["serve.server.queue_us_per_op"]["value"]
            if (queued == 0) != (workload in LOOP_LANE):
                failures.append(f"pass {number} {workload}: serve.server."
                                f"queue_us_per_op = {queued}, expected "
                                + ("0" if workload in LOOP_LANE else "> 0"))
        memo = one_pass["workloads"]["htap_mixed"]["per_layer"]["metrics"][
            "core.cache.memo_hit_rate"]["value"]
        if memo < MIN_HTAP_MEMO_HIT_RATE:
            failures.append(f"pass {number} htap_mixed: core.cache."
                            f"memo_hit_rate = {memo}, expected at least "
                            f"{MIN_HTAP_MEMO_HIT_RATE:.4f}")
        ingest = one_pass["workloads"]["ingest_bulk"]["per_layer"]["metrics"]
        flushed = ingest["core.ingest.flushed_pages_per_kevent"]["value"]
        if not flushed > 0:
            failures.append(f"pass {number} ingest_bulk: core.ingest."
                            f"flushed_pages_per_kevent = {flushed}, "
                            f"expected > 0")
        inserts = ingest["mvsbt.inserts_per_event"]["value"]
        if inserts != INSERTS_PER_EVENT:
            failures.append(f"pass {number} ingest_bulk: mvsbt."
                            f"inserts_per_event = {inserts}, expected "
                            f"{INSERTS_PER_EVENT}")
    for line in failures:
        print(line, file=sys.stderr)
    print(f"read budget: {len(passes)} pass(es), {len(WORKLOADS)} workloads, "
          f"where reads wait, htap_mixed's memo and ingest_bulk's "
          f"inserts, "
          f"{len(failures)} violation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
