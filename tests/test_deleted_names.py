"""Spellings that were deleted stay deleted.

Each row is a design decision some PR made by removing a second way of
doing something; the spelling coming back (an option, a helper, a mode
string) is how the second way comes back.  One table, checked by tier-1,
in place of a grep step per PR in the CI workflow.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: (the decision, regex, files or directories under the repo root)
DELETED = [
    ("the trees have no batch window of their own",
     r"begin_batch|end_batch|_batch_depth",
     ["src/repro/mvsbt", "src/repro/mvbt"]),
    ("there is no ingest mode: the loader picks the window from the load",
     r'"direct"|"buffered"|--ingest|config\.ingest|LOAD BUFFERED'
     r"|statement\.buffered|intake_limit|pending_limit",
     ["src/repro/core", "src/repro/serve", "src/repro/tql",
      "src/repro/mvsbt/tree.py"]),
    ("the read path has one descent and no level-by-level sweep",
     r"_sweep|_scan_page_many|scan_many",
     ["src/repro"]),
    ("admission takes no lock and no executor",
     r"ThreadPoolExecutor|run_in_executor|asyncio\.Condition|_release_slot",
     ["src/repro/serve/server.py", "src/repro/serve/workers.py"]),
    ("a restore copies no page image out of a whole-file buffer",
     r"raw\[offset",
     ["src/repro/storage/checkpoint.py"]),
    ("a rectangle has one result-cache entry, not one more for all three",
     r"ALL_KEY",
     ["src/repro"]),
    ("SUM and COUNT ride one MVSBT pair: no per-aggregate trees to ask for",
     r"aggregates=",
     ["src/repro/core", "src/repro/serve", "src/repro/bench/harness.py"]),
    ("a file read decodes: no decoded-page cache, the pool parks nothing",
     r"DecodedPageCache|decoded_cache",
     ["src/repro"]),
    ("one load generator, benchmarks/stack's: only percentile stays here",
     r"run_load|slo_summary|hot_rectangles|argparse",
     ["src/repro/serve/loadgen.py"]),
    ("one meter, benchmarks/stack: no BENCH_*.json envelope to read",
     r"repro\.bench\.envelope|BENCH_PR",
     ["src/repro"]),
    ("a read has one path: no batch sweep, no scan group",
     r"aggregate_batch|query_batch|execute_select_batch|scan_batch"
     r"|BatchScanStats|batch_snapshot|read_batch|repro_batchscan",
     ["src/repro"]),
    ("Equation (1) is four point queries: a start tree, no LKST tree",
     r"lkst",
     ["src/repro"]),
]

#: The serving-era benches ``benchmarks/stack`` replaced.
DELETED_BENCHES = ["bench_multicore", "bench_cluster", "bench_mvcc",
                   "bench_batchscan", "bench_read_cache",
                   "bench_telemetry_overhead"]


def sources(where):
    for entry in where:
        path = ROOT / entry
        assert path.exists(), f"{entry} moved: update this table"
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


@pytest.mark.parametrize("decision, pattern, where", DELETED,
                         ids=[row[0] for row in DELETED])
def test_deleted_spelling_stays_deleted(decision, pattern, where):
    found = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in sources(where)
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(pattern, line)]
    assert not found, f"{decision}:\n" + "\n".join(found)


def test_the_point_memo_is_a_flat_table():
    """No recency order: nothing of ``OrderedDict`` inside the class."""
    source = (ROOT / "src/repro/core/cache.py").read_text()
    body = source[source.index("\nclass PointMemo"):]
    body = body[:body.index("\nclass ", 1)]
    assert "def _place" in body        # the slice really is the class
    assert "OrderedDict" not in body


def test_the_serving_era_benches_and_envelopes_stay_deleted():
    benchmarks = ROOT / "benchmarks"
    assert (benchmarks / "stack").is_dir()      # the meter that replaced them
    back = [name for name in DELETED_BENCHES
            if (benchmarks / f"{name}.py").exists()]
    assert not back, back
    assert not sorted((benchmarks / "results").glob("BENCH_*.json"))
