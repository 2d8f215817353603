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
]


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
