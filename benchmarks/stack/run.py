"""Entry point named by ``BENCHMARK.json``:

    python3 benchmarks/stack/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload and prints one JSON object as the last line of
standard output.  Needs the repository around it (``src/repro``); in a
directory holding only the benchmark it exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/stack: no program to measure — "
                 f"{ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.stack.cli import main_contract

    sys.exit(main_contract())
