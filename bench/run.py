"""gopnet benchmark entry point.

Run from the repository root:

    python3 bench/run.py --workload moons_gop --seed 0 --seconds 30 --trace 0

Workloads are listed in bench/README.md.  BLAS is pinned to one thread
before numpy is imported.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def add_import_paths() -> None:
    """Make gopnet (from src/) and the benchmark modules importable."""
    if not (SRC_DIR / "gopnet" / "__init__.py").is_file():
        sys.exit(f"run.py: no gopnet sources under {SRC_DIR}")
    for path in (str(BENCH_DIR), str(SRC_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    started = time.perf_counter()
    os.environ.update(PINNED_THREADS)  # before numpy is imported
    add_import_paths()
    from harness import main

    sys.exit(main(sys.argv[1:], started))
