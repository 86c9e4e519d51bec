"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload text-adaptive --seed 0 --seconds 20 --trace 0

Prints JSON metadata, then the JSON result as the last line.  Exits 2,
printing no result, when the padc sources are not beside the benchmark.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "padc", "cli.py")):
        print(f"perfbench: no padc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import harness

    sys.exit(harness.main())
