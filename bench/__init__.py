"""The repo benchmark: four closed-loop workloads over ``repro``, timed from
outside the program, plus a traced serial replay that attributes the time to
the repo's layers.  See ``bench/README.md``; ``BENCHMARK.json`` at the repo
root declares the command, the workloads and every metric.

The harness measures the checkout it sits in: ``<checkout>/src`` goes first
on ``sys.path`` so an installed ``repro`` can never be timed by mistake.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
