"""Set-up probe: import lateralvdw and generate a workload's inputs, then exit.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` by run.py,
which times it from process spawn to the CLOCK_MONOTONIC stamp printed here.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lateralvdw  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
