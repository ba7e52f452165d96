"""One cold start, as every CLI call pays it: interpreter start, darksteady
import and input generation.  Prints CLOCK_MONOTONIC (system-wide on Linux)
when done; run.py subtracts the reading it took before starting this process.

Usage: python3 coldstart.py <workload> <seed> <input dir>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import darksteady.cli  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.write_inputs(workload, seed, range(workloads.PREGENERATED), directory)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
