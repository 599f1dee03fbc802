"""Set-up probe: in a fresh interpreter, import mmulrv and set up one
workload (its guest builds and first machines), then print the seconds that
took.  Interpreter start-up and exit are not counted.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make(sys.argv[1], int(sys.argv[2]), {}).setup()
    print(time.perf_counter() - START)
