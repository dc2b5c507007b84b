"""Time pbident's set-up for one workload in a fresh interpreter.

Set-up is importing the package and building the workload's scenario and
configuration, up to the first `run` or `cli.main` call.  Prints the
seconds on stdout.

    python3 bench/setup_probe.py <checkout root> <workload> <seed>
"""

import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    workloads.build(name, seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
