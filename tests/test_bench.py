"""The benchmark's tracer self-test, run as part of the test suite.

The tracer in bench/ patches pbident callables by attribute name and pins
their per-step call counts, so renaming or restructuring a traced attribute
fails here instead of only under `bench/run.py --trace 1`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
