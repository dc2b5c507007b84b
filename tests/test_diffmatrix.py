"""The differential matrix tool, the call counter, and runs that must not
depend on the BLAS.

tools/diffmatrix.py runs cases in subprocesses, one per checkout; here it
runs a slice of its matrix against this checkout itself, and runs the
pinned aborts and a short circuit run under OpenBLAS core types other than
the one the host would pick.  tools/calls.py runs in a subprocess too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "diffmatrix.py"


@pytest.fixture(scope="module")
def diffmatrix():
    spec = importlib.util.spec_from_file_location("diffmatrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diffmatrix_slice_against_this_checkout(diffmatrix):
    ids = ("circuit/gplusd_pbep/adaptive", "ph/gradient_pbep_overparam/adaptive",
           "extra/ph-gradient_std-overparam", "cli/run-ph")
    cases = [c for c in diffmatrix.matrix_cases() if c[0] in ids]
    assert len(cases) == 4
    new = diffmatrix.collect(ROOT, cases)
    table, changed = diffmatrix.compare(new, diffmatrix.collect(ROOT, cases))
    assert changed == set()
    assert all(n == 0 for n, _, _ in table.values())
    # the trace, report, abort and command-line file columns are all compared
    text = diffmatrix.format_table(table, len(cases))
    for col in ("trace:x1", "trace:delta", "report:theta_hat_final",
                "report:abel_gap", "abort:time", "trace:overparam_hat2",
                "cli:exit", "cli:trace.csv", "cli:report.txt", "cli:plot.gp",
                "cli:stdout", "cli:stderr"):
        assert f"\n{col} " in text and table[col][0] == 0
    # report.txt is compared without its wall time, which no two runs share
    report = new["cli/run-ph"]["cli"]["report.txt"]
    assert "result_theta_hat_final = " in report
    assert "result_wall_seconds" not in report
    # printed lines name the output directory as <tmp>, the same each run
    assert new["cli/run-ph"]["cli"]["stdout"].startswith(
        "run complete: <tmp>/out/trace.csv (")


def test_diffmatrix_reports_each_changed_column(diffmatrix):
    ref = {"a": {"trace": {"x1": [1.0, float("nan")], "u": [0.0, 1.0]},
                 "report": {"x_final": [1.0, 2.0], "aborted": False},
                 "abort": {"component": None, "time": None, "steps": None}}}
    new = {"a": {"trace": {"x1": [1.0, float("nan")], "u": [0.0, 1.5]},
                 "report": {"x_final": [1.0, 2.0], "aborted": False},
                 "abort": {"component": None, "time": None, "steps": None}}}
    table, changed = diffmatrix.compare(new, ref)
    assert changed == {"a"}
    assert table["trace:u"] == [1, 0.5, 0.5 / 1.5]
    # nan equals nan; -0.0 differs from 0.0 in its bytes by no amount
    assert table["trace:x1"][0] == 0
    new["a"]["trace"]["u"] = [-0.0, 1.0]
    table, _ = diffmatrix.compare(new, ref)
    assert table["trace:u"] == [1, 0.0, 0.0]
    new["a"] = {"error": "OverflowError: boom"}
    table, _ = diffmatrix.compare(new, ref)
    assert table["error"][0] == 1 and table["trace:u"][0] == 1


def test_diffmatrix_refuses_a_missing_checkout(diffmatrix, tmp_path):
    cases = diffmatrix.matrix_cases()[:1]
    with pytest.raises(FileNotFoundError, match="no src/pbident"):
        diffmatrix.collect(tmp_path, cases)


def test_calls_tool_counts_every_scenario_and_estimator():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "calls.py")],
                         capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["scenario", "estimator", "python", "C", "steps"]
    runs = {tuple(row.split()[:2]): row.split()[2:] for row in rows}
    assert len(rows) == len(runs) == 8
    for scenario in ("circuit", "ph"):
        python, c, steps = runs[scenario, "gplusd_pbep"]
        assert float(python) > 0.0 and float(c) > 0.0 and steps == "500"
    # ph's gradient_std run from its zero start aborts on its first step
    assert runs["ph", "gradient_std"][2:] == ["1", "(aborted:", "plant",
                                               "state)"]


def _host_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and "avx2" in line.split()
                       for line in f)
    except OSError:
        return False


def test_runs_do_not_depend_on_the_blas_core(diffmatrix):
    # The estimator's dot products sum left to right on floats, so the
    # pinned aborts and a completed run match under any OpenBLAS core type.
    # Only the circuit's 3x3 excitation Gram eigenvalue comes from LAPACK,
    # whose kernels may round differently per core (ph's 2x2 one is taken
    # on floats).  OPENBLAS_CORETYPE is ignored by other BLAS builds, where
    # this holds trivially.
    # OpenBLAS does not check the CPU for a forced core type, so Haswell's
    # AVX2 kernels are forced only on a host that has AVX2.
    cases = [c for c in diffmatrix.matrix_cases()
             if c[0].startswith("abort/")
             or c[0] == "circuit/gplusd_pbep/adaptive"]
    assert len(cases) == 4
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base = diffmatrix.collect(ROOT, cases, env=env)
    assert base["abort/circuit-gains-1e6"]["report"]["aborted"]
    for core in ("Haswell", "Prescott") if _host_has_avx2() else ("Prescott",):
        other = diffmatrix.collect(ROOT, cases,
                                   env={**env, "OPENBLAS_CORETYPE": core})
        table, _ = diffmatrix.compare(other, base)
        changed = {col for col, (n, _, _) in table.items() if n}
        assert changed <= {"report:gram_min_eig_final", "trace:gram_min_eig"}, \
            (core, sorted(changed))
