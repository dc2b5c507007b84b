"""Differential matrix: compare this checkout's outputs with another's.

    python3 tools/diffmatrix.py --against DIR [--allow COL ...]

Runs the same cases on this checkout and on the checkout at DIR, each in
its own subprocess with that checkout's `src` first on the path, and
compares what every case produced:

* the trace rows, column by column, as float64 bytes (every nan counts as
  one value: CPython 3.11 may return either nan operand's bits);
* every `RunReport` field except `wall_seconds`;
* the abort record: component, time and steps taken, or the type and
  message of an exception the run raised.

The cases are {circuit, ph} x the 4 estimators x the 3 controllers from
each scenario's default start over 5 s, four runs off the defaults (ph
gradient_std from a nonzero Theta, circuit gradient_std at gamma 30
without sub-steps or decimation, the circuit's slow start x0 = (0.64,
0.27), theta_hat0 = (0.12, 0.05), and a 0.5 s ph gplusd_pbep run at
decimation 1 with gamma_g 150 and gamma 75), a substeps axis (circuit
gplusd_pbep at 1, 2, 3, 5 and 8 plant substeps and gradient_std at 2 and
5, each 1 s at decimation 1; ph gplusd_pbep and gradient_pbep_overparam
at 2 and 3, each 1 s at decimation 7), a gains axis (each scenario and
estimator at gamma_g = gamma = 1e4 over 5 s), the subnormal step h =
5e-324 on each scenario, plus the pinned aborts of the test suite.
Three command-line cases run `pbident` through `cli.main` (`run` on each
default scenario at t_end = 1.0, and a 2 x 2 ph `sweep` at t_end = 0.05)
and compare the exit code and the bytes of every file it writes
(trace.csv, plot.gp, report.txt without its result_wall_seconds line,
index.csv).

The table has one row per column (`trace:<name>`, `report:<field>`,
`abort:<part>`, `cli:<file>`, `error`): the number of cases where it
differs, and the
largest absolute and relative change over the differing entries, the
relative change taken against the larger magnitude.  A change in the
number of trace rows counts as an infinite change.  The exit code is 0
when every differing column matches an `--allow` pattern, 1 otherwise,
and 2 when a checkout cannot be run.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import math
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ESTIMATORS = ("gplusd_pbep", "gradient_std", "gradient_pbep_overparam", "none")
CONTROLLERS = ("adaptive", "known_parameter", "open_loop")

# (id, scenario, SimConfig settings) of the runs the test suite pins to an
# abort, each long enough to reach it
PINNED_ABORTS = [
    ("abort/circuit-gains-1e6", "circuit", {"gamma_g": 1e6, "gamma": 1e6}),
    ("abort/circuit-bad-start", "circuit",
     {"x0": (0.51, 0.95), "theta_hat0": (0.43, 2.85)}),
    ("abort/ph-zero-estimate", "ph", {"t_end": 1.0, "theta_hat0": (0.0,)}),
]


# (id, scenario, SimConfig settings) of runs off the default start.  The
# default ph/gradient_std cases abort on their first step (Theta starts at
# 0, so the estimate does, and beta divides by it), so one ph case starts
# the state-equation estimator elsewhere; the circuit one is the
# benchmark's gradient_std run without sub-steps or decimation.  The ph
# decimation-1 case is a sweep cell at the top corner of the benchmark's
# gain grid: its trace holds every step's 2x2 Gram eigenvalue
EXTRA_CASES = [
    ("extra/ph-gradient_std-overparam", "ph",
     {"estimator": "gradient_std", "overparam_hat0": (0.5, 0.25),
      "t_end": 5.0}),
    ("extra/circuit-gradient_std-gamma30", "circuit",
     {"estimator": "gradient_std", "gamma": 30.0, "substeps": 1,
      "decimation": 1, "t_end": 5.0}),
    ("extra/circuit-slow-start", "circuit",
     {"x0": (0.64, 0.27), "theta_hat0": (0.12, 0.05), "t_end": 5.0}),
    ("extra/ph-gplusd-decimation1", "ph",
     {"estimator": "gplusd_pbep", "decimation": 1, "t_end": 0.5,
      "gamma_g": 150.0, "gamma": 75.0}),
]


# (id, scenario, SimConfig settings) of the substeps axis: the plant's RK4
# substeps are unrolled per count, and the count picks the filter stage's
# midpoint state (Hermite at 1, a sub-grid state when even, the average of
# two when odd).  On ph, whose storage residual reads the control, the
# sub-grid control interpolates the correction flow's estimate
# (gplusd_pbep) or holds the step-start one (gradient_pbep_overparam),
# and decimation 7 leaves a trailing row, as 7 does not divide 1000 steps
SUBSTEP_CASES = [
    (f"substeps/circuit-{est}-{nsub}", "circuit",
     {"estimator": est, "substeps": nsub, "decimation": 1, "t_end": 1.0})
    for est, counts in (("gplusd_pbep", (1, 2, 3, 5, 8)),
                        ("gradient_std", (2, 5)))
    for nsub in counts
] + [
    (f"substeps/ph-{est}-{nsub}-decimation7", "ph",
     {"estimator": est, "substeps": nsub, "decimation": 7, "t_end": 1.0})
    for est in ("gplusd_pbep", "gradient_pbep_overparam") for nsub in (2, 3)
]


# (id, scenario, SimConfig settings) of the gains axis, gamma_g = gamma =
# 1e4 for each scenario and estimator, and of the subnormal step, whose
# sub-grid span h / substeps underflows to 0, so that its storage residual
# divides through ieee_div
GAIN_CASES = [
    (f"gains/{name}-{est}-1e4", name,
     {"estimator": est, "gamma_g": 1e4, "gamma": 1e4, "t_end": 5.0})
    for name in ("circuit", "ph") for est in ESTIMATORS
] + [
    (f"extra/{name}-subnormal-h", name,
     {"h": 5e-324, "t_end": 1e-323, "substeps": 4})
    for name in ("circuit", "ph")
]


# (id, config file text, command and flags) of the command-line cases,
# whose files are compared byte for byte
CLI_CASES = [
    ("cli/run-ph", "scenario = ph\n", ["run", "--t-end", "1.0"]),
    ("cli/run-circuit", "scenario = circuit\n", ["run", "--t-end", "1.0"]),
    ("cli/sweep-ph-2x2", "scenario = ph\nt_end = 0.05\n",
     ["sweep", "--grid", "gamma_g=75:125:2", "--grid", "gamma=37.5:62.5:2"]),
]


def matrix_cases() -> list:
    """(id, scenario, SimConfig settings) of every library run, then
    (id, config text, command) of every command-line case."""
    cases = [(f"{name}/{est}/{ctl}", name,
              {"estimator": est, "controller": ctl, "t_end": 5.0})
             for name in ("circuit", "ph")
             for est in ESTIMATORS for ctl in CONTROLLERS]
    return (cases + EXTRA_CASES + SUBSTEP_CASES + GAIN_CASES + PINNED_ABORTS
            + CLI_CASES)


# -- the worker: runs in a subprocess, imports the checkout's pbident --------

class _Rows:
    """Trace sink keeping the header and the rows."""

    def __init__(self):
        self.columns, self.rows = [], []

    def header(self, columns):
        self.columns = list(columns)

    def row(self, values):
        self.rows.append([float(v) for v in values])


def _plain(value):
    """A report value as floats, lists, strings, bools or None."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def run_case(scenario: str, settings: dict) -> dict:
    """Trace columns, report fields and abort record of one case."""
    import numpy as np
    from pbident.plants import make_scenario
    from pbident.sim import SimConfig, run

    sink = _Rows()
    try:
        with np.errstate(all="ignore"):
            rep = run(make_scenario(scenario), SimConfig(**settings), trace=sink)
    except Exception as err:   # a raised error is an outcome to compare
        return {"error": f"{type(err).__name__}: {err}"}
    report = {f.name: _plain(getattr(rep, f.name))
              for f in dataclasses.fields(rep) if f.name != "wall_seconds"}
    trace = {name: [row[i] for row in sink.rows]
             for i, name in enumerate(sink.columns)}
    return {"trace": trace, "report": report,
            "abort": {"component": rep.abort_component, "time": rep.abort_time,
                      "steps": rep.n_steps if rep.aborted else None}}


def run_cli_case(config: str, command: list) -> dict:
    """Exit code and files of one `pbident` command, as text; report.txt
    without its result_wall_seconds line."""
    import contextlib
    import io
    import tempfile
    from pbident import cli

    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "case.cfg", Path(tmp) / "out"
        path.write_text(config, encoding="utf-8")
        # the worker's stdout carries its result
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command[0], str(path), *command[1:],
                                 "--out", str(out)])
        except Exception as err:   # a raised error is an outcome to compare
            return {"error": f"{type(err).__name__}: {err}"}
        files = {"exit": code}
        for item in sorted(out.rglob("*")):
            if item.is_file():
                text = item.read_text(encoding="utf-8")
                if item.name == "report.txt":
                    text = "".join(
                        line for line in text.splitlines(keepends=True)
                        if not line.startswith("result_wall_seconds "))
                files[item.relative_to(out).as_posix()] = text
    return {"cli": files}


def _worker(cases) -> None:
    out = {cid: run_cli_case(*args) if cid.startswith("cli/")
           else run_case(*args) for cid, *args in cases}
    sys.stdout.buffer.write(pickle.dumps(out))


def collect(checkout: Path, cases, env=None) -> dict:
    """Case id -> outputs, computed in a subprocess on `checkout`'s src."""
    src = Path(checkout).resolve() / "src"
    if not (src / "pbident").is_dir():
        raise FileNotFoundError(f"no src/pbident under {checkout}")
    code = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); "
            "sys.path.insert(0, sys.argv[2]); import diffmatrix; "
            "diffmatrix._worker(pickle.loads(sys.stdin.buffer.read()))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src), str(Path(__file__).parent)],
        input=pickle.dumps(list(cases)), capture_output=True, env=env,
        cwd=src.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {checkout} failed:\n"
                           + proc.stderr.decode(errors="replace"))
    return pickle.loads(proc.stdout)


# -- the comparison -----------------------------------------------------------

def _floats(value):
    """The floats of a value, flattened, or None if it holds anything else."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    out = []
    for v in value:
        f = _floats(v)
        if f is None:
            return None
        out.extend(f)
    return out


def _same_float(a: float, b: float) -> bool:
    """Equal float64 bits, with every nan taken as one value."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _change(a, b):
    """(differs, max abs change, max rel change) between two values."""
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None:
        return a != b, None, None
    if len(fa) != len(fb):
        return True, math.inf, math.inf
    worst_abs = worst_rel = 0.0
    differs = False
    for x, y in zip(fa, fb):
        if _same_float(x, y):
            continue
        differs = True
        d = abs(x - y)
        if not d < math.inf:   # a nan against a number, or an inf
            worst_abs = worst_rel = math.inf
            continue
        worst_abs = max(worst_abs, d)
        if d > 0:   # not merely 0.0 against -0.0
            worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return differs, worst_abs, worst_rel


def _columns(out: dict) -> dict:
    """`kind:name` -> value of one case's outputs."""
    if "error" in out:
        return {"error": out["error"]}
    cols = {"error": None}
    for kind in ("trace", "report", "abort", "cli"):
        for name, value in out.get(kind, {}).items():
            cols[f"{kind}:{name}"] = value
    return cols


def compare(new: dict, ref: dict) -> tuple[dict, set]:
    """(column -> [cases that differ, max abs change, max rel change], the
    ids of the cases with any difference)."""
    table: dict = {}
    changed = set()
    for cid in sorted(set(new) | set(ref)):
        a = _columns(new[cid]) if cid in new else {}
        b = _columns(ref[cid]) if cid in ref else {}
        for col in sorted(set(a) | set(b)):
            entry = table.setdefault(col, [0, 0.0, 0.0])
            missing = col not in a or col not in b
            differs, d_abs, d_rel = (True, None, None) if missing else \
                _change(a[col], b[col])
            if not differs:
                continue
            changed.add(cid)
            entry[0] += 1
            for k, d in ((1, d_abs), (2, d_rel)):
                entry[k] = math.inf if d is None else max(entry[k], d)
    return table, changed


def format_table(table: dict, n_cases: int) -> str:
    lines = [f"{'column':32} {'cases':>9} {'max_abs':>10} {'max_rel':>10}"]
    for col, (n, d_abs, d_rel) in table.items():
        lines.append(f"{col:32} {f'{n}/{n_cases}':>9} {d_abs:10.3g} "
                     f"{d_rel:10.3g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="root of the checkout to compare with")
    ap.add_argument("--allow", nargs="*", default=[], metavar="COL",
                    help="column patterns allowed to differ")
    args = ap.parse_args(argv)
    cases = matrix_cases()
    try:
        new = collect(ROOT, cases)
        ref = collect(args.against, cases)
    except (FileNotFoundError, RuntimeError) as err:
        print(f"diffmatrix: {err}", file=sys.stderr)
        return 2
    table, changed = compare(new, ref)
    print(format_table(table, len(cases)))
    bad = [col for col, (n, _, _) in table.items() if n
           and not any(fnmatch.fnmatchcase(col, p) for p in args.allow)]
    print(f"diffmatrix: {len(cases)} cases, {len(changed)} with a difference; "
          f"columns differing without --allow: {', '.join(bad) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
