"""The benchmark's workloads: inputs drawn from a seed, one timed unit of
work each, and the checks that the program's outputs are correct.

Every workload is a closed loop: one caller in one process, no threads,
and each unit starts only after the previous one returned.

* circuit-gplusd / circuit-gradstd: a unit is one library `run` of the
  circuit scenario at the default 20 s horizon, h = 1e-3 and the default
  trace decimation 10, repeated with one configuration.  Its timing cells
  are the run's 100 slices of 200 outer steps (0.2 simulated seconds),
  timed between the trace rows that close them, so that one run gives
  enough cells for a tail percentile.
* ph-sweep: a unit is one `pbident sweep` through `cli.main` over a
  10 x 10 (gamma_g, gamma) grid of 500-step ph cells at decimation 1;
  each cell writes trace.csv, report.txt and plot.gp, and is timed from
  entry to exit of its `run_command`.

The seed draws only the gains, uniformly from a box of +-20 % around the
paper values.  x0 and theta_hat0 stay at the scenario defaults: at the
parent commit some drawn initial conditions break the circuit run (for
example x0 = (0.51, 0.95) with theta_hat0 = (0.43, 2.85) aborts with a
non-finite filter state at t = 2.045, and x0 = (0.64, 0.27) with
theta_hat0 = (0.12, 0.05) stalls at a relative theta error of 0.58).

This module imports only the standard library at import time, so the
set-up probe can import it before its clock starts.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import itertools
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

H = 1e-3
CIRCUIT_T_END = 20.0
DECIMATION = 10
SLICE_STEPS = 200        # a circuit timing cell: 0.2 simulated seconds
SWEEP_T_END = 0.5
SWEEP_AXIS = 10          # grid points per swept gain: 100 cells per sweep

# correctness gates
THETA_ERR_MAX = 2e-2     # circuit-gplusd: relative theta error at t_end
X2_ERR_MAX = 0.15        # circuit-gplusd: |x2 - kappa| at t_end (1 % band)
# |log det Phi + gamma_g * trapz |Omega|^2| is rounding of a log det that
# reaches about -1e8 on the 20 s circuit run and about -1e2 on a ph cell
ABEL_GAP_MAX = {"circuit-gplusd": 1e-4, "ph-sweep": 1e-8}


def draw_gains(name: str, seed: int) -> dict:
    """Gains for one seed, from a +-20 % box around the paper values."""
    rng = random.Random(f"{name}:{seed}")

    def around(value):
        return value * rng.uniform(0.8, 1.2)

    if name == "circuit-gplusd":
        return {"gamma_g": around(100.0), "gamma": around(50.0),
                "lam": around(10.0)}
    if name == "circuit-gradstd":
        return {"gamma": around(30.0), "lam": around(10.0)}
    if name == "ph-sweep":
        # grid edges: the low edge below the paper value, the high one above
        return {"gamma_g": (around(75.0), around(125.0)),
                "gamma": (around(37.5), around(62.5)),
                "lam": around(10.0)}
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    seconds: float                 # wall time of the whole unit
    # timing cells: the sweep's cells, or the 200-step slices of a library
    # run, timed between trace rows
    cell_seconds: list
    step_us: list                  # per library run: wall us per outer step
    failures: list                 # per attempted run or cell: failure messages
    digest: str
    # sweep cells: (entry, run start, run end, exit) of run_command
    stamps: list = field(default_factory=list)


class _RowSink:
    """Trace sink that keeps the rows for the digest and stamps their arrival."""

    def __init__(self):
        self.columns = []
        self.rows = []
        self.stamps = []

    def header(self, columns):
        self.columns = list(columns)

    def row(self, values):
        self.stamps.append(time.perf_counter())
        self.rows.append(values)


def _report_digest(report) -> bytes:
    parts = []
    for key, value in sorted(vars(report).items()):
        if key == "wall_seconds":
            continue
        parts.append(f"{key}={value.tolist()!r}" if hasattr(value, "tolist")
                     else f"{key}={value!r}")
    return "\n".join(parts).encode()


def _all_finite(values) -> bool:
    return values is not None and all(math.isfinite(float(v)) for v in values)


class LibraryRun:
    """circuit-gplusd and circuit-gradstd: repeated library runs."""

    def __init__(self, name: str, seed: int, t_end: float = CIRCUIT_T_END):
        from pbident import plants, sim

        self.name = name
        self.gains = draw_gains(name, seed)
        self._sim = sim
        self.scenario = plants.make_scenario("circuit")
        estimator = (sim.EstimatorKind.GPLUSD_PBEP if name == "circuit-gplusd"
                     else sim.EstimatorKind.GRADIENT_STD)
        self.cfg = sim.SimConfig(t_end=t_end, h=H, estimator=estimator,
                                 decimation=DECIMATION, **self.gains)
        self.steps = int(round(t_end / H))
        self.rows = self.steps // DECIMATION + 1

    def prepare(self, workdir: Path):
        pass

    def unit(self, hook) -> Unit:
        sink = _RowSink()
        failures = []
        report = None
        with hook(self.scenario):
            t0 = time.perf_counter()
            try:
                report = self._sim.run(self.scenario, self.cfg, trace=sink)
            except Exception as err:  # counted as a failed run
                failures.append(f"run raised {type(err).__name__}: {err}")
            seconds = time.perf_counter() - t0
        if report is not None:
            failures += self.check(report, sink)
        # rows arrive every DECIMATION steps, so a slice of SLICE_STEPS steps
        # is timed between rows SLICE_STEPS / DECIMATION apart
        per = SLICE_STEPS // DECIMATION
        slices = [b - a for a, b in zip(sink.stamps[::per], sink.stamps[per::per])]
        digest = hashlib.sha256()
        digest.update(repr(sink.columns).encode())
        digest.update(array.array("d", itertools.chain.from_iterable(sink.rows))
                      .tobytes())
        if report is not None:
            digest.update(_report_digest(report))
        return Unit(seconds, slices, [seconds / self.steps * 1e6], [failures],
                    digest.hexdigest())

    def check(self, report, sink) -> list:
        bad = []
        if report.aborted:
            bad.append(f"aborted at t={report.abort_time}")
        if report.n_steps != self.steps or len(sink.rows) != self.rows:
            bad.append(f"{report.n_steps} steps and {len(sink.rows)} rows, "
                       f"expected {self.steps} and {self.rows}")
        if not (_all_finite(report.x_final) and _all_finite(report.theta_hat_final)):
            bad.append("non-finite final state or estimate")
        if self.name == "circuit-gradstd":
            if not _all_finite(report.overparam_hat_final):
                bad.append("non-finite overparameterized estimate")
            return bad
        err = report.theta_err_rel_final
        if err is None or not err <= THETA_ERR_MAX:
            bad.append(f"relative theta error {err} > {THETA_ERR_MAX}")
        kappa = self.scenario.controller.target["x2_star"]
        if not abs(float(report.x_final[1]) - kappa) <= X2_ERR_MAX:
            bad.append(f"x2 = {report.x_final[1]} misses {kappa} by more "
                       f"than {X2_ERR_MAX}")
        gap = report.abel_gap
        if gap is None or not gap <= ABEL_GAP_MAX[self.name]:
            bad.append(f"abel_gap {gap} > {ABEL_GAP_MAX[self.name]}")
        return bad


class CellClock:
    """Stamps each sweep cell at run_command entry/exit and around its run.

    Two thin wrappers on a cell of about 50 ms; they are the sweep's cell
    timer, traced or not.
    """

    def __init__(self, cli):
        self._cli = cli
        self.stamps = []

    @contextlib.contextmanager
    def installed(self):
        cli = self._cli
        run_command, run = cli.run_command, cli.run
        clock = time.perf_counter
        current = []

        def timed_run_command(*args, **kwargs):
            stamp = [clock(), math.nan, math.nan, math.nan]
            current.append(stamp)
            try:
                return run_command(*args, **kwargs)
            finally:
                stamp[3] = clock()
                current.pop()
                self.stamps.append(tuple(stamp))

        def timed_run(*args, **kwargs):
            stamp = current[-1]      # cli calls run only from run_command
            stamp[1] = clock()
            try:
                return run(*args, **kwargs)
            finally:
                stamp[2] = clock()

        cli.run_command, cli.run = timed_run_command, timed_run
        try:
            yield
        finally:
            cli.run_command, cli.run = run_command, run


class CliSweep:
    """ph-sweep: `pbident sweep` over a 2-D gain grid through cli.main."""

    name = "ph-sweep"

    def __init__(self, seed: int, axis: int = SWEEP_AXIS,
                 t_end: float = SWEEP_T_END):
        from pbident import cli

        self._cli = cli
        self._parse_config = cli.parse_config
        self._emit_config = cli.emit_config
        self.gains = draw_gains(self.name, seed)
        self.axis = axis
        self.steps = int(round(t_end / H))
        self.rows = self.steps + 1
        self.n_cells = axis * axis
        self.config_text = (f"scenario = ph\nestimator = gplusd_pbep\n"
                            f"lambda = {self.gains['lam']!r}\n"
                            f"t_end = {t_end!r}\nh = {H!r}\ndecimation = 1\n")
        self.grid = [f"{key}={lo!r}:{hi!r}:{axis}"
                     for key in ("gamma_g", "gamma")
                     for lo, hi in [self.gains[key]]]
        self.out = None
        self.argv = None

    def prepare(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "sweep.cfg"
        config.write_text(self.config_text, encoding="utf-8")
        self.out = workdir / "sweep"
        self.argv = ["sweep", str(config)]
        for spec in self.grid:
            self.argv += ["--grid", spec]
        self.argv += ["--out", str(self.out)]

    def unit(self, hook) -> Unit:
        if self.out.exists():
            shutil.rmtree(self.out)
        clock = CellClock(self._cli)
        stderr = io.StringIO()
        failures = []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), \
                hook(None), clock.installed():
            t0 = time.perf_counter()
            try:
                code = self._cli.main(self.argv)
            except Exception as err:  # counted against every cell
                code = None
                failures.append(f"cli.main raised {type(err).__name__}: {err}")
            seconds = time.perf_counter() - t0
        if code not in (0, None):
            failures.append(f"sweep exit code {code}")
        if stderr.getvalue():
            failures.append("stderr: " + stderr.getvalue().strip().splitlines()[0])

        stamps = clock.stamps
        digest = hashlib.sha256()
        index = self._read_index(digest, failures)
        cells = []
        for i in range(self.n_cells):
            row = index[i] if i < len(index) else {}
            ran = [] if i < len(stamps) else ["cell did not run"]
            cells.append(failures + ran + self._check_cell(i, row, digest))
        return Unit(seconds, [s[3] - s[0] for s in stamps],
                    [(s[2] - s[1]) / self.steps * 1e6 for s in stamps
                     if not math.isnan(s[1])],
                    cells, digest.hexdigest(), stamps)

    def _read_index(self, digest, failures: list) -> list:
        """index.csv rows as dicts; problems are appended to failures."""
        path = self.out / "index.csv"
        if not path.is_file():
            failures.append("index.csv missing")
            return []
        text = path.read_text(encoding="utf-8")
        digest.update(text.encode())
        lines = text.splitlines()
        index = [dict(zip(lines[0].split(","), line.split(",")))
                 for line in lines[1:]]
        if [row.get("cell") for row in index] != [str(i) for i in range(self.n_cells)]:
            failures.append(f"index.csv lists {len(index)} cells, "
                            f"expected 0..{self.n_cells - 1}")
        return index

    def _check_cell(self, i: int, row: dict, digest) -> list:
        bad = []
        if row.get("exit") != "0":
            bad.append(f"cell {i} exit {row.get('exit')}")
        cell_dir = self.out / f"cell_{i:04d}"
        try:
            trace = (cell_dir / "trace.csv").read_text(encoding="utf-8")
            report = (cell_dir / "report.txt").read_text(encoding="utf-8")
            has_plot = (cell_dir / "plot.gp").is_file()
        except OSError as err:
            return bad + [f"cell {i}: {err}"]
        digest.update(trace.encode())
        lines = trace.splitlines()
        if len(lines) != self.rows + 1:
            bad.append(f"cell {i}: {len(lines) - 1} trace rows, expected {self.rows}")
        if "nan" in trace.partition("\n")[2] or "inf" in trace:
            bad.append(f"cell {i}: non-finite trace value")
        if not has_plot:
            bad.append(f"cell {i}: plot.gp missing")

        config_text, _, results_text = report.partition("\n\n")
        config_text += "\n"
        results = {key: value for key, _, value in
                   (line.partition(" = ") for line in results_text.splitlines())}
        digest.update(config_text.encode())
        digest.update("\n".join(f"{k}={v}" for k, v in results.items()
                                if k != "result_wall_seconds").encode())
        try:
            parsed = self._parse_config(config_text)
        except ValueError as err:
            return bad + [f"cell {i}: report.txt config does not parse: {err}"]
        if self._emit_config(parsed) != config_text:
            bad.append(f"cell {i}: report.txt config does not round-trip")
        for key in ("gamma_g", "gamma"):
            if key not in row or getattr(parsed, key) != float(row[key]):
                bad.append(f"cell {i}: {key} in report.txt differs from index.csv")
        expected = {"result_aborted": "false", "result_n_steps": str(self.steps),
                    "result_trace_rows": str(self.rows)}
        for key, value in expected.items():
            if results.get(key) != value:
                bad.append(f"cell {i}: {key} = {results.get(key)}, expected {value}")
        gap = float(results.get("result_abel_gap", "nan"))
        if not gap <= ABEL_GAP_MAX[self.name]:
            bad.append(f"cell {i}: abel_gap {gap} > {ABEL_GAP_MAX[self.name]}")
        return bad


def build(name: str, seed: int):
    if name == "ph-sweep":
        return CliSweep(seed)
    if name in ("circuit-gplusd", "circuit-gradstd"):
        return LibraryRun(name, seed)
    raise ValueError(f"unknown workload {name!r}")
