"""Command-line front end: config parsing, run orchestration, trace emission.

Configuration files are flat, line-oriented UTF-8 text:

    # comment
    scenario = circuit
    gamma_g = 100.0
    x0 = 0.0,0.0

The keys are the fields of ScenarioConfig, which are SimConfig's run
settings (`lambda` for its `lam`) plus `scenario`, `seed` and `out_dir`,
and the parameters of the chosen scenario's builder (`ph_scenario`,
`circuit_scenario`), whose signature gives their defaults.  Unknown keys,
duplicate keys, malformed values and the values SimConfig or the builder
rejects are all hard errors and are reported with the offending line
number.  Keys starting with result_, which a run's report appends, are
skipped.  Every omitted key takes a scenario-appropriate default, and the
parsed configuration is fully resolved: emitting it and parsing the result
gives the same configuration back.

Subcommands:

    run <config> [--out DIR] [--t-end S] [--h S]
        simulate; writes trace.csv, report.txt and plot.gp to the output
        directory; exit 0 on a completed run, 2 on an aborted one.
    check <config> [--box lo,hi ...] [--samples N] [--seed N]
        sampled strong-monotonicity estimates for the scenario's selected
        parameter map, plus an excitation report when a trace exists.
    sweep <config> --grid key=lo:hi:steps [...]
        repeat run over a grid of numeric settings or scenario parameters;
        one cell directory per combination plus an index.csv written at
        the end.

The trace is CSV: one header row, then one row per decimated step; all
numbers in full-precision scientific notation.  The report is the same
key = value format as the config, augmented with result_* keys, so a run
is reproducible from its own report.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .estimator import check_monotonicity
from .plants import SCENARIO_BUILDERS, Scenario, make_scenario
from .sim import (ConfigValueError, ControllerKind, EstimatorKind, RunReport,
                  SimConfig, run)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(kw_only=True)
class ScenarioConfig(SimConfig):
    """A config file's run settings plus the scenario and its parameters,
    the checker's seed and the output directory."""

    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "out"


def _key(name: str) -> str:
    """Config key of a field."""
    return "lambda" if name == "lam" else name


_HINTS = get_type_hints(ScenarioConfig)
# config key -> field, in emitted order; written reports put seed before c_c
_ORDER = [f.name for f in fields(ScenarioConfig)
          if f.name not in ("scenario", "params", "seed")]
_ORDER.insert(_ORDER.index("c_c"), "seed")
_SETTINGS = {_key(name): name for name in _ORDER}
_REPORT_FIELDS = [f.name for f in fields(RunReport)]
# report.txt's result_* keys: RunReport's fields after the run settings,
# without the settling bands, which no run changes
_RESULTS = [name for name in _REPORT_FIELDS[_REPORT_FIELDS.index("x_final"):]
            if name not in ("param_band", "regulation_band")]


def _scenario_params(scenario: str) -> dict:
    """Parameter names and defaults of a scenario, from its builder."""
    return {p.name: p.default for p in
            inspect.signature(SCENARIO_BUILDERS[scenario]).parameters.values()}


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}", line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {raw!r}", line) from None


def _parse_vector(raw: str, key: str, line: int) -> tuple:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(
            f"{key} expects comma-separated numbers, got {raw!r}", line) from None


def _parse_setting(raw: str, key: str, line: int):
    """A field value from its text, by the field's type; SimConfig checks
    the value itself."""
    hint = _HINTS[_SETTINGS[key]]
    if hint is float:
        return _parse_float(raw, key, line)
    if hint in (int, Optional[int]):
        return _parse_int(raw, key, line)
    if hint == Optional[tuple]:
        return _parse_vector(raw, key, line)
    return raw                    # enums are matched by SimConfig


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    return make_scenario(cfg.scenario, **cfg.params)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a configuration document."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {rawline.strip()!r}",
                              lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("result_"):
            continue          # outputs a report appends to its config
        if not key or not value:
            raise ConfigError(f"expected key = value, got {rawline.strip()!r}",
                              lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first set on line "
                              f"{entries[key][1]})", lineno)
        entries[key] = (value, lineno)

    if "scenario" not in entries:
        raise ConfigError("missing required key 'scenario'")
    scen_raw, scen_line = entries.pop("scenario")
    scenario = scen_raw.lower()
    if scenario not in SCENARIO_BUILDERS:
        raise ConfigError(f"unknown scenario {scen_raw!r}; expected one of "
                          f"{sorted(SCENARIO_BUILDERS)}", scen_line)

    params = _scenario_params(scenario)
    for key, (_, line) in entries.items():
        if key not in _SETTINGS and key not in params:
            raise ConfigError(f"unknown key {key!r} for scenario "
                              f"{scenario!r}", line)
    settings = {}
    for key, (raw, line) in entries.items():
        if key in params:
            params[key] = _parse_float(raw, key, line)
        else:
            settings[_SETTINGS[key]] = _parse_setting(raw, key, line)

    try:
        cfg = ScenarioConfig(scenario=scenario, params=params, **settings)
        try:
            scen = build_scenario(cfg)
        except ValueError as err:
            raise ConfigError(str(err), min(
                (line for key, (_, line) in entries.items() if key in params),
                default=0)) from None
        # resolve remaining defaults so the config round-trips exactly
        return cfg.resolved(scen)
    except ConfigValueError as err:
        key = _key(err.key)
        raise ConfigError(f"{key} {err.problem}",
                          entries.get(key, (None, 0))[1]) from None


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (EstimatorKind, ControllerKind)):
        return value.value
    return str(value)


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_config(emit_config(cfg)) == cfg."""
    lines = [f"scenario = {cfg.scenario}"]
    for key in _scenario_params(cfg.scenario):
        lines.append(f"{key} = {_fmt_value(cfg.params[key])}")
    for key, name in _SETTINGS.items():
        value = getattr(cfg, name)
        if value is not None:
            lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def sim_config(cfg: ScenarioConfig) -> SimConfig:
    """The run settings of a configuration."""
    return SimConfig(**{f.name: getattr(cfg, f.name) for f in fields(SimConfig)})


class CsvTraceWriter:
    """Streams trace rows to a CSV file in full-precision scientific form."""

    def __init__(self, path: Path):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self.columns: list[str] = []
        self._template = "\n"

    def header(self, columns):
        self.columns = list(columns)
        # one %-format per row: the same bytes as formatting each value
        # with "{:.17e}" and joining, at a fraction of the cost
        self._template = ",".join(["%.17e"] * len(self.columns)) + "\n"
        self._fh.write(",".join(columns) + "\n")

    def row(self, values):
        self._fh.write(self._template % tuple(values))

    def close(self):
        self._fh.flush()
        self._fh.close()


def _report_lines(cfg: ScenarioConfig, report: RunReport) -> list[str]:
    lines = emit_config(cfg).splitlines()
    lines.append("")

    def add(key, value):
        if value is None:
            return
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"result_{key} = {_fmt_value(value)}")

    for name in _RESULTS:
        add(name, getattr(report, name))
    add("trace", "trace.csv")
    return lines


def _plot_script(cfg: ScenarioConfig, scen: Scenario, columns: list[str]) -> str:
    """gnuplot program for the two standard views of one trace."""
    col = {name: i + 1 for i, name in enumerate(columns)}
    q = scen.plant.param_map.q
    est_cols = [f"theta_hat{i + 1}" for i in range(q)]
    est_cols += [c for c in columns if c.startswith("overparam_hat")]
    lines = [
        "# gnuplot script generated alongside trace.csv",
        'set datafile separator ","',
        "set key outside",
        "set grid",
        "set terminal pngcairo size 1100,500",
        'set xlabel "t [s]"',
        'set output "estimates.png"',
        'set title "parameter estimates"',
    ]
    plots = [f'"trace.csv" using 1:{col[c]} with lines title "{c}"'
             for c in est_cols]
    for i, tv in enumerate(scen.theta_true):
        plots.append(f'{float(tv)!r} with lines dashtype 2 '
                     f'title "theta{i + 1} true"')
    lines.append("plot " + ", \\\n     ".join(plots))
    lines += ['set output "regulation.png"', 'set title "regulation"']
    plots = [f'"trace.csv" using 1:{col[f"x{i + 1}"]} with lines title "x{i + 1}"'
             for i in range(scen.plant.n)]
    target = scen.controller.target
    if target.get("kind") == "setpoint":
        plots.append(f'{float(target["x2_star"])!r} with lines dashtype 2 '
                     f'title "setpoint"')
    lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("")
    return "\n".join(lines)


def run_command(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> int:
    """Simulate per cfg; write trace.csv, report.txt, plot.gp; 0 on success."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        scen = build_scenario(cfg)
        writer = CsvTraceWriter(out / "trace.csv")
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        report = run(scen, sim_config(cfg), trace=writer)
    finally:
        writer.close()
    try:
        (out / "report.txt").write_text("\n".join(_report_lines(cfg, report))
                                        + "\n", encoding="utf-8")
        (out / "plot.gp").write_text(_plot_script(cfg, scen, writer.columns),
                                     encoding="utf-8")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if report.aborted:
        print(f"error: simulation aborted: non-finite {report.abort_component} "
              f"at t={report.abort_time:.6g}", file=sys.stderr)
        return 2
    print(f"run complete: {out / 'trace.csv'} ({report.trace_rows} rows), "
          f"report in {out / 'report.txt'}")
    return 0


def check_command(cfg: ScenarioConfig, box=None, samples: int = 10000,
                  seed: Optional[int] = None) -> int:
    """Monotonicity estimates for the scenario's parameter selection."""
    try:
        scen = build_scenario(cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import numpy as np
    q = scen.plant.param_map.q
    if box is None:
        box = np.tile([0.1, 10.0], (q, 1))
    else:
        box = np.asarray(box, dtype=float)
        if box.shape == (1, 2):
            box = np.tile(box, (q, 1))
    try:
        rep = check_monotonicity(scen.plant.param_map, box, n_samples=samples,
                                 seed=cfg.seed if seed is None else seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for i in range(q):
        print(f"box_theta{i + 1} = [{rep.box[i, 0]}, {rep.box[i, 1]}]")
    print(f"samples = {rep.sample_count}")
    print(f"seed = {rep.seed}")
    print(f"rho_jacobian = {rep.rho_jacobian:.12g}")
    print(f"rho_secant = {rep.rho_secant:.12g}")
    print(f"monotonicity: {'PASS' if rep.passed else 'FAIL'}")

    trace_path = Path(cfg.out_dir) / "trace.csv"
    if trace_path.exists():
        # decoded line by line, so that a line that is not UTF-8 is named
        with open(trace_path, "rb") as fh:
            lineno, t_c = 1, None
            try:
                header = fh.readline().decode("utf-8").strip().split(",")
                if "t" not in header or "gram_min_eig" not in header:
                    print(f"excitation: {trace_path} has no gram_min_eig "
                          f"column")
                    return 0
                it, ig = header.index("t"), header.index("gram_min_eig")
                # an interrupted run leaves a short last row
                for lineno, line in enumerate(fh, 2):
                    parts = line.decode("utf-8").split(",")
                    if len(parts) != len(header):
                        raise ValueError(f"{len(parts)} fields, expected "
                                         f"{len(header)}")
                    if float(parts[ig]) >= cfg.c_c:
                        t_c = float(parts[it])
                        break
            except ValueError as err:   # UnicodeDecodeError included
                print(f"error: {trace_path}: line {lineno}: {err}",
                      file=sys.stderr)
                return 1
        if t_c is None:
            print(f"excitation: is_IE=false at C_c={cfg.c_c}")
        else:
            print(f"excitation: is_IE=true t_c={t_c:.6g} at C_c={cfg.c_c}")
    return 0


def _grid(lo: float, hi: float, steps: int) -> list:
    """np.linspace(lo, hi, steps) on floats, operation for operation: k
    times the step plus lo (k / (steps - 1) times hi - lo where the step
    underflows to 0, k times hi - lo for one step), and hi exactly last."""
    div = steps - 1
    delta = hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0:
        values = [(k / div) * delta + lo for k in range(steps)]
    else:
        values = [k * step + lo for k in range(steps)]
    values[-1] = hi
    return values


def sweep_command(cfg: ScenarioConfig, grids: list[str],
                  out_dir: Optional[str] = None) -> int:
    """Repeat run over a grid of float settings or scenario parameters."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    axes = []
    for spec in grids:
        if "=" not in spec or spec.count(":") != 2:
            print(f"error: --grid expects key=lo:hi:steps, got {spec!r}",
                  file=sys.stderr)
            return 1
        key, _, rng = spec.partition("=")
        lo, hi, steps = rng.split(":")
        key = key.strip()
        name = _SETTINGS.get(key)
        if key not in _scenario_params(cfg.scenario) \
                and (name is None or _HINTS[name] is not float):
            print(f"error: cannot sweep key {key!r}", file=sys.stderr)
            return 1
        try:
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            print(f"error: malformed grid range {rng!r}", file=sys.stderr)
            return 1
        if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            print(f"error: grid range {rng!r} needs finite ends and steps >= 1",
                  file=sys.stderr)
            return 1
        axes.append((key, name, _grid(lo, hi, steps)))
    if not axes:
        print("error: sweep needs at least one --grid", file=sys.stderr)
        return 1

    # every cell is checked by SimConfig before any of them runs
    cells = []
    try:
        for combo in itertools.product(*(vals for _, _, vals in axes)):
            params = dict(cfg.params)
            settings = {}
            for (key, name, _), value in zip(axes, combo):
                if name is None:
                    params[key] = float(value)
                else:
                    settings[name] = float(value)
            cells.append((combo, replace(cfg, params=params, **settings)))
    except ConfigValueError as err:
        print(f"error: {_key(err.key)} {err.problem}", file=sys.stderr)
        return 1

    index_rows = []
    worst = 0
    for cell, (combo, cell_cfg) in enumerate(cells):
        code = run_command(cell_cfg, out_dir=str(out / f"cell_{cell:04d}"))
        worst = max(worst, code)
        row = {"cell": cell}
        row.update({key: value for (key, _, _), value in zip(axes, combo)})
        row["exit"] = code
        index_rows.append(row)
    try:
        out.mkdir(parents=True, exist_ok=True)
        keys = ["cell"] + [k for k, _, _ in axes] + ["exit"]
        with open(out / "index.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(keys) + "\n")
            for row in index_rows:
                fh.write(",".join(str(row[k]) for k in keys) + "\n")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"sweep complete: {len(index_rows)} cells, index in {out / 'index.csv'}")
    return worst


def _load_config(path: str) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pbident",
        description="power-balance identification and adaptive control runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configured scenario")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--h", type=float, default=None)

    p_check = sub.add_parser("check", help="monotonicity / excitation checks")
    p_check.add_argument("config")
    p_check.add_argument("--box", action="append", default=None,
                         help="lo,hi per parameter component (repeatable)")
    p_check.add_argument("--samples", type=int, default=10000)
    p_check.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="grid of runs over gain values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", action="append", required=True,
                         help="key=lo:hi:steps (repeatable)")
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, UnicodeDecodeError) as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 1

    if args.command == "run":
        overrides = {name: value for name, value in (("t_end", args.t_end),
                                                     ("h", args.h))
                     if value is not None}
        try:
            cfg = replace(cfg, **overrides)
        except ConfigValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return run_command(cfg, out_dir=args.out)
    if args.command == "check":
        box = None
        if args.box:
            try:
                box = [tuple(float(v) for v in spec.split(",")) for spec in args.box]
            except ValueError:
                print(f"error: --box expects lo,hi, got {args.box}",
                      file=sys.stderr)
                return 1
            if any(len(b) != 2 for b in box):
                print("error: --box expects exactly lo,hi", file=sys.stderr)
                return 1
        return check_command(cfg, box=box, samples=args.samples, seed=args.seed)
    if args.command == "sweep":
        return sweep_command(cfg, args.grid, out_dir=args.out)
    return 1


if __name__ == "__main__":
    sys.exit(main())
