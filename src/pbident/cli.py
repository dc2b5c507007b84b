"""Command-line front end: config parsing, run orchestration, trace emission.

Configuration files are flat, line-oriented UTF-8 text:

    # comment
    scenario = circuit
    gamma_g = 100.0
    x0 = 0.0,0.0

Unknown keys, duplicate keys, malformed values and constraint violations
are all hard errors and are reported with the offending line number.
Every omitted key takes a scenario-appropriate default, and the parsed
configuration is fully resolved: emitting it and parsing the result gives
the same configuration back.

Subcommands:

    run <config> [--out DIR] [--t-end S] [--h S]
        simulate; writes trace.csv, report.txt and plot.gp to the output
        directory; exit 0 on a completed run, 2 on an aborted one.
    check <config> [--box lo,hi ...] [--samples N] [--seed N]
        sampled strong-monotonicity estimates for the scenario's selected
        parameter map, plus an excitation report when a trace exists.
    sweep <config> --grid key=lo:hi:steps [...]
        repeat run over a gain grid; one cell directory per combination
        plus an index.csv written at the end.

The trace is CSV: one header row, then one row per decimated step; all
numbers in full-precision scientific notation.  The report is the same
key = value format as the config, augmented with result_* keys, so a run
is reproducible from its own report.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .estimator import check_monotonicity
from .plants import Scenario, make_scenario
from .sim import (ControllerKind, EstimatorKind, NonFiniteStateError,
                  RunReport, SimConfig, run)

_COMMON_KEYS = ("estimator", "controller", "gamma_g", "gamma", "lambda",
                "x0", "theta_hat0", "theta_g0", "overparam_hat0", "t_end",
                "h", "decimation", "substeps", "seed", "c_c", "out_dir")
_SCENARIO_KEYS = {
    "ph": ("a", "theta"),
    "circuit": ("theta1", "theta2", "alpha", "E", "kp", "kappa"),
    "custom": (),
}
_PHYS_DEFAULTS = {
    "ph": {"a": 1.0, "theta": 1.0},
    "circuit": {"theta1": 1.0, "theta2": 1.5, "alpha": 2.0, "E": 15.0,
                "kp": 10.0, "kappa": 15.0},
    "custom": {},
}


class ConfigError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass
class ScenarioConfig:
    """Fully resolved run configuration (defaults applied)."""

    scenario: str
    params: dict = field(default_factory=dict)
    estimator: EstimatorKind = EstimatorKind.GPLUSD_PBEP
    controller: ControllerKind = ControllerKind.ADAPTIVE
    gamma_g: float = 100.0
    gamma: float = 50.0
    lam: float = 10.0
    x0: Optional[tuple] = None
    theta_hat0: Optional[tuple] = None
    theta_g0: Optional[tuple] = None
    overparam_hat0: Optional[tuple] = None
    t_end: float = 20.0
    h: float = 1e-3
    decimation: int = 10
    substeps: Optional[int] = None
    seed: int = 0
    c_c: float = 1e-3
    out_dir: str = "out"


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


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    if cfg.scenario == "custom":
        raise ConfigError(
            "scenario=custom carries no built-in plant; construct a "
            "Scenario through the library API instead")
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
    if scenario not in _SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario {scen_raw!r}; expected one of "
                          f"{sorted(_SCENARIO_KEYS)}", scen_line)

    allowed = set(_COMMON_KEYS) | set(_SCENARIO_KEYS[scenario])
    for key, (_, line) in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for scenario "
                              f"{scenario!r}", line)

    cfg = ScenarioConfig(scenario=scenario,
                         params=dict(_PHYS_DEFAULTS[scenario]))

    def take(key):
        return entries.pop(key, (None, 0))

    for key in _SCENARIO_KEYS[scenario]:
        raw, line = take(key)
        if raw is not None:
            cfg.params[key] = _parse_float(raw, key, line)

    raw, line = take("estimator")
    if raw is not None:
        try:
            cfg.estimator = EstimatorKind(raw.lower())
        except ValueError:
            raise ConfigError(f"unknown estimator {raw!r}; expected one of "
                              f"{[k.value for k in EstimatorKind]}", line) from None
    raw, line = take("controller")
    if raw is not None:
        try:
            cfg.controller = ControllerKind(raw.lower())
        except ValueError:
            raise ConfigError(f"unknown controller {raw!r}; expected one of "
                              f"{[k.value for k in ControllerKind]}", line) from None

    float_keys = (("gamma_g", "gamma_g"), ("gamma", "gamma"), ("lambda", "lam"),
                  ("t_end", "t_end"), ("h", "h"), ("c_c", "c_c"))
    lines: dict[str, int] = {}
    for key, attr in float_keys:
        raw, line = take(key)
        if raw is not None:
            setattr(cfg, attr, _parse_float(raw, key, line))
            lines[key] = line
    for key in ("decimation", "seed", "substeps"):
        raw, line = take(key)
        if raw is not None:
            setattr(cfg, key, _parse_int(raw, key, line))
            lines[key] = line
    for key in ("x0", "theta_hat0", "theta_g0", "overparam_hat0"):
        raw, line = take(key)
        if raw is not None:
            setattr(cfg, key, _parse_vector(raw, key, line))
            lines[key] = line
    raw, line = take("out_dir")
    if raw is not None:
        cfg.out_dir = raw

    # positivity and consistency constraints, reported against their lines
    def fail(key, message):
        raise ConfigError(message, lines.get(key, 0))

    if cfg.lam <= 0:
        fail("lambda", f"lambda must be positive (stable filter), got {cfg.lam}")
    if cfg.gamma_g <= 0:
        fail("gamma_g", f"gamma_g must be positive, got {cfg.gamma_g}")
    if cfg.gamma <= 0:
        fail("gamma", f"gamma must be positive, got {cfg.gamma}")
    if cfg.h <= 0:
        fail("h", f"h must be positive, got {cfg.h}")
    if cfg.t_end <= cfg.h:
        fail("t_end", f"t_end must exceed h, got t_end={cfg.t_end} h={cfg.h}")
    if cfg.decimation < 1:
        fail("decimation", f"decimation must be >= 1, got {cfg.decimation}")
    if cfg.substeps is not None and cfg.substeps < 1:
        fail("substeps", f"substeps must be >= 1, got {cfg.substeps}")
    if cfg.c_c <= 0:
        fail("c_c", f"c_c must be positive, got {cfg.c_c}")

    if cfg.scenario != "custom":
        try:
            scen = build_scenario(cfg)
        except (ValueError, ConfigError) as err:
            keys = _SCENARIO_KEYS[scenario]
            raise ConfigError(str(err),
                              min((lines.get(k, 10**9) for k in keys
                                   if k in lines), default=0)) from None
        # resolve remaining defaults so the config round-trips exactly
        plant = scen.plant
        if cfg.x0 is None:
            cfg.x0 = tuple(scen.x0_default.tolist())
        elif len(cfg.x0) != plant.n:
            fail("x0", f"x0 needs {plant.n} components, got {len(cfg.x0)}")
        if cfg.theta_hat0 is None:
            cfg.theta_hat0 = tuple(scen.theta_hat0_default.tolist())
        elif len(cfg.theta_hat0) != plant.param_map.q:
            fail("theta_hat0", f"theta_hat0 needs {plant.param_map.q} "
                 f"components, got {len(cfg.theta_hat0)}")
        if cfg.substeps is None:
            cfg.substeps = scen.substeps
        if cfg.estimator is EstimatorKind.GPLUSD_PBEP:
            p = plant.param_map.p
            if cfg.theta_g0 is None:
                cfg.theta_g0 = (0.0,) * p
            elif len(cfg.theta_g0) != p:
                fail("theta_g0", f"theta_g0 needs {p} components, got "
                     f"{len(cfg.theta_g0)}")
        if cfg.estimator is EstimatorKind.GRADIENT_STD:
            if plant.std is None:
                raise ConfigError(
                    f"scenario {scenario!r} has no standard regression data")
            n_w = plant.std.n_w
            if cfg.overparam_hat0 is None:
                cfg.overparam_hat0 = (0.0,) * n_w
            elif len(cfg.overparam_hat0) != n_w:
                fail("overparam_hat0", f"overparam_hat0 needs {n_w} "
                     f"components, got {len(cfg.overparam_hat0)}")
        elif cfg.estimator is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            p = plant.param_map.p
            if cfg.overparam_hat0 is None:
                cfg.overparam_hat0 = tuple(
                    plant.param_map.G(np.asarray(cfg.theta_hat0)).tolist())
            elif len(cfg.overparam_hat0) != p:
                fail("overparam_hat0", f"overparam_hat0 needs {p} "
                     f"components, got {len(cfg.overparam_hat0)}")
    return cfg


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
    for key in _SCENARIO_KEYS[cfg.scenario]:
        lines.append(f"{key} = {_fmt_value(cfg.params[key])}")
    for key, attr in (("estimator", "estimator"), ("controller", "controller"),
                      ("gamma_g", "gamma_g"), ("gamma", "gamma"),
                      ("lambda", "lam"), ("t_end", "t_end"), ("h", "h"),
                      ("decimation", "decimation"), ("substeps", "substeps"),
                      ("seed", "seed"), ("c_c", "c_c"), ("x0", "x0"),
                      ("theta_hat0", "theta_hat0"), ("theta_g0", "theta_g0"),
                      ("overparam_hat0", "overparam_hat0"),
                      ("out_dir", "out_dir")):
        value = getattr(cfg, attr)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def sim_config(cfg: ScenarioConfig) -> SimConfig:
    return SimConfig(
        t_end=cfg.t_end, h=cfg.h, estimator=cfg.estimator,
        controller=cfg.controller, gamma_g=cfg.gamma_g, gamma=cfg.gamma,
        lam=cfg.lam,
        x0=None if cfg.x0 is None else np.asarray(cfg.x0),
        theta_hat0=None if cfg.theta_hat0 is None else np.asarray(cfg.theta_hat0),
        theta_g0=None if cfg.theta_g0 is None else np.asarray(cfg.theta_g0),
        overparam_hat0=(None if cfg.overparam_hat0 is None
                        else np.asarray(cfg.overparam_hat0)),
        decimation=cfg.decimation, substeps=cfg.substeps, c_c=cfg.c_c)


class CsvTraceWriter:
    """Streams trace rows to a CSV file in full-precision scientific form."""

    def __init__(self, path: Path):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self.n_cols = 0

    def header(self, columns):
        self.n_cols = len(columns)
        self._fh.write(",".join(columns) + "\n")

    def row(self, values):
        self._fh.write(",".join(f"{v:.17e}" for v in values) + "\n")

    def close(self):
        self._fh.flush()
        self._fh.close()


def _report_lines(cfg: ScenarioConfig, report: RunReport) -> list[str]:
    lines = emit_config(cfg).splitlines()
    lines.append("")

    def add(key, value):
        if value is None:
            return
        if isinstance(value, np.ndarray):
            value = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"result_{key} = {value}")

    add("x_final", report.x_final)
    add("theta_hat_final", report.theta_hat_final)
    add("overparam_hat_final", report.overparam_hat_final)
    add("theta_err_rel_final", report.theta_err_rel_final)
    add("regulation_error_final", report.regulation_error_final)
    add("settling_time_param", report.settling_time_param)
    add("settling_time_regulation", report.settling_time_regulation)
    add("gram_min_eig_final", report.gram_min_eig_final)
    add("is_ie", report.is_ie)
    add("t_c", report.t_c)
    add("max_power_residual", report.max_power_residual)
    add("max_power_residual_outer", report.max_power_residual_outer)
    add("abel_gap", report.abel_gap)
    add("delta_final", report.delta_final)
    add("det_phi_final", report.det_phi_final)
    add("wall_seconds", report.wall_seconds)
    add("n_steps", report.n_steps)
    add("aborted", report.aborted)
    add("abort_time", report.abort_time)
    add("abort_component", report.abort_component)
    add("trace_rows", report.trace_rows)
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
        plots.append(f'{tv!r} with lines dashtype 2 title "theta{i + 1} true"')
    lines.append("plot " + ", \\\n     ".join(plots))
    lines += ['set output "regulation.png"', 'set title "regulation"']
    plots = [f'"trace.csv" using 1:{col[f"x{i + 1}"]} with lines title "x{i + 1}"'
             for i in range(scen.plant.n)]
    target = scen.controller.target
    if target.get("kind") == "setpoint":
        plots.append(f'{target["x2_star"]!r} with lines dashtype 2 '
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
    except (OSError, ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = None
    code = 0
    try:
        report = run(scen, sim_config(cfg), trace=writer)
    except NonFiniteStateError as err:
        print(f"error: simulation aborted: {err}", file=sys.stderr)
        report = RunReport(
            scenario=cfg.scenario, estimator=cfg.estimator.value,
            controller=cfg.controller.value, t_end=cfg.t_end, h=cfg.h,
            substeps=cfg.substeps or 0, decimation=cfg.decimation,
            x0=np.asarray(cfg.x0), theta_hat0=np.asarray(cfg.theta_hat0),
            aborted=True, abort_time=err.t, abort_component=err.component)
        code = 2
    finally:
        writer.close()
    try:
        (out / "report.txt").write_text("\n".join(_report_lines(cfg, report))
                                        + "\n", encoding="utf-8")
        with open(out / "trace.csv", encoding="utf-8") as fh:
            columns = fh.readline().strip().split(",")
        (out / "plot.gp").write_text(_plot_script(cfg, scen, columns),
                                     encoding="utf-8")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if code == 0:
        print(f"run complete: {out / 'trace.csv'} ({report.trace_rows} rows), "
              f"report in {out / 'report.txt'}")
    return code


def check_command(cfg: ScenarioConfig, box=None, samples: int = 10000,
                  seed: Optional[int] = None) -> int:
    """Monotonicity estimates for the scenario's parameter selection."""
    try:
        scen = build_scenario(cfg)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    q = scen.plant.param_map.q
    if box is None:
        box = np.tile([0.1, 10.0], (q, 1))
    else:
        box = np.asarray(box, dtype=float)
        if box.shape == (1, 2):
            box = np.tile(box, (q, 1))
    rep = check_monotonicity(scen.plant.param_map, box, n_samples=samples,
                             seed=cfg.seed if seed is None else seed)
    for i in range(q):
        print(f"box_theta{i + 1} = [{rep.box[i, 0]}, {rep.box[i, 1]}]")
    print(f"samples = {rep.sample_count}")
    print(f"seed = {rep.seed}")
    print(f"rho_jacobian = {rep.rho_jacobian:.12g}")
    print(f"rho_secant = {rep.rho_secant:.12g}")
    print(f"monotonicity: {'PASS' if rep.passed else 'FAIL'}")

    trace_path = Path(cfg.out_dir) / "trace.csv"
    if trace_path.exists():
        with open(trace_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            try:
                it, ig = header.index("t"), header.index("gram_min_eig")
            except ValueError:
                print(f"excitation: {trace_path} has no gram_min_eig column")
                return 0
            t_c = None
            for line in fh:
                parts = line.split(",")
                if float(parts[ig]) >= cfg.c_c:
                    t_c = float(parts[it])
                    break
        if t_c is None:
            print(f"excitation: is_IE=false at C_c={cfg.c_c}")
        else:
            print(f"excitation: is_IE=true t_c={t_c:.6g} at C_c={cfg.c_c}")
    return 0


def sweep_command(cfg: ScenarioConfig, grids: list[str],
                  out_dir: Optional[str] = None) -> int:
    """Repeat run over a grid of numeric config keys."""
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
        if key not in ("gamma_g", "gamma", "lambda") \
                and key not in _SCENARIO_KEYS[cfg.scenario]:
            print(f"error: cannot sweep key {key!r}", file=sys.stderr)
            return 1
        try:
            values = np.linspace(float(lo), float(hi), int(steps))
        except ValueError:
            print(f"error: malformed grid range {rng!r}", file=sys.stderr)
            return 1
        axes.append((key, values))
    if not axes:
        print("error: sweep needs at least one --grid", file=sys.stderr)
        return 1

    index_rows = []
    worst = 0
    for cell, combo in enumerate(itertools.product(*(vals for _, vals in axes))):
        cell_cfg = ScenarioConfig(**{**cfg.__dict__,
                                     "params": dict(cfg.params)})
        for (key, _), value in zip(axes, combo):
            if key == "lambda":
                cell_cfg.lam = float(value)
            elif key in ("gamma_g", "gamma"):
                setattr(cell_cfg, key, float(value))
            else:
                cell_cfg.params[key] = float(value)
        cell_dir = out / f"cell_{cell:04d}"
        code = run_command(cell_cfg, out_dir=str(cell_dir))
        worst = max(worst, code)
        row = {"cell": cell}
        row.update({key: value for (key, _), value in zip(axes, combo)})
        row["exit"] = code
        index_rows.append(row)
    try:
        out.mkdir(parents=True, exist_ok=True)
        keys = ["cell"] + [k for k, _ in axes] + ["exit"]
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
    except ConfigError as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 1

    if args.command == "run":
        if args.t_end is not None:
            cfg.t_end = args.t_end
        if args.h is not None:
            cfg.h = args.h
        if cfg.h <= 0 or cfg.t_end <= cfg.h:
            print("error: need h > 0 and t_end > h", file=sys.stderr)
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
