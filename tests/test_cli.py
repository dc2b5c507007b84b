import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbident import circuit_scenario, cli, ph_scenario, run
from pbident.cli import (ConfigError, CsvTraceWriter, _grid, _report_lines,
                         check_command, emit_config, main, parse_config,
                         run_command, sweep_command)
from pbident.sim import ControllerKind, EstimatorKind, SimConfig


def test_minimal_circuit_defaults():
    cfg = parse_config("scenario = circuit\n")
    assert cfg.scenario == "circuit"
    assert cfg.params == {"theta1": 1.0, "theta2": 1.5, "alpha": 2.0,
                          "E": 15.0, "kp": 10.0, "kappa": 15.0}
    assert cfg.gamma_g == 100.0
    assert cfg.gamma == 50.0
    assert cfg.lam == 10.0
    assert cfg.estimator is EstimatorKind.GPLUSD_PBEP
    assert cfg.controller is ControllerKind.ADAPTIVE
    assert cfg.t_end == 20.0 and cfg.h == 1e-3
    assert cfg.x0 == (0.0, 0.0)
    assert cfg.theta_hat0 == (0.0, 0.0)
    assert cfg.theta_g0 == (0.0, 0.0, 0.0)
    assert cfg.substeps == 4


def test_minimal_ph_defaults():
    cfg = parse_config("scenario = ph\n")
    assert cfg.params == {"a": 1.0, "theta": 1.0}
    assert cfg.x0 == (1.0, 1.0)
    assert cfg.theta_hat0 == (0.5,)
    assert cfg.substeps == 1


def test_comments_and_blank_lines():
    text = """
# full circuit configuration
scenario = circuit   # trailing comment
gamma = 30.0
"""
    cfg = parse_config(text)
    assert cfg.gamma == 30.0


def test_error_lambda_positivity():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = circuit\nlambda = 0\n")
    assert "positive" in str(err.value)
    assert err.value.line == 2


def test_error_ph_theta_zero():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = ph\ntheta = 0\n")
    assert "nonzero" in str(err.value)


def test_error_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = ph\ntheta1 = 3\n")
    assert "unknown key" in str(err.value)
    assert err.value.line == 2


def test_error_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = ph\na = 1\na = 2\n")
    assert "duplicate" in str(err.value)
    assert err.value.line == 3


def test_error_missing_scenario():
    with pytest.raises(ConfigError):
        parse_config("gamma = 1\n")


def test_error_type_mismatch():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = circuit\ngamma = fast\n")
    assert "number" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("scenario = circuit\ndecimation = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = circuit\nx0 = 1,zebra\n")


def test_error_wrong_vector_length():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = circuit\nx0 = 1,2,3\n")
    assert "components" in str(err.value)


def test_error_unknown_enum():
    with pytest.raises(ConfigError):
        parse_config("scenario = circuit\nestimator = magic\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = circuit\ncontroller = psychic\n")


def test_error_malformed_line():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = ph\njust some words\n")
    assert err.value.line == 2


def test_error_custom_scenario_is_unknown():
    # a custom plant is a Scenario built through the library; a config names
    # one of the shipped scenarios
    with pytest.raises(ConfigError) as err:
        parse_config("# plant\nscenario = custom\n")
    assert "unknown scenario 'custom'" in str(err.value)
    assert err.value.line == 2


def test_round_trip_identity():
    texts = [
        "scenario = circuit\n",
        "scenario = ph\ntheta = 2.0\ngamma = 1.5\nx0 = 0.25,0.5\n",
        "scenario = circuit\nestimator = gradient_std\ngamma = 30.0\n"
        "overparam_hat0 = 0.0,0.0,0.0\nseed = 3\n",
        "scenario = ph\nestimator = gradient_pbep_overparam\nx0 = 0.3,0.3\n",
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(emit_config(cfg)) == cfg


def short_cfg(**over):
    cfg = parse_config("scenario = circuit\n")
    return replace(cfg, **{"t_end": 0.2, "decimation": 20, **over})


def test_run_command_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_command(short_cfg(), out_dir=str(out)) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    header = trace[0].split(",")
    assert header == ["t", "x1", "x2", "u", "yp1", "yp2", "theta_hat1",
                      "theta_hat2", "delta", "det_phi", "gram_min_eig",
                      "power_residual"]
    assert len(trace) == 1 + 11          # header + decimated rows
    # full-precision scientific notation, comma separated
    first = trace[1].split(",")
    assert all("e" in v for v in first)
    assert float(first[0]) == 0.0
    report = (out / "report.txt").read_text()
    assert "scenario = circuit" in report
    assert "result_theta_hat_final" in report
    assert "result_is_ie" in report
    plot = (out / "plot.gp").read_text()
    assert 'set datafile separator ","' in plot
    assert "estimates.png" in plot and "regulation.png" in plot


@pytest.mark.parametrize("scenario", ["ph", "circuit"])
def test_plot_script_numbers_parse(tmp_path, scenario):
    # gnuplot reads the constant plot operands (true parameters, setpoint)
    # as numbers, so they must be plain float literals
    cfg = replace(parse_config(f"scenario = {scenario}\n"), t_end=0.05)
    assert run_command(cfg, out_dir=str(tmp_path)) == 0
    plot = (tmp_path / "plot.gp").read_text()
    assert "np." not in plot
    commands = plot.replace(", \\\n", ", ").splitlines()
    operands = [op.strip() for line in commands if line.startswith("plot ")
                for op in line[len("plot "):].split(", ")]
    constants = [op.split()[0] for op in operands
                 if not op.startswith('"trace.csv"')]
    # the true parameters, plus the circuit's setpoint
    assert len(constants) == {"ph": 1, "circuit": 3}[scenario]
    for token in constants:
        float(token)


def test_run_command_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_command(short_cfg(), out_dir=str(a)) == 0
    assert run_command(short_cfg(), out_dir=str(b)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_command_unwritable_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = run_command(short_cfg(), out_dir=str(blocker / "sub"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def report_results(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines()
                if line.startswith("result_"))


def test_run_command_abort_flushes_partial_trace(tmp_path, capsys):
    # forcing a single substep destabilizes the circuit loop at h = 1e-3
    cfg = short_cfg(substeps=1, t_end=20.0, decimation=10)
    out = tmp_path / "boom"
    code = run_command(cfg, out_dir=str(out))
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: simulation aborted: non-finite plant state "
                   "at t=2.212"]
    report = report_results(out / "report.txt")
    assert report["result_aborted"] == "true"
    assert report["result_abort_time"] == "2.2119999999998674"
    assert report["result_abort_component"] == "plant state"
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) > 1                 # partial trace was flushed
    # the report describes the partial run, not an empty one
    assert report["result_trace_rows"] == str(len(rows) - 1)
    assert report["result_n_steps"] == "2212"
    assert len(report["result_x_final"].split(",")) == 2
    assert float(report["result_wall_seconds"]) > 0.0


def test_check_command_circuit(capsys):
    cfg = parse_config("scenario = circuit\n")
    assert check_command(cfg, samples=500) == 0
    out = capsys.readouterr().out
    assert "rho_jacobian = 1" in out
    assert "monotonicity: PASS" in out


def test_check_command_reads_excitation_from_trace(tmp_path, capsys):
    cfg = short_cfg(t_end=1.0)
    cfg.out_dir = str(tmp_path / "run")
    assert run_command(cfg) == 0
    capsys.readouterr()
    assert check_command(cfg, samples=200) == 0
    out = capsys.readouterr().out
    assert "excitation: is_IE=true" in out


def ph_trace(tmp_path):
    """A short ph run's config and the path of its trace.csv."""
    cfg = parse_config("scenario = ph\n")
    cfg = replace(cfg, t_end=0.2, decimation=1, out_dir=str(tmp_path / "run"))
    assert run_command(cfg) == 0
    return cfg, tmp_path / "run" / "trace.csv"


def test_check_command_reports_a_truncated_trace(tmp_path, capsys):
    # an interrupted run leaves a trace whose last row is cut short
    cfg, path = ph_trace(tmp_path)
    path.write_bytes(path.read_bytes()[:200])
    capsys.readouterr()
    assert check_command(cfg, samples=200) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ")
    assert "fields, expected" in err and len(err.splitlines()) == 1


def test_check_command_reports_a_non_numeric_gram_min_eig(tmp_path, capsys):
    cfg, path = ph_trace(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    ig = header.index("gram_min_eig")
    parts = lines[3].split(",")
    parts[ig] = "oops"
    lines[3] = ",".join(parts)
    path.write_text("".join(lines))
    capsys.readouterr()
    assert check_command(cfg, samples=200) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 4: ")
    assert "oops" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("data, line", [
    (b"t,gram_min_eig\n\xff,1\n", 2),
    (b"t,gram_\xffmin_eig\n0.0,1\n", 1),
], ids=["row", "header"])
def test_check_command_reports_a_trace_that_is_not_utf8(tmp_path, capsys,
                                                        data, line):
    # the line that does not decode is named, with no traceback
    cfg, path = ph_trace(tmp_path)
    path.write_bytes(data)
    capsys.readouterr()
    assert check_command(cfg, samples=200) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: 'utf-8' codec can't "
                          f"decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_check_command_reads_an_empty_trace_as_no_column(tmp_path, capsys):
    cfg, path = ph_trace(tmp_path)
    path.write_bytes(b"")
    capsys.readouterr()
    assert check_command(cfg, samples=200) == 0
    assert "has no gram_min_eig column" in capsys.readouterr().out


def test_sweep_command(tmp_path, capsys):
    cfg = short_cfg()
    out = tmp_path / "sweep"
    assert sweep_command(cfg, ["gamma=30:50:2"], out_dir=str(out)) == 0
    index = (out / "index.csv").read_text().splitlines()
    assert index[0] == "cell,gamma,exit"
    assert len(index) == 3
    assert (out / "cell_0000" / "trace.csv").exists()
    assert (out / "cell_0001" / "report.txt").exists()


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    cfg = short_cfg()
    assert sweep_command(cfg, ["nonsense"], out_dir=str(tmp_path)) == 1
    assert sweep_command(cfg, ["x0=0:1:2"], out_dir=str(tmp_path)) == 1
    assert sweep_command(cfg, ["decimation=1:3:2"], out_dir=str(tmp_path)) == 1


def test_main_run_and_errors(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("scenario = circuit\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--t-end", "0.1"]) == 0
    assert (out / "trace.csv").exists()
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = circuit\nlambda = 0\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_main_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff")
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "utf-8" in err and len(err.splitlines()) == 1


def test_main_check(tmp_path, capsys):
    path = tmp_path / "p.cfg"
    path.write_text("scenario = ph\n")
    assert main(["check", str(path), "--samples", "300",
                 "--box", "0.1,10"]) == 0
    out = capsys.readouterr().out
    assert "rho_jacobian = 1" in out


def test_csv_row_template_matches_per_value_format(tmp_path):
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1.0 / 3.0,
              -1.5e300, float("inf"), float("-inf"), float("nan"),
              np.float64(2.0) / 3.0, np.float64(-0.0), np.float64("nan"),
              7, -3, True, False]
    writer = CsvTraceWriter(tmp_path / "t.csv")
    writer.header([f"c{i}" for i in range(len(values))])
    writer.row(values)
    writer.row(values[::-1])
    writer.close()
    lines = (tmp_path / "t.csv").read_text().splitlines(keepends=True)
    assert lines[1] == ",".join(f"{v:.17e}" for v in values) + "\n"
    assert lines[2] == ",".join(f"{v:.17e}" for v in values[::-1]) + "\n"


@pytest.mark.parametrize("line", ["h = nan", "h = inf", "t_end = inf",
                                  "t_end = nan", "t_end = -inf",
                                  "gamma = nan", "lambda = inf"])
def test_error_non_finite_numbers(line):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = circuit\n{line}\n")
    assert "finite" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("flags", [["--h", "nan"], ["--t-end", "inf"],
                                   ["--t-end", "nan"], ["--h", "inf"],
                                   ["--t-end", "1e300"]])
def test_main_run_rejects_non_finite_override(tmp_path, capsys, flags):
    path = tmp_path / "c.cfg"
    path.write_text("scenario = circuit\n")
    assert main(["run", str(path), "--out", str(tmp_path / "o")] + flags) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("lines", [
    "gamma_g = nan", "gamma = inf", "lambda = nan", "c_c = -inf",
    "x0 = nan,0", "theta_hat0 = 0,inf", "theta_g0 = 0,0,nan",
    "estimator = gradient_std\noverparam_hat0 = inf,0,0",
    "t_end = 1e300\nh = 1e-300", "t_end = 1e300"])
def test_main_run_rejects_unusable_settings(tmp_path, capsys, lines):
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\n{lines}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lines", ["theta_hat0 = 0", "estimator = gradient_std"])
def test_main_run_zero_ph_estimate_aborts_with_a_report(tmp_path, capsys,
                                                        lines):
    # beta divides by the estimate: theta_hat0 = 0, or gradient_std's
    # default overparam_hat0 = 0, makes the first step non-finite
    path = tmp_path / "p.cfg"
    path.write_text(f"scenario = ph\nt_end = 1.0\n{lines}\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: simulation aborted: non-finite plant state "
                   "at t=0.001"]
    report = report_results(out / "report.txt")
    assert report["result_n_steps"] == "1"
    assert report["result_trace_rows"] == "1"


@pytest.mark.parametrize("lines, component, steps", [
    # the Gram overflows before the filter state does
    ("scenario = ph\nlambda = 1e8", "filter state", 17),
    # eigh does not converge on the gradient's non-finite matrix regressor
    ("scenario = circuit\nestimator = gradient_std\n"
     "controller = known_parameter\ntheta2 = 33\nkappa = 38", "plant state", 31),
    # 100 ** alpha overflows in the state-equation parameter extraction
    ("scenario = circuit\nestimator = gradient_std\nalpha = 200",
     "plant state", 1),
    # kappa ** 2 overflows in the circuit's equilibrium
    ("scenario = circuit\nkappa = -1e300", "plant state", 1),
])
def test_main_run_overflow_ends_in_an_abort(tmp_path, capsys, lines,
                                            component, steps):
    path = tmp_path / "c.cfg"
    path.write_text(f"{lines}\nt_end = 0.031\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: simulation aborted")
    report = report_results(out / "report.txt")
    assert report["result_abort_component"] == component
    assert report["result_n_steps"] == str(steps)


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "1"],
                                   ["--box", "5,1"], ["--seed", "-1"],
                                   ["--box", "1,2", "--box", "1,2",
                                    "--box", "1,2"]])
def test_main_check_rejects_bad_arguments(tmp_path, capsys, flags):
    path = tmp_path / "p.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n")
    assert main(["check", str(path)] + flags) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("box", ["nan,1", "0,inf", "-inf,1",
                                 "1e308,1.7e308", "1e200,1e201"])
def test_main_check_ends_a_non_finite_box_in_one_line(tmp_path, capsys, box):
    # a nan or inf bound is refused as the box's; the finite boxes overflow
    # the circuit's Jacobian (1e308) or only W (1e200), which the sampler
    # refuses, with no numpy warning printed before either error
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", str(path), f"--box={box}", "--samples",
                     "50"]) == 1
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if box == "1e200,1e201":
        assert err[0].startswith("error: the secant ratio of W is not finite "
                                 "for the pair theta = [")
        assert err[0].endswith(" in the box [[1e+200, 1e+201], "
                               "[1e+200, 1e+201]]")
    elif box != "1e308,1.7e308":
        assert err[0].startswith("error: box bounds must be finite, got [[")


@pytest.mark.parametrize("boxes", [["-1,1"], ["-0.5,2", "-2,-1"]])
def test_main_check_takes_a_negative_lower_bound_after_box(tmp_path, capsys,
                                                           boxes):
    # argparse alone reads -1,1 as an option and exits 2
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n")
    flags = [arg for box in boxes for arg in ("--box", box)]
    assert main(["check", str(path), *flags, "--samples", "50"]) == 0
    out = capsys.readouterr().out
    for i, box in enumerate(boxes * (3 - len(boxes)), 1):
        lo, hi = map(float, box.split(","))
        assert f"box_theta{i} = [{lo}, {hi}]\n" in out


def test_main_check_ends_a_negative_infinite_bound_after_box_in_one_line(
        tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n")
    assert main(["check", str(path), "--box", "-inf,1", "--samples",
                 "50"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: box bounds must be finite, got [[-inf, 1.0], "
                   "[-inf, 1.0]]"]


def test_main_check_help_shows_a_negative_lower_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--help"])
    assert info.value.code == 0
    assert "--box -1,1" in " ".join(capsys.readouterr().out.split())


def test_main_check_names_the_box_and_sample_where_the_jacobian_overflows(
        tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n")
    assert main(["check", str(path), "--box", "1e308,1.7e308", "--samples",
                 "50"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: sym(P T J_G) is not finite at theta = [")
    assert err[0].endswith(" in the box [[1e+308, 1.7e+308], "
                           "[1e+308, 1.7e+308]]")


@pytest.mark.parametrize("route", ["option", "config"])
def test_main_check_refuses_a_negative_seed_by_name(tmp_path, capsys, route):
    # numpy's own message, `expected non-negative integer`, names no key
    path = tmp_path / "c.cfg"
    path.write_text(f"scenario = circuit\nout_dir = {tmp_path / 'none'}\n"
                    + ("seed = -3\n" if route == "config" else ""))
    flags = ["--seed", "-1"] if route == "option" else []
    assert main(["check", str(path), "--samples", "50", *flags]) == 1
    seed = -1 if route == "option" else -3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: seed must be a non-negative integer, got {seed}"]


@pytest.mark.parametrize("grid", ["gamma=1:2:0", "gamma=1:2:-3",
                                  "gamma=nan:2:2", "kp=1:inf:2",
                                  "gamma=-1:1:3", "lambda=0:1:2"])
def test_main_sweep_rejects_bad_grid(tmp_path, capsys, grid):
    path = tmp_path / "c.cfg"
    path.write_text("scenario = circuit\nt_end = 0.01\n")
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--grid", grid, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("grids", [["gamma=1:2:1000000000000"],
                                   ["gamma=1:2:100", "gamma_g=1:2:101"]])
def test_main_sweep_refuses_more_than_10000_cells(tmp_path, capsys,
                                                  monkeypatch, grids):
    # refused before any axis is built: 10**12 steps would exhaust memory
    def no_grid(*args):
        raise AssertionError("_grid called")
    monkeypatch.setattr(cli, "_grid", no_grid)
    path = tmp_path / "c.cfg"
    path.write_text("scenario = ph\nt_end = 0.01\n")
    out = tmp_path / "sweep"
    args = [arg for grid in grids for arg in ("--grid", grid)]
    assert main(["sweep", str(path), *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --grid gives ")
    assert not out.exists()


def test_sweep_runs_10000_cells(tmp_path, monkeypatch):
    # the largest grid whose cell_NNNN directories list in cell order
    names = []
    monkeypatch.setattr(cli, "run_command",
                        lambda cfg, out_dir: names.append(out_dir) or 0)
    out = tmp_path / "sweep"
    assert sweep_command(short_cfg(), ["gamma=1:2:100", "gamma_g=1:2:100"],
                         out_dir=str(out)) == 0
    assert len(names) == 10_000 and names == sorted(names)
    assert len((out / "index.csv").read_text().splitlines()) == 10_001


def test_report_parses_back_to_its_config(tmp_path, capsys):
    cfg = short_cfg()
    cfg.out_dir = str(tmp_path / "run")
    assert run_command(cfg) == 0
    report = (tmp_path / "run" / "report.txt").read_text()
    assert "result_x_final" in report
    assert parse_config(report) == parse_config(emit_config(cfg))
    # only result_* keys are skipped; other unknown keys stay errors
    with pytest.raises(ConfigError) as err:
        parse_config(report + "resultx = 1\n")
    assert "unknown key" in str(err.value)
    # and the report reruns the same simulation byte for byte
    again = tmp_path / "again"
    assert main(["run", str(tmp_path / "run" / "report.txt"),
                 "--out", str(again)]) == 0
    assert (again / "trace.csv").read_bytes() == \
        (tmp_path / "run" / "trace.csv").read_bytes()


# -- float forms of the former numpy bridges, bit for bit ----------------------

def _bits(values):
    """float64 bytes, with every nan read as one nan."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False),
       steps=st.integers(1, 50))
@example(lo=1.0, hi=1.0, steps=5)                        # lo == hi
@example(lo=150.0, hi=75.0, steps=10)                    # lo > hi
@example(lo=0.0, hi=5e-324, steps=7)                     # the step is 0
@example(lo=-5e-324, hi=5e-324, steps=50)
@example(lo=1e-310, hi=1.0000000000001e-310, steps=3)
@example(lo=-1.7976931348623157e308, hi=1.7976931348623157e308, steps=4)
@example(lo=1.7976931348623157e308, hi=-1e308, steps=1)  # hi - lo overflows
@example(lo=-0.0, hi=0.0, steps=3)
@example(lo=75.0, hi=125.0, steps=10)
def test_sweep_grid_is_linspace_bit_for_bit(lo, hi, steps):
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, steps)
    got = _grid(lo, hi, steps)
    assert _bits(np.array(got)) == _bits(want)
    # index.csv writes each value with str()
    assert [str(v) for v in got] == [str(v) for v in want]


def _former_result_line(key, value):
    """A report.txt result line as it was written while the report's
    vectors were ndarrays."""
    if isinstance(value, np.ndarray):
        value = ",".join(repr(float(v)) for v in value)
    elif isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, float):
        value = repr(value)
    return f"result_{key} = {value}"


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -1e-300, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0)


@pytest.mark.parametrize("case", ["ph-gplusd", "circuit-gradient", "abort",
                                  "edges"])
def test_report_lines_of_tuples_are_the_former_ndarray_lines(case):
    cfg = parse_config("scenario = circuit\n" if case == "circuit-gradient"
                       else "scenario = ph\n")
    if case == "ph-gplusd":
        rep = run(ph_scenario(), SimConfig(t_end=0.2))
    elif case == "circuit-gradient":
        rep = run(circuit_scenario(), SimConfig(
            t_end=0.2, estimator=EstimatorKind.GRADIENT_STD, gamma=30.0))
        assert rep.overparam_hat_final is not None
    elif case == "abort":
        rep = run(ph_scenario(), SimConfig(t_end=0.2, theta_hat0=(0.0,)))
        assert rep.aborted
    else:
        rep = run(ph_scenario(), SimConfig(t_end=0.2))
        rep.x_final = EDGE_FLOATS[:5]
        rep.theta_hat_final = EDGE_FLOATS[5:]
        rep.overparam_hat_final = ()
    vectors = [f.name for f in fields(rep)
               if isinstance(getattr(rep, f.name), tuple)]
    assert {"x0", "theta_hat0", "x_final", "theta_hat_final"} <= set(vectors)
    as_arrays = replace(rep, **{name: np.array(getattr(rep, name), dtype=float)
                                for name in vectors})
    results = [line for line in _report_lines(cfg, rep)
               if line.startswith("result_")]
    assert len(results) > len(vectors)
    for line in results:
        key = line.partition(" = ")[0][len("result_"):]
        # the last line, result_trace, names the trace file
        assert line == _former_result_line(
            key, getattr(as_arrays, key, "trace.csv"))
