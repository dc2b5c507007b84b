from dataclasses import replace

import numpy as np
import pytest

from pbident.cli import (ConfigError, CsvTraceWriter, check_command,
                         emit_config, main, parse_config, run_command,
                         sweep_command)
from pbident.sim import ControllerKind, EstimatorKind


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
