"""Property tests of the run contract.

A parsed configuration round-trips through its text form, and every
configuration that parses runs to one of two ends: a completed run (exit
0) or an abort (exit 2) with a filled report and one `error:` line.
"""

import contextlib
import io
import math
import string
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pbident.cli import ConfigError, emit_config, parse_config, run_command

ESTIMATORS = ["gplusd_pbep", "gradient_std", "gradient_pbep_overparam", "none"]
CONTROLLERS = ["adaptive", "known_parameter", "open_loop"]
# (q, p, n_w): estimate, stacked power-balance and state-equation dimensions
DIMS = {"ph": (1, 2, 2), "circuit": (2, 3, 3)}

# fixed example sequence: the suite gives the same verdict on every run
checked = settings(derandomize=True, database=None, deadline=None)


def fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return repr(value)


@st.composite
def config_texts(draw, scalars, vector, always, broken=None):
    """Config text with the scenario, estimator, controller and the keys of
    `always` set, and every other key present or not.  A value of `always`
    is a strategy, or a function of the values drawn before it that gives
    one.  `scalars(scenario)` maps keys to value strategies; `vector(size)`
    draws a vector meant to have `size` components.  With `broken`, one key
    may instead take a value drawn from it."""
    scenario = draw(st.sampled_from(sorted(DIMS)))
    estimator = draw(st.sampled_from(ESTIMATORS))
    q, p, n_w = DIMS[scenario]
    sizes = {"x0": 2, "theta_hat0": q, "theta_g0": p,
             "overparam_hat0": n_w if estimator == "gradient_std" else p}
    values = {"scenario": scenario, "estimator": estimator,
              "controller": draw(st.sampled_from(CONTROLLERS))}
    for key, value in always.items():
        values[key] = draw(value if isinstance(value, st.SearchStrategy)
                           else value(values))
    optional = {**scalars(scenario),
                **{key: vector(size) for key, size in sizes.items()}}
    for key, value in optional.items():
        if draw(st.booleans()):
            values[key] = draw(value)
    if broken is not None and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(set(optional) | set(always))))
        values[key] = draw(broken(key, sizes.get(key)))
    lines = [f"{key} = {fmt(value)}" for key, value in values.items()]
    return "\n".join(draw(st.permutations(lines))) + "\n"


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def valid_scalars(scenario):
    if scenario == "ph":
        params = {"a": st.floats(-10.0, 10.0),
                  "theta": st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)}
    else:
        params = {"theta1": st.floats(0.1, 10.0), "theta2": st.floats(0.1, 10.0),
                  "alpha": st.floats(0.0, 5.0), "E": st.floats(0.1, 100.0),
                  "kp": st.floats(0.1, 100.0), "kappa": st.floats(0.1, 100.0)}
    return {**params, "gamma_g": positive, "gamma": positive,
            "lambda": positive, "c_c": positive,
            "decimation": st.integers(1, 10**6), "substeps": st.integers(1, 16),
            "seed": st.integers(0, 2**63),
            "out_dir": st.text(string.ascii_letters + string.digits + "/._-",
                               min_size=1)}


def whole_steps(t_lo, t_hi):
    """t_end from t_lo to t_hi as a whole number (at least 2) of steps of
    the drawn h."""
    def draw_t_end(values):
        h = values["h"]
        return st.integers(max(2, math.ceil(t_lo / h)),
                           max(2, math.floor(t_hi / h))).map(lambda n: n * h)
    return draw_t_end


@checked
@given(config_texts(valid_scalars,
                    lambda size: st.tuples(*[st.floats(0.1, 10.0)] * size),
                    always={"h": st.floats(1e-6, 1.0),
                            "t_end": whole_steps(2.0, 1e6)}))
def test_parse_emit_round_trip(text):
    cfg = parse_config(text)
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert emit_config(again) == emit_config(cfg)


# accepted values reaching far from the shipped ones, plus one key at most
# with a value that may be refused
usable = st.floats(0.01, 100.0)
extreme = st.sampled_from([1e-300, 1e-8, 1e8, 1e300])
anything = st.one_of(st.floats(-1e3, 1e3), extreme, st.sampled_from(
    [0.0, -1.0, -1e300, math.nan, math.inf, -math.inf]))


def far_scalars(scenario):
    params = {"ph": ("a", "theta"),
              "circuit": ("theta1", "theta2", "alpha", "E", "kp", "kappa")}
    return {**{key: usable | extreme | anything for key in params[scenario]},
            **{key: usable | extreme
               for key in ("gamma_g", "gamma", "lambda", "c_c")},
            "decimation": st.integers(1, 30), "substeps": st.integers(1, 5)}


def broken(key, size):
    if size is not None:
        return st.lists(anything, min_size=1, max_size=4).map(tuple)
    if key in ("decimation", "substeps"):
        return st.integers(-2, 0)
    if key in ("h", "t_end"):            # refused values only: runs stay short
        return st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.nan, math.inf,
                                0.0123456789])   # not a multiple of h
    return anything


@settings(checked, max_examples=300)
@given(config_texts(far_scalars,
                    lambda size: st.tuples(*[usable | extreme | st.floats(
                        -1e300, 1e300)] * size),
                    always={"h": st.sampled_from([1e-3, 2e-3, 1e-2]),
                            "t_end": whole_steps(0.011, 0.05)},
                    broken=broken))
def test_parsed_config_runs_to_a_report_or_an_abort(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_command(cfg, out_dir=tmp)
        rows = len((Path(tmp) / "trace.csv").read_text().splitlines()) - 1
        report = dict(line.split(" = ", 1) for line in
                      (Path(tmp) / "report.txt").read_text().splitlines()
                      if line.startswith("result_"))
    errors = err.getvalue().splitlines()
    assert code in (0, 2)
    assert report["result_trace_rows"] == str(rows) and rows >= 1
    assert int(report["result_n_steps"]) >= 1
    assert report["result_x_final"] and "result_wall_seconds" in report
    if code == 0:
        assert report["result_aborted"] == "false" and errors == []
    else:
        assert report["result_aborted"] == "true"
        assert len(errors) == 1
        assert errors[0].startswith("error: simulation aborted")
