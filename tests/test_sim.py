import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbident import (ControllerKind, EstimatorKind, ExcitationRecord,
                     SimConfig, World, excitation_report, run, step)
from pbident.sim import ConfigValueError
from conftest import (ListTrace, NoNumpy, numpy_correction,
                      numpy_gplusd_propagate, numpy_gradient_propagate,
                      numpy_sample, numpy_stages)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(h=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1e-3, h=1e-3)
    with pytest.raises(ValueError):
        SimConfig(decimation=0)
    with pytest.raises(ValueError):
        SimConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SimConfig(lam=0.0)
    with pytest.raises(ValueError):
        SimConfig(substeps=0)
    with pytest.raises(ValueError):
        SimConfig(c_c=0.0)


@pytest.mark.parametrize("key, value", [
    ("substeps", 2.0), ("substeps", 2.5), ("decimation", 2.5),
    ("decimation", "3"), ("decimation", True), ("substeps", False),
    ("decimation", None)])
def test_config_rejects_a_count_that_is_not_an_int(ph, key, value):
    # 2.0 and 2.5 substeps used to end in range()'s TypeError in World,
    # and decimation 2.5 wrote rows at k % 2.5 == 0
    with pytest.raises(ConfigValueError, match="must be an integer") as err:
        SimConfig(**{key: value})
    assert err.value.key == key
    assert str(err.value).startswith(key + " ")
    assert getattr(SimConfig(**{key: 3}).resolved(ph), key) == 3


@pytest.mark.parametrize("over", [{"h": float("nan")}, {"h": float("inf")},
                                  {"t_end": float("nan")},
                                  {"t_end": float("inf")}])
def test_config_rejects_non_finite_time_grid(over):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**over)


@pytest.mark.parametrize("over, key", [
    ({"gamma_g": float("nan")}, "gamma_g"), ({"gamma": float("inf")}, "gamma"),
    ({"lam": float("nan")}, "lam"), ({"c_c": float("inf")}, "c_c"),
    ({"x0": (float("nan"), 0.0)}, "x0"),
    ({"theta_hat0": np.array([0.0, float("inf")])}, "theta_hat0"),
    ({"theta_g0": (0.0, 0.0, float("nan"))}, "theta_g0"),
    ({"overparam_hat0": (float("-inf"), 0.0, 0.0)}, "overparam_hat0"),
    ({"t_end": 1e300, "h": 1e-300}, "t_end"), ({"t_end": 1e300}, "t_end"),
    ({"t_end": 1e17, "substeps": 1000}, "t_end"),
])
def test_config_rejects_non_finite_settings_by_key(over, key):
    with pytest.raises(ConfigValueError) as err:
        SimConfig(**over)
    assert err.value.key == key
    assert str(err.value).startswith(key + " ")


@pytest.mark.parametrize("t_end, h", [(0.0315, 1e-3), (1.05, 0.1),
                                       (2.5, 2.0)])
def test_config_rejects_t_end_off_the_step_grid(t_end, h):
    with pytest.raises(ConfigValueError, match="whole multiple of h") as err:
        SimConfig(t_end=t_end, h=h)
    assert err.value.key == "t_end"


@pytest.mark.parametrize("t_end, h", [(0.3, 0.1), (20.0, 1e-3), (0.031, 1e-3),
                                       (1e-323, 5e-324)])
def test_config_accepts_t_end_on_the_step_grid(t_end, h):
    # t_end / h misses a whole number by the rounding of the division only
    assert SimConfig(t_end=t_end, h=h).t_end == t_end


def test_config_checks_a_derived_overparam_hat0(ph):
    # the default overparam_hat0 is G(theta_hat0): a G one value short gives
    # a one-value start, refused by key instead of in the estimator
    pm = replace(ph.plant.param_map, G_direct=lambda th: (th[0],))
    scen = replace(ph, plant=replace(ph.plant, param_map=pm))
    cfg = SimConfig(estimator=EstimatorKind.GRADIENT_PBEP_OVERPARAM, t_end=0.1)
    with pytest.raises(ConfigValueError,
                       match=r"needs 2 components, got 1 from its default "
                             r"G\(theta_hat0\)") as err:
        cfg.resolved(scen)
    assert err.value.key == "overparam_hat0"
    with pytest.raises(ConfigValueError, match="overparam_hat0"):
        run(scen, cfg)


def test_config_stores_vectors_as_float_tuples(circuit):
    cfg = SimConfig(x0=np.array([1, 2]), theta_hat0=[0.5, 1.5])
    assert cfg.x0 == (1.0, 2.0) and type(cfg.x0[0]) is float
    assert cfg.theta_hat0 == (0.5, 1.5)
    resolved = cfg.resolved(circuit)
    assert resolved.theta_g0 == (0.0, 0.0, 0.0) and resolved.substeps == 4
    assert resolved.resolved(circuit) == resolved
    with pytest.raises(ConfigValueError, match="x0 needs 2 components"):
        SimConfig(x0=(1.0, 2.0, 3.0)).resolved(circuit)


@pytest.mark.parametrize("value", [
    2, 0.5, -0.0, np.float64(1.5), np.array(3.0), True,
    [1, 2.5], (0.5, -0.0, 1e300), [[1.0, 2.0], [3.0, 4.0]],
    ((1, 2), (3, 4), (5, 6)), [[[0.1]], [[0.2]]], [np.float64(0.3), 4],
    np.arange(6.0), np.arange(12.0).reshape(3, 4),
    np.arange(24, dtype=np.int64).reshape(2, 3, 4), np.ones((1, 1, 1, 2)),
    np.array([[0.1, 0.2], [0.3, 0.4]]).T, np.array([5e-324, -1e-310]),
    np.float32(0.1), np.array([0.1, 0.7], dtype=np.float32),
])
def test_config_vectors_are_ravel_bit_for_bit(value):
    # the former normalization: tuple(float(v) for v in np.ravel(value))
    want = tuple(float(v) for v in np.ravel(value))
    for key in ("x0", "theta_hat0", "theta_g0", "overparam_hat0"):
        got = getattr(SimConfig(**{key: value}), key)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_equilibrium_is_fixed_point(circuit):
    x_star = np.asarray(circuit.controller.target["x_star"])
    cfg = SimConfig(t_end=1.0, controller=ControllerKind.KNOWN_PARAMETER,
                    estimator=EstimatorKind.NONE, x0=x_star)
    world = World(circuit, cfg)
    for _ in range(1000):
        step(world)
    assert np.max(np.abs(np.array(world.plant_state) - x_star)) <= 1e-9


def test_open_loop_rotation_preserves_norm(ph):
    cfg = SimConfig(t_end=1.0, controller=ControllerKind.OPEN_LOOP,
                    estimator=EstimatorKind.NONE, x0=np.array([1.0, 0.5]))
    world = World(ph, cfg)
    n0 = np.linalg.norm(world.plant_state)
    for _ in range(1000):
        step(world)
        assert abs(np.linalg.norm(world.plant_state) - n0) <= 1e-9


def test_run_report_fields(circuit):
    rep = run(circuit, SimConfig(t_end=1.0))
    assert rep.scenario == "circuit"
    assert rep.n_steps == 1000
    assert rep.substeps == 4
    assert len(rep.x_final) == 2 and type(rep.x_final[0]) is float
    assert len(rep.theta_hat_final) == 2
    # the report's vectors subtract element-wise, as its arrays did
    x, th = rep.x_final, rep.theta_hat_final
    assert x - rep.x0 == (x[0] - rep.x0[0], x[1] - rep.x0[1])
    assert (1.0, 1.5) - th == (1.0 - th[0], 1.5 - th[1])
    assert np.array_equal(th - np.array([1.0, 1.5]),
                          np.subtract(th, [1.0, 1.5]))
    with pytest.raises(ValueError):
        th - (1.0,)
    assert rep.max_power_residual is not None
    assert rep.abel_gap is not None
    assert not rep.aborted


def test_trace_layout_and_decimation(circuit):
    trace = ListTrace()
    rep = run(circuit, SimConfig(t_end=0.5, decimation=50), trace=trace)
    assert trace.columns == [
        "t", "x1", "x2", "u", "yp1", "yp2", "theta_hat1", "theta_hat2",
        "delta", "det_phi", "gram_min_eig", "power_residual"]
    # rows at k = 0, 50, ..., 500
    assert len(trace.rows) == 11
    assert rep.trace_rows == 11
    assert trace.rows[0][0] == 0.0
    assert trace.rows[-1][0] == pytest.approx(0.5)
    # delta and det_phi start at their initial-instant values
    assert trace.rows[0][8] == 0.0
    assert trace.rows[0][9] == 1.0


def test_trace_includes_overparam_for_gradient(circuit):
    trace = ListTrace()
    run(circuit, SimConfig(t_end=0.1, estimator=EstimatorKind.GRADIENT_STD,
                           gamma=30.0), trace=trace)
    assert "overparam_hat1" in trace.columns
    assert "overparam_hat3" in trace.columns


def test_determinism_bit_identical(circuit):
    t1, t2 = ListTrace(), ListTrace()
    run(circuit, SimConfig(t_end=2.0), trace=t1)
    run(circuit, SimConfig(t_end=2.0), trace=t2)
    assert t1.rows == t2.rows


def test_run_memory_does_not_grow_with_steps(circuit):
    # residual maxima, settling times and final errors are running
    # reductions: with the rows discarded by the sink, or with no sink at
    # all, a 2 s run peaks within 50 kB of a 0.2 s one (per-step arrays of
    # the residuals and errors alone would add 144 kB; the 180 extra rows'
    # Gram eigenvalue history adds ~20 kB)
    class Discard:
        def header(self, columns):
            pass

        def row(self, values):
            pass

    def peak_bytes(t_end, trace):
        tracemalloc.start()
        try:
            rep = run(circuit, SimConfig(t_end=t_end), trace=trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.aborted and rep.trace_rows == round(t_end / 1e-2) + 1
        return peak

    for trace in (Discard(), None):
        assert peak_bytes(2.0, trace) - peak_bytes(0.2, trace) < 50e3


def test_streaming_reductions_match_array_forms(ph):
    # with one substep and a row per step, the trace holds every grid value
    # the run reduces: the end-of-run array expressions over the rows give
    # the report's residual maxima, settling times and final errors
    trace = ListTrace()
    rep = run(ph, SimConfig(t_end=8.0, decimation=1,
                            controller=ControllerKind.KNOWN_PARAMETER),
              trace=trace)
    rows = np.array(trace.rows)
    col = {c: i for i, c in enumerate(trace.columns)}
    assert rep.max_power_residual == np.max(rows[:, col["power_residual"]])
    assert rep.max_power_residual_outer == rep.max_power_residual

    def settling(err, band):
        bad = np.nonzero(err > band)[0]
        if bad.size == 0:
            return 0.0
        return None if bad[-1] == err.size - 1 else float((bad[-1] + 1) * 1e-3)

    theta = ph.theta_true
    param_err = np.abs(rows[:, col["theta_hat1"]] - theta[0]) / abs(theta[0])
    x = rows[:, [col["x1"], col["x2"]]]
    reg_err = np.linalg.norm(x, axis=1) / np.linalg.norm(x[0])
    assert rep.settling_time_param == settling(param_err, rep.param_band)
    assert rep.settling_time_regulation == settling(reg_err,
                                                    rep.regulation_band)
    assert rep.settling_time_param > 0 and rep.settling_time_regulation > 0
    assert rep.theta_err_rel_final == param_err[-1]
    assert rep.regulation_error_final == pytest.approx(reg_err[-1],
                                                       rel=1e-15)


def _scripted(ph, errors):
    """ph whose regulation error reads `errors` in turn, and whose storage
    is nan at the third grid point (the first is the start)."""
    calls = []

    def energy(x, u):
        calls.append(x)
        return (math.nan, 0.0) if len(calls) == 3 else ph.energy(x, u)

    return replace(ph, energy=energy, regulation_error=lambda x, x0: errors[
        len(calls) - 1])


@pytest.mark.parametrize("errors, settling", [
    ([0.01] * 11, 0.0),                   # an error at the band is inside
    ([0.5, 0.5, 0.5] + [0.01] * 8, 0.003),   # (last outside + 1) * h
    ([0.0] * 10 + [0.0100001], None),     # outside at the last step
], ids=["at-band", "settled", "outside-at-end"])
def test_run_reductions_at_their_edges(ph, errors, settling):
    # 10 steps of one substep: the storage and then the regulation error
    # are read once at each of the 11 grid points
    trace = ListTrace()
    rep = run(_scripted(ph, errors),
              SimConfig(t_end=0.01, decimation=1, theta_hat0=(1.0,),
                        estimator=EstimatorKind.NONE), trace=trace)
    assert not rep.aborted and rep.trace_rows == 11
    assert rep.settling_time_regulation == settling
    assert rep.regulation_error_final == errors[-1]
    # the nan storage makes the residuals at points 2 and 4 nan; the
    # maxima stay nan through the finite residuals after them
    res = [row[-1] for row in trace.rows]
    assert [math.isnan(r) for r in res] == [False] * 2 + [True, False, True] \
        + [False] * 6
    assert min(res[5:]) > 0.0
    assert math.isnan(rep.max_power_residual)
    assert math.isnan(rep.max_power_residual_outer)
    # the estimate is theta_true throughout, and 0.5 never settles
    assert rep.settling_time_param == 0.0 and rep.theta_err_rel_final == 0.0
    held = run(_scripted(ph, errors),
               SimConfig(t_end=0.01, theta_hat0=(0.5,),
                         estimator=EstimatorKind.NONE))
    assert held.settling_time_param is None
    assert held.theta_err_rel_final == 0.5


@pytest.mark.parametrize("over", [
    {"estimator": EstimatorKind.GRADIENT_PBEP_OVERPARAM, "x0": (0.3, 0.3)},
    {"estimator": EstimatorKind.GRADIENT_STD, "overparam_hat0": (0.5, 0.25)},
], ids=["gradient_pbep_overparam", "gradient_std"])
def test_gradient_power_residual_uses_the_applied_control(ph, over):
    # a gradient estimate updates after the plant move, so the plant ran
    # each step on the estimate at the step start; ph's net flow u y depends
    # on the control, and the residual's must use the one the plant applied
    trace = ListTrace()
    rep = run(ph, SimConfig(t_end=2.0, decimation=1, gamma=30.0, **over),
              trace=trace)
    assert not rep.aborted
    col = {c: i for i, c in enumerate(trace.columns)}
    xs = [[row[col["x1"]], row[col["x2"]]] for row in trace.rows]
    ths = [[row[col["theta_hat1"]]] for row in trace.rows]
    h = 1e-3
    s = [ph.energy(x, 0.0)[0] for x in xs]
    # net flow at the end of step k under the estimate held over it
    flow = {k: ph.energy(xs[k], ph.controller.beta(xs[k], ths[k - 1], k * h))[1]
            for k in range(1, len(xs))}
    want = [abs((s[k] - s[k - 2]) / (2.0 * h) - flow[k - 1])
            for k in range(2, len(xs))]
    got = [row[col["power_residual"]] for row in trace.rows[2:]]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-18)
    assert rep.max_power_residual == max(want)


def test_gram_min_eig_monotone(circuit):
    hist = [m for _, m in run_history(circuit)]
    diffs = np.diff(hist)
    assert np.all(diffs >= -1e-12)


def run_history(scenario):
    cfg = SimConfig(t_end=2.0, decimation=20)
    trace = ListTrace()
    rep = run(scenario, cfg, trace=trace)
    # min-eig column from the trace rows
    idx = trace.columns.index("gram_min_eig")
    return [(row[0], row[idx]) for row in trace.rows]


def test_excitation_record_closed_forms():
    # silent regressor: never interval-exciting
    rec = ExcitationRecord(1, h=1e-3, threshold=1e-3)
    for k in range(100):
        rec.push(np.zeros(1))
        rec.record(k * 1e-3)
    ok, t_c = excitation_report(rec)
    assert not ok and t_c is None

    # constant scalar regressor c: gram grows like c^2 t
    c, h, c_c = 0.5, 1e-3, 1e-3
    rec = ExcitationRecord(1, h=h, threshold=c_c)
    rec.push(np.array([c]))
    for k in range(1, 101):
        rec.push(np.array([c]))
        rec.record(k * h)
    gram = np.array(rec.gram_rows())
    assert gram[0, 0] == pytest.approx(c * c * 0.1, rel=1e-12)
    ok, t_c = excitation_report(rec)
    assert ok
    assert t_c == pytest.approx(c_c / c ** 2, abs=h)


@pytest.mark.parametrize("shape", [(2,), (3,), (3, 2)])
def test_excitation_gram_rows_match_the_array_form(shape):
    # the Gram is built as float rows: it equals the array expression
    # h * sum of outers - h/2 * (first + latest outers) bit for bit, is
    # exactly symmetric, and its minimum eigenvalue is eigvalsh's
    rng = np.random.default_rng(sum(shape))
    p, h = shape[0], 1e-3
    rec = ExcitationRecord(p, h=h, threshold=1e-3)
    total = np.zeros((p, p))
    for k in range(60):
        om = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
        rec.push(om)
        # one outer product per regressor column, added left to right
        outers = [np.outer(c, c) for c in om.reshape(p, -1).T]
        total = sum(outers, total)
        if k == 0:
            first = sum(outers, np.zeros((p, p)))
        ends = sum(outers, first)
        gram = np.array(rec.gram_rows())
        assert gram.tobytes() == (h * total - (0.5 * h) * ends).tobytes()
        assert np.array_equal(gram, gram.T)
        assert rec.min_eig() == float(np.linalg.eigvalsh(gram)[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(diag=st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False)), min_size=1, max_size=3))
@example(diag=[-0.0])
@example(diag=[-0.0, -0.0, -0.0])
@example(diag=[1e308, 1e308])
def test_q_trap_is_the_ndarray_trace_bit_for_bit(diag):
    # q_trap sums the Gram's diagonal from 0.0 left to right, as
    # ndarray.trace does: from its first entry instead, a -0.0 diagonal
    # would sum to -0.0
    p = len(diag)
    rows = [[d if i == j else 1.0 for j in range(p)]
            for i, d in enumerate(diag)]
    rec = ExcitationRecord(p, h=1e-3, threshold=1e-3)
    rec.gram_rows = lambda: rows
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array(rows).trace()
    assert np.array(rec.q_trap).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (3, 2)])
def test_q_trap_of_a_record_is_its_gram_trace(shape):
    rng = np.random.default_rng(7 + sum(shape))
    rec = ExcitationRecord(shape[0], h=1e-3, threshold=1e-3)
    for k in range(31):
        if k:
            rec.push(rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3))
        assert np.array(rec.q_trap).tobytes() == \
            np.array(np.array(rec.gram_rows()).trace()).tobytes()


def test_run_t_c_is_the_first_crossing_of_the_trace_column(ph):
    trace = ListTrace()
    cfg = SimConfig(t_end=2.0, decimation=1)
    rep = run(ph, cfg, trace=trace)
    col = trace.columns.index("gram_min_eig")
    crossings = [row[0] for row in trace.rows if row[col] >= cfg.c_c]
    assert crossings and 0.0 < crossings[0] < 2.0
    assert (rep.is_ie, rep.t_c) == (True, crossings[0])


@pytest.mark.parametrize("name, estimator", [
    ("circuit", EstimatorKind.GPLUSD_PBEP),
    ("ph", EstimatorKind.GPLUSD_PBEP),
    ("circuit", EstimatorKind.GRADIENT_STD),
])
def test_gram_does_not_depend_on_decimation(circuit, ph, name, estimator):
    # the Gram is summed as the regressors are pushed, so reading it at
    # every row or at every 100th leaves its bits alone
    scen = {"circuit": circuit, "ph": ph}[name]
    gains = {"gamma": 30.0} if estimator is EstimatorKind.GRADIENT_STD else {}
    outs = set()
    for decimation in (1, 7, 10, 100):
        rep = run(scen, SimConfig(estimator=estimator, t_end=2.0,
                                  decimation=decimation, **gains))
        assert not rep.aborted
        outs.add((rep.gram_min_eig_final, rep.abel_gap))
    assert len(outs) == 1


def test_excitation_matrix_regressor():
    rec = ExcitationRecord(2, h=1e-3, threshold=1e-3)
    om = np.array([[1.0, 0.0], [0.0, 2.0]])
    for k in range(11):
        rec.push(om)
    g = np.array(rec.gram_rows())
    assert g[0, 0] == pytest.approx(1.0 * 10e-3)
    assert g[1, 1] == pytest.approx(4.0 * 10e-3)
    assert rec.q_trap == pytest.approx(g.trace())


def test_abort_on_unstable_substepping(circuit):
    # one substep leaves the fast closed-loop mode outside the RK4 stability
    # region at h = 1e-3; the run must abort with a diagnostic, not emit NaNs
    trace = ListTrace()
    rep = run(circuit, SimConfig(substeps=1), trace=trace)
    assert rep.aborted
    assert rep.abort_time > 0.0
    assert rep.abort_component in ("plant state", "filter state",
                                   "parameter estimate")
    assert rep.n_steps == round(rep.abort_time / 1e-3)
    assert rep.trace_rows == len(trace.rows) > 1
    assert len(rep.x_final - rep.x0) == 2 and rep.wall_seconds > 0.0


def test_gradient_std_requires_std_data(circuit):
    # shipped scenarios carry standard-regression data; a stripped clone
    # must be rejected
    import dataclasses
    plant = dataclasses.replace(circuit.plant, std=None)
    scen = dataclasses.replace(circuit, plant=plant)
    with pytest.raises(ValueError):
        World(scen, SimConfig(estimator=EstimatorKind.GRADIENT_STD))


def test_overparam_default_consistent_with_theta0(ph):
    # gradient on the power-balance regression starts at the stacked image
    # of theta_hat0, so the extracted estimate matches theta_hat0 exactly
    w = World(ph, SimConfig(estimator=EstimatorKind.GRADIENT_PBEP_OVERPARAM,
                            theta_hat0=np.array([0.5])))
    assert np.allclose(w.estimator.Theta, [0.5, 0.25])
    assert np.allclose(w.theta_hat, [0.5])


def test_known_parameter_ignores_estimates(circuit):
    cfg = SimConfig(t_end=0.2, controller=ControllerKind.KNOWN_PARAMETER,
                    estimator=EstimatorKind.GPLUSD_PBEP)
    rep = run(circuit, cfg)
    # the estimator still learns from the signals even though the
    # controller never consults it
    assert rep.theta_err_rel_final < 1.0
    assert not rep.aborted


# -- the float stage kernel against its numpy form ----------------------------

KERNEL_CASES = [
    ("circuit", EstimatorKind.GPLUSD_PBEP, None),        # 4 substeps
    ("circuit", EstimatorKind.NONE, None),
    ("circuit", EstimatorKind.GRADIENT_STD, None),
    ("circuit", EstimatorKind.GPLUSD_PBEP, 3),           # averaged midpoint
    ("ph", EstimatorKind.GPLUSD_PBEP, None),             # Hermite midpoint
    ("ph", EstimatorKind.NONE, None),
    ("ph", EstimatorKind.GRADIENT_PBEP_OVERPARAM, None),
]


@pytest.mark.parametrize("name, estimator, substeps", KERNEL_CASES)
def test_float_stages_match_numpy_reference(circuit, ph, name, estimator,
                                            substeps):
    scen = {"circuit": circuit, "ph": ph}[name]
    world = World(scen, SimConfig(estimator=estimator, substeps=substeps,
                                  gamma=30.0, x0=np.array([0.3, 0.3])))
    interpolates = estimator is EstimatorKind.GPLUSD_PBEP
    for _ in range(300):
        x, th, t = np.array(world.plant_state), world.theta_hat, world.t
        z = None if world.generator is None else \
            np.array(world.generator.bank.state)
        xs, _, _ = step(world)
        ref_xs, ref_z = numpy_stages(world, x, th,
                                     world.theta_hat if interpolates else th,
                                     t, z)
        assert np.array(xs).tobytes() == np.array(ref_xs).tobytes()
        assert np.array(world.plant_state).tobytes() == ref_xs[-1].tobytes()
        if z is not None:
            assert np.array(world.generator.bank.state).tobytes() == \
                ref_z.tobytes()
    x = np.array(world.plant_state)
    assert np.all(np.isfinite(x)) and x[0] != 0.3


def assert_rel_close(got, ref, rel=1e-12):
    """max |got - ref| <= rel * max |ref|: exact where ref is all zeros."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) \
        <= rel * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("name, estimator, substeps", KERNEL_CASES)
def test_float_kernel_matches_numpy_oracle(circuit, ph, name, estimator,
                                           substeps):
    # the samples, the correction flow and the estimator updates of every
    # step against their array forms, fed the step's own start state
    scen = {"circuit": circuit, "ph": ph}[name]
    world = World(scen, SimConfig(estimator=estimator, substeps=substeps,
                                  gamma=30.0, x0=np.array([0.3, 0.3])))
    est, gen = world.estimator, world.generator
    h = world.cfg.h
    gplusd = estimator is EstimatorKind.GPLUSD_PBEP
    for _ in range(300):
        x, th, t = np.array(world.plant_state), np.array(world.theta_hat), \
            world.t
        z = None if gen is None else np.array(gen.bank.state)
        if gplusd:
            theta_g, Phi = np.array(est.theta_g), np.array(est.phi)
        elif est is not None:
            Theta = np.array(est.Theta)
        _, s0, s1 = step(world)
        if gen is None:
            continue
        th_end = np.array(world.theta_hat) if gplusd else th
        ref0 = numpy_sample(gen, t, world.assemble_inputs(x, t, th), z)
        ref1 = numpy_sample(gen, world.t,
                            world.assemble_inputs(np.array(world.plant_state),
                                                  world.t, th_end),
                            np.array(gen.bank.state))
        for got, ref in ((s0, ref0), (s1, ref1)):
            assert got.t == ref.t
            assert_rel_close(got.Y, ref.Y)
            assert_rel_close(got.Omega, ref.Omega)
        if gplusd:
            assert_rel_close(world.theta_hat,
                             numpy_correction(est, theta_g, Phi, th, h))
            ref_g, ref_phi = numpy_gplusd_propagate(est.gamma_g, theta_g, Phi,
                                                    ref0, ref1, h)
            assert_rel_close(est.theta_g, ref_g)
            assert_rel_close(est.phi, ref_phi)
        else:
            assert_rel_close(est.Theta, numpy_gradient_propagate(
                est.gamma, Theta, ref0, ref1, h))
    assert world.t == pytest.approx(0.3)


# -- a step calls no numpy ----------------------------------------------------


@pytest.mark.parametrize("controller", list(ControllerKind))
@pytest.mark.parametrize("estimator", list(EstimatorKind))
@pytest.mark.parametrize("name", ["circuit", "ph"])
def test_step_calls_no_numpy(circuit, ph, monkeypatch, name, estimator,
                             controller):
    over = {}
    if name == "ph" and estimator is EstimatorKind.GRADIENT_STD:
        # Theta = 0 makes the estimate 0, and beta divides by it
        over["overparam_hat0"] = (1.0, 1.0)
    # the package imports numpy where it uses it, so this fails any use
    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    world = World({"circuit": circuit, "ph": ph}[name],
                  SimConfig(estimator=estimator, controller=controller,
                            x0=(0.3, 0.3), **over))
    for _ in range(50):
        step(world)
        world.check_finite()
    monkeypatch.undo()
    assert world.t == pytest.approx(0.05)


# -- pinned outcomes at the edges of the float arithmetic ---------------------
#
# Python floats raise on a zero divisor and on an overflowing `**` where
# numpy scalars give inf/nan; these runs reach both and must end the way
# they did with numpy stages (the closures use smallmat.ieee_div/ieee_pow).

def test_zero_estimate_on_ph_fails_as_a_non_finite_sample(ph):
    # beta divides by the estimate through ieee_div, which gives inf: the
    # first step's samples and plant state are non-finite, and the run
    # aborts on the plant state, as a later step would, instead of raising
    for over in ({"theta_hat0": np.array([0.0])},
                 {"estimator": EstimatorKind.GRADIENT_STD}):  # Theta0 = 0
        rep = run(ph, SimConfig(t_end=1.0, **over))
        assert rep.aborted and rep.abort_component == "plant state"
        assert rep.abort_time == 0.001 and rep.n_steps == 1
        assert rep.trace_rows == 1


@pytest.mark.parametrize("over, t_abort", [
    ({"x0": np.array([0.51, 0.95]), "theta_hat0": np.array([0.43, 2.85])},
     2.041),
    # chaotic at these gains: a one-ulp change anywhere in the step moves
    # the abort, so the pin holds only while every sum keeps its order;
    # the step's arithmetic is IEEE floats and math's expm1 and pow
    ({"gamma_g": 1e6, "gamma": 1e6}, 0.996),
])
def test_circuit_divergence_aborts_at_pinned_time(circuit, over, t_abort):
    rep = run(circuit, SimConfig(**over))
    assert rep.aborted and rep.abort_component == "plant state"
    assert rep.abort_time == pytest.approx(t_abort, abs=1e-9)


@pytest.mark.parametrize("name", ["circuit", "ph"])
def test_subnormal_step_completes(circuit, ph, name):
    # h / substeps underflows to 0, so the sub-grid residual divides by 0
    # and is nan, as with numpy, instead of raising ZeroDivisionError
    rep = run({"circuit": circuit, "ph": ph}[name],
              SimConfig(h=5e-324, t_end=1e-323, substeps=4))
    assert not rep.aborted and rep.n_steps == 2
    assert np.isnan(rep.max_power_residual)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["circuit", "ph"])
def test_open_loop_near_overflow_completes(circuit, ph, name):
    # the storage x1^2 overflows; energy squares as x * x, which gives
    # inf, so the run completes with a nan power residual instead of
    # raising OverflowError
    rep = run({"circuit": circuit, "ph": ph}[name],
              SimConfig(t_end=0.1, x0=np.array([1e160, 0.0]),
                        controller=ControllerKind.OPEN_LOOP,
                        estimator=EstimatorKind.NONE))
    assert not rep.aborted and rep.n_steps == 100
    assert np.isnan(rep.max_power_residual)
    assert np.all(np.isfinite(rep.x_final))


# -- closure lengths, checked once at the start state --------------------------

def _padded_rate(fast_rate, extra):
    def rate(x, u, t):
        return (*fast_rate(x, u, t), *extra)
    return rate


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("controller", list(ControllerKind))
def test_world_rejects_a_fast_rate_of_the_wrong_length(ph, size, controller):
    # at the parent engine 3 components ran silently to a wrong report
    # (zip truncated them) and 1 died in IndexError mid-step
    rate = (lambda x, u, t: ph.fast_rate(x, u, t)[:1]) if size == 1 else \
        _padded_rate(ph.fast_rate, (0.0,))
    scen = replace(ph, fast_rate=rate)
    with pytest.raises(ValueError, match=f"fast_rate returns {size} "
                                         f"components .* has n = 2"):
        World(scen, SimConfig(controller=controller))


@pytest.mark.parametrize("port", ["u_p", "y_p"])
@pytest.mark.parametrize("size", [0, 2])
def test_world_rejects_ports_of_the_wrong_length(ph, port, size):
    def ports(x, u, t):
        up, yp = ph.ports(x, u, t)
        wrong = (up[0],) * size if port == "u_p" else (yp[0],) * size
        return (wrong, yp) if port == "u_p" else (up, wrong)

    scen = replace(ph, ports=ports)
    with pytest.raises(ValueError, match=f"ports {port} returns {size} "
                                         f"components .* has n_p = 1"):
        World(scen, SimConfig(estimator=EstimatorKind.NONE))
