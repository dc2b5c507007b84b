import numpy as np
import pytest

from pbident import (ControllerKind, EstimatorKind, ExcitationRecord,
                     NonFiniteStateError, SimConfig, World, excitation_report,
                     run, step)
from pbident.sim import _ListTrace
from conftest import numpy_stages


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


@pytest.mark.parametrize("over", [{"h": float("nan")}, {"h": float("inf")},
                                  {"t_end": float("nan")},
                                  {"t_end": float("inf")}])
def test_config_rejects_non_finite_time_grid(over):
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**over)


def test_equilibrium_is_fixed_point(circuit):
    x_star = np.asarray(circuit.controller.target["x_star"])
    cfg = SimConfig(t_end=1.0, controller=ControllerKind.KNOWN_PARAMETER,
                    estimator=EstimatorKind.NONE, x0=x_star)
    world = World(circuit, cfg)
    for _ in range(1000):
        step(world)
    assert np.max(np.abs(world.x - x_star)) <= 1e-9


def test_open_loop_rotation_preserves_norm(ph):
    cfg = SimConfig(t_end=1.0, controller=ControllerKind.OPEN_LOOP,
                    estimator=EstimatorKind.NONE, x0=np.array([1.0, 0.5]))
    world = World(ph, cfg)
    n0 = np.linalg.norm(world.x)
    for _ in range(1000):
        step(world)
        assert abs(np.linalg.norm(world.x) - n0) <= 1e-9


def test_run_report_fields(circuit):
    rep = run(circuit, SimConfig(t_end=1.0))
    assert rep.scenario == "circuit"
    assert rep.n_steps == 1000
    assert rep.substeps == 4
    assert rep.x_final.shape == (2,)
    assert rep.theta_hat_final.shape == (2,)
    assert rep.max_power_residual is not None
    assert rep.abel_gap is not None
    assert not rep.aborted


def test_trace_layout_and_decimation(circuit):
    trace = _ListTrace()
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
    trace = _ListTrace()
    run(circuit, SimConfig(t_end=0.1, estimator=EstimatorKind.GRADIENT_STD,
                           gamma=30.0), trace=trace)
    assert "overparam_hat1" in trace.columns
    assert "overparam_hat3" in trace.columns


def test_determinism_bit_identical(circuit):
    t1, t2 = _ListTrace(), _ListTrace()
    run(circuit, SimConfig(t_end=2.0), trace=t1)
    run(circuit, SimConfig(t_end=2.0), trace=t2)
    assert t1.rows == t2.rows


def test_gram_min_eig_monotone(circuit):
    hist = [m for _, m in run_history(circuit)]
    diffs = np.diff(hist)
    assert np.all(diffs >= -1e-12)


def run_history(scenario):
    cfg = SimConfig(t_end=2.0, decimation=20)
    trace = _ListTrace()
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
    assert rec.gram[0, 0] == pytest.approx(c * c * 0.1, rel=1e-12)
    ok, t_c = excitation_report(rec)
    assert ok
    assert t_c == pytest.approx(c_c / c ** 2, abs=h)


def test_excitation_matrix_regressor():
    rec = ExcitationRecord(2, h=1e-3, threshold=1e-3)
    om = np.array([[1.0, 0.0], [0.0, 2.0]])
    for k in range(11):
        rec.push(om)
    g = rec.gram
    assert g[0, 0] == pytest.approx(1.0 * 10e-3)
    assert g[1, 1] == pytest.approx(4.0 * 10e-3)
    assert rec.q_trap == pytest.approx(g.trace())


def test_abort_on_unstable_substepping(circuit):
    # one substep leaves the fast closed-loop mode outside the RK4 stability
    # region at h = 1e-3; the run must abort with a diagnostic, not emit NaNs
    with pytest.raises(NonFiniteStateError) as exc:
        run(circuit, SimConfig(substeps=1))
    assert exc.value.t > 0.0
    assert exc.value.component in ("plant state", "filter state",
                                   "parameter estimate")


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

@pytest.mark.parametrize("name, estimator, substeps", [
    ("circuit", EstimatorKind.GPLUSD_PBEP, None),        # 4 substeps
    ("circuit", EstimatorKind.NONE, None),
    ("circuit", EstimatorKind.GRADIENT_STD, None),
    ("circuit", EstimatorKind.GPLUSD_PBEP, 3),           # averaged midpoint
    ("ph", EstimatorKind.GPLUSD_PBEP, None),             # Hermite midpoint
    ("ph", EstimatorKind.NONE, None),
    ("ph", EstimatorKind.GRADIENT_PBEP_OVERPARAM, None),
])
def test_float_stages_match_numpy_reference(circuit, ph, name, estimator,
                                            substeps):
    scen = {"circuit": circuit, "ph": ph}[name]
    world = World(scen, SimConfig(estimator=estimator, substeps=substeps,
                                  gamma=30.0, x0=np.array([0.3, 0.3])))
    interpolates = estimator is EstimatorKind.GPLUSD_PBEP
    for _ in range(300):
        x, th, t = world.x, world.theta_hat, world.t
        z = None if world.generator is None else world.generator.state
        xs, _, _ = step(world)
        ref_xs, ref_z = numpy_stages(world, x, th,
                                     world.theta_hat if interpolates else th,
                                     t, z)
        assert xs.tobytes() == np.array(ref_xs).tobytes()
        assert world.x.tobytes() == ref_xs[-1].tobytes()
        if z is not None:
            assert world.generator.state.tobytes() == ref_z.tobytes()
    assert np.all(np.isfinite(world.x)) and world.x[0] != 0.3


# -- pinned outcomes at the edges of the float arithmetic ---------------------
#
# Python floats raise on a zero divisor and on an overflowing `**` where
# numpy scalars give inf/nan; these runs reach both and must end the way
# they did with numpy stages.

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_estimate_on_ph_fails_as_a_non_finite_sample(ph):
    # beta divides by the estimate, which stays a numpy scalar
    with pytest.raises(ValueError, match=r"regression sample at t=0\.001"):
        run(ph, SimConfig(t_end=1.0, theta_hat0=np.array([0.0])))


@pytest.mark.parametrize("over, t_abort", [
    ({"x0": np.array([0.51, 0.95]), "theta_hat0": np.array([0.43, 2.85])},
     2.041),
    ({"gamma_g": 1e6, "gamma": 1e6}, 0.995),
])
def test_circuit_divergence_aborts_at_pinned_time(circuit, over, t_abort):
    with pytest.raises(NonFiniteStateError) as exc:
        run(circuit, SimConfig(**over))
    assert exc.value.component == "plant state"
    assert exc.value.t == pytest.approx(t_abort, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["circuit", "ph"])
def test_open_loop_near_overflow_completes(circuit, ph, name):
    # the storage x1^2 overflows; energy sees numpy scalars, so the run
    # completes with a nan power residual instead of raising OverflowError
    rep = run({"circuit": circuit, "ph": ph}[name],
              SimConfig(t_end=0.1, x0=np.array([1e160, 0.0]),
                        controller=ControllerKind.OPEN_LOOP,
                        estimator=EstimatorKind.NONE))
    assert not rep.aborted and rep.n_steps == 100
    assert np.isnan(rep.max_power_residual)
    assert np.all(np.isfinite(rep.x_final))
