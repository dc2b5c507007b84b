import numpy as np
import pytest

from pbident import (Controller, EstimatorKind, NlpreData, ParamMap,
                     PlantModel, Scenario, SimConfig, circuit_scenario,
                     ph_scenario, power_balance_residual, run)
from conftest import rk4


# -- construction and rejections ----------------------------------------------

def test_ph_example_values():
    scen = ph_scenario(a=1.0, theta=1.0)
    assert np.array_equal(scen.fast_rate(np.array([1.0, 0.0]), 0.0, 0.0),
                          [0.0, 1.0])
    ctrl2 = ph_scenario(a=1.0, theta=2.0).controller
    assert ctrl2.beta(np.array([1.0, 1.0]), np.array([2.0]), 0.0) \
        == pytest.approx(-1.5)


def test_ph_rejects_zero_theta():
    with pytest.raises(ValueError):
        ph_scenario(a=1.0, theta=0.0)


def test_ph_known_loop_is_hurwitz():
    # closed-loop matrix under beta(x, theta) for a = theta = 1
    a, th = 1.0, 1.0
    a_cl = np.array([[0.0, -a], [a, 0.0]]) \
        + np.outer([th, th ** 2], [-1.0 / th, -1.0])
    eig = np.linalg.eigvals(a_cl)
    assert np.all(eig.real < 0)


def test_circuit_equilibrium_values(circuit):
    target = circuit.controller.target
    assert target["x2_star"] == 15.0
    x_star = np.asarray(target["x_star"])
    assert x_star[0] == pytest.approx(22.5)
    # equilibrium input E / kappa
    assert circuit.controller.beta(x_star, circuit.theta_true, 0.0) \
        == pytest.approx(1.0)
    # assignable equilibria: E x1 - theta2 x2^2 = 0
    assert 15.0 * x_star[0] - 1.5 * x_star[1] ** 2 == pytest.approx(0.0)


def test_circuit_rejections():
    for kwargs in (dict(theta1=0.0), dict(theta2=-1.0), dict(E=0.0),
                   dict(kappa=0.0), dict(kp=0.0)):
        full = dict(theta1=1.0, theta2=1.5, alpha=2.0, E=15.0, kp=10.0,
                    kappa=15.0)
        full.update(kwargs)
        with pytest.raises(ValueError):
            circuit_scenario(**full)


# -- algebraic consistency of the single description ---------------------------

def test_port_output_consistency(circuit, ph):
    # u_p stacks the control over the source, and the port power u_p' y_p is
    # the supply rate of the separable regression data, b_s + phi_s' G_s
    rng = np.random.default_rng(0)
    for scen in (circuit, ph):
        plant = scen.plant
        d = plant.nlpre
        gs = plant.param_map.G(plant.theta_true)[:d.p_s]
        for _ in range(20):
            x = rng.uniform(-3, 3, plant.n)
            u = float(rng.uniform(-2, 2))
            up, yp = map(np.asarray, scen.ports(x, u, 0.0))
            assert up.shape == yp.shape == (plant.n_p,)
            assert up[0] == u
            supply = d.b_s(x, up, yp) if d.b_s else 0.0
            if d.p_s:
                supply += float(np.asarray(d.phi_s(x, up, yp)) @ gs)
            assert supply == pytest.approx(float(up @ yp), abs=1e-12)


def test_nlpre_data_reproduces_energy_maps(circuit, ph):
    # the storage b_S + phi_S' G_S and the net flow
    # (b_s + phi_s' G_s) - (b_d + phi_d' G_d) recomputed from the separable
    # regression forms equal the scenario's energy map at the true parameters
    rng = np.random.default_rng(1)
    for scen in (circuit, ph):
        plant = scen.plant
        d = plant.nlpre
        gs = plant.param_map.G(plant.theta_true)
        for _ in range(30):
            x = rng.uniform(-3, 3, plant.n)
            u = float(rng.uniform(-2, 2))
            up, yp = scen.ports(x, u, 0.0)
            s_cap, flow = scen.energy(x, u)
            supply = (d.b_s(x, up, yp) if d.b_s else 0.0)
            if d.p_s:
                supply += float(np.asarray(d.phi_s(x, up, yp)) @ gs[:d.p_s])
            cap_param = (d.b_S(x) if d.b_S else 0.0)
            if d.p_S:
                cap_param += float(np.asarray(d.phi_S(x))
                                   @ gs[d.p_s:d.p_s + d.p_S])
            assert cap_param == pytest.approx(s_cap, abs=1e-12)
            diss = (d.b_d(x) if d.b_d else 0.0)
            if d.p_d:
                diss += float(np.asarray(d.phi_d(x)) @ gs[d.p_s + d.p_S:])
            assert supply - diss == pytest.approx(flow, abs=1e-12)


def test_std_data_reproduces_dynamics(circuit, ph):
    # (w_f + sum_j u_p[j] phi_g[i][j]) C(theta) + b_f + b_g u_p, rebuilt from
    # the state-equation data, equals fast_rate at the true parameters
    rng = np.random.default_rng(2)
    for scen in (circuit, ph):
        plant = scen.plant
        std = plant.std
        theta_big = std.C(plant.theta_true)
        for _ in range(30):
            x = rng.uniform(-3, 3, plant.n)
            u = float(rng.uniform(-2, 2))
            up, _ = scen.ports(x, u, 0.0)
            w = np.zeros((plant.n, std.n_w))
            if std.w_f is not None:
                w += np.asarray(std.w_f(x))
            rate = np.zeros(plant.n)
            if std.b_f is not None:
                rate += np.asarray(std.b_f(x))
            for i in range(plant.n):
                for j in range(plant.n_p):
                    if std.phi_g is not None and std.phi_g[i][j] is not None:
                        w[i] += up[j] * np.asarray(std.phi_g[i][j](x))
                    if std.b_g is not None and std.b_g[i][j] is not None:
                        rate[i] += up[j] * float(std.b_g[i][j](x))
            rate += w @ theta_big
            assert np.allclose(rate, scen.fast_rate(x, u, 0.0), atol=1e-12)


def test_hot_path_closures_match_contract_maps(circuit, ph):
    # the derived closures follow their definitions exactly, and the storage
    # changes along fast_rate at the net flow of the energy map
    rng = np.random.default_rng(3)
    eps = 1e-6
    for scen in (circuit, ph):
        plant = scen.plant
        selector = plant.param_map.T
        for _ in range(30):
            x = rng.uniform(-3, 3, plant.n)
            u = float(rng.uniform(-2, 2))
            th_probe = rng.uniform(0.2, 3.0, plant.param_map.q)
            u_beta = scen.controller.beta(x, th_probe, 0.0)
            assert np.array_equal(scen.closed_rate(x, th_probe, 0.0),
                                  scen.fast_rate(x, u_beta, 0.0))
            big = rng.uniform(-3, 3, plant.param_map.p)
            assert np.array_equal(scen.theta_from_overparam(big),
                                  selector @ big)
            r = np.asarray(scen.fast_rate(x, u, 0.0))
            s_plus, _ = scen.energy(x + eps * r, u)
            s_minus, _ = scen.energy(x - eps * r, u)
            _, flow = scen.energy(x, u)
            assert (s_plus - s_minus) / (2 * eps) == pytest.approx(
                flow, rel=1e-6, abs=1e-6)


def test_circuit_overparam_inverse(circuit):
    std = circuit.plant.std
    th = circuit.theta_true
    rec = std.theta_from_C(std.C(th))
    assert np.allclose(rec, th, atol=1e-12)
    # guarded away from the reciprocal singularity
    assert np.all(np.isfinite(std.theta_from_C(np.zeros(3))))


# -- power balance -------------------------------------------------------------

def test_power_balance_residual_zero_trajectory(circuit):
    # zero state and zero control: storage, supply and dissipation all vanish
    t = np.arange(5) * 1e-3
    assert power_balance_residual(circuit, t, [np.zeros(2)] * 5,
                                  [0.0] * 5) == 0.0


def test_power_balance_residual_needs_three_samples(circuit):
    with pytest.raises(ValueError):
        power_balance_residual(circuit, [0.0, 1.0], [np.zeros(2)] * 2,
                               [0.0] * 2)


def test_power_balance_residual_circuit_equilibrium(circuit):
    x_star = np.asarray(circuit.controller.target["x_star"])
    t = np.arange(10) * 1e-3
    res = power_balance_residual(circuit, t, [x_star] * 10, [1.0] * 10)
    assert res <= 1e-9   # S constant, supply balances dissipation


def test_power_balance_residual_ph_closed_loop(ph):
    # lossless balance Sdot = u * y_p along the known-parameter loop
    th = ph.theta_true

    def rate(t, x):
        return ph.closed_rate(x, th, t)

    h = 1e-3
    xs = rk4(rate, [1.0, 1.0], 0.0, 3.0, 3000)
    t = np.arange(3001) * h
    us = [ph.controller.beta(x, th, 0.0) for x in xs]
    assert power_balance_residual(ph, t, xs, us) <= 1e-4


def test_circuit_lyapunov_decrease_known_loop(circuit):
    # W = S(x - x_star) decreases along the known-parameter loop and its
    # measured rate matches the analytic dissipation expression.  The loop
    # carries a fast mode near -7.3e3 at the target, so this plain
    # single-rate integration needs h = 1e-4 to stay in the RK4 stability
    # region (the simulator handles the same loop at h = 1e-3 by
    # substepping).
    th1, th2 = circuit.theta_true
    alpha, E, kp, kappa = 2.0, 15.0, 10.0, 15.0
    x_star = np.asarray(circuit.controller.target["x_star"])

    def rate(t, x):
        return circuit.closed_rate(x, circuit.theta_true, t)

    h = 1e-4
    xs = rk4(rate, [0.0, 0.0], 0.0, 10.0, 100000)
    err = xs - x_star
    w = 0.5 * (th1 * err[:, 0] ** 2 + th1 ** alpha * err[:, 1] ** 2)
    assert np.all(np.diff(w) <= 1e-6 * w[0])
    wdot_measured = (w[2:] - w[:-2]) / (2 * h)
    wdot_formula = -th2 * err[:, 1] ** 2 \
        - kp * (th2 * kappa ** 2 / E * err[:, 1] - kappa * err[:, 0]) ** 2
    wf = wdot_formula[1:-1]
    mask = np.abs(wf) > 1e-4 * np.max(np.abs(wf))
    rel = np.abs(wdot_measured[mask] - wf[mask]) / np.abs(wf[mask])
    assert rel.max() <= 1e-3


def test_ph_known_loop_contracts(ph_known_run):
    assert np.linalg.norm(ph_known_run.x_final) <= 1e-3 * np.sqrt(2.0)


# -- a custom scenario through the library API ---------------------------------

def rc_scenario(theta=2.0, r=1.0, k=3.0):
    """Resistive one-state plant xdot = -theta x + u held at the setpoint r.

    Storage x^2/2, dissipation theta x^2, supply u y with port output y = x.
    """
    def fast_rate(x, u, t):
        return np.array([-theta * x[0] + u])

    nlpre = NlpreData(p_s=0, p_S=0, p_d=1,
                      b_s=lambda x, u_p, y_p: float(u_p[0] * y_p[0]),
                      b_S=lambda x: 0.5 * x[0] ** 2,
                      phi_d=lambda x: np.array([x[0] ** 2]))
    param_map = ParamMap(q=1, p_s=0, p_S=0, p_d=1, G_s=None, G_S=None,
                         G_d=lambda th: np.array([th[0]]),
                         T=np.array([[1.0]]), P=np.array([[1.0]]),
                         jacobian_G=lambda th: np.array([[1.0]]))
    return Scenario(
        name="rc",
        plant=PlantModel(n=1, m=1, n_p=1, theta_true=np.array([theta]),
                         nlpre=nlpre, param_map=param_map),
        controller=Controller(
            beta=lambda x, th, t: th[0] * r - k * (x[0] - r),
            target={"kind": "setpoint", "x_star": (r,)}),
        x0_default=np.zeros(1),
        theta_hat0_default=np.array([0.5]),
        substeps=1,
        regulation_error=lambda x, x0: abs(float(x[0]) - r) / abs(r),
        fast_rate=fast_rate,
        energy=lambda x, u: (0.5 * x[0] ** 2,
                             u * x[0] - theta * x[0] ** 2),
        ports=lambda x, u, t: (np.array([u]), np.array([x[0]])),
    )


def test_custom_scenario_runs_gplusd():
    scen = rc_scenario()
    x, th = np.array([0.4]), np.array([1.3])
    assert np.array_equal(scen.closed_rate(x, th, 0.0),
                          scen.fast_rate(x, scen.controller.beta(x, th, 0.0),
                                         0.0))
    # 100 steps of h = 1e-2 are enough for the interlaced estimator to
    # recover theta = 2 from the setpoint transient
    rep = run(scen, SimConfig(t_end=1.0, h=1e-2,
                              estimator=EstimatorKind.GPLUSD_PBEP))
    assert not rep.aborted
    assert rep.n_steps == 100 and rep.trace_rows == 11
    assert abs(float(rep.x_final[0]) - 1.0) <= 0.05
    assert rep.theta_err_rel_final <= 1e-6
    assert rep.abel_gap <= 1e-9
    assert rep.max_power_residual <= 5e-3   # O(h^2) floor at h = 1e-2


@pytest.mark.parametrize("theta1, alpha", [(1e-200, 2.0), (1e200, 2.0),
                                           (1e-3, -200.0)])
def test_circuit_rejects_degenerate_mass(theta1, alpha):
    # theta1 ** alpha divides the second state rate; zero or overflowing
    # values are refused at construction
    with pytest.raises(ValueError, match="theta1 \\*\\* alpha"):
        circuit_scenario(theta1=theta1, alpha=alpha)
