"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import numpy as np

from pbident import (SimConfig, check_monotonicity, excitation_report, run)
from pbident.cli import parse_config, run_command
from pbident.estimator import GplusDEstimator
from pbident.regressor import ParamMap, RegressorSample
from pbident.sim import ExcitationRecord
from pbident.smallmat import adjugate, determinant

THETA_TRUE = np.array([1.0, 1.5])
THETA_BIG_TRUE = np.array([1.0, 1.0, 1.5])
PAPER_GRADIENT_LIMIT = np.array([1.00, 0.17, 0.25])


def report_line(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_circuit_gplusd_converges(circuit_gd_run):
    rep = circuit_gd_run
    err = np.linalg.norm(rep.theta_hat_final - THETA_TRUE) \
        / np.linalg.norm(THETA_TRUE)
    x2_err = abs(rep.x_final[1] - 15.0)
    ok = err <= 0.02 and x2_err <= 0.15 and rep.wall_seconds < 5.0
    assert report_line(
        1, ok,
        f"theta_hat={rep.theta_hat_final} (rel err {err:.2e} <= 2e-2), "
        f"|x2-15|={x2_err:.3g} <= 0.15, wall={rep.wall_seconds:.2f}s < 5s "
        f"at h={rep.h}")


def test_criterion_2_circuit_gradient_fails(circuit_gradient_run):
    rep = circuit_gradient_run
    x2_err = abs(rep.x_final[1] - 15.0)
    big = rep.overparam_hat_final
    big_err = np.linalg.norm(big - THETA_BIG_TRUE)
    ok = x2_err > 0.5 and big_err > 0.3
    # soft, report-only comparison against the documented wrong limit (the
    # published figures do not state initial estimates)
    soft = np.max(np.abs(big - PAPER_GRADIENT_LIMIT))
    assert report_line(
        2, ok,
        f"|x2-15|={x2_err:.2f} > 0.5, |Theta-{THETA_BIG_TRUE}|={big_err:.2f} "
        f"> 0.3; soft check: max|Theta-{PAPER_GRADIENT_LIMIT}|={soft:.3f} "
        f"({'within' if soft <= 0.15 else 'outside'} 0.15, report only)")


def test_criterion_3_ph_scenario(ph_known_run, ph_gd_run, ph_gradient_run):
    x0_norm = np.sqrt(2.0)
    known_ratio = np.linalg.norm(ph_known_run.x_final) / x0_norm
    gd_ratio = np.linalg.norm(ph_gd_run.x_final) / x0_norm
    gd_theta_err = abs(ph_gd_run.theta_hat_final[0] - 1.0)
    theta_big0 = np.array([0.5, 0.25])
    retention = np.linalg.norm(ph_gradient_run.overparam_hat_final
                               - np.array([1.0, 1.0])) \
        / np.linalg.norm(theta_big0 - np.array([1.0, 1.0]))
    ok = (known_ratio <= 1e-3 and gd_ratio <= 1e-2 and gd_theta_err <= 0.02
          and retention >= 0.5)
    assert report_line(
        3, ok,
        f"known |x(10)|/|x0|={known_ratio:.2e} <= 1e-3; adaptive "
        f"|x(20)|/|x0|={gd_ratio:.2e} <= 1e-2 with |theta-1|="
        f"{gd_theta_err:.2e} <= 2e-2; gradient retention "
        f"{retention:.2f} >= 0.5 (finite excitation energy)")


def test_criterion_4a_abel_liouville(circuit_gd_run, ph_gd_run):
    gaps = {"circuit": circuit_gd_run.abel_gap, "ph": ph_gd_run.abel_gap}
    # gap is |log det Phi + gamma_g * trapz |Omega|^2|, i.e. the relative
    # determinant mismatch; stays meaningful when det underflows
    ok = all(g <= 1e-5 for g in gaps.values())
    assert report_line(
        4, ok, "Abel-Liouville log-determinant gaps "
        + ", ".join(f"{k}={v:.2e}" for k, v in gaps.items()) + " <= 1e-5")


def test_criterion_4b_exact_feed_mixing_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        p = int(rng.integers(1, 4))
        pm = ParamMap(G_direct=lambda th: tuple(map(float, th)),
                      T=np.eye(p), P=np.eye(p),
                      jacobian_G=lambda th: np.eye(p))
        target = rng.uniform(-2.0, 2.0, p)
        est = GplusDEstimator(pm, gamma_g=rng.uniform(0.5, 20.0), gamma=1.0,
                              theta_g0=rng.uniform(-1.0, 1.0, p))
        coef = rng.normal(size=(p, 3))
        freq = rng.uniform(0.5, 4.0, (p, 3))
        phase = rng.uniform(0.0, 2.0 * np.pi, (p, 3))

        def om(t):
            return np.sum(coef * np.sin(freq * t + phase), axis=1)

        h = 1e-3
        scale = 1e-6 * (1.0 + np.linalg.norm(target))
        for k in range(150):
            o0, o1 = om(k * h), om((k + 1) * h)
            est.propagate(
                RegressorSample(k * h, float(o0 @ target), o0),
                RegressorSample((k + 1) * h, float(o1 @ target), o1), h)
            delta, ycal = est.mix()
            worst = max(worst,
                        float(np.linalg.norm(ycal - delta * target)) / scale)
    ok = worst <= 1.0
    assert report_line(
        4, ok, f"exact-feed mixing identity over 100 random streams: worst "
        f"|Ycal - Delta G| = {worst:.2e} x tolerance (<= 1)")


def test_criterion_4c_adjugate_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-1.0, 1.0, (n, n))
        gap = np.max(np.abs(adjugate(m) @ m - determinant(m) * np.eye(n)))
        scale = 1e-9 * max(1.0, float(np.max(np.abs(m))) ** n)
        worst = max(worst, gap / scale)
    ok = worst <= 1.0
    assert report_line(
        4, ok, f"adj(M) M = det(M) I over 1000 random matrices (dims 1-6): "
        f"worst violation = {worst:.2e} x tolerance (<= 1)")


def test_criterion_5_physics_suite(circuit_gd_run, circuit_gradient_run,
                                   circuit_known_run, ph_known_run,
                                   ph_gd_run, ph_gradient_run, circuit):
    circuit_res = {
        "gplusd": circuit_gd_run.max_power_residual,
        "gradient": circuit_gradient_run.max_power_residual,
        "known": circuit_known_run.max_power_residual,
    }
    ph_res = {
        "known": ph_known_run.max_power_residual,
        "gplusd": ph_gd_run.max_power_residual,
        "gradient": ph_gradient_run.max_power_residual,
    }
    ok_res = all(v <= 1e-3 for v in circuit_res.values()) \
        and all(v <= 1e-4 for v in ph_res.values())

    # Lyapunov decrease of the known-parameter circuit loop
    th1, th2 = circuit.theta_true
    x_star = np.asarray(circuit.controller.target["x_star"])
    h, n = 1e-4, 100000
    x = np.zeros(2)
    traj = np.empty((n + 1, 2))
    traj[0] = x
    for k in range(n):
        k1 = np.asarray(circuit.closed_rate(x, circuit.theta_true, 0.0))
        k2 = np.asarray(circuit.closed_rate(x + h / 2 * k1, circuit.theta_true, 0.0))
        k3 = np.asarray(circuit.closed_rate(x + h / 2 * k2, circuit.theta_true, 0.0))
        k4 = np.asarray(circuit.closed_rate(x + h * k3, circuit.theta_true, 0.0))
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        traj[k + 1] = x
    err = traj - x_star
    w = 0.5 * (th1 * err[:, 0] ** 2 + th1 ** 2 * err[:, 1] ** 2)
    nonincreasing = bool(np.all(np.diff(w) <= 1e-6 * w[0]))
    wdot = (w[2:] - w[:-2]) / (2 * h)
    formula = -th2 * err[:, 1] ** 2 \
        - 10.0 * (th2 * 15.0 ** 2 / 15.0 * err[:, 1] - 15.0 * err[:, 0]) ** 2
    wf = formula[1:-1]
    mask = np.abs(wf) > 1e-4 * np.max(np.abs(wf))
    wdot_rel = float(np.max(np.abs(wdot[mask] - wf[mask]) / np.abs(wf[mask])))
    ok = ok_res and nonincreasing and wdot_rel <= 1e-3
    assert report_line(
        5, ok,
        "power residuals (plant grid): circuit "
        + ", ".join(f"{k}={v:.1e}" for k, v in circuit_res.items())
        + " <= 1e-3; ph "
        + ", ".join(f"{k}={v:.1e}" for k, v in ph_res.items())
        + f" <= 1e-4; Lyapunov non-increasing={nonincreasing}, "
        f"Wdot match rel err {wdot_rel:.1e} <= 1e-3")


def test_criterion_6_monotonicity(circuit, ph):
    rhos = {}
    for scen in (ph, circuit):
        rep = check_monotonicity(scen.plant.param_map, [0.1, 10.0],
                                 n_samples=10000, seed=0)
        rhos[scen.name] = rep.rho_jacobian
    ok = all(abs(r - 1.0) <= 1e-9 for r in rhos.values())
    assert report_line(
        6, ok, "strong-monotonicity modulus over [0.1,10]^q: "
        + ", ".join(f"{k}: rho={v:.12f}" for k, v in rhos.items())
        + " (= 1 +- 1e-9)")


def test_criterion_7_excitation_monitor(circuit_gd_run):
    rep = circuit_gd_run
    quiet = ExcitationRecord(2, h=1e-3, threshold=1e-3)
    for k in range(200):
        quiet.push(np.zeros(2))
        quiet.record(k * 1e-3)
    quiet_ie, quiet_tc = excitation_report(quiet)
    ok = rep.is_ie and rep.t_c is not None and np.isfinite(rep.t_c) \
        and not quiet_ie and quiet_tc is None
    assert report_line(
        7, ok,
        f"circuit adaptive run: is_IE={rep.is_ie} with t_c={rep.t_c} at "
        f"C_c={rep.c_c} (gram min eig {rep.gram_min_eig_final:.3g}); "
        f"silent regressor: is_IE={quiet_ie}")


def test_criterion_8_numerical_hygiene(circuit, circuit_gd_run, tmp_path):
    rep_half = run(circuit, SimConfig(h=5e-4))
    rel = np.linalg.norm(np.subtract(rep_half.theta_hat_final,
                                     circuit_gd_run.theta_hat_final)) \
        / np.linalg.norm(circuit_gd_run.theta_hat_final)
    cfg = parse_config("scenario = circuit\nt_end = 1.0\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_command(cfg, out_dir=str(a)) == 0
    assert run_command(cfg, out_dir=str(b)) == 0
    identical = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    ok = rel <= 1e-4 and identical
    assert report_line(
        8, ok,
        f"halving h changes final theta_hat by {rel:.2e} (<= 1e-4 relative); "
        f"identical configs give bit-identical traces: {identical}")
