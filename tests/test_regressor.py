import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from pbident import ControllerKind, EstimatorKind, SimConfig, World, step
from pbident.filters import ChannelMode, FirstOrderFilterBank
from pbident.regressor import (NlpreData, ParamMap, PbepGenerator,
                               RegressorSample, StdLreGenerator)
from pbident.smallmat import pbep_sample
from conftest import (kernel_examples, predicted, residual, sample,
                      same_bytes, state_rate, value_kinds, vectors)

LAM = 10.0


def drive(scenario, estimator, x0, t_end=3.0, h=1e-3):
    """Known-parameter closed loop; returns times and end-of-step samples."""
    cfg = SimConfig(t_end=t_end, h=h, estimator=estimator,
                    controller=ControllerKind.KNOWN_PARAMETER,
                    x0=np.asarray(x0, dtype=float))
    world = World(scenario, cfg)
    ts, samples = [], []
    for _ in range(int(round(t_end / h))):
        _, _, s1 = step(world)
        ts.append(world.t)
        samples.append(s1)
    return np.array(ts), samples


# -- ParamMap ---------------------------------------------------------------

def scalar_map(**over):
    return ParamMap(**{"G_direct": lambda th: (th[0],), "T": np.array([[1.0]]),
                       "P": np.array([[1.0]]),
                       "jacobian_G": lambda th: np.array([[1.0]]), **over})


def test_param_map_validation():
    pm = scalar_map()
    assert (pm.q, pm.p) == (1, 1)
    with pytest.raises(ValueError):   # p < q
        scalar_map(T=np.array([[1.0], [0.0]]), P=np.eye(2))
    with pytest.raises(ValueError):   # P not positive definite
        scalar_map(P=np.array([[-1.0]]))
    with pytest.raises(ValueError):   # T not a matrix
        scalar_map(T=np.array([1.0]))


def test_param_map_dimension_audit(circuit, ph):
    # the selector's shape gives q and p; the regression data splits p
    for scen in (circuit, ph):
        pm, d = scen.plant.param_map, scen.plant.nlpre
        assert np.shape(pm.T) == (pm.q, pm.p)
        assert pm.p == d.p_s + d.p_S + d.p_d == len(pm.G(scen.theta_true))
        assert pm.p >= pm.q


# -- generator construction --------------------------------------------------

def test_circuit_pbep_channel_structure(circuit):
    plant = circuit.plant
    gen = PbepGenerator(plant.nlpre, plant.param_map, LAM,
                        np.zeros(2), np.array([0.0, 15.0]), np.zeros(2))
    # one Y channel (supply offset), two storage-derivative channels, one
    # dissipation channel; the zero storage offset map is skipped
    assert gen.n_channels == 4
    assert gen.bank.modes == (ChannelMode.PLAIN, ChannelMode.DERIVATIVE,
                              ChannelMode.DERIVATIVE, ChannelMode.PLAIN)
    assert gen.p == 3


def test_ph_pbep_channel_structure(ph):
    plant = ph.plant
    gen = PbepGenerator(plant.nlpre, plant.param_map, LAM,
                        np.array([1.0, 1.0]), np.array([0.0]), np.zeros(1))
    # one storage-derivative channel for Y plus two supply channels
    assert gen.n_channels == 3
    assert gen.bank.modes == (ChannelMode.DERIVATIVE, ChannelMode.PLAIN,
                              ChannelMode.PLAIN)


def test_pbep_dimension_mismatch(circuit, ph):
    with pytest.raises(ValueError):
        PbepGenerator(circuit.plant.nlpre, ph.plant.param_map, LAM,
                      np.zeros(2), np.zeros(2), np.zeros(2))
    # a selector two wide against a one-block split
    nlpre = NlpreData(p_s=1, p_S=0, p_d=0, phi_s=lambda x, up, yp: (x[0],))
    with pytest.raises(ValueError, match="p_s \\+ p_S \\+ p_d = 1.*p = 2"):
        PbepGenerator(nlpre, scalar_map(T=np.array([[1.0, 0.0]])), LAM,
                      np.zeros(1), np.zeros(1), np.zeros(1))


def test_signal_count_comparison(circuit, ph):
    # the power-balance route needs strictly fewer filtered signals than the
    # state-equation route on both shipped scenarios.  Circuit: E*x1 (Y),
    # x1^2, x2^2 (x2^2 feeds both the storage and dissipation blocks) against
    # x1, x2 (derivative block), -x2*u, E, x1*u (input-matrix products) and
    # -x2 (drift entry); ph: x1*u, x2*u, |x|^2/2 against x1, x2, the two
    # drift offsets and the two input-matrix products
    pbep_signal_count, std_signal_count = 3, 6
    assert pbep_signal_count < std_signal_count
    for scen in (circuit, ph):
        plant = scen.plant
        u0 = np.zeros(plant.n_p)
        pbep = PbepGenerator(plant.nlpre, plant.param_map, LAM,
                             np.zeros(plant.n), u0, np.zeros(plant.n_p))
        std = StdLreGenerator(plant.std, LAM, np.zeros(plant.n), u0)
        assert pbep.n_channels < std.n_channels


def numpy_std_inputs(std, x, u_p):
    """StdLre channel inputs as arrays: x, then b_f + B_g u_p when declared,
    then the rows of w_f + sum_j u_p[j] phi_g[i][j], one after another."""
    n = len(x)
    parts = [np.asarray(x, dtype=float)]
    if std.b_f is not None or std.b_g is not None:
        b = np.zeros(n) if std.b_f is None else np.array(std.b_f(x), dtype=float)
        for i, entries in enumerate(std.b_g or ()):
            for u, entry in zip(u_p, entries):
                if entry is not None:
                    b[i] += u * entry(x)
        parts.append(b)
    w = np.zeros((n, std.n_w)) if std.w_f is None else \
        np.array(std.w_f(x), dtype=float)
    for i, entries in enumerate(std.phi_g or ()):
        for u, entry in zip(u_p, entries):
            if entry is not None:
                w[i] += u * np.array(entry(x), dtype=float)
    parts.append(w.ravel())
    return np.concatenate(parts)


@pytest.mark.parametrize("name", ["circuit", "ph"])
def test_std_inputs_match_a_numpy_oracle(name, circuit, ph):
    plant = {"circuit": circuit, "ph": ph}[name].plant
    rng = np.random.default_rng(7)
    x0, u0 = rng.normal(size=plant.n), rng.normal(size=plant.n_p)
    gen = StdLreGenerator(plant.std, LAM, tuple(x0.tolist()),
                          tuple(u0.tolist()))
    calls = []
    # two calls in a row at different states: the rows of a call must not
    # start from, or be changed by, those of another (ph has no w_f, so its
    # rows start from zeros on every call)
    for _ in range(2):
        x = tuple(rng.normal(size=plant.n).tolist())
        u_p = tuple((10.0 * rng.normal(size=plant.n_p)).tolist())
        calls.append((gen.inputs(x, u_p), numpy_std_inputs(plant.std, x, u_p)))
    for got, want in calls:
        assert np.array(got).tobytes() == want.tobytes()


def test_zero_maps_give_zero_regression():
    nlpre = NlpreData(p_s=1, p_S=0, p_d=0,
                      phi_s=lambda x, up, yp: np.zeros(1))
    gen = PbepGenerator(nlpre, scalar_map(), LAM, np.zeros(1), np.zeros(1), np.zeros(1))
    x = np.array([3.0])
    for k in range(100):
        z = gen.state
        gen.state = z + 1e-3 * state_rate(gen, x, x, x)
        s = sample(gen, k * 1e-3, x, x, x)
        assert s.Y == 0.0
        assert np.array_equal(s.Omega, np.zeros(1))


# -- frozen-plant closed forms -----------------------------------------------

def test_frozen_plant_closed_forms(circuit):
    plant = circuit.plant
    x = np.array([2.0, 3.0])
    up, yp = circuit.ports(x, 0.5, 0.0)
    gen = PbepGenerator(plant.nlpre, plant.param_map, LAM, x, up, yp)
    h, t1 = 1e-4, 1.0
    n = int(round(t1 / h))
    inp = gen.inputs(x, up, yp)
    for _ in range(n):
        z = gen.state
        k1 = LAM * (inp - z)
        k2 = LAM * (inp - (z + h / 2 * k1))
        k3 = LAM * (inp - (z + h / 2 * k2))
        k4 = LAM * (inp - (z + h * k3))
        gen.state = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    s = sample(gen, t1, x, up, yp)
    decay = np.exp(-LAM * t1)
    # supply channel approaches E*x1, derivative taps decay to zero, the
    # dissipation channel approaches x2^2
    assert s.Y == pytest.approx(15.0 * 2.0 * (1 - decay), rel=1e-9)
    assert abs(s.Omega[0]) <= LAM * 0.5 * x[0] ** 2 * decay * 1.001 + 1e-12
    assert abs(s.Omega[1]) <= LAM * 0.5 * x[1] ** 2 * decay * 1.001 + 1e-12
    assert s.Omega[2] == pytest.approx(9.0 * (1 - decay), rel=1e-9)


# -- regression consistency along real trajectories ---------------------------
#
# With the derivative channels initialized at their initial inputs, the
# zero-initial-condition mismatch of the filtered balance equation cancels
# the channel-initialization transient exactly, so the regression residual
# sits at integration-error level from t = 0 -- strictly inside the decaying
# analytic envelope lam * (|b_S(x0)| + |phi_S(x0)' G_S|) * exp(-lam t).
# Bounds below were frozen from fine-step and solve_ivp reference runs.

def pbep_envelope(scen, x0):
    plant = scen.plant
    d = plant.nlpre
    gs = plant.param_map.G(plant.theta_true)
    b = abs(d.b_S(x0)) if d.b_S is not None else 0.0
    phi = 0.0
    if d.p_S:
        g_S = gs[d.p_s:d.p_s + d.p_S]
        phi = abs(float(np.asarray(d.phi_S(x0)) @ g_S))
    return LAM * (b + phi)


@pytest.mark.parametrize("name,x0,c_h", [
    ("circuit", (1.0, 2.0), 2e-4),
    ("ph", (1.0, 1.0), 1e-8),
])
def test_pbep_consistency_envelope(name, x0, c_h, circuit, ph):
    scen = {"circuit": circuit, "ph": ph}[name]
    g_true = scen.plant.param_map.G(scen.plant.theta_true)
    ts, samples = drive(scen, EstimatorKind.GPLUSD_PBEP, x0)
    env0 = pbep_envelope(scen, np.asarray(x0))
    for t, s in zip(ts, samples):
        r = residual(s, g_true)
        assert r <= env0 * np.exp(-LAM * t) + c_h
        assert r <= c_h  # exact-cancellation property


@pytest.mark.parametrize("name,x0,c_h", [
    ("circuit", (1.0, 2.0), 4e-3),
    ("ph", (1.0, 1.0), 1e-8),
])
def test_std_consistency_envelope(name, x0, c_h, circuit, ph):
    scen = {"circuit": circuit, "ph": ph}[name]
    theta_big = scen.plant.std.C(scen.plant.theta_true)
    ts, samples = drive(scen, EstimatorKind.GRADIENT_STD, x0)
    x0 = np.asarray(x0, dtype=float)
    for t, s in zip(ts, samples):
        r = residual(s, theta_big)
        assert r <= LAM * np.max(np.abs(x0)) * np.exp(-LAM * t) + c_h
        assert r <= c_h


def test_pbep_consistency_independent_oracle(circuit):
    # continuous-time check, independent of the package stepping: integrate
    # plant + filters with solve_ivp and evaluate the residual on a grid
    scen = circuit
    plant = scen.plant
    g_true = plant.param_map.G(plant.theta_true)
    theta_true = plant.theta_true
    x0 = np.array([1.0, 2.0])
    cfg = SimConfig(estimator=EstimatorKind.GPLUSD_PBEP,
                    controller=ControllerKind.KNOWN_PARAMETER, x0=x0)
    world = World(scen, cfg)
    gen = world.generator
    z0 = gen.state.copy()

    def joint(t, y):
        x, z = y[:2], y[2:]
        u = world.control(x, theta_true, t)
        up, yp = scen.ports(x, u, t)
        return np.concatenate([scen.fast_rate(x, u, t),
                               LAM * (gen.inputs(x, up, yp) - z)])

    sol = solve_ivp(joint, (0.0, 2.0), np.concatenate([x0, z0]),
                    rtol=1e-11, atol=1e-12, dense_output=True, max_step=0.01)
    for t in np.linspace(0.01, 2.0, 100):
        y = sol.sol(t)
        gen.state = y[2:]
        u = world.control(y[:2], theta_true, t)
        up, yp = scen.ports(y[:2], u, t)
        s = sample(gen, t, y[:2], up, yp)
        assert residual(s, g_true) <= 1e-7


def test_y_single_state_realization_cross_check(circuit, ph):
    # alternative single-state realization of the Y signal:
    #   xdot_Y = -lam (x_Y + b_S) + b_d - b_s,  Y = -lam (x_Y + b_S)
    # with x_Y(0) = -b_S(x(0)); must agree with the channel-built Y
    for scen, x0 in ((circuit, np.array([1.0, 2.0])),
                     (ph, np.array([1.0, 1.0]))):
        plant = scen.plant
        d = plant.nlpre
        theta_true = plant.theta_true

        def b_s(x, up, yp):
            return d.b_s(x, up, yp) if d.b_s is not None else 0.0

        def b_S(x):
            return d.b_S(x) if d.b_S is not None else 0.0

        def b_d(x):
            return d.b_d(x) if d.b_d is not None else 0.0

        cfg = SimConfig(t_end=2.0, estimator=EstimatorKind.GPLUSD_PBEP,
                        controller=ControllerKind.KNOWN_PARAMETER, x0=x0)
        world = World(scen, cfg)
        x_y = -b_S(x0)
        h = cfg.h
        for _ in range(int(round(cfg.t_end / h))):
            xprev = world.x.copy()
            tprev = world.t
            xs, _, s1 = step(world)
            # integrate the single-state form with RK4 on the same grid
            x_mid = xs[len(xs) // 2 - 1] if len(xs) % 2 == 0 else \
                0.5 * (xprev + xs[-1])

            def rhs(x_state, xc, tc):
                u = world.control(xc, theta_true, tc)
                up, yp = scen.ports(xc, u, tc)
                return -LAM * (x_state + b_S(xc)) + b_d(xc) - b_s(xc, up, yp)

            k1 = rhs(x_y, xprev, tprev)
            k2 = rhs(x_y + h / 2 * k1, x_mid, tprev + h / 2)
            k3 = rhs(x_y + h / 2 * k2, x_mid, tprev + h / 2)
            k4 = rhs(x_y + h * k3, xs[-1], tprev + h)
            x_y = x_y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            y_alt = -LAM * (x_y + b_S(world.x))
            # averaged midpoint above is O(h^2), so allow a few h^2 units
            assert abs(y_alt - s1.Y) <= 5e-6 * max(1.0, abs(s1.Y))


# -- sample conventions --------------------------------------------------------

def test_sample_predicted_and_residual():
    # Y = Omega' params in both conventions: Omega a p-vector with scalar Y,
    # or stored (n_w, n) with an n-vector Y
    s = RegressorSample(t=0.0, Y=3.0, Omega=np.array([1.0, 2.0]))
    assert predicted(s, [1.0, 1.0]) == 3.0
    assert residual(s, [1.0, 1.0]) == 0.0
    sm = RegressorSample(t=0.0, Y=np.array([1.0, 2.0]),
                         Omega=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    pred = predicted(sm, [1.0, 2.0, 0.0])
    assert np.array_equal(pred, [1.0, 2.0])
    assert residual(sm, [1.0, 2.0, 0.0]) == 0.0


@kernel_examples
@given(data=st.data(), y_plain=st.booleans(), y_deriv=st.booleans(),
       p_s=st.integers(0, 3), p_S=st.integers(0, 3), p_d=st.integers(0, 3),
       values=value_kinds)
def test_pbep_sample_matches_the_bank_taps_bit_for_bit(data, y_plain,
                                                       y_deriv, p_s, p_S,
                                                       p_d, values):
    # the former sample: the bank's channel taps, Y = 0.0 (+ the PLAIN Y
    # tap) (- the DERIVATIVE Y tap), Omega = -phi_s taps, then the rest
    plain, deriv = ChannelMode.PLAIN, ChannelMode.DERIVATIVE
    modes = ([plain] * y_plain + [deriv] * y_deriv + [plain] * p_s
             + [deriv] * p_S + [plain] * p_d)
    n = len(modes)
    lam = data.draw(values)
    u, z = data.draw(vectors(n, values)), data.draw(vectors(n, values))
    bank = FirstOrderFilterBank(1.0, modes, [0.0] * n)
    bank.lam, bank.state = lam, z
    out = bank.output(u)
    k, y = 0, 0.0
    if y_plain:
        y, k = y + out[k], k + 1
    if y_deriv:
        y, k = y - out[k], k + 1
    omega = tuple(-v for v in out[k:k + p_s]) + tuple(out[k + p_s:])
    got_y, got_omega = pbep_sample(y_plain, y_deriv, p_s, p_S, p_d)(lam, u, z)
    assert same_bytes([got_y], [y]) and isinstance(got_omega, tuple)
    assert same_bytes(got_omega, omega) and len(got_omega) == p_s + p_S + p_d
