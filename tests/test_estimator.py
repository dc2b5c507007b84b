import copy
import math
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pbident import SimConfig, World, run, step
from pbident import estimator as estimator_module
from pbident.estimator import (GplusDEstimator, GradientEstimator,
                               check_monotonicity)
from pbident.regressor import ParamMap, RegressorSample
from pbident import smallmat
from hypothesis import given, strategies as st

from pbident.smallmat import (adjugate, determinant, dot, half_update,
                              mix_pair, symmetric_eigen)
from conftest import (cofactor_adj, cofactor_det, kernel_examples,
                      numpy_gradient_propagate, rates, same_bytes, square,
                      theta_rate, value_kinds, vectors)


def scalar_map():
    return ParamMap(G_direct=lambda th: (float(th[0]),),
                    T=np.array([[1.0]]), P=np.array([[1.0]]),
                    jacobian_G=lambda th: np.array([[1.0]]))


def vector_map(p):
    # identity-style stack: G(theta) = theta embedded in p slots (p >= q = p)
    return ParamMap(G_direct=lambda th: tuple(map(float, th)),
                    T=np.eye(p), P=np.eye(p),
                    jacobian_G=lambda th: np.eye(p))


def const_sample(t, y, om):
    return RegressorSample(t=t, Y=y, Omega=np.asarray(om, dtype=float))


# -- literal rates ------------------------------------------------------------

def test_rates_zero_regressor():
    est = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=1.0)
    dgr, dphi, dth = rates(est, const_sample(0.0, 0.0, [0.0]))
    assert np.array_equal(dgr, [0.0])
    assert np.array_equal(dphi, [[0.0]])
    assert np.array_equal(dth, [0.0])


def test_rates_rejects_bad_sample():
    # propagate validates the sample shape and finiteness on its first call
    good = const_sample(0.0, 0.0, [1.0])
    for bad in (const_sample(0.0, 0.0, [1.0, 2.0]),
                const_sample(0.0, np.nan, [1.0])):
        for pair in ((bad, good), (good, bad)):
            est = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=1.0)
            with pytest.raises(ValueError):
                est.propagate(*pair, 1e-3)


def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        GplusDEstimator(scalar_map(), gamma_g=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        GradientEstimator(2, gamma=-1.0)


# -- scalar synthetic closed forms --------------------------------------------
#
# With G(theta) = theta, Omega = 1, Y = theta_true = 2 and unit gains, the
# flows integrate in closed form: Phi(t) = exp(-t), Delta = 1 - exp(-t),
# theta_g(t) = 2 (1 - exp(-t)), Ycal = Delta * 2.

def test_scalar_closed_forms_via_propagate():
    est = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=1.0)
    h = 1e-3
    t_half = np.log(2.0)
    n = int(round(t_half / h))
    hh = t_half / n
    s = const_sample(0.0, 2.0, [1.0])
    for _ in range(n):
        est.propagate(s, s, hh)
    delta, ycal = est.mix()
    # constant regressor: the exponential update is exact
    assert est.Phi[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert delta == pytest.approx(0.5, abs=1e-12)
    assert ycal[0] == pytest.approx(1.0, abs=1e-12)


def test_scalar_flow_against_ivp_oracle():
    gamma = 1.0

    def odes(t, y):
        theta_g, phi, theta = y
        delta = 1.0 - phi
        ycal = theta_g  # adj of 1x1 is 1; theta_g0 = 0
        return [2.0 - theta_g, -phi, gamma * delta * (ycal - delta * theta)]

    ref = solve_ivp(odes, (0.0, 2.0), [0.0, 1.0, 0.0], rtol=1e-11, atol=1e-12)

    # literal right-hand sides, integrated jointly: 4th-order agreement
    est = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=gamma)
    h = 1e-3
    s = const_sample(0.0, 2.0, [1.0])

    def joint_rate(state):
        e = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=gamma)
        e.theta_g = state[:1].copy()
        e.Phi = state[1:2].reshape(1, 1).copy()
        e.theta = state[2:].copy()
        dg, dp, dt_ = rates(e, s)
        return np.concatenate([dg, dp.ravel(), dt_])

    y = np.array([0.0, 1.0, 0.0])
    for _ in range(2000):
        k1 = joint_rate(y)
        k2 = joint_rate(y + h / 2 * k1)
        k3 = joint_rate(y + h / 2 * k2)
        k4 = joint_rate(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert y[2] == pytest.approx(ref.y[2, -1], abs=1e-9)

    # production stepping (frozen mixing pair across each step plus the
    # exponential half-updates): first-order coefficient lag on the path,
    # same converged endpoint
    for _ in range(2000):
        delta, ycal = est.mix()
        th = est.theta

        def rate(thv):
            return theta_rate(est, delta, ycal, thv)
        a1 = rate(th)
        a2 = rate(th + h / 2 * a1)
        a3 = rate(th + h / 2 * a2)
        a4 = rate(th + h * a3)
        est.theta = th + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        est.propagate(s, s, h)
    assert est.theta[0] == pytest.approx(ref.y[2, -1], abs=2e-3)
    assert est.theta_g[0] == pytest.approx(ref.y[0, -1], abs=1e-9)


def test_mix_initial_instant():
    est = GplusDEstimator(vector_map(3), gamma_g=1.0, gamma=1.0,
                          theta_g0=np.array([1.0, -2.0, 0.5]))
    delta, ycal = est.mix()
    assert delta == 0.0
    assert np.array_equal(ycal, np.zeros(3))


def test_mix_follows_every_state_replacement():
    # mix is memoized on the identity of Phi and theta_g: propagate, the Phi
    # setter and assignment to theta_g must each give the fresh pair
    theta_g0 = np.array([0.4, -0.3])
    est = GplusDEstimator(vector_map(2), gamma_g=3.0, gamma=1.0,
                          theta_g0=theta_g0)

    def fresh():
        a = np.eye(2) - est.Phi
        adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        r = np.asarray(est.theta_g) - est.Phi @ theta_g0
        return np.linalg.det(a), adj @ r

    def check():
        delta, ycal = est.mix()
        assert type(ycal) is tuple
        assert est.mix() is est.mix()
        want_delta, want_ycal = fresh()
        assert delta == pytest.approx(want_delta, abs=1e-14)
        assert np.asarray(ycal) == pytest.approx(want_ycal, abs=1e-14)
        return delta, ycal

    pairs = [check()]
    est.propagate(const_sample(0.0, 1.0, [1.0, 0.5]),
                  const_sample(0.1, 1.2, [0.2, 1.0]), 0.1)
    pairs.append(check())
    est.Phi = np.array([[0.5, 0.1], [0.2, 0.25]])
    pairs.append(check())
    est.theta_g = [1.0, 2.0]
    pairs.append(check())
    assert len(set(pairs)) == len(pairs)


def test_half_updates_share_one_gain_per_sample(ph, monkeypatch):
    # a step's end sample is the next step's start sample: its |Omega|^2
    # and exact gain are computed once, and the result is bit-identical to
    # recomputing them
    n2s = []
    exp_gain = estimator_module._exp_gain
    monkeypatch.setattr(estimator_module, "_exp_gain",
                        lambda rate, n2: n2s.append(n2) or exp_gain(rate, n2))
    world = World(ph, SimConfig(gamma_g=300.0))
    est, h = world.estimator, world.cfg.h
    twin = copy.deepcopy(est)
    for k in range(1, 41):
        _, s0, s1 = step(world)
        assert len(n2s) == k + 1
        twin._gain_memo = None
        twin.propagate(s0, s1, h)
        del n2s[-2:]
        assert np.array(est.theta_g).tobytes() == \
            np.array(twin.theta_g).tobytes()
        assert est.Phi.tobytes() == twin.Phi.tobytes()
        assert est.log_det_phi == twin.log_det_phi

# -- mixing identity under exact feed ------------------------------------------

def random_omega_stream(rng, p, n_steps):
    # smooth bounded stream: random Fourier combination per component
    coef = rng.normal(size=(p, 3))
    freq = rng.uniform(0.5, 4.0, (p, 3))
    phase = rng.uniform(0, 2 * np.pi, (p, 3))

    def om(t):
        return np.sum(coef * np.sin(freq * t + phase), axis=1) / np.sqrt(3)
    h = 1e-3
    return [om(k * h) for k in range(n_steps + 1)], h


def test_exact_feed_mixing_identity():
    rng = np.random.default_rng(42)
    for trial in range(30):
        p = int(rng.integers(1, 4))
        target = rng.uniform(-2, 2, p)   # plays the role of G(theta)
        oms, h = random_omega_stream(rng, p, 200)
        est = GplusDEstimator(vector_map(p), gamma_g=5.0, gamma=1.0,
                              theta_g0=rng.uniform(-1, 1, p))
        scale = 1e-6 * (1.0 + np.linalg.norm(target))
        for k in range(200):
            s0 = const_sample(k * h, float(oms[k] @ target), oms[k])
            s1 = const_sample((k + 1) * h, float(oms[k + 1] @ target), oms[k + 1])
            est.propagate(s0, s1, h)
            delta, ycal = est.mix()
            assert np.linalg.norm(ycal - delta * target) <= scale


def test_abel_liouville_identity():
    # det(Phi) tracks exp(-gamma_g * trapezoid of |Omega|^2), both through the
    # bookkeeping exponent and through the actual matrix determinant
    rng = np.random.default_rng(11)
    p = 3
    oms, h = random_omega_stream(rng, p, 400)
    est = GplusDEstimator(vector_map(p), gamma_g=1.0, gamma=1.0)
    q = 0.0
    for k in range(400):
        s0 = const_sample(k * h, 0.0, oms[k])
        s1 = const_sample((k + 1) * h, 0.0, oms[k + 1])
        est.propagate(s0, s1, h)
        q += 0.5 * h * (float(oms[k] @ oms[k]) + float(oms[k + 1] @ oms[k + 1]))
    assert abs(est.log_det_phi + q) <= 1e-9 * max(1.0, q)
    det = determinant(est.Phi)
    assert det == pytest.approx(np.exp(-q), rel=1e-5)


def test_monotone_contraction_of_correction_flow():
    # with exact feed and Delta bounded away from zero, V = theta_err^2 / 2
    # decreases strictly
    est = GplusDEstimator(scalar_map(), gamma_g=1.0, gamma=2.0)
    h = 1e-3
    s = const_sample(0.0, 2.0, [1.0])
    v_at = {}
    for k in range(1500):
        delta, ycal = est.mix()
        th = est.theta

        def rate(thv):
            return theta_rate(est, delta, ycal, thv)
        a1 = rate(th)
        a2 = rate(th + h / 2 * a1)
        a3 = rate(th + h / 2 * a2)
        a4 = rate(th + h * a3)
        est.theta = th + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        est.propagate(s, s, h)
        t = (k + 1) * h
        v = 0.5 * (est.theta[0] - 2.0) ** 2
        v_at[round(t, 6)] = v
        if k > 0:
            assert v <= prev_v + 1e-15
        prev_v = v
    assert v_at[1.5] < v_at[0.5]   # strict decrease once Delta > 0


# -- plain gradient flow --------------------------------------------------------

def test_gradient_zero_regressor():
    est = GradientEstimator(2, gamma=3.0)
    assert np.array_equal(est.rate(const_sample(0.0, 0.0, [0.0, 0.0])),
                          np.zeros(2))


def test_gradient_scalar_closed_form():
    # constant scalar regressor c: the error decays exactly like
    # exp(-gamma c^2 t), and the trapezoid exponential update reproduces it
    gamma, c = 3.0, 0.7
    est = GradientEstimator(1, gamma=gamma, Theta0=[0.0])
    h = 1e-3
    s = const_sample(0.0, c * 2.0, [c])   # target Theta = 2
    for k in range(1000):
        est.propagate(s, s, h)
    t = 1.0
    expected = 2.0 * (1.0 - np.exp(-gamma * c * c * t))
    assert est.Theta[0] == pytest.approx(expected, abs=1e-12)


def test_gradient_prediction_error_monotone():
    est = GradientEstimator(1, gamma=2.0, Theta0=[-1.0])
    h = 1e-3
    s = const_sample(0.0, 1.5, [0.5])
    prev = abs(1.5 - 0.5 * est.Theta[0])
    for _ in range(500):
        est.propagate(s, s, h)
        e = abs(1.5 - 0.5 * est.Theta[0])
        assert e <= prev + 1e-15
        prev = e


def test_pre_estimator_prediction_error_monotone():
    # same monotone decrease along the interlaced scheme's first stage
    est = GplusDEstimator(vector_map(2), gamma_g=2.0, gamma=1.0,
                          theta_g0=np.array([3.0, -1.0]))
    h = 1e-3
    s = const_sample(0.0, 1.0, [0.6, 0.8])
    prev = abs(1.0 - s.Omega @ est.theta_g)
    for _ in range(500):
        est.propagate(s, s, h)
        e = abs(1.0 - s.Omega @ est.theta_g)
        assert e <= prev + 1e-15
        prev = e


def test_gradient_matrix_regressor_matches_ivp():
    # time-varying 3x2 regressor: compare the exponential stepping against a
    # tight reference integration of the literal flow
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2))
    theta_star = np.array([1.0, -0.5, 2.0])

    def om(t):
        return a * np.cos(t) + b * np.sin(2 * t)

    def y(t):
        return om(t).T @ theta_star

    gamma = 4.0

    def flow(t, th):
        o = om(t)
        return gamma * (o @ (y(t) - o.T @ th))

    ref = solve_ivp(flow, (0.0, 1.0), np.zeros(3), rtol=1e-11, atol=1e-12)
    est = GradientEstimator(3, gamma=gamma)
    h = 1e-3
    for k in range(1000):
        s0 = const_sample(k * h, y(k * h), om(k * h))
        s1 = const_sample((k + 1) * h, y((k + 1) * h), om((k + 1) * h))
        est.propagate(s0, s1, h)
    assert np.max(np.abs(est.Theta - ref.y[:, -1])) <= 1e-5


def matrix_regressor_cases(rng):
    """(p x n regressor, stiffness gamma |Omega|^2 tau) pairs: full rank,
    collinear columns, a zero column, n = 1 and n = 3."""
    for stiff in (1e-3, 1.0, 1e2, 1e4):
        yield rng.normal(size=(3, 2)), stiff
        a = rng.normal(size=3)
        yield np.column_stack([a, -2.5 * a]), stiff
        yield np.column_stack([rng.normal(size=3), np.zeros(3)]), stiff
        yield rng.normal(size=(3, 1)), stiff
        yield rng.normal(size=(3, 3)), stiff


def test_gradient_matrix_update_matches_numpy_oracle():
    # the float update through the n x n Gram against the eigh form on the
    # p x p matrix gamma Omega Omega' it replaces.  That oracle's near-zero
    # eigenvalues (gamma Omega Omega' has rank <= n < p) carry absolute
    # errors of about eps * gamma |Omega|^2, so it leaks an error of about
    # eps * stiffness through its null space: against a 50-digit reference
    # it is off by 2.6e-12 relative at stiffness 1e4, the Gram path by 1e-13
    rng = np.random.default_rng(11)
    tau = 5e-4
    for om, stiff in matrix_regressor_cases(rng):
        p, n = om.shape
        gamma = stiff / (tau * float(np.sum(om * om)))
        theta0 = rng.normal(size=p)
        s0 = const_sample(0.0, rng.normal(size=n), om)
        s1 = const_sample(2 * tau, rng.normal(size=n),
                          om + 1e-3 * rng.normal(size=(p, n)))
        est = GradientEstimator(p, gamma=gamma, Theta0=theta0)
        est.propagate(s0, s1, 2 * tau)
        ref = numpy_gradient_propagate(gamma, theta0, s0, s1, 2 * tau)
        rel = max(1e-12, 8 * np.finfo(float).eps * stiff)
        assert np.max(np.abs(np.array(est.Theta) - ref)) \
            <= rel * np.max(np.abs(ref)), (om, stiff)


def test_gradient_matrix_update_non_finite_gives_nan():
    # only the first call checks finiteness; a later non-finite regressor
    # loses the estimate instead of raising
    for bad in (np.nan, np.inf):
        for n in (1, 2, 3):
            good = const_sample(0.0, np.ones(n), np.eye(3)[:, :n])
            om = np.ones((3, n))
            om[0, 0] = bad
            est = GradientEstimator(3, gamma=1.0, Theta0=[1.0, 2.0, 3.0])
            est.propagate(good, good, 1e-3)
            est.propagate(good, const_sample(1e-3, np.ones(n), om), 1e-3)
            assert np.all(np.isnan(est.Theta))


# -- the interlaced estimator's kernels against the expressions they fuse ----

@kernel_examples
@given(data=st.data(), p=st.integers(1, 4), values=value_kinds)
def test_half_update_matches_the_composed_update_bit_for_bit(data, p,
                                                             values):
    # the former update: ce = c*(Y - om'g) from the left-to-right dot, g +
    # ce*om, and Phi - outer(c*om, v) with v = om'Phi column by column
    draw = data.draw
    c, y = draw(values), draw(values)
    om, g = tuple(draw(vectors(p, values))), draw(vectors(p, values))
    phi = draw(square(p, values))
    ce = c * (y - dot(om, g))
    v = [dot(om, col) for col in zip(*phi)]
    want = ([a + ce * b for a, b in zip(g, om)],
            [[b - (c * o) * w for b, w in zip(row, v)]
             for o, row in zip(om, phi)])
    got = half_update(p)(c, y, om, g, phi)
    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


@kernel_examples
@given(data=st.data(), p=st.integers(1, 3), values=value_kinds)
def test_mix_pair_matches_the_composed_pair_bit_for_bit(data, p, values):
    # the former pair: I - Phi entry by entry, then the cofactor
    # determinant, the adjugate and its row products with r
    phi, r = data.draw(square(p, values)), data.draw(vectors(p, values))
    eye = [[1.0 if i == j else 0.0 for j in range(p)] for i in range(p)]
    a = [[e - v for e, v in zip(e_row, row)] for e_row, row in zip(eye, phi)]
    det, ycal = mix_pair(p)(phi, r)
    assert isinstance(ycal, tuple)
    assert same_bytes([det], [cofactor_det(a)])
    assert same_bytes(ycal, [dot(row, r) for row in cofactor_adj(a)])
    # and the library's own closed forms agree, as det_phi uses them
    assert same_bytes([det], [determinant(a)])
    assert same_bytes(ycal, [dot(row, r) for row in adjugate(a)])


def loop_half_update(gamma, theta, sample, tau):
    """The matrix half update as generic `dot` loops over the regressor's
    columns, in the order the estimator's kernels keep."""
    cols = list(zip(*sample.Omega))
    r = [y - dot(c, theta) for y, c in zip(sample.Y, cols)]
    w, v = symmetric_eigen([[gamma * dot(ci, cj) for cj in cols]
                            for ci in cols])
    vr = [(-math.expm1(-(lam * tau)) / lam if lam > 1e-300 else tau)
          * dot(vk, r) for lam, vk in zip(w, zip(*v))]
    z = [gamma * dot(vi, vr) for vi in v]
    return [a + dot(row, z) for a, row in zip(theta, sample.Omega)]


def float_bytes(values) -> bytes:
    """IEEE double bytes of the values, every nan as the one quiet nan: of
    two nan operands CPython 3.11 returns either one's bits."""
    return struct.pack(f"<{len(values)}d",
                       *(math.nan if v != v else v for v in values))


@pytest.mark.parametrize("n_w, n", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_gradient_matrix_kernels_match_the_loop_form_bit_for_bit(n_w, n):
    rng = np.random.default_rng(100 * n_w + n)
    tau = 5e-4
    for trial in range(40):
        om = rng.normal(size=(n_w, n)) * 10.0 ** rng.integers(-3, 4)
        if trial % 8 == 7:   # non-finite entries from the second call on
            om[rng.integers(n_w), rng.integers(n)] = \
                (math.inf, -math.inf, math.nan)[trial % 3]
        gamma = float(10.0 ** rng.uniform(-2, 5))
        theta0 = rng.normal(size=n_w).tolist()
        first = RegressorSample(0.0, tuple(rng.normal(size=n).tolist()),
                                tuple(rng.normal(size=(n_w, n)).tolist()))
        s = RegressorSample(0.0, tuple(rng.normal(size=n).tolist()),
                            tuple(om.tolist()))
        est = GradientEstimator(n_w, gamma=gamma, Theta0=theta0)
        ref = theta0
        for a, b in ((first, first), (s, first), (first, s)):
            est.propagate(a, b, 2 * tau)
            for sample in (a, b):
                ref = loop_half_update(gamma, ref, sample, tau)
            assert float_bytes(est.Theta) == float_bytes(ref), (om, gamma)


def test_gradient_matrix_kernels_are_bound_once_per_shape():
    def bound(n_w, n):
        est = GradientEstimator(n_w, gamma=1.0)
        s = RegressorSample(0.0, (1.0,) * n, tuple([[0.5] * n] * n_w))
        est.propagate(s, s, 1e-3)
        return (est._residual_gram, est._scaled_mtv, est._scaled_mv,
                est._v_plus_mg)
    first = bound(3, 2)
    assert all(a is b for a, b in zip(first, bound(3, 2)))
    assert all(a is not b for a, b in zip(first, bound(2, 3)))


class _Raises:
    """Stands in for numpy or a function; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the update used .{name}")

    def __call__(self, *args):
        raise AssertionError("the update called the generic dot")


def test_gradient_matrix_update_after_the_first_calls_no_numpy_or_dot(
        monkeypatch):
    est = GradientEstimator(3, gamma=2.0)
    s = RegressorSample(0.0, (1.0, 2.0),
                        ([1.0, 0.5], [0.0, -1.0], [2.0, 0.25]))
    est.propagate(s, s, 1e-3)
    # the package imports numpy where it uses it: this import fails the test
    monkeypatch.setitem(sys.modules, "numpy", _Raises())
    monkeypatch.setattr(smallmat, "dot", _Raises())
    theta = est.Theta
    est.propagate(s, s, 1e-3)
    assert est.Theta != theta


def test_gradient_dimension_mismatch():
    est = GradientEstimator(2, gamma=1.0)
    with pytest.raises(ValueError):
        est.rate(const_sample(0.0, 0.0, [1.0, 2.0, 3.0]))


def test_gplusd_rejects_a_wrong_length_G(ph):
    # the correction flow zips G(theta) with rows of length p: a G one entry
    # short would run to a report on a truncated flow
    pm = replace(ph.plant.param_map, G_direct=lambda th: (th[0],))
    scen = replace(ph, plant=replace(ph.plant, param_map=pm))
    with pytest.raises(ValueError, match="G returns 1 values.*p = 2"):
        run(scen, SimConfig(t_end=0.1))


# -- monotonicity checker ---------------------------------------------------------

def test_monotonicity_shipped_selections(circuit, ph):
    for scen in (ph, circuit):
        rep = check_monotonicity(scen.plant.param_map,
                                 [0.1, 10.0], n_samples=2000, seed=1)
        assert rep.passed
        assert rep.rho_jacobian == pytest.approx(1.0, abs=1e-9)
        assert rep.rho_secant == pytest.approx(1.0, abs=1e-9)


def test_monotonicity_identity_map():
    rep = check_monotonicity(vector_map(2), [[-1.0, 1.0], [-1.0, 1.0]],
                             n_samples=500, seed=0)
    assert rep.rho_jacobian == pytest.approx(1.0, abs=1e-12)


def test_monotonicity_weak_selection_reports_small_rho():
    # selecting only the quadratic storage coefficient of the circuit stack
    # leaves W(theta) = theta^2 whose slope drops to 0.2 at the box edge
    pm = ParamMap(G_direct=lambda th: (float(th[0]), float(th[0] ** 2)),
                  T=np.array([[0.0, 1.0]]), P=np.array([[1.0]]),
                  jacobian_G=lambda th: np.array([[1.0], [2.0 * th[0]]]))
    rep = check_monotonicity(pm, [0.1, 10.0], n_samples=10000, seed=2)
    assert 0.2 <= rep.rho_jacobian <= 0.21
    assert rep.rho_secant >= rep.rho_jacobian - 1e-6


def test_monotonicity_secant_dominates_jacobian(circuit):
    rep = check_monotonicity(circuit.plant.param_map, [0.1, 10.0],
                             n_samples=3000, seed=7)
    assert rep.rho_secant >= rep.rho_jacobian - 1e-6


def _coupled_map():
    """q = 2 with W(theta) = T G(theta) coupled through theta0 * theta1, so
    sym(P T J_G) changes from sample to sample."""
    return ParamMap(
        G_direct=lambda th: (float(th[0]), float(th[1]),
                             float(th[0] * th[1])),
        T=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]]),
        P=np.array([[2.0, 0.5], [0.5, 1.0]]),
        jacobian_G=lambda th: np.array([[1.0, 0.0], [0.0, 1.0],
                                        [th[1], th[0]]]))


@pytest.mark.parametrize("name", ["circuit", "coupled", "ph"])
def test_monotonicity_rho_jacobian_is_eigvalsh_bit_for_bit(circuit, ph, name):
    # every sample's sym(P T J_G) is an ndarray, 2x2 at q = 2 and 1x1 for
    # ph (q = 1), whose minimum eigenvalue min_eig_symmetric takes on
    # floats in LAPACK's operations
    pm = {"circuit": circuit.plant.param_map, "coupled": _coupled_map(),
          "ph": ph.plant.param_map}[name]
    assert pm.q == (1 if name == "ph" else 2)
    rep = check_monotonicity(pm, [0.1, 10.0], n_samples=3000, seed=4)
    rng = np.random.default_rng(4)
    want = np.inf
    pmat, tmat = np.array(pm.P), np.array(pm.T)
    for theta in 0.1 + 9.9 * rng.random((3000, pm.q)):
        jw = pmat @ (tmat @ np.asarray(pm.jacobian_G(theta), dtype=float))
        sym = 0.5 * (jw + jw.T)
        want = min(want, float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[0]))
    assert struct.pack("<d", rep.rho_jacobian) == struct.pack("<d", want)


def test_monotonicity_rejects_degenerate_box():
    with pytest.raises(ValueError):
        check_monotonicity(scalar_map(), [[1.0, 1.0]], n_samples=10)
    with pytest.raises(ValueError):
        check_monotonicity(scalar_map(), [0.1, 10.0], n_samples=1)


def test_monotonicity_deterministic():
    r1 = check_monotonicity(scalar_map(), [0.5, 2.0], n_samples=100, seed=9)
    r2 = check_monotonicity(scalar_map(), [0.5, 2.0], n_samples=100, seed=9)
    assert r1.rho_jacobian == r2.rho_jacobian
    assert r1.rho_secant == r2.rho_secant
