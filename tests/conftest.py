import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from pbident import (ChannelMode, ControllerKind, EstimatorKind,
                     PbepGenerator, RegressorSample, SimConfig,
                     circuit_scenario, ph_scenario, run)
from pbident.smallmat import adjugate, determinant


def rk4(rate, y0, t0, t1, n):
    """Test-local fixed-step RK4; independent of the package stepping."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / n
    t = t0
    out = [y.copy()]
    for _ in range(n):
        k1 = np.asarray(rate(t, y))
        k2 = np.asarray(rate(t + h / 2, y + h / 2 * k1))
        k3 = np.asarray(rate(t + h / 2, y + h / 2 * k2))
        k4 = np.asarray(rate(t + h, y + h * k3))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        out.append(y.copy())
    return np.array(out)


class NoNumpy:
    """Stands in for numpy in sys.modules; any use of it fails the test.

    The package imports numpy inside the functions that use it, so with
    `monkeypatch.setitem(sys.modules, "numpy", NoNumpy())` any numpy use
    there fails, while a test module's own `np` still works.
    """

    def __getattr__(self, name):
        raise AssertionError(f"called numpy.{name}")


class ListTrace:
    """Trace sink that keeps the header and every row in memory."""

    def __init__(self):
        self.columns: list[str] = []
        self.rows: list[list[float]] = []

    def header(self, columns):
        self.columns = list(columns)

    def row(self, values):
        self.rows.append(list(values))


# -- drawn values for the smallmat kernels' bit-for-bit tests ----------------

EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.5]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# finite, nonzero and of moderate size: no product vanishes and results
# stay finite, so a reordered sum rounds differently, where edge values
# turn most results into inf or nan
ordinary = st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= 1e-3)
# an example draws all its values from one of the two
value_kinds = st.sampled_from([floats, ordinary])
kernel_examples = settings(derandomize=True, database=None, deadline=None,
                           max_examples=60)


def vectors(n, values=None):
    """Lists of n floats drawn from `values`; by default from edge values
    and any float, or ordinary values."""
    if values is not None:
        return st.lists(values, min_size=n, max_size=n)
    return st.one_of(vectors(n, floats), vectors(n, ordinary))


def square(p, values=None):
    return st.lists(vectors(p, values), min_size=p, max_size=p)


def same_bytes(got, want):
    """Equal float64 bytes, signed zeros included, with every nan read as
    one nan: of two nan operands CPython's float + and * return one or the
    other depending on whether the instruction has been specialized yet,
    so a nan's sign and payload vary even between calls of one expression.
    """
    def canonical(v):
        a = np.array(v, dtype=float)
        return np.where(np.isnan(a), np.nan, a).tobytes()
    return canonical(got) == canonical(want)


class Recorder:
    """A stage kernel's callee (the plant rate, G): keeps the arguments of
    each call and returns the given values in turn."""

    def __init__(self, values):
        self.values, self.calls = values, []

    def __call__(self, *args):
        self.calls.append(args)
        return self.values[len(self.calls) - 1]

    def floats(self) -> list:
        """Every argument of every call, flattened."""
        return [v for call in self.calls for a in call
                for v in (a if isinstance(a, (list, tuple)) else [a])]


def ref_axpy(x, s, y):
    return [a + s * b for a, b in zip(x, y)]


def ref_rk4(x, s, k1, k2, k3, k4):
    return [a + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def cofactor_det(r):
    """The cofactor determinant of a 1x1 to 3x3 nested list, written out."""
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        (a11, a12), (a21, a22) = r
        return a11 * a22 - a12 * a21
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = r
    return (a11 * (a22 * a33 - a23 * a32)
            - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31))


def cofactor_adj(r):
    """The cofactor adjugate of a 1x1 to 3x3 nested list, written out."""
    if len(r) == 1:
        return [[1.0]]
    if len(r) == 2:
        (a11, a12), (a21, a22) = r
        return [[a22, -a12], [-a21, a11]]
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = r
    return [
        [a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22],
        [a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23],
        [a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21],
    ]


# -- test-side views of the library's stepping pieces ----------------------
#
# The simulator drives generators through `inputs`/`sample_from` and the
# interlaced estimator through `mix`/`propagate`; the helpers below rebuild
# the remaining textbook forms for the oracle checks.

def state_rate(gen, *signals):
    """Filter-bank state rate of a regression generator at one plant sample."""
    return np.asarray(gen.bank.rate(gen.inputs(*signals)))


def sample(gen, t, *signals):
    """Regression sample of a generator at one plant sample."""
    return gen.sample_from(t, gen.inputs(*signals))


def predicted(s, params):
    """Omega' params: a scalar for the power balance, an n-vector otherwise."""
    params = np.asarray(params, dtype=float)
    om = np.asarray(s.Omega)
    return om.T @ params if om.ndim == 2 else float(om @ params)


def residual(s, params):
    """Largest absolute entry of Y - Omega' params."""
    return float(np.max(np.abs(s.Y - predicted(s, params))))


def theta_rate(est, delta, ycal, theta):
    """Correction-flow rate of a GplusDEstimator for a frozen mixing pair."""
    pm = est.param_map
    pt = np.asarray(pm.P) @ np.asarray(pm.T)
    return est.gamma * (pt @ (delta * (np.asarray(ycal)
                                       - delta * np.asarray(pm.G(theta)))))


def rates(est, s):
    """Literal right-hand sides (dtheta_g, dPhi, dtheta) of a GplusDEstimator."""
    om = np.asarray(s.Omega)
    e = float(s.Y) - float(om @ np.asarray(est.theta_g))
    delta, ycal = est.mix()
    return (est.gamma_g * om * e,
            -est.gamma_g * np.outer(om, om @ est.Phi),
            theta_rate(est, delta, ycal, est.theta))


def numpy_stages(world, x, th, th_new, t, z):
    """Plant sub-grid states and new filter state of one step of `world`.

    The plant and filter-bank RK4 stages written as numpy array expressions,
    the form the engine used before it carried its stages on Python floats.
    Takes the step-start state (x, th, t, filter state z) and the correction
    flow's end estimate th_new (th itself when nothing interpolates), and
    evaluates the world's own control law, ports and generator, which the
    stage arithmetic does not touch.
    """
    h = world.cfg.h
    nsub = world.substeps
    hs = h / nsub
    rate = world.plant_rate
    if th_new is th:
        ths = [th] * (2 * nsub + 1)
    else:
        th, th_new = np.asarray(th), np.asarray(th_new)
        fracs = np.arange(2 * nsub) / (2.0 * nsub)
        ths = list(th + fracs[:, None] * (th_new - th))
        ths.append(th_new)
    xc = x
    xs = []
    for j in range(nsub):
        i2 = 2 * j
        t0s = t + (i2 / (2.0 * nsub)) * h
        tms = t + ((i2 + 1) / (2.0 * nsub)) * h
        t1s = t + ((i2 + 2) / (2.0 * nsub)) * h
        k1 = np.asarray(rate(xc, ths[i2], t0s))
        k2 = np.asarray(rate(xc + (0.5 * hs) * k1, ths[i2 + 1], tms))
        k3 = np.asarray(rate(xc + (0.5 * hs) * k2, ths[i2 + 1], tms))
        k4 = np.asarray(rate(xc + hs * k3, ths[i2 + 2], t1s))
        xc = xc + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(xc)
    if z is None:
        return xs, None
    if nsub == 1:
        r0 = np.asarray(rate(x, th, t))
        r1 = np.asarray(rate(xc, th_new, t + h))
        x_mid = 0.5 * (x + xc) + (h / 8.0) * (r0 - r1)
    elif nsub % 2 == 0:
        x_mid = xs[nsub // 2 - 1]
    else:
        x_mid = 0.5 * (xs[nsub // 2 - 1] + xs[nsub // 2])
    i0 = np.asarray(world.assemble_inputs(x, t, th))
    im = np.asarray(world.assemble_inputs(x_mid, t + 0.5 * h, ths[nsub]))
    i1 = np.asarray(world.assemble_inputs(xc, t + h, th_new))
    lam = world.cfg.lam
    c1 = lam * (i0 - z)
    c2 = lam * (im - (z + (0.5 * h) * c1))
    c3 = lam * (im - (z + (0.5 * h) * c2))
    c4 = lam * (i1 - (z + h * c3))
    return xs, z + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)


# -- numpy oracle of the rest of the step ------------------------------------
#
# The regression-sample assembly, the estimator updates and the
# correction-flow RK4 in the array expressions the engine used before it
# carried the whole step on Python floats.

def numpy_sample(gen, t, inputs, z):
    """Regression sample of generator `gen` at filter state z and inputs."""
    u = np.asarray(inputs, dtype=float)
    z = np.asarray(z, dtype=float)
    deriv = np.array([m is ChannelMode.DERIVATIVE for m in gen.bank.modes])
    out = np.where(deriv, gen.bank.lam * (u - z), z)
    if isinstance(gen, PbepGenerator):
        d = gen.nlpre
        k, y = 0, 0.0
        if d.b_s is not None or d.b_d is not None:
            y += out[k]
            k += 1
        if d.b_S is not None:
            y -= out[k]
            k += 1
        omega = np.concatenate([-out[k:k + d.p_s], out[k + d.p_s:]])
        return RegressorSample(t=t, Y=float(y), Omega=omega)
    n = gen.n
    y = out[:n].copy()
    k = n
    if gen.std.b_f is not None or gen.std.b_g is not None:
        y -= out[k:k + n]
        k += n
    return RegressorSample(t=t, Y=y, Omega=out[k:].reshape(n, gen.n_w).T)


# The estimator's dot products sum from 0.0 left to right and its exponential
# gain uses math.expm1, so that its numbers do not depend on the BLAS build;
# the oracle takes its dot products the same way.

def ltr_dot(a, b) -> float:
    """a'b summed from 0.0 left to right."""
    acc = 0.0
    for u, v in zip(np.asarray(a, dtype=float).tolist(),
                    np.asarray(b, dtype=float).tolist()):
        acc += u * v
    return acc


def ltr_matvec(m, v) -> np.ndarray:
    """M v, each row's product summed from 0.0 left to right."""
    return np.array([ltr_dot(row, v) for row in np.asarray(m, dtype=float)])


def numpy_mix(theta_g, Phi, theta_g0):
    """(Delta, Ycal) = (det(I - Phi), adj(I - Phi) (theta_g - Phi theta_g0))."""
    a = np.eye(len(theta_g)) - Phi
    return determinant(a), ltr_matvec(adjugate(a),
                                      theta_g - ltr_matvec(Phi, theta_g0))


def numpy_gplusd_propagate(gamma_g, theta_g, Phi, s0, s1, dt):
    """(theta_g, Phi) after the two exponential half-updates of one step."""
    tau = 0.5 * dt
    for s in (s0, s1):
        om = np.asarray(s.Omega, dtype=float)
        n2 = ltr_dot(om, om)
        c = gamma_g * tau if n2 < 1e-300 else \
            -math.expm1(-gamma_g * tau * n2) / n2
        theta_g = theta_g + (c * (float(s.Y) - ltr_dot(om, theta_g))) * om
        Phi = Phi - np.outer(c * om, ltr_matvec(np.transpose(Phi), om))
    return theta_g, Phi


def numpy_gradient_propagate(gamma, Theta, s0, s1, dt):
    """Theta after the two exponential half-updates of one step."""
    tau = 0.5 * dt
    for s in (s0, s1):
        om = np.asarray(s.Omega, dtype=float)
        if om.ndim == 1:
            n2 = ltr_dot(om, om)
            c = gamma * tau if n2 < 1e-300 else \
                -math.expm1(-gamma * tau * n2) / n2
            Theta = Theta + (c * (float(s.Y) - ltr_dot(om, Theta))) * om
            continue
        w, v = np.linalg.eigh(gamma * (om @ om.T))
        phi = np.where(w > 1e-300,
                       -np.expm1(-w * tau) / np.where(w > 1e-300, w, 1.0), tau)
        Theta = Theta + ((v * phi) @ v.T) @ (gamma * (om @ (s.Y - om.T @ Theta)))
    return Theta


def numpy_correction(est, theta_g, Phi, th, h):
    """Correction-flow RK4 step from th with the mixing pair frozen."""
    pm = est.param_map
    delta, ycal = numpy_mix(theta_g, Phi, np.asarray(est.theta_g0))
    pt = np.asarray(pm.P) @ np.asarray(pm.T)
    vec = est.gamma * delta * (pt @ ycal)
    mat = (est.gamma * delta * delta) * pt

    def rate(theta):
        return vec - mat @ np.asarray(pm.G(theta), dtype=float)

    a1 = rate(th)
    a2 = rate(th + (0.5 * h) * a1)
    a3 = rate(th + (0.5 * h) * a2)
    a4 = rate(th + h * a3)
    return th + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)


@pytest.fixture(scope="session")
def circuit():
    return circuit_scenario()


@pytest.fixture(scope="session")
def ph():
    return ph_scenario()


# -- shared heavy runs (reused by the acceptance suite and unit tests) -----

@pytest.fixture(scope="session")
def circuit_gd_run(circuit):
    """Flagship run: circuit, power-balance regression, interlaced estimator."""
    return run(circuit, SimConfig())


@pytest.fixture(scope="session")
def circuit_gradient_run(circuit):
    """Failure baseline: circuit, standard regression, gradient at gamma=30."""
    return run(circuit, SimConfig(estimator=EstimatorKind.GRADIENT_STD,
                                  gamma=30.0))


@pytest.fixture(scope="session")
def circuit_known_run(circuit):
    return run(circuit, SimConfig(estimator=EstimatorKind.NONE,
                                  controller=ControllerKind.KNOWN_PARAMETER))


@pytest.fixture(scope="session")
def ph_known_run(ph):
    return run(ph, SimConfig(t_end=10.0, estimator=EstimatorKind.NONE,
                             controller=ControllerKind.KNOWN_PARAMETER))


@pytest.fixture(scope="session")
def ph_gd_run(ph):
    return run(ph, SimConfig())


@pytest.fixture(scope="session")
def ph_gradient_run(ph):
    """Starved gradient baseline: small initial disturbance, gamma=30."""
    return run(ph, SimConfig(estimator=EstimatorKind.GRADIENT_PBEP_OVERPARAM,
                             gamma=30.0, x0=np.array([0.3, 0.3])))
