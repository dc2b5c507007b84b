import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from pbident import (ChannelMode, ControllerKind, EstimatorKind,
                     PbepGenerator, RegressorSample, SimConfig,
                     circuit_scenario, ph_scenario, run)
from pbident.smallmat import adjugate, determinant, dot


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


def power_balance_residual(scenario, t, xs, us) -> float:
    """Worst power-balance violation |dS/dt + d - s| along a sampled trajectory.

    S and s - d come from scenario.energy at each (x, u) sample.  dS/dt is
    estimated by centered differences on the samples, with second-order
    one-sided differences at the endpoints, so the result carries an O(h^2)
    truncation floor on top of any genuine model inconsistency.
    """
    t = np.asarray(t, dtype=float)
    if t.size < 3:
        raise ValueError("need at least three samples")
    svals, flow = np.array([scenario.energy(x, u) for x, u in zip(xs, us)],
                           dtype=float).T
    dsdt = np.empty_like(svals)
    dsdt[1:-1] = (svals[2:] - svals[:-2]) / (t[2:] - t[:-2])
    h0 = t[1] - t[0]
    h1 = t[-1] - t[-2]
    dsdt[0] = (-3.0 * svals[0] + 4.0 * svals[1] - svals[2]) / (2.0 * h0)
    dsdt[-1] = (3.0 * svals[-1] - 4.0 * svals[-2] + svals[-3]) / (2.0 * h1)
    return float(np.max(np.abs(dsdt - flow)))


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
# three products whose sum from 0.0 left to right, 2.0, differs from both
# other groupings, (1e16 + c) + 1.0 = 3.0 and (1.0 + c) + 1e16 = 4.0: fed
# as the products of one of a kernel's sums, they show any reordering of
# it, where drawn values whose sums are exact show none
CANCEL = (1e16, 1.0, -9999999999999998.0)


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
    """x + s*y, the former kernel `axpy`."""
    return [a + s * b for a, b in zip(x, y)]


def ref_exp_gain(rate: float, n2: float) -> float:
    """(1 - exp(-rate * n2)) / n2 with its Euler limit rate at n2 -> 0, as
    the estimators' former `_exp_gain` took it."""
    return rate if n2 < 1e-300 else -math.expm1(-(rate * n2)) / n2


def ref_half_update(c, y, om, g, phi):
    """(g + ce*om, Phi - outer(c*om, om'Phi)), ce = c*(y - om'g): the former
    kernel `half_update`, each dot product summed by `dot`."""
    ce = c * (y - dot(om, g))
    v = [dot(om, col) for col in zip(*phi)]
    return ref_axpy(g, ce, om), [[b - (c * o) * w for b, w in zip(row, v)]
                                 for o, row in zip(om, phi)]


def ref_exp_step(gt, y0, om0, y1, om1, g, phi=None):
    """Both half steps of `smallmat.exp_step` as the estimators composed
    them: per sample, |Omega|^2 by `dot`, the gain `ref_exp_gain`, then
    `ref_half_update`, or without phi g + ce*om by `ref_axpy`."""
    ns = []
    for y, om in ((y0, om0), (y1, om1)):
        ns.append(dot(om, om))
        c = ref_exp_gain(gt, ns[-1])
        if phi is None:
            g = ref_axpy(g, c * (y - dot(om, g)), om)
        else:
            g, phi = ref_half_update(c, y, om, g, phi)
    return g if phi is None else (*ns, g, phi)


def ref_gram_step(eig, g, tau, y0, om0, y1, om1, theta):
    """Both half steps of `smallmat.gram_step` as the gradient estimator
    composed them, each dot product by `dot`: per sample the residual
    y - om'theta and the Gram g*om'om of the former kernel `residual_gram`,
    eig of the Gram, then theta + om (g*(V c)), c_k = phi(w_k)*(V'r)_k, of
    the former kernel `eigen_update`."""
    for y, om in ((y0, om0), (y1, om1)):
        cols = list(zip(*om))
        r = [b - dot(col, theta) for b, col in zip(y, cols)]
        w, v = eig([[g * dot(ci, cj) for cj in cols] for ci in cols])
        c = [(-math.expm1(-(lam * tau)) / lam if lam > 1e-300 else tau)
             * dot(vk, r) for lam, vk in zip(w, zip(*v))]
        s = [g * dot(vi, c) for vi in v]
        theta = [a + dot(row, s) for a, row in zip(theta, om)]
    return theta


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


def numpy_determinant(m) -> float:
    """The determinant as smallmat computed it on arrays: the cofactor form
    up to 3x3, above it a partial-pivot elimination in numpy, the oracle
    of the float elimination."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if n <= 3:
        return cofactor_det(a.tolist())
    det = 1.0
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            piv = k + int(np.argmax(np.abs(a[k:, k])))
            if a[piv, k] == 0.0:
                return 0.0
            if piv != k:
                a[[k, piv]] = a[[piv, k]]
                det = -det
            det *= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
        return float(det * a[n - 1, n - 1])


def numpy_adjugate(m) -> np.ndarray:
    """The adjugate above 3x3 as smallmat computed it on arrays, from the
    signed minors' `numpy_determinant`."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    out = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        ri = rows[rows != i]
        for j in range(n):
            minor = a[np.ix_(ri, rows[rows != j])]
            out[j, i] = (-1.0) ** (i + j) * numpy_determinant(minor)
    return out


def numpy_ieee_div(a: float, b: float) -> float:
    """a / b, with numpy's signed inf or nan for a zero divisor: smallmat's
    former `ieee_div`, the oracle of its float special values."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(a) / b)


def numpy_ieee_pow(a: float, b: float) -> float:
    """a ** b as C pow computes it, with numpy's inf or nan where Python
    raises: smallmat's former `ieee_pow`, the oracle of its float special
    values."""
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float(np.power(np.float64(a), b))


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


def ref_pbep_inputs(d, x, u_p, y_p) -> list:
    """The power-balance channel inputs as `PbepGenerator.inputs` assembled
    them before its kernel: an `if` per channel group, 0.0 standing in for
    the b_s or b_d not declared."""
    out = []
    if d.b_s is not None or d.b_d is not None:
        bs = d.b_s(x, u_p, y_p) if d.b_s is not None else 0.0
        bd = d.b_d(x) if d.b_d is not None else 0.0
        out.append(bs - bd)
    if d.b_S is not None:
        out.append(d.b_S(x))
    if d.p_s:
        out.extend(d.phi_s(x, u_p, y_p))
    if d.p_S:
        out.extend(d.phi_S(x))
    if d.p_d:
        out.extend(d.phi_d(x))
    return out


def ref_std_inputs(std, n, x, u_p) -> list:
    """The state-equation channel inputs as `StdLreGenerator` assembled them
    before its kernel: x, then b_f (or zeros) with each b_g term added in
    place, then the rows of w_f (or zero rows), each phi_g term added to
    its row by `ref_axpy` (`_w_rows`), flattened."""
    out = list(x)
    if std.b_f is not None or std.b_g is not None:
        b = list(std.b_f(x)) if std.b_f is not None else [0.0] * n
        for i, entries in enumerate(std.b_g or ()):
            for u, entry in zip(u_p, entries):
                if entry is not None:
                    b[i] += u * entry(x)
        out.extend(b)
    w = list(std.w_f(x)) if std.w_f is not None else [(0.0,) * std.n_w] * n
    for i, entries in enumerate(std.phi_g or ()):
        for j, entry in zip(range(len(u_p)), entries):
            if entry is not None:
                w[i] = ref_axpy(w[i], u_p[j], entry(x))
    for row in w:
        out.extend(row)
    return out


def ref_std_sample(bank, n, has_b, n_w, inputs) -> tuple:
    """(Y, Omega) as `StdLreGenerator.sample_from` took them before its
    kernel read the taps: the bank's channel outputs, split into Y = the
    first n outputs minus the next n (has_b) and Omega the columns of the
    n x n_w row-major block after them."""
    v = bank.output(inputs)
    k = 2 * n if has_b else n
    y = tuple(v[i] - v[n + i] if has_b else v[i] for i in range(n))
    return y, tuple([v[k + i * n_w + j] for i in range(n)] for j in range(n_w))


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


def rates(est, s, theta):
    """Literal right-hand sides (dtheta_g, dPhi, dtheta) of a GplusDEstimator
    at the estimate theta."""
    om = np.asarray(s.Omega)
    e = float(s.Y) - float(om @ np.asarray(est.theta_g))
    delta, ycal = est.mix()
    return (est.gamma_g * om * e,
            -est.gamma_g * np.outer(om, om @ np.array(est.phi)),
            theta_rate(est, delta, ycal, theta))


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
