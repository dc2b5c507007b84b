import numpy as np
import pytest

from pbident import (ControllerKind, EstimatorKind, SimConfig,
                     circuit_scenario, ph_scenario, run)


def rk4(rate, y0, t0, t1, n):
    """Test-local fixed-step RK4; independent of the package stepping."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / n
    t = t0
    out = [y.copy()]
    for _ in range(n):
        k1 = rate(t, y)
        k2 = rate(t + h / 2, y + h / 2 * k1)
        k3 = rate(t + h / 2, y + h / 2 * k2)
        k4 = rate(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        out.append(y.copy())
    return np.array(out)


# -- test-side views of the library's stepping pieces ----------------------
#
# The simulator drives generators through `inputs`/`sample_from` and the
# interlaced estimator through `mix`/`propagate`; the helpers below rebuild
# the remaining textbook forms for the oracle checks.

def state_rate(gen, *signals):
    """Filter-bank state rate of a regression generator at one plant sample."""
    return gen.bank.rate(gen.inputs(*signals))


def sample(gen, t, *signals):
    """Regression sample of a generator at one plant sample."""
    return gen.sample_from(t, gen.inputs(*signals))


def predicted(s, params):
    """Omega' params: a scalar for the power balance, an n-vector otherwise."""
    params = np.asarray(params, dtype=float)
    return s.Omega.T @ params if s.Omega.ndim == 2 else float(s.Omega @ params)


def residual(s, params):
    """Largest absolute entry of Y - Omega' params."""
    return float(np.max(np.abs(s.Y - predicted(s, params))))


def theta_rate(est, delta, ycal, theta):
    """Correction-flow rate of a GplusDEstimator for a frozen mixing pair."""
    pm = est.param_map
    return est.gamma * (pm.P @ pm.T @ (delta * (ycal - delta * pm.G(theta))))


def rates(est, s):
    """Literal right-hand sides (dtheta_g, dPhi, dtheta) of a GplusDEstimator."""
    om = s.Omega
    e = float(s.Y) - float(om @ est.theta_g)
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
        k1 = rate(xc, ths[i2], t0s)
        k2 = rate(xc + (0.5 * hs) * k1, ths[i2 + 1], tms)
        k3 = rate(xc + (0.5 * hs) * k2, ths[i2 + 1], tms)
        k4 = rate(xc + hs * k3, ths[i2 + 2], t1s)
        xc = xc + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(xc)
    if z is None:
        return xs, None
    if nsub == 1:
        r0 = rate(x, th, t)
        r1 = rate(xc, th_new, t + h)
        x_mid = 0.5 * (x + xc) + (h / 8.0) * (r0 - r1)
    elif nsub % 2 == 0:
        x_mid = xs[nsub // 2 - 1]
    else:
        x_mid = 0.5 * (xs[nsub // 2 - 1] + xs[nsub // 2])
    i0 = world.assemble_inputs(x, t, th)
    im = world.assemble_inputs(x_mid, t + 0.5 * h, ths[nsub])
    i1 = world.assemble_inputs(xc, t + h, th_new)
    lam = world.cfg.lam
    c1 = lam * (i0 - z)
    c2 = lam * (im - (z + (0.5 * h) * c1))
    c3 = lam * (im - (z + (0.5 * h) * c2))
    c4 = lam * (i1 - (z + h * c3))
    return xs, z + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)


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
