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
