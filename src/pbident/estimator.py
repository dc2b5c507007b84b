"""Online parameter estimators and the monotonicity verifier.

GplusDEstimator implements the interlaced scheme for the scalar
power-balance regression Y = Omega' G(theta):

    theta_g_dot = gamma_g * Omega * (Y - Omega' theta_g)     (pre-estimator)
    Phi_dot     = -gamma_g * Omega Omega' * Phi, Phi(0) = I  (extension)
    theta_dot   = gamma * P T * Delta * (Ycal - Delta * G(theta_hat))

with the mixing quantities

    Delta = det(I - Phi),  Ycal = adj(I - Phi) (theta_g - Phi theta_g0).

Whenever the regression held exactly along the trajectory, the error
theta_g - G(theta) and Phi evolve under the same linear flow, which gives
the key identity Ycal = Delta * G(theta).

GradientEstimator is the plain gradient flow Theta_dot =
gamma * Omega * (Y - Omega' Theta_hat) on either regression kind.

Time stepping: the linear flows are not integrated from their literal
right-hand sides.  `propagate` advances them by an exact frozen-regressor
exponential update applied on each half of the step, because gamma *
|Omega|^2 * h routinely reaches thousands at realistic gains and no
explicit fixed-step rule survives that.  The update applies one shared
rank-deficient contraction map to the pre-estimator error and the
extension matrix, so the mixing identity and the determinant product rule
hold exactly in discrete time; det(Phi) matches exp(-gamma_g * trapezoid
integral of |Omega|^2) by construction.  The simulator integrates the
correction flow itself, from the mixing pair returned by `mix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regressor import ParamMap, RegressorSample
from .smallmat import adjugate, determinant, min_eig_symmetric, symmetric_eigen


def _check_sample(sample: RegressorSample, p: int, scalar: bool):
    if scalar:
        if sample.Omega.ndim != 1 or sample.Omega.shape[0] != p:
            raise ValueError(
                f"expected a scalar regression sample with a {p}-vector "
                f"regressor, got Omega shape {sample.Omega.shape}")
        if not np.isscalar(sample.Y) and np.ndim(sample.Y) != 0:
            raise ValueError("expected scalar Y")
    if not np.all(np.isfinite(sample.Omega)) or not np.all(np.isfinite(sample.Y)):
        raise ValueError(f"non-finite regression sample at t={sample.t}")


class GplusDEstimator:
    """Interlaced gradient + determinant-mixing estimator."""

    def __init__(self, param_map: ParamMap, gamma_g: float, gamma: float,
                 theta_g0=None, theta0=None):
        if gamma_g <= 0 or gamma <= 0:
            raise ValueError("gains must be positive")
        self.param_map = param_map
        self.gamma_g = float(gamma_g)
        self.gamma = float(gamma)
        p, q = param_map.p, param_map.q
        self.theta_g0 = np.zeros(p) if theta_g0 is None else \
            np.asarray(theta_g0, dtype=float).reshape(p).copy()
        self.theta_g = self.theta_g0.copy()
        self.Phi = np.eye(p)
        self.theta = np.zeros(q) if theta0 is None else \
            np.asarray(theta0, dtype=float).reshape(q).copy()
        self._PT = param_map.P @ param_map.T
        self._I = np.eye(p)
        # running exponent of det(Phi): exact under `propagate`
        self.log_det_phi = 0.0
        self._validated = False

    def mix(self) -> tuple[float, np.ndarray]:
        """(Delta, Ycal) from the current extension state."""
        a = self._I - self.Phi
        delta = determinant(a)
        ycal = adjugate(a) @ (self.theta_g - self.Phi @ self.theta_g0)
        return delta, ycal

    def _half_update(self, sample: RegressorSample, tau: float):
        om = sample.Omega
        n2 = float(om @ om)
        z = self.gamma_g * tau * n2
        # c = (1 - exp(-z)) / |Omega|^2, with the Euler limit at |Omega| -> 0
        c = self.gamma_g * tau if n2 < 1e-300 else -np.expm1(-z) / n2
        self.theta_g = self.theta_g + (c * (float(sample.Y) - float(om @ self.theta_g))) * om
        self.Phi = self.Phi - np.outer(c * om, om @ self.Phi)
        self.log_det_phi -= z

    def propagate(self, sample0: RegressorSample, sample1: RegressorSample,
                  dt: float):
        """Advance theta_g and Phi across one step using both endpoint samples.

        Exact solution of the frozen-regressor flow on each half step; the
        two-point split makes log det(Phi) the exact trapezoid quadrature
        of -gamma_g |Omega|^2.  Sample shape is validated once; finiteness
        of the stream is the integrator's responsibility.
        """
        if not self._validated:
            _check_sample(sample0, self.param_map.p, scalar=True)
            _check_sample(sample1, self.param_map.p, scalar=True)
            self._validated = True
        self._half_update(sample0, 0.5 * dt)
        self._half_update(sample1, 0.5 * dt)


class GradientEstimator:
    """Plain gradient flow on a linear(ized) regression."""

    def __init__(self, n_w: int, gamma: float, Theta0=None):
        if gamma <= 0:
            raise ValueError("gain must be positive")
        self.n_w = int(n_w)
        self.gamma = float(gamma)
        self.Theta = np.zeros(self.n_w) if Theta0 is None else \
            np.asarray(Theta0, dtype=float).reshape(self.n_w).copy()
        self._validated = False

    def rate(self, sample: RegressorSample) -> np.ndarray:
        """Literal flow gamma * Omega * (Y - Omega' Theta_hat)."""
        om = sample.Omega
        if om.shape[0] != self.n_w:
            raise ValueError(
                f"regressor has leading dimension {om.shape[0]}, "
                f"estimator expects {self.n_w}")
        _check_sample(sample, self.n_w, scalar=om.ndim == 1)
        if om.ndim == 1:
            return self.gamma * om * (float(sample.Y) - float(om @ self.Theta))
        return self.gamma * (om @ (np.asarray(sample.Y) - om.T @ self.Theta))

    def _half_update(self, sample: RegressorSample, tau: float):
        om = sample.Omega
        if om.ndim == 1:
            n2 = float(om @ om)
            c = self.gamma * tau if n2 < 1e-300 else \
                -np.expm1(-self.gamma * tau * n2) / n2
            self.Theta = self.Theta + (c * (float(sample.Y) - float(om @ self.Theta))) * om
            return
        # matrix regressor: exact exponential through the (tiny) symmetric
        # eigendecomposition of gamma * Omega Omega'
        a = self.gamma * (om @ om.T)
        try:
            w, v = symmetric_eigen(a)
        except np.linalg.LinAlgError:
            # a non-finite regressor, on which eigh may not converge: the
            # estimate is lost as it is when eigh returns nan
            self.Theta = np.full(self.n_w, np.nan)
            return
        phi = np.where(w > 1e-300, -np.expm1(-w * tau) / np.where(w > 1e-300, w, 1.0), tau)
        s = (v * phi) @ v.T
        self.Theta = self.Theta + s @ (self.gamma * (om @ (sample.Y - om.T @ self.Theta)))

    def propagate(self, sample0: RegressorSample, sample1: RegressorSample,
                  dt: float):
        """Advance Theta_hat across one step: exact frozen-regressor
        exponential update on each half step."""
        if not self._validated:
            self.rate(sample0)
            self.rate(sample1)
            self._validated = True
        self._half_update(sample0, 0.5 * dt)
        self._half_update(sample1, 0.5 * dt)


@dataclass
class MonotonicityReport:
    """Sampled strong-monotonicity estimates for W = T G over a box."""

    rho_jacobian: float
    rho_secant: float
    sample_count: int
    box: np.ndarray
    seed: int

    @property
    def passed(self) -> bool:
        return self.rho_jacobian > 0.0


def check_monotonicity(param_map: ParamMap, box, n_samples: int = 10000,
                       seed: int = 0) -> MonotonicityReport:
    """Estimate the strong-monotonicity modulus of W(theta) = T G(theta).

    rho_jacobian is the sampled infimum of the smallest eigenvalue of
    sym(P T J_G(theta)); rho_secant the sampled infimum of the secant
    ratio (a-b)' P [W(a) - W(b)] / |a-b|^2 over random pairs.  A positive
    Jacobian bound implies the secant bound on a convex box, so
    rho_secant >= rho_jacobian up to sampling slack.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (param_map.q, 1))
    if box.shape != (param_map.q, 2):
        raise ValueError(f"box has shape {box.shape}, expected ({param_map.q}, 2)")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have positive volume in every coordinate")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    lo, span = box[:, 0], box[:, 1] - box[:, 0]
    pm = param_map
    pmat, tmat = pm.P, pm.T

    rho_j = np.inf
    for theta in lo + span * rng.random((n_samples, pm.q)):
        jw = pmat @ (tmat @ np.asarray(pm.jacobian_G(theta), dtype=float))
        rho_j = min(rho_j, min_eig_symmetric(0.5 * (jw + jw.T)))

    rho_s = np.inf
    pairs = lo + span * rng.random((n_samples, 2, pm.q))
    for a, b in pairs:
        d = a - b
        n2 = float(d @ d)
        if n2 < 1e-20:
            continue
        rho_s = min(rho_s, float(d @ pmat @ (pm.W(a) - pm.W(b))) / n2)

    return MonotonicityReport(rho_jacobian=float(rho_j), rho_secant=float(rho_s),
                              sample_count=int(n_samples), box=box, seed=int(seed))
