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

Number representation: estimates, the pre-estimator state and Phi are
lists of Python floats.  `mix` is one smallmat kernel (`mix_pair`), each
interlaced half update another (`half_update`) next to math.expm1, and
the gradient flow runs on kernels too; the first step's sample check and
P T (a left-to-right float product) run on floats, so no update calls
numpy.  numpy is imported only by `GplusDEstimator.Phi`,
`GradientEstimator.rate` and `check_monotonicity`, whose samples come
from numpy's generator.  Every dot product (|Omega|^2, Omega' theta_g,
Omega' Phi, Phi theta_g0, adj(I - Phi) r) sums from 0.0 left to right, as
`smallmat.dot` does, so the numbers depend on IEEE arithmetic and the C
library's expm1 only, not on the BLAS build, whose small dot products use
fused multiply-adds or a blocked order that differs between CPU kernels;
a divergent run at extreme gains is chaotic enough that a one-ulp change
moves the step at which it aborts.

The gradient flow on a (p, n) matrix regressor reads the regressor as
its n_w rows of n floats.  Its frozen-regressor map acts only on
range(Omega), and by the push-through identity
phi(gamma Omega Omega') gamma Omega = gamma Omega phi(gamma Omega' Omega)
(Higham, Functions of Matrices, Cor. 1.34) it is applied through the
n x n Gram gamma Omega' Omega, n being the number of state equations:

    Theta += gamma Omega V diag(phi(w)) V' (Y - Omega' Theta),
    phi(lam) = (1 - exp(-lam tau)) / lam   (tau for lam <= 1e-300),

with (w, V) from `smallmat.symmetric_eigen`, which is closed-form for
n <= 2 (both shipped plants).  The rest of the update runs on smallmat
kernels bound to (n_w, n) on the first call: `residual_gram` reads the
residual Y - Omega' Theta and the Gram straight from the rows of Omega,
`scaled_mtv` forms diag(phi(w)) V' r, and `scaled_mv` and `v_plus_mg` add
Omega (gamma V diag(phi(w)) V' r) to Theta.  Each sums its products from
0.0 left to right, as `smallmat.dot` over the columns of Omega does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .regressor import ParamMap, RegressorSample
from .smallmat import (all_finite, axpy, determinant, dot, dot_k,
                       flat_floats, float_rows, half_update, min_eig_symmetric,
                       mix_pair, residual_gram, scaled_mtv, scaled_mv,
                       symmetric_eigen, v_minus_mg, v_plus_mg)


def _check_sample(sample: RegressorSample, p: int,
                  scalar: bool = False) -> bool:
    """Check a sample's shape and finiteness on floats; returns whether its
    Omega is a matrix (p rows of n).

    Omega must have p rows, or be a p-vector when `scalar` is set; with a
    vector Omega, Y must be a number.
    """
    om = sample.Omega
    om = om.tolist() if hasattr(om, "tolist") else om
    y = sample.Y.tolist() if hasattr(sample.Y, "tolist") else sample.Y
    matrix = bool(om) and isinstance(om[0], (list, tuple))
    if len(om) != p or (scalar and matrix):
        shape = (len(om), len(om[0])) if matrix else (len(om),)
        raise ValueError(
            f"expected a regressor of {p} rows{' (a vector)' if scalar else ''}"
            f", got Omega shape {shape}")
    if not matrix and isinstance(y, (list, tuple)):
        raise ValueError("expected scalar Y")
    if not (all_finite(om) and all_finite(y)):
        raise ValueError(f"non-finite regression sample at t={sample.t}")
    return matrix


def _vector(value, n: int, name: str) -> list:
    """The n numbers of a sequence or array, as a list of floats."""
    v = list(flat_floats(value))
    if len(v) != n:
        raise ValueError(f"{name} has {len(v)} values, expected {n}")
    return v


def _exp_gain(rate: float, n2: float) -> float:
    """(1 - exp(-rate * n2)) / n2, the exact gain of a frozen rank-1
    contraction over one half step, with its Euler limit at n2 -> 0."""
    return rate if n2 < 1e-300 else -math.expm1(-(rate * n2)) / n2


class GplusDEstimator:
    """Interlaced gradient + determinant-mixing estimator.

    theta_g, theta and theta_g0 are lists of floats; Phi is kept as nested
    lists and read as an ndarray, built on access.  Replace theta_g and Phi
    instead of changing them in place: `mix` is memoized on their identity.
    """

    def __init__(self, param_map: ParamMap, gamma_g: float, gamma: float,
                 theta_g0=None, theta0=None):
        if gamma_g <= 0 or gamma <= 0:
            raise ValueError("gains must be positive")
        self.param_map = param_map
        self.gamma_g = float(gamma_g)
        self.gamma = float(gamma)
        p, q = param_map.p, param_map.q
        self.theta_g0 = [0.0] * p if theta_g0 is None else \
            _vector(theta_g0, p, "theta_g0")
        self.theta_g = list(self.theta_g0)
        # Phi @ theta_g0 vanishes for the default theta_g0 = 0
        self._g0 = self.theta_g0 if any(self.theta_g0) else None
        self._phi = [[1.0 if i == j else 0.0 for j in range(p)]
                     for i in range(p)]
        # kernels unrolled to length p (smallmat)
        self._mix_pair = mix_pair(p)
        self._update = half_update(p)
        self._dot = dot_k(p)
        self._v_minus_mg = v_minus_mg(p, p)
        self.theta = [0.0] * q if theta0 is None else \
            _vector(theta0, q, "theta0")
        # the correction flow zips G(theta) with rows of length p, which
        # would silently truncate a wrong-length G
        n_g = len(param_map.G(self.theta))
        if n_g != p:
            raise ValueError(f"G returns {n_g} values, but the parameter "
                             f"map has p = {p}")
        # P T, each entry's products summed left to right
        t_cols = list(zip(*param_map.T))
        self._PT = [[dot(row, col) for col in t_cols] for row in param_map.P]
        # running exponent of det(Phi): exact under `propagate`
        self.log_det_phi = 0.0
        # (Phi rows, theta_g, (Delta, Ycal)) of the latest `mix`
        self._mix_memo = None
        # (sample, gain, |Omega|^2, exact gain) of the latest half update
        self._gain_memo = None
        self._validated = False

    @property
    def Phi(self):
        import numpy as np
        return np.array(self._phi)

    @Phi.setter
    def Phi(self, value):
        self._phi = float_rows(value)

    def mix(self) -> tuple[float, tuple]:
        """(Delta, Ycal) from the current extension state, Ycal a tuple.

        The pair is memoized on the identity of Phi's nested list and of
        theta_g.  `propagate`, the Phi setter and assignment to theta_g
        replace them instead of changing them in place, so a step's
        correction flow and its trace row share one evaluation; the tuple
        keeps callers from changing the memoized Ycal.
        """
        phi, g = self._phi, self.theta_g
        memo = self._mix_memo
        if memo is not None and memo[0] is phi and memo[1] is g:
            return memo[2]
        r = g if self._g0 is None else self._v_minus_mg(g, phi, self._g0)
        pair = self._mix_pair(phi, r)
        self._mix_memo = (phi, g, pair)
        return pair

    def det_phi(self) -> float:
        """det(Phi), from the nested list."""
        return determinant(self._phi)

    def _half_update(self, sample: RegressorSample, tau: float):
        om = sample.Omega
        gt = self.gamma_g * tau
        # a step's end sample is the next step's start sample
        memo = self._gain_memo
        if memo is not None and memo[0] is sample and memo[1] == gt:
            n2, c = memo[2], memo[3]
        else:
            n2 = self._dot(om, om)
            c = _exp_gain(gt, n2)
            self._gain_memo = (sample, gt, n2, c)
        self.theta_g, self._phi = self._update(c, sample.Y, om, self.theta_g,
                                              self._phi)
        self.log_det_phi -= gt * n2

    def propagate(self, sample0: RegressorSample, sample1: RegressorSample,
                  dt: float):
        """Advance theta_g and Phi across one step using both endpoint samples.

        Exact solution of the frozen-regressor flow on each half step; the
        two-point split makes log det(Phi) the exact trapezoid quadrature
        of -gamma_g |Omega|^2.  Sample shape is validated once; finiteness
        of the stream is the integrator's responsibility.
        """
        if not self._validated:
            for sample in (sample0, sample1):
                _check_sample(sample, self.param_map.p, scalar=True)
            self._validated = True
        self._half_update(sample0, 0.5 * dt)
        self._half_update(sample1, 0.5 * dt)


class GradientEstimator:
    """Plain gradient flow on a linear(ized) regression; Theta is a list of
    floats."""

    def __init__(self, n_w: int, gamma: float, Theta0=None):
        if gamma <= 0:
            raise ValueError("gain must be positive")
        self.n_w = int(n_w)
        self.gamma = float(gamma)
        self.Theta = [0.0] * self.n_w if Theta0 is None else \
            _vector(Theta0, self.n_w, "Theta0")
        self._validated = False
        self._matrix = False
        self._axpy = axpy(self.n_w)
        self._dot = dot_k(self.n_w)

    def rate(self, sample: RegressorSample):
        """Literal flow gamma * Omega * (Y - Omega' Theta_hat), an ndarray."""
        import numpy as np
        matrix = _check_sample(sample, self.n_w)
        om = np.asarray(sample.Omega, dtype=float)
        theta = np.asarray(self.Theta)
        if not matrix:
            return self.gamma * om * (float(sample.Y) - float(om @ theta))
        return self.gamma * (om @ (np.asarray(sample.Y) - om.T @ theta))

    def _half_update(self, sample: RegressorSample, tau: float):
        om = sample.Omega
        if not self._matrix:
            c = _exp_gain(self.gamma * tau, self._dot(om, om))
            ce = c * (sample.Y - self._dot(om, self.Theta))
            self.Theta = self._axpy(self.Theta, ce, om)
            return
        # matrix regressor (p rows of n, one column per state equation):
        # the exponential update through the n x n Gram (module docstring)
        g = self.gamma
        theta = self.Theta
        r, gram = self._residual_gram(om, sample.Y, theta, g)
        w, v = symmetric_eigen(gram)
        # diag(phi(w)) V' r, then gamma V of it; a non-finite Gram gives
        # nan w and V, and so a nan estimate
        vr = self._scaled_mtv(
            [-math.expm1(-(lam * tau)) / lam if lam > 1e-300 else tau
             for lam in w], v, r)
        self.Theta = self._v_plus_mg(theta, om, self._scaled_mv(g, v, vr))

    def propagate(self, sample0: RegressorSample, sample1: RegressorSample,
                  dt: float):
        """Advance Theta_hat across one step: exact frozen-regressor
        exponential update on each half step."""
        if not self._validated:
            self._matrix = _check_sample(sample0, self.n_w)
            _check_sample(sample1, self.n_w)
            if self._matrix:   # kernels for n_w rows of n columns
                n = len(sample0.Omega[0])
                self._residual_gram = residual_gram(self.n_w, n)
                self._scaled_mtv = scaled_mtv(n)
                self._scaled_mv = scaled_mv(n, n)
                self._v_plus_mg = v_plus_mg(self.n_w, n)
            self._validated = True
        self._half_update(sample0, 0.5 * dt)
        self._half_update(sample1, 0.5 * dt)


@dataclass
class MonotonicityReport:
    """Sampled strong-monotonicity estimates for W = T G over a box."""

    rho_jacobian: float
    rho_secant: float
    sample_count: int
    box: object     # the (q, 2) float ndarray of the [lo, hi] rows
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
    import numpy as np
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
    pmat, tmat = np.array(pm.P), np.array(pm.T)

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
        w_diff = np.subtract(pm.W(a), pm.W(b))
        rho_s = min(rho_s, float(d @ pmat @ w_diff) / n2)

    return MonotonicityReport(rho_jacobian=float(rho_j), rho_secant=float(rho_s),
                              sample_count=int(n_samples), box=box, seed=int(seed))
