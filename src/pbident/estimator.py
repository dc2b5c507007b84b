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
integral of |Omega|^2) by construction.  `correct` integrates the caller's
estimate along the correction flow, from the mixing pair `mix` returns.

Number representation: estimates, the pre-estimator state and Phi are
lists of Python floats.  `mix` is one smallmat kernel (`mix_pair`, which
also forms theta_g - Phi theta_g0), a step's two half updates of
theta_g and Phi another (`exp_step`, with each sample's |Omega|^2 and
expm1 gain), and the gradient flow's two half updates one more (the
same `exp_step`, or `gram_step` on a matrix regressor); the first step's
sample check and P T (a left-to-right float product) run on floats, so
no update calls numpy.  numpy is imported only by `check_monotonicity`,
whose samples come from numpy's generator.  Every dot product
(|Omega|^2, Omega' theta_g, Omega' Phi, Phi theta_g0, adj(I - Phi) r)
sums from 0.0 left to right, as `smallmat.dot` does, so the numbers
depend on IEEE arithmetic and the C library's expm1 only, not on the
BLAS build, whose small dot products use fused multiply-adds or a
blocked order that differs between CPU kernels; a divergent run at extreme gains is chaotic enough that a
one-ulp change moves the step at which it aborts.

The gradient flow on a (p, n) matrix regressor reads the regressor as
its n_w rows of n floats.  Its frozen-regressor map acts only on
range(Omega), and by the push-through identity
phi(gamma Omega Omega') gamma Omega = gamma Omega phi(gamma Omega' Omega)
(Higham, Functions of Matrices, Cor. 1.34) it is applied through the
n x n Gram gamma Omega' Omega, n being the number of state equations:

    Theta += gamma Omega V diag(phi(w)) V' (Y - Omega' Theta),
    phi(lam) = (1 - exp(-lam tau)) / lam   (tau for lam <= 1e-300),

with (w, V) from `smallmat.symmetric_eigen`, closed-form for n <= 2
(both shipped plants).  Both half steps run in one smallmat kernel,
`gram_step`, bound to (n_w, n) on the first call: per sample it reads the
residual r = Y - Omega' Theta and the Gram straight from the rows of
Omega, takes (w, V) from the eigensolver it is handed, forms
diag(phi(w)) V' r and adds Omega (gamma V diag(phi(w)) V' r) to Theta,
each product summed from 0.0 left to right, as `smallmat.dot` sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .regressor import ParamMap, RegressorSample
from .smallmat import (all_finite, correction_rk4, determinant, dot,
                       exp_step, flat_floats, float_rows, gram_step,
                       min_eig_symmetric, mix_pair, symmetric_eigen)


def _check_sample(sample: RegressorSample, p: int,
                  scalar: bool = False) -> int | None:
    """Check a sample's shape and finiteness on floats; returns n for an
    Omega of p rows of n, None for a vector Omega.

    Omega must have p rows, or be a p-vector when `scalar` is set; with a
    vector Omega, Y must be a number, and with rows of n, n numbers.
    """
    om = sample.Omega
    om = om.tolist() if hasattr(om, "tolist") else om
    y = sample.Y.tolist() if hasattr(sample.Y, "tolist") else sample.Y
    n = len(om[0]) if om and isinstance(om[0], (list, tuple)) else None
    if len(om) != p or (scalar and n is not None):
        shape = (len(om),) if n is None else (len(om), n)
        raise ValueError(
            f"expected a regressor of {p} rows{' (a vector)' if scalar else ''}"
            f", got Omega shape {shape}")
    if n is None:
        if isinstance(y, (list, tuple)):
            raise ValueError("expected scalar Y")
    elif not n or any(not isinstance(row, (list, tuple)) or len(row) != n
                      for row in om):
        raise ValueError(f"expected Omega rows of one length n >= 1, got "
                         f"rows of {[len(row) for row in om]} values")
    elif not isinstance(y, (list, tuple)) or len(y) != n or \
            any(isinstance(v, (list, tuple)) for v in y):
        raise ValueError(f"expected Y of {n} numbers for Omega shape "
                         f"{(p, n)}, got Y = {y!r}")
    if not (all_finite(om) and all_finite(y)):
        raise ValueError(f"non-finite regression sample at t={sample.t}")
    return n


def _vector(value, n: int, name: str) -> list:
    """The n numbers of a sequence or array, as a list of floats."""
    v = list(flat_floats(value))
    if len(v) != n:
        raise ValueError(f"{name} has {len(v)} values, expected {n}")
    return v


class GplusDEstimator:
    """Interlaced gradient + determinant-mixing estimator.

    theta_g and theta_g0 are lists of floats, and `phi` holds Phi as p
    rows of floats.  Replace theta_g and phi instead of changing them
    in place: `mix` is memoized on their identity.
    """

    def __init__(self, param_map: ParamMap, gamma_g: float, gamma: float,
                 theta_g0=None):
        self.gamma_g, self.gamma = float(gamma_g), float(gamma)
        for name, gain in (("gamma_g", self.gamma_g), ("gamma", self.gamma)):
            if not 0.0 < gain < math.inf:   # nan compares False
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {gain}")
        if not 1 <= param_map.p <= 3:
            # the mixing pair's cofactor forms stop at 3x3 (smallmat)
            raise ValueError(f"the interlaced estimator supports p = 1 to 3 "
                             f"regression coefficients, got p = {param_map.p}")
        self.param_map = param_map
        p = param_map.p
        self.theta_g0 = [0.0] * p if theta_g0 is None else \
            _vector(theta_g0, p, "theta_g0")
        self.theta_g = list(self.theta_g0)
        # Phi @ theta_g0 vanishes for the default theta_g0 = 0
        self._g0 = self.theta_g0 if any(self.theta_g0) else None
        self.phi = [[1.0 if i == j else 0.0 for j in range(p)]
                    for i in range(p)]
        # kernels unrolled to length p (smallmat)
        self._mix_pair = mix_pair(p, self._g0 is not None)
        self._exp_step = exp_step(p, True)
        self._correction_rk4 = correction_rk4(param_map.q, p)
        # P T, each entry's products summed left to right
        t_cols = list(zip(*param_map.T))
        self._PT = [[dot(row, col) for col in t_cols] for row in param_map.P]
        # running exponent of det(Phi): exact under `propagate`
        self.log_det_phi = 0.0
        # (Phi rows, theta_g, (Delta, Ycal)) of the latest `mix`
        self._mix_memo = None
        self._validated = False

    def mix(self) -> tuple[float, tuple]:
        """(Delta, Ycal) from the current extension state, Ycal a tuple.

        The pair is memoized on the identity of `phi` and of theta_g.
        `propagate` replaces them instead of changing them in place, as a
        caller that sets either must, so a step's correction flow and its
        trace row share one evaluation; the tuple keeps callers from
        changing the memoized Ycal.
        """
        phi, g = self.phi, self.theta_g
        memo = self._mix_memo
        if memo is not None and memo[0] is phi and memo[1] is g:
            return memo[2]
        pair = self._mix_pair(phi, g, self._g0)
        self._mix_memo = (phi, g, pair)
        return pair

    def correct(self, theta, h: float, fracs) -> list:
        """The correction flow's RK4 step of size h from the estimate theta
        (`smallmat.correction_rk4`), the pair from `mix` frozen across it."""
        delta, ycal = self.mix()
        return self._correction_rk4(self.param_map.G, self._PT, self.gamma,
                                    delta, ycal, theta, h, fracs)

    def det_phi(self) -> float:
        """det(Phi), from the nested list."""
        return determinant(self.phi)

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
        gt = self.gamma_g * (0.5 * dt)
        n0, n1, self.theta_g, self.phi = self._exp_step(
            gt, sample0.Y, sample0.Omega, sample1.Y, sample1.Omega,
            self.theta_g, self.phi)
        self.log_det_phi -= gt * n0
        self.log_det_phi -= gt * n1


class GradientEstimator:
    """Plain gradient flow on a linear(ized) regression; Theta is a list of
    floats."""

    def __init__(self, n_w: int, gamma: float, Theta0=None):
        self.n_w = int(n_w)
        self.gamma = float(gamma)
        if not 0.0 < self.gamma < math.inf:   # nan compares False
            raise ValueError(f"gamma must be positive and finite, "
                             f"got {self.gamma}")
        self.Theta = [0.0] * self.n_w if Theta0 is None else \
            _vector(Theta0, self.n_w, "Theta0")
        self._validated = False
        self._matrix = False

    def rate(self, sample: RegressorSample) -> list:
        """Literal flow gamma * Omega * (Y - Omega' Theta_hat), as a list,
        its sums left to right as `dot` adds.  No code in the package calls
        it (`propagate` takes the exact map); it stays because the
        benchmark's tracer wraps it by name."""
        g, theta = self.gamma, self.Theta
        if _check_sample(sample, self.n_w) is None:
            om = flat_floats(sample.Omega)
            e = float(sample.Y) - dot(om, theta)
            return [g * o * e for o in om]
        om = float_rows(sample.Omega)
        r = [y - dot(col, theta)
             for y, col in zip(flat_floats(sample.Y), zip(*om))]
        return [g * dot(row, r) for row in om]

    def propagate(self, sample0: RegressorSample, sample1: RegressorSample,
                  dt: float):
        """Advance Theta_hat across one step: exact frozen-regressor
        exponential update on each half step, both halves one kernel call
        (`exp_step` on a vector regressor, `gram_step` on a matrix one)."""
        if not self._validated:
            n = _check_sample(sample0, self.n_w)
            n1 = _check_sample(sample1, self.n_w)
            if n1 != n:
                shapes = [(self.n_w,) if k is None else (self.n_w, k)
                          for k in (n1, n)]
                raise ValueError("sample1 has Omega shape {}, but sample0 "
                                 "{}".format(*shapes))
            self._matrix = n is not None
            # kernels for n_w rows of n columns, or for an n_w-vector
            self._step = gram_step(self.n_w, n) if self._matrix else \
                exp_step(self.n_w, False)
            self._validated = True
        if self._matrix:
            # read per call, as bench/tracer.py rebinds this module's name
            self.Theta = self._step(symmetric_eigen, self.gamma, 0.5 * dt,
                                    sample0.Y, sample0.Omega, sample1.Y,
                                    sample1.Omega, self.Theta)
        else:
            self.Theta = self._step(self.gamma * (0.5 * dt), sample0.Y,
                                    sample0.Omega, sample1.Y, sample1.Omega,
                                    self.Theta)


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
    rho_secant >= rho_jacobian up to sampling slack.  `box` is a finite
    [lo, hi] per component of theta, or one, (2,) or (1, 2), for all.
    """
    import numpy as np
    box = np.asarray(box, dtype=float)
    if box.ndim == 1 or box.shape == (1, 2):   # one [lo, hi] for every theta
        box = np.tile(box, (param_map.q, 1))
    if box.shape != (param_map.q, 2):
        raise ValueError(f"box has shape {box.shape}, expected ({param_map.q}, 2)")
    if not np.isfinite(box).all():
        raise ValueError(f"box bounds must be finite, got {box.tolist()}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must have positive volume in every coordinate")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    lo, span = box[:, 0], box[:, 1] - box[:, 0]
    pm = param_map
    pmat, tmat = np.array(pm.P), np.array(pm.T)

    # a finite box can still overflow G, W or G's Jacobian: the sample or
    # pair that does is named, with no numpy warning before it
    with np.errstate(all="ignore"):
        rho_j = np.inf
        for theta in lo + span * rng.random((n_samples, pm.q)):
            jw = pmat @ (tmat @ np.asarray(pm.jacobian_G(theta), dtype=float))
            sym = 0.5 * (jw + jw.T)
            if not np.isfinite(sym).all():
                raise ValueError(f"sym(P T J_G) is not finite at theta = "
                                 f"{theta.tolist()} in the box {box.tolist()}")
            rho_j = min(rho_j, min_eig_symmetric(sym))

        rho_s = np.inf
        pairs = lo + span * rng.random((n_samples, 2, pm.q))
        for a, b in pairs:
            d = a - b
            n2 = float(d @ d)
            if n2 < 1e-20:
                continue
            w_diff = np.subtract(pm.W(a), pm.W(b))
            ratio = float(d @ pmat @ w_diff) / n2
            # min() would pass over the nan or inf ratio of a non-finite W
            if not math.isfinite(ratio):
                raise ValueError(f"the secant ratio of W is not finite for "
                                 f"the pair theta = {a.tolist()}, "
                                 f"{b.tolist()} in the box {box.tolist()}")
            rho_s = min(rho_s, ratio)

    return MonotonicityReport(rho_jacobian=float(rho_j), rho_secant=float(rho_s),
                              sample_count=int(n_samples), box=box, seed=int(seed))
