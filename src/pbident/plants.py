"""Dissipative plant scenarios and their known-parameter stabilizing controllers.

A scenario describes its plant once, at the true parameters:

* fast_rate(x, u, t) -- the input-affine dynamics xdot = f + g u_p with
  the port input u_p = col(u, E(t)) stacking the control and the external
  source;
* ports(x, u, t) -- the port pair (u_p, y_p);
* energy(x, u) -- the storage S and the net flow s - d of the power
  balance Sdot = -d + s;
* controller.beta(x, theta, t) -- the known-parameter stabilizer;
* the regression data the generators filter: the separable power-balance
  data (NlpreData), its parameter map (ParamMap) and, where the scenario
  has one, the state-equation data (StdLreData).

The closed loop fast_rate(x, beta(x, theta, t), t) and the extraction of
the physical parameters from a stacked-map estimate are derived from these
when the Scenario is built.  The tests check each description against an
independent one: the regression data against fast_rate and energy, and
energy against the trajectories of fast_rate.

The simulator's whole step runs on Python floats, so every closure is
written in components:

* x, theta and the port vectors arrive as length-n sequences of floats
  (lists or tuples; tests may pass ndarrays).  Closures index or unpack
  them and do no array arithmetic on them.
* fast_rate, ports, the regression data and the stacked parameter map
  return tuples of floats; energy and beta return floats.
* No `**` on state or estimate components: a float `**` raises
  OverflowError where numpy gives inf.  Squares are written x * x, which
  IEEE arithmetic rounds exactly on every platform and which overflows to
  inf without raising.  The one non-integer power, theta1 ** alpha of the
  circuit, goes through smallmat.ieee_pow, and any division by an
  estimate through smallmat.ieee_div; both return numpy's inf or nan
  instead of raising.

Two scenarios ship:

* ph_scenario -- a lossless LTI system with skew drift, a parameter-scaled
  input vector (theta, theta^2) and storage |x|^2 / 2.  The stabilizer is
  the static feedback beta = -x1/theta - x2.

* circuit_scenario -- a source/inductor/transformer/capacitor/resistor
  circuit in explicit form (the diagonal mass matrix diag(theta1,
  theta1^alpha) is inverted analytically).  Storage is the stored magnetic
  plus electric energy; the supply is the source power E*x1 and the
  dissipation theta2*x2^2.  The voltage regulator beta holds x2 at the
  setpoint kappa and only uses theta2, so certainty-equivalent control
  substitutes the theta2 estimate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .regressor import NlpreData, ParamMap, StdLreData
from .smallmat import dot, ieee_div, ieee_pow


@dataclass
class PlantModel:
    """Dimensions, true parameters and regression data of a plant."""

    n: int
    n_p: int
    theta_true: np.ndarray
    nlpre: NlpreData
    param_map: ParamMap
    std: Optional[StdLreData] = None

    def __post_init__(self):
        self.theta_true = np.asarray(self.theta_true, dtype=float)


@dataclass
class Controller:
    """Known-parameter stabilizer beta(x, theta, t) and its target."""

    beta: Callable       # (x, theta, t) -> float, the one control input
    target: dict


@dataclass
class Scenario:
    """A plant/controller pair plus the plumbing the simulator needs."""

    name: str
    plant: PlantModel
    controller: Controller
    x0_default: np.ndarray
    theta_hat0_default: np.ndarray
    substeps: int                      # plant sub-integration per outer step
    regulation_error: Callable         # (x, x0) -> float, relative metric
    fast_rate: Callable                # (x, u, t) -> f + g [u; E(t)]
    energy: Callable                   # (x, u) -> (S, s - d)
    ports: Callable                    # (x, u, t) -> (u_p, y_p)
    energy_uses_u: bool = True
    # derived: the closed loop under beta, and the q physical parameters
    # T @ Theta of a stacked-map estimate Theta
    closed_rate: Callable = field(init=False, repr=False)
    theta_from_overparam: Callable = field(init=False, repr=False)

    def __post_init__(self):
        fast_rate = self.fast_rate
        beta = self.controller.beta
        selector = self.plant.param_map.T.tolist()

        def closed_rate(x, theta, t):
            return fast_rate(x, beta(x, theta, t), t)

        def theta_from_overparam(Th):
            return tuple(dot(row, Th) for row in selector)

        self.closed_rate = closed_rate
        self.theta_from_overparam = theta_from_overparam

    @property
    def theta_true(self) -> np.ndarray:
        return self.plant.theta_true


def power_balance_residual(scenario: Scenario, t, xs, us) -> float:
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


def ph_scenario(a: float = 1.0, theta: float = 1.0) -> Scenario:
    """Lossless LTI scenario: skew drift, input vector (theta, theta^2)."""
    if theta == 0.0:
        raise ValueError("theta must be nonzero (controller divides by it)")
    a = float(a)
    th = float(theta)
    th2 = th * th

    def norm(x):
        return math.sqrt(dot(x, x))

    def reg_err(x, x0):
        n0 = norm(x0)
        return norm(x) / n0 if n0 > 0 else norm(x)

    def fast_rate(x, u, t):
        x1, x2 = x
        return (-a * x2 + th * u, a * x1 + th2 * u)

    def storage(x):
        x1, x2 = x
        return 0.5 * (x1 * x1 + x2 * x2)

    def energy(x, u):
        return storage(x), u * (th * x[0] + th2 * x[1])

    def ports(x, u, t):
        return (u,), (th * x[0] + th2 * x[1],)

    def G(theta):
        t = theta[0]
        return (t, t * t)

    nlpre = NlpreData(
        p_s=2, p_S=0, p_d=0,
        phi_s=lambda x, u_p, y_p: (u_p[0] * x[0], u_p[0] * x[1]),
        b_S=storage,
    )
    param_map = ParamMap(
        G_direct=G,
        T=np.array([[1.0, 0.0]]),
        P=np.array([[1.0]]),
        jacobian_G=lambda th: np.array([[1.0], [2.0 * th[0]]]),
    )
    std = StdLreData(
        n_w=2,
        C=G,
        b_f=lambda x: (-a * x[1], a * x[0]),
        phi_g=[[lambda x: (1.0, 0.0)],
               [lambda x: (0.0, 1.0)]],
        theta_from_C=lambda Th: (Th[0],),
    )
    return Scenario(
        name="ph",
        plant=PlantModel(n=2, n_p=1, theta_true=np.array([th]),
                         nlpre=nlpre, param_map=param_map, std=std),
        controller=Controller(
            beta=lambda x, th, t: -ieee_div(x[0], th[0]) - x[1],
            target={"kind": "origin"}),
        x0_default=np.array([1.0, 1.0]),
        theta_hat0_default=np.array([0.5]),
        substeps=1,
        regulation_error=reg_err,
        fast_rate=fast_rate,
        energy=energy,
        ports=ports,
    )


def circuit_scenario(theta1: float = 1.0, theta2: float = 1.5,
                     alpha: float = 2.0, E: float = 15.0, kp: float = 10.0,
                     kappa: float = 15.0) -> Scenario:
    """Source/transformer circuit scenario regulating the capacitor voltage."""
    if theta1 <= 0 or theta2 <= 0 or E <= 0:
        raise ValueError("theta1, theta2 and E must be positive")
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero (equilibrium input divides by it)")
    if kp <= 0:
        raise ValueError("kp must be positive")
    th1 = float(theta1)
    th2 = float(theta2)
    alpha = float(alpha)
    m2 = ieee_pow(th1, alpha)
    if not 0.0 < m2 < math.inf:
        # the stage arithmetic runs on floats, which raise on a zero divisor
        raise ValueError("theta1 ** alpha must be positive and finite")
    E = float(E)
    kp = float(kp)
    kappa = float(kappa)

    def reg_err(x, x0):
        return abs(x[1] - kappa) / abs(kappa)

    def fast_rate(x, u, t):
        x1, x2 = x
        return ((-x2 * u + E) / th1, (-th2 * x2 + x1 * u) / m2)

    def energy(x, u):
        x1, x2 = x
        sq1, sq2 = x1 * x1, x2 * x2
        return 0.5 * (th1 * sq1 + m2 * sq2), E * x1 - th2 * sq2

    def ports(x, u, t):
        # the control port is power-neutral through the ideal transformer;
        # the source port sees the inductor current
        return (u, E), (0.0, x[0])

    kap2_E = kappa * kappa / E
    u_star = E / kappa

    def beta(x, th, t):
        x1, x2 = x
        return -kp * (th[1] * kap2_E * x2 - kappa * x1) + u_star

    def G(th):
        t1 = th[0]
        return (t1, ieee_pow(t1, alpha), th[1])

    nlpre = NlpreData(
        p_s=0, p_S=2, p_d=1,
        b_s=lambda x, u_p, y_p: u_p[1] * y_p[1],
        phi_S=lambda x: (0.5 * (x[0] * x[0]), 0.5 * (x[1] * x[1])),
        phi_d=lambda x: (x[1] * x[1],),
    )
    param_map = ParamMap(
        G_direct=G,
        T=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        P=np.eye(2),
        jacobian_G=lambda th: np.array([[1.0, 0.0],
                                        [alpha * ieee_pow(th[0], alpha - 1.0), 0.0],
                                        [0.0, 1.0]]),
    )

    def theta_from_c(Th):
        # Theta = (1/theta1, 1/theta1^alpha, theta2/theta1^alpha); invert
        # through the reciprocal of the first entry, guarded away from zero
        t1 = 1.0 / max(float(Th[0]), 1e-2)
        return (t1, float(Th[2]) * ieee_pow(t1, alpha))

    def C(th):
        t1_alpha = ieee_pow(th[0], alpha)
        return (ieee_div(1.0, th[0]), ieee_div(1.0, t1_alpha),
                ieee_div(th[1], t1_alpha))

    std = StdLreData(
        n_w=3,
        C=C,
        w_f=lambda x: ((0.0, 0.0, 0.0), (0.0, 0.0, -x[1])),
        phi_g=[[lambda x: (-x[1], 0.0, 0.0),
                lambda x: (1.0, 0.0, 0.0)],
               [lambda x: (0.0, x[0], 0.0),
                None]],
        theta_from_C=theta_from_c,
    )
    return Scenario(
        name="circuit",
        plant=PlantModel(n=2, n_p=2, theta_true=np.array([th1, th2]),
                         nlpre=nlpre, param_map=param_map, std=std),
        controller=Controller(
            beta=beta,
            target={"kind": "setpoint", "x2_star": kappa,
                    "x_star": (th2 * (kappa * kappa) / E, kappa)}),
        x0_default=np.zeros(2),
        theta_hat0_default=np.zeros(2),
        substeps=4,
        regulation_error=reg_err,
        fast_rate=fast_rate,
        energy=energy,
        ports=ports,
        energy_uses_u=False,
    )


SCENARIO_BUILDERS = {"ph": ph_scenario, "circuit": circuit_scenario}


def make_scenario(name: str, **params) -> Scenario:
    if name not in SCENARIO_BUILDERS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIO_BUILDERS[name](**params)
