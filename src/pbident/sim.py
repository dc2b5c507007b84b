"""Fixed-step closed-loop simulation of plant, filters and estimator.

The outer step h is the sampling grid: regression samples are produced at
every outer step and consumed synchronously by the estimator, and traces,
quadratures and diagnostics all live on that grid.  Inside one outer step
the work is layered so every piece stays in its stability region at
realistic gains:

1. The mixing pair (Delta, Ycal) is frozen at the step start and the
   correction flow theta_hat is advanced by one classical RK4 step (its
   contraction rate is only gamma * Delta^2).
2. The plant is advanced by `substeps` classical RK4 steps of size
   h/substeps, with the control recomputed at every internal stage from
   the stage state and a theta_hat linearly interpolated across the step.
   Substepping is required: the shipped circuit's known-parameter loop has
   a closed-loop eigenvalue near -7.3e3 at its target equilibrium, far
   outside the RK4 stability region at h = 1e-3.  Interpolating theta_hat
   keeps the control continuous, which keeps the trajectory's
   power-balance residual at its truncation floor.
3. The filter bank is advanced by one RK4 step driven by the plant state
   sampled at the step start, midpoint and end.
   The plant and filter stages run on Python floats, element by element in
   the order of the array expressions, so they match the numpy form bit
   for bit at a fraction of its per-call overhead on 2- to 4-element
   states.
4. The estimator's linear flows (pre-estimator, extension matrix, plain
   gradient) are advanced by exact frozen-regressor exponential maps on
   each half step, using the regression samples at both step endpoints.
   gamma_g * |Omega|^2 * h reaches ~5e3 on the shipped circuit, so no
   explicit rule is stable there, while the exponential map is an exact
   contraction and additionally makes det(Phi) match the trapezoid
   quadrature of -gamma_g |Omega|^2 to rounding.

Everything is deterministic: identical configurations produce bit-identical
traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .estimator import GplusDEstimator, GradientEstimator
from .plants import Scenario
from .regressor import PbepGenerator, RegressorSample, StdLreGenerator
from .smallmat import determinant, min_eig_symmetric


class EstimatorKind(Enum):
    GPLUSD_PBEP = "gplusd_pbep"
    GRADIENT_STD = "gradient_std"
    GRADIENT_PBEP_OVERPARAM = "gradient_pbep_overparam"
    NONE = "none"


class ControllerKind(Enum):
    ADAPTIVE = "adaptive"
    KNOWN_PARAMETER = "known_parameter"
    OPEN_LOOP = "open_loop"


class NonFiniteStateError(RuntimeError):
    """A state component left the finite range; carries time and component."""

    def __init__(self, t: float, component: str):
        super().__init__(f"non-finite {component} at t={t:.6g}")
        self.t = t
        self.component = component


@dataclass
class SimConfig:
    t_end: float = 20.0
    h: float = 1e-3
    estimator: EstimatorKind = EstimatorKind.GPLUSD_PBEP
    controller: ControllerKind = ControllerKind.ADAPTIVE
    gamma_g: float = 100.0
    gamma: float = 50.0
    lam: float = 10.0
    x0: Optional[np.ndarray] = None            # scenario default when None
    theta_hat0: Optional[np.ndarray] = None    # scenario default when None
    theta_g0: Optional[np.ndarray] = None      # zeros when None
    overparam_hat0: Optional[np.ndarray] = None
    decimation: int = 10
    substeps: Optional[int] = None             # scenario default when None
    c_c: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.h) or self.h <= 0:
            raise ValueError("h must be positive and finite")
        if not math.isfinite(self.t_end) or self.t_end <= self.h:
            raise ValueError("t_end must be finite and exceed h")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if self.gamma_g <= 0 or self.gamma <= 0 or self.lam <= 0:
            raise ValueError("gains and the filter constant must be positive")
        if self.substeps is not None and self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.c_c <= 0:
            raise ValueError("c_c must be positive")


class ExcitationRecord:
    """Running Gram integral of the regressor on a uniform sampling grid.

    Regressor samples are pushed once per grid point; the composite
    trapezoid Gram up to the latest push is

        gram = h * sum_i Omega_i Omega_i' - h/2 * (first + latest outer)

    Folding is incremental so recording the minimum eigenvalue at a
    decimated cadence stays cheap.
    """

    def __init__(self, p: int, h: float, threshold: float):
        self.p = int(p)
        self.h = float(h)
        self.threshold = float(threshold)
        self.min_eig_history: list[tuple[float, float]] = []
        self._sum = np.zeros((self.p, self.p))   # unit-weight sum of outers
        self._pending: list[np.ndarray] = []
        self._first = None
        self._last = None

    def push(self, omega: np.ndarray):
        if self._first is None:
            self._first = self._outer(omega)
        self._pending.append(omega)
        self._last = omega

    @staticmethod
    def _outer(om: np.ndarray) -> np.ndarray:
        return np.outer(om, om) if om.ndim == 1 else om @ om.T

    def _fold(self):
        if not self._pending:
            return
        if self._pending[0].ndim == 1:
            block = np.asarray(self._pending)
            self._sum += block.T @ block
        else:
            for om in self._pending:
                self._sum += om @ om.T
        self._pending.clear()

    @property
    def gram(self) -> np.ndarray:
        if self._first is None:
            return np.zeros((self.p, self.p))
        self._fold()
        return self.h * self._sum - (0.5 * self.h) * (self._first
                                                      + self._outer(self._last))

    @property
    def q_trap(self) -> float:
        """Trapezoid integral of |Omega|^2 (Frobenius norm squared)."""
        return float(self.gram.trace())

    def record(self, t: float) -> float:
        m = min_eig_symmetric(self.gram)
        self.min_eig_history.append((t, m))
        return m


def excitation_report(record: ExcitationRecord,
                      c_c: Optional[float] = None) -> tuple[bool, Optional[float]]:
    """(is_IE, t_c): whether the sampled Gram minimum eigenvalue ever reached
    the threshold, and the first recorded time it did."""
    level = record.threshold if c_c is None else float(c_c)
    for t, m in record.min_eig_history:
        if m >= level:
            return True, t
    return False, None


@dataclass
class RunReport:
    scenario: str
    estimator: str
    controller: str
    t_end: float
    h: float
    substeps: int
    decimation: int
    x0: np.ndarray
    theta_hat0: np.ndarray
    c_c: float = 1e-3
    x_final: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta_hat_final: np.ndarray = field(default_factory=lambda: np.zeros(0))
    overparam_hat_final: Optional[np.ndarray] = None
    theta_err_rel_final: Optional[float] = None
    regulation_error_final: Optional[float] = None
    settling_time_param: Optional[float] = None
    settling_time_regulation: Optional[float] = None
    param_band: float = 0.02
    regulation_band: float = 0.01
    gram_min_eig_final: Optional[float] = None
    is_ie: bool = False
    t_c: Optional[float] = None
    max_power_residual: Optional[float] = None        # plant-grid differences
    max_power_residual_outer: Optional[float] = None  # outer-grid differences
    abel_gap: Optional[float] = None   # |log det Phi + gamma_g * trapz|Omega|^2|
    delta_final: Optional[float] = None
    det_phi_final: Optional[float] = None
    wall_seconds: float = 0.0
    n_steps: int = 0
    aborted: bool = False
    abort_time: Optional[float] = None
    abort_component: Optional[str] = None
    trace_rows: int = 0


class _ListTrace:
    """In-memory trace sink used when the caller does not provide one."""

    def __init__(self):
        self.columns: list[str] = []
        self.rows: list[list[float]] = []

    def header(self, columns):
        self.columns = list(columns)

    def row(self, values):
        self.rows.append(list(values))


def _settling_time(err: np.ndarray, band: float, h: float) -> Optional[float]:
    """First time after which err stays within band; None if it never does."""
    bad = np.nonzero(err > band)[0]
    if bad.size == 0:
        return 0.0
    if bad[-1] == err.size - 1:
        return None
    return float((bad[-1] + 1) * h)


class World:
    """Mutable closed-loop state: plant, filters, estimator, diagnostics."""

    def __init__(self, scenario: Scenario, cfg: SimConfig):
        self.scenario = scenario
        self.cfg = cfg
        plant = scenario.plant
        self.t = 0.0
        self.x = (np.asarray(cfg.x0, dtype=float).reshape(plant.n).copy()
                  if cfg.x0 is not None else scenario.x0_default.copy())
        self.theta_hat = (np.asarray(cfg.theta_hat0, dtype=float)
                          .reshape(plant.param_map.q).copy()
                          if cfg.theta_hat0 is not None
                          else scenario.theta_hat0_default.copy())
        self.substeps = cfg.substeps if cfg.substeps is not None else scenario.substeps
        self._fracs = np.arange(2 * self.substeps) / (2.0 * self.substeps)

        # control law and closed-loop rate resolved once
        beta = scenario.controller.beta
        closed_rate = scenario.closed_rate
        fast_rate = scenario.fast_rate
        if cfg.controller is ControllerKind.OPEN_LOOP:
            self.control = lambda x, th, t: 0.0
            self.plant_rate = lambda x, th, t: fast_rate(x, 0.0, t)
        elif cfg.controller is ControllerKind.KNOWN_PARAMETER:
            theta_true = plant.theta_true
            self.control = lambda x, th, t: beta(x, theta_true, t)
            self.plant_rate = lambda x, th, t: closed_rate(x, theta_true, t)
        else:
            self.control = beta
            self.plant_rate = closed_rate

        kind = cfg.estimator
        self.generator = None
        self.estimator = None
        self.excitation = None
        u0 = self.control(self.x, self.theta_hat, 0.0)
        up0, yp0 = scenario.ports(self.x, u0, 0.0)
        if kind in (EstimatorKind.GPLUSD_PBEP, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
            self.generator = PbepGenerator(plant.nlpre, plant.param_map,
                                           cfg.lam, self.x, up0, yp0)
            self.excitation = ExcitationRecord(plant.param_map.p, cfg.h, cfg.c_c)
        elif kind is EstimatorKind.GRADIENT_STD:
            if plant.std is None:
                raise ValueError(
                    f"scenario {scenario.name!r} has no standard regression data")
            self.generator = StdLreGenerator(plant.std, cfg.lam, self.x, up0)
            self.excitation = ExcitationRecord(plant.std.n_w, cfg.h, cfg.c_c)
        if kind is EstimatorKind.GPLUSD_PBEP:
            self.estimator = GplusDEstimator(
                plant.param_map, cfg.gamma_g, cfg.gamma,
                theta_g0=cfg.theta_g0, theta0=self.theta_hat)
        elif kind is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            theta0 = (np.asarray(cfg.overparam_hat0, dtype=float)
                      if cfg.overparam_hat0 is not None
                      else plant.param_map.G(self.theta_hat))
            self.estimator = GradientEstimator(plant.param_map.p, cfg.gamma,
                                               Theta0=theta0)
        elif kind is EstimatorKind.GRADIENT_STD:
            theta0 = (np.asarray(cfg.overparam_hat0, dtype=float)
                      if cfg.overparam_hat0 is not None else None)
            self.estimator = GradientEstimator(plant.std.n_w, cfg.gamma,
                                               Theta0=theta0)
        if kind in (EstimatorKind.GRADIENT_STD, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
            self.theta_hat = self.extract_theta()

    def extract_theta(self) -> np.ndarray:
        kind = self.cfg.estimator
        if kind is EstimatorKind.GPLUSD_PBEP:
            return self.estimator.theta
        if kind is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            return np.asarray(
                self.scenario.theta_from_overparam(self.estimator.Theta),
                dtype=float)
        if kind is EstimatorKind.GRADIENT_STD:
            return np.asarray(
                self.scenario.plant.std.theta_from_C(self.estimator.Theta),
                dtype=float)
        return self.theta_hat

    def assemble_inputs(self, x, t, theta_hat) -> np.ndarray:
        """Generator channel inputs at (x, t) under the current estimate."""
        u = self.control(x, theta_hat, t)
        up, yp = self.scenario.ports(x, u, t)
        if isinstance(self.generator, PbepGenerator):
            return self.generator.inputs(x, up, yp)
        return self.generator.inputs(x, up)

    def check_finite(self):
        # cheap screen first: non-finite entries poison the sums
        probe = float(self.x.sum()) + float(self.theta_hat.sum())
        if self.generator is not None:
            probe += float(self.generator.state.sum())
        if np.isfinite(probe):
            return
        if not np.isfinite(self.x).all():
            raise NonFiniteStateError(self.t, "plant state")
        if self.generator is not None and not np.isfinite(self.generator.state).all():
            raise NonFiniteStateError(self.t, "filter state")
        raise NonFiniteStateError(self.t, "parameter estimate")


def step(world: World) -> tuple[np.ndarray, Optional[RegressorSample],
                                Optional[RegressorSample]]:
    """Advance the world by one outer step.

    Returns the plant states on the sub-integration grid as a (substeps, n)
    array (one row per substep, ending with the new state) and the
    regression samples at the step's start and end (None without a
    regressor).
    """
    cfg = world.cfg
    plant_rate = world.plant_rate
    h = cfg.h
    t = world.t
    x = world.x
    th = world.theta_hat
    kind = cfg.estimator
    est = world.estimator
    gen = world.generator

    # regression sample at the step start
    sample0 = i0 = None
    if gen is not None:
        i0 = world.assemble_inputs(x, t, th)
        sample0 = gen.sample_from(t, i0)

    # correction-flow update with the mixing pair frozen at the step start;
    # gradient estimates update after the plant move instead
    if kind is EstimatorKind.GPLUSD_PBEP:
        delta, ycal = est.mix()
        gd_ = est.gamma * delta
        vec = gd_ * (est._PT @ ycal)
        mat = (gd_ * delta) * est._PT
        g_map = est.param_map.G
        a1 = vec - mat @ g_map(th)
        a2 = vec - mat @ g_map(th + (0.5 * h) * a1)
        a3 = vec - mat @ g_map(th + (0.5 * h) * a2)
        a4 = vec - mat @ g_map(th + h * a3)
        th_new = th + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        dth = th_new - th
    else:
        th_new = th
        dth = None

    # plant sub-integration with the estimate linearly interpolated in time;
    # stages run on Python floats, element by element in numpy's order
    nsub = world.substeps
    hs = h / nsub
    hh, h6 = 0.5 * hs, hs / 6.0
    xc = x.tolist()
    xs = []
    if dth is None:
        ths = [th] * (2 * nsub + 1)
    else:
        ths = list(th + world._fracs[:, None] * dth)
        ths.append(th_new)
    for j in range(nsub):
        i2 = 2 * j
        t0s = t + (i2 / (2.0 * nsub)) * h
        tms = t + ((i2 + 1) / (2.0 * nsub)) * h
        t1s = t + ((i2 + 2) / (2.0 * nsub)) * h
        th0s, thms, th1s = ths[i2], ths[i2 + 1], ths[i2 + 2]
        k1 = plant_rate(xc, th0s, t0s).tolist()
        k2 = plant_rate([a + hh * b for a, b in zip(xc, k1)], thms, tms).tolist()
        k3 = plant_rate([a + hh * b for a, b in zip(xc, k2)], thms, tms).tolist()
        k4 = plant_rate([a + hs * b for a, b in zip(xc, k3)], th1s, t1s).tolist()
        xc = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
              for a, b1, b2, b3, b4 in zip(xc, k1, k2, k3, k4)]
        xs.append(xc)
    xs = np.array(xs)
    x_new = xs[-1]

    sample1 = None
    if gen is not None:
        # midpoint plant state for the filter stages
        th_mid = ths[nsub]
        if nsub == 1:
            # cubic-Hermite midpoint from endpoint values and rates
            r0 = plant_rate(x, th, t).tolist()
            r1 = plant_rate(xc, th_new, t + h).tolist()
            h8 = h / 8.0
            x_mid = np.array([0.5 * (a + b) + h8 * (c - d) for a, b, c, d
                              in zip(x.tolist(), xc, r0, r1)])
        elif nsub % 2 == 0:
            x_mid = xs[nsub // 2 - 1]
        else:
            x_mid = 0.5 * (xs[nsub // 2 - 1] + xs[nsub // 2])
        tm, t1 = t + 0.5 * h, t + h
        im = world.assemble_inputs(x_mid, tm, th_mid).tolist()
        i1 = world.assemble_inputs(x_new, t1, th_new)
        # filter-bank RK4, on floats like the plant stages
        lam = cfg.lam
        half, sixth = 0.5 * h, h / 6.0
        z = gen.state.tolist()
        c1 = [lam * (u - a) for u, a in zip(i0.tolist(), z)]
        c2 = [lam * (u - (a + half * c)) for u, a, c in zip(im, z, c1)]
        c3 = [lam * (u - (a + half * c)) for u, a, c in zip(im, z, c2)]
        c4 = [lam * (u - (a + h * c)) for u, a, c in zip(i1.tolist(), z, c3)]
        gen.state = np.array([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                              for a, b1, b2, b3, b4 in zip(z, c1, c2, c3, c4)])
        sample1 = gen.sample_from(t1, i1)
        if est is not None:
            est.propagate(sample0, sample1, h)

    world.x = x_new
    world.t = t + h
    if kind in (EstimatorKind.GRADIENT_STD, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
        world.theta_hat = world.extract_theta()
    else:
        if kind is EstimatorKind.GPLUSD_PBEP:
            est.theta = th_new
        world.theta_hat = th_new
    return xs, sample0, sample1


def run(scenario: Scenario, cfg: SimConfig, trace=None) -> RunReport:
    """Execute a closed-loop run to t_end and summarize it.

    `trace` is an optional sink with header(columns) and row(values)
    methods; rows are written every cfg.decimation steps plus the final
    step.  Raises NonFiniteStateError if the state leaves the finite range
    (rows already handed to the sink stay written).
    """
    world = World(scenario, cfg)
    plant = scenario.plant
    theta_true = plant.theta_true
    n_steps = int(round(cfg.t_end / cfg.h))
    q = plant.param_map.q
    kind = cfg.estimator
    gd = kind is EstimatorKind.GPLUSD_PBEP
    gradient = kind in (EstimatorKind.GRADIENT_STD,
                        EstimatorKind.GRADIENT_PBEP_OVERPARAM)
    energy = scenario.energy
    control = world.control
    reg_metric = scenario.regulation_error
    nsub = world.substeps
    hsub = cfg.h / nsub

    report = RunReport(
        scenario=scenario.name, estimator=kind.value,
        controller=cfg.controller.value, t_end=cfg.t_end, h=cfg.h,
        substeps=nsub, decimation=cfg.decimation,
        x0=world.x.copy(), theta_hat0=world.theta_hat.copy(), c_c=cfg.c_c,
    )

    if trace is None:
        trace = _ListTrace()
    cols = (["t"] + [f"x{i + 1}" for i in range(plant.n)] + ["u"]
            + [f"yp{i + 1}" for i in range(plant.n_p)]
            + [f"theta_hat{i + 1}" for i in range(q)])
    if gradient:
        cols += [f"overparam_hat{i + 1}" for i in range(world.estimator.n_w)]
    cols += ["delta", "det_phi", "gram_min_eig", "power_residual"]
    trace.header(cols)

    n_theta = float(np.linalg.norm(theta_true))
    energy_uses_u = scenario.energy_uses_u
    sub_S = np.empty(n_steps * nsub + 1)
    sub_flow = np.empty(n_steps * nsub + 1)
    param_err = np.empty(n_steps + 1)
    reg_err = np.empty(n_steps + 1)

    def param_dist(th_hat) -> float:
        d = th_hat - theta_true
        return float(np.sqrt(d @ d)) / n_theta

    def residual_latest(k_sub: int) -> float:
        if k_sub < 2:
            return 0.0
        return abs((sub_S[k_sub] - sub_S[k_sub - 2]) / (2.0 * hsub)
                   - sub_flow[k_sub - 1])

    def emit_row(k: int):
        t = k * cfg.h
        u = control(world.x, world.theta_hat, t)
        up, yp = scenario.ports(world.x, u, t)
        vals = [t, *world.x.tolist(), u, *np.asarray(yp).tolist(),
                *world.theta_hat.tolist()]
        if gradient:
            vals += world.estimator.Theta.tolist()
        if gd:
            delta, _ = world.estimator.mix()
            vals += [float(delta), determinant(world.estimator.Phi)]
        else:
            vals += [0.0, 1.0]
        mineig = world.excitation.record(t) if world.excitation is not None else 0.0
        vals += [mineig, residual_latest(k * nsub)]
        trace.row(vals)
        report.trace_rows += 1

    u_now = control(world.x, world.theta_hat, 0.0)
    sub_S[0], sub_flow[0] = energy(world.x, u_now)
    param_err[0] = param_dist(world.theta_hat) if n_theta > 0 else np.nan
    reg_err[0] = reg_metric(world.x, report.x0)

    t_start = time.perf_counter()
    emit_row(0)
    try:
        # overflow on a diverging run is handled by check_finite, not warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(1, n_steps + 1):
                th_prev = world.theta_hat
                xs, sample0, sample1 = step(world)
                world.check_finite()
                if world.excitation is not None:
                    world.excitation.push(sample0.Omega)
                    if k == n_steps:
                        world.excitation.push(sample1.Omega)
                tk = world.t
                dth = world.theta_hat - th_prev
                base = (k - 1) * nsub
                for j, xsub in enumerate(xs):
                    if energy_uses_u:
                        frac = (j + 1) / nsub
                        usub = control(xsub, th_prev + frac * dth,
                                       tk - cfg.h + frac * cfg.h)
                    else:
                        usub = 0.0
                    sub_S[base + j + 1], sub_flow[base + j + 1] = energy(xsub, usub)
                param_err[k] = param_dist(world.theta_hat) if n_theta > 0 else np.nan
                reg_err[k] = reg_metric(world.x, report.x0)
                if k % cfg.decimation == 0 or k == n_steps:
                    emit_row(k)
    except NonFiniteStateError as err:
        report.aborted = True
        report.abort_time = err.t
        report.abort_component = err.component
        report.wall_seconds = time.perf_counter() - t_start
        report.n_steps = int(round(world.t / cfg.h))
        report.x_final = world.x.copy()
        report.theta_hat_final = world.theta_hat.copy()
        raise

    report.wall_seconds = time.perf_counter() - t_start
    report.n_steps = n_steps
    report.x_final = world.x.copy()
    report.theta_hat_final = world.theta_hat.copy()
    if gradient:
        report.overparam_hat_final = world.estimator.Theta.copy()
    if n_theta > 0:
        report.theta_err_rel_final = float(param_err[-1])
        report.settling_time_param = _settling_time(param_err,
                                                    report.param_band, cfg.h)
    report.regulation_error_final = float(reg_err[-1])
    report.settling_time_regulation = _settling_time(reg_err,
                                                     report.regulation_band,
                                                     cfg.h)

    # power-balance residuals: centered differences on each grid
    r = np.abs((sub_S[2:] - sub_S[:-2]) / (2.0 * hsub) - sub_flow[1:-1])
    if r.size:
        report.max_power_residual = float(np.max(r))
    grid_S = sub_S[::nsub]
    grid_flow = sub_flow[::nsub]
    r = np.abs((grid_S[2:] - grid_S[:-2]) / (2.0 * cfg.h) - grid_flow[1:-1])
    if r.size:
        report.max_power_residual_outer = float(np.max(r))

    if world.excitation is not None:
        report.gram_min_eig_final = min_eig_symmetric(world.excitation.gram)
        report.is_ie, report.t_c = excitation_report(world.excitation, cfg.c_c)
    if gd:
        est = world.estimator
        report.abel_gap = abs(est.log_det_phi
                              + cfg.gamma_g * world.excitation.q_trap)
        delta, _ = est.mix()
        report.delta_final = float(delta)
        report.det_phi_final = determinant(est.Phi)
    return report
