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
   the stage state and the correction flow's theta_hat linearly
   interpolated across the step (a gradient estimate updates after the
   plant move, so the plant sees its step-start value throughout).
   Substepping is required: the shipped circuit's known-parameter loop has
   a closed-loop eigenvalue near -7.3e3 at its target equilibrium, far
   outside the RK4 stability region at h = 1e-3.  Interpolating theta_hat
   keeps the control continuous, which keeps the trajectory's
   power-balance residual at its truncation floor.
3. The filter bank is advanced by one RK4 step driven by the plant state
   sampled at the step start, midpoint and end.
4. The estimator's linear flows (pre-estimator, extension matrix, plain
   gradient) are advanced by exact frozen-regressor exponential maps on
   each half step, using the regression samples at both step endpoints.
   gamma_g * |Omega|^2 * h reaches ~5e3 on the shipped circuit, so no
   explicit rule is stable there, while the exponential map is an exact
   contraction and additionally makes det(Phi) match the trapezoid
   quadrature of -gamma_g |Omega|^2 to rounding.

The whole step runs on Python floats: plant and filter states, estimates,
regression samples and the estimator's matrices are lists and tuples of
floats, and the scenario closures take and return components (see
plants).  Each stage of the step is one smallmat kernel, which `World` and
the estimators bind once to the run's lengths (plant state, estimate,
regressor, filter channels, substeps) after checking that the scenario's
closures return those lengths.  Each keeps one fixed operation order,
with sums taken left to right, so a step calls no numpy and its numbers
do not depend on the BLAS build.  The excitation
record's eigenvalue is taken on floats for a 2x2 Gram (ph) and by numpy's
eigvalsh for the circuit's 3x3 one, the one place a run that does not
abort imports numpy.  The report's vectors are tuples of floats
(`Vector`), and arrays are built only for the ndarray views that callers
read (`World.x`, `ExcitationRecord.gram`, `SubGrid.tobytes`, the
generators' `state`, `GplusDEstimator.Phi`), with numpy imported there.
The run loop keeps its power-balance residuals, settling times and final
errors as running reductions, and its trace rows go to the caller's sink,
so a run needs a fixed amount of memory.

Everything is deterministic: identical configurations produce bit-identical
traces.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .estimator import GplusDEstimator, GradientEstimator
from .plants import Scenario
from .regressor import PbepGenerator, RegressorSample, StdLreGenerator
from .smallmat import (all_finite, axpy, columns, correction_rk4, dot,
                       flat_floats, hermite_mid, ieee_div, lag_rk4, midpoint,
                       min_eig_symmetric, outer_add, plant_rk4,
                       scaled_diff_rows, sub)


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


class ConfigValueError(ValueError):
    """A run setting SimConfig rejects; `key` names the setting."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"{key} {problem}")
        self.key = key
        self.problem = problem


@dataclass(kw_only=True)
class SimConfig:
    """Run settings, validated on construction and by dataclasses.replace.

    Fields left at None take the scenario's default in `resolved`.  Vector
    fields are stored as tuples of floats.
    """

    estimator: EstimatorKind = EstimatorKind.GPLUSD_PBEP
    controller: ControllerKind = ControllerKind.ADAPTIVE
    gamma_g: float = 100.0
    gamma: float = 50.0
    lam: float = 10.0
    t_end: float = 20.0
    h: float = 1e-3
    decimation: int = 10
    substeps: Optional[int] = None             # scenario default when None
    c_c: float = 1e-3
    x0: Optional[tuple] = None                 # scenario default when None
    theta_hat0: Optional[tuple] = None         # scenario default when None
    theta_g0: Optional[tuple] = None           # zeros when None
    overparam_hat0: Optional[tuple] = None     # estimator default when None

    def __post_init__(self):
        for key, kind in (("estimator", EstimatorKind),
                          ("controller", ControllerKind)):
            value = getattr(self, key)
            try:
                setattr(self, key, kind(value.lower() if isinstance(value, str)
                                        else value))
            except ValueError:
                raise ConfigValueError(key, f"must be one of "
                                       f"{[k.value for k in kind]}, got "
                                       f"{value!r}") from None
        for key in ("gamma_g", "gamma", "lam", "h", "c_c", "t_end"):
            value = float(getattr(self, key))
            if not math.isfinite(value):
                raise ConfigValueError(key, f"must be finite, got {value!r}")
            if key != "t_end" and value <= 0:
                raise ConfigValueError(key, f"must be positive, got {value!r}")
            setattr(self, key, value)
        for key in ("x0", "theta_hat0", "theta_g0", "overparam_hat0"):
            value = getattr(self, key)
            if value is not None:
                value = flat_floats(value)
                if not all(map(math.isfinite, value)):
                    raise ConfigValueError(key, f"must be finite, got {value!r}")
                setattr(self, key, value)
        if self.t_end <= self.h:
            raise ConfigValueError("t_end", f"must exceed h, got t_end="
                                   f"{self.t_end!r} h={self.h!r}")
        for key in ("decimation", "substeps"):
            value = getattr(self, key)
            count = isinstance(value, int) and not isinstance(value, bool)
            if not (count and value >= 1 or key == "substeps" and value is None):
                raise ConfigValueError(key, f"must be an integer >= 1, got "
                                       f"{value!r}")
        # plant substeps are counted with an index
        steps = self.t_end / self.h
        if not steps * (self.substeps or 1) < sys.maxsize:
            raise ConfigValueError("t_end", f"/ h gives more steps than an "
                                   f"index holds: t_end={self.t_end!r} "
                                   f"h={self.h!r}")
        # a run takes whole steps; t_end / h may miss a whole number by
        # the rounding of the division
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigValueError("t_end", f"must be a whole multiple of h, "
                                   f"got t_end={self.t_end!r} h={self.h!r} "
                                   f"({steps!r} steps)")

    def resolved(self, scenario: Scenario) -> SimConfig:
        """A copy with the scenario's defaults filled in and the vector
        lengths checked against its dimensions."""
        plant = scenario.plant
        pm = plant.param_map
        kind = self.estimator
        theta_hat0 = (scenario.theta_hat0_default if self.theta_hat0 is None
                      else self.theta_hat0)
        # key -> (components, default, where the default comes from)
        wanted = {"x0": (plant.n, lambda: scenario.x0_default, "x0_default"),
                  "theta_hat0": (pm.q, lambda: theta_hat0,
                                 "theta_hat0_default")}
        if kind is EstimatorKind.GPLUSD_PBEP:
            wanted["theta_g0"] = (pm.p, lambda: (0.0,) * pm.p, "zeros")
        elif kind is EstimatorKind.GRADIENT_STD:
            if plant.std is None:
                raise ConfigValueError("estimator", f"gradient_std needs "
                                       f"standard regression data, which "
                                       f"scenario {scenario.name!r} lacks")
            wanted["overparam_hat0"] = (plant.std.n_w,
                                        lambda: (0.0,) * plant.std.n_w, "zeros")
        elif kind is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            # start at the stacked image of theta_hat0
            wanted["overparam_hat0"] = (pm.p, lambda: pm.G(
                flat_floats(theta_hat0)), "G(theta_hat0)")
        values = {}
        for key, (size, default, source) in wanted.items():
            value = getattr(self, key)
            given = value is not None
            if not given:
                value = default()
            n = len(flat_floats(value))
            if n != size:
                raise ConfigValueError(key, f"needs {size} components, got "
                                       f"{n}" + ("" if given else
                                                 f" from its default {source}"))
            values[key] = value
        return replace(self, substeps=(scenario.substeps if self.substeps is None
                                       else self.substeps), **values)


class ExcitationRecord:
    """Running Gram integral of the regressor on a uniform sampling grid.

    Regressor samples are pushed once per grid point; the composite
    trapezoid Gram up to the latest push is

        gram = h * sum_i Omega_i Omega_i' - h/2 * (first + latest outer)

    `push` adds each regressor's outer product to the unit-weight sum on
    Python floats, one regressor column after another and in push order,
    so the Gram at a grid point does not depend on how often it is read
    (the trace decimation).  The Gram is built as rows of floats: the
    (i, j) and (j, i) products are the same float, so it is exactly
    symmetric, and `min_eig` hands the rows to `min_eig_symmetric` as
    they are.  `record` also keeps `t_c`, the first recorded time at which
    the minimum eigenvalue reached `threshold` (None until then), so the
    record needs a fixed amount of memory however long the run.
    """

    def __init__(self, p: int, h: float, threshold: float):
        self.p = int(p)
        self.h = float(h)
        self.threshold = float(threshold)
        self.t_c: Optional[float] = None
        self._outer_add = outer_add(self.p)
        self._trapezoid = scaled_diff_rows(self.p)
        self._sum = [0.0] * (self.p * self.p)   # row-major
        self._first = None   # outer product of the first regressor
        self._last = None    # columns of the latest regressor
        self._columns = None  # columns kernel, bound at a first matrix push

    def push(self, omega):
        """Record the regressor (a p-sequence or a (p, n) array) at the
        next grid point."""
        om = omega if isinstance(omega, (tuple, list)) else omega.tolist()
        if isinstance(om[0], (list, tuple)):
            if self._columns is None:
                self._columns = columns(len(om), len(om[0]))
            cols = self._columns(om)
        else:
            cols = [om]
        if self._first is None:
            self._first = self._add_outers([0.0] * len(self._sum), cols)
        self._last = cols
        self._sum = self._add_outers(self._sum, cols)

    def _add_outers(self, s: list, cols) -> list:
        """s + sum of c c' over the columns c, row-major, added one column
        at a time."""
        for c in cols:
            s = self._outer_add(s, c)
        return s

    def _gram_rows(self) -> list:
        """The trapezoid Gram as p rows of floats."""
        p = self.p
        if self._first is None:
            return [[0.0] * p for _ in range(p)]
        ends = self._add_outers(self._first, self._last)
        return self._trapezoid(self.h, self._sum, 0.5 * self.h, ends)

    @property
    def gram(self):
        """The trapezoid Gram as a (p, p) ndarray."""
        import numpy as np
        return np.array(self._gram_rows())

    @property
    def q_trap(self) -> float:
        """Trapezoid integral of |Omega|^2 (Frobenius norm squared): the
        Gram's diagonal summed from 0.0 left to right, as ndarray.trace
        adds it (so a -0.0 diagonal sums to 0.0)."""
        acc = 0.0
        for i, row in enumerate(self._gram_rows()):
            acc += row[i]
        return acc

    def min_eig(self) -> float:
        """Smallest eigenvalue of the Gram; nan once it has overflowed."""
        try:
            return min_eig_symmetric(self._gram_rows())
        except ValueError:
            return math.nan

    def record(self, t: float) -> float:
        """The Gram's minimum eigenvalue at grid time t, noting t as `t_c`
        if it is the first to reach the threshold."""
        m = self.min_eig()
        if self.t_c is None and m >= self.threshold:
            self.t_c = t
        return m


def excitation_report(record: ExcitationRecord) -> tuple[bool, Optional[float]]:
    """(is_IE, t_c): whether the recorded Gram minimum eigenvalue ever
    reached the record's threshold, and the first recorded time it did."""
    return record.t_c is not None, record.t_c


class Vector(tuple):
    """A report's vector: a tuple of floats whose `-` is element-wise, as
    it was for the arrays the report held before.

    `a - b` with a tuple b of the same length is the Vector of the
    differences; with an ndarray b it is numpy's difference.  Every other
    operator is a tuple's.
    """

    @staticmethod
    def _diff(a, b):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            return NotImplemented
        if len(a) != len(b):
            raise ValueError(f"cannot subtract vectors of lengths {len(a)} "
                             f"and {len(b)}")
        return Vector(u - v for u, v in zip(a, b))

    def __sub__(self, other):
        return self._diff(self, other)

    def __rsub__(self, other):
        return self._diff(other, self)


@dataclass
class RunReport:
    scenario: str
    estimator: str
    controller: str
    t_end: float
    h: float
    substeps: int
    decimation: int
    x0: Vector
    theta_hat0: Vector
    c_c: float = 1e-3
    x_final: Vector = field(default_factory=Vector)
    theta_hat_final: Vector = field(default_factory=Vector)
    overparam_hat_final: Optional[Vector] = None
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


class SubGrid(list):
    """A step's plant states on its sub-grid: one list of floats per substep.

    `tobytes` packs the rows as the (substeps, n) float64 array would hold
    them, so a grid can be compared exactly without the step building
    arrays.
    """

    def tobytes(self) -> bytes:
        import numpy as np
        return np.array(self, dtype=float).tobytes()


class World:
    """Mutable closed-loop state: plant, filters, estimator, diagnostics.

    The plant state `plant_state` and the estimate `theta_hat` are lists of
    floats; `x` reads the plant state as an ndarray, built on access.  Replace these lists
    (and the generator's state) instead of changing them in place: a step
    reuses the previous step's end sample while they are the same objects.
    """

    def __init__(self, scenario: Scenario, cfg: SimConfig):
        cfg = cfg.resolved(scenario)
        self.scenario = scenario
        self.cfg = cfg
        plant = scenario.plant
        self.t = 0.0
        self.plant_state = list(cfg.x0)
        self.theta_hat = list(cfg.theta_hat0)
        self.substeps = cfg.substeps
        # half-substep grid points as fractions of the outer step (those of
        # the interpolated estimates) and as time offsets from the start
        fracs = [j / (2.0 * self.substeps)
                 for j in range(2 * self.substeps + 1)]
        self._fracs, self._dts = fracs[:-1], [f * cfg.h for f in fracs]
        # (x, theta_hat, filter state, t, inputs, sample) at the end of the
        # last step, the next step's start sample while those are unchanged
        self._end_sample = None

        # control law and closed-loop rate resolved once
        beta = scenario.controller.beta
        closed_rate = scenario.closed_rate
        fast_rate = scenario.fast_rate
        if cfg.controller is ControllerKind.OPEN_LOOP:
            self.control = lambda x, th, t: 0.0
            self.plant_rate = lambda x, th, t: fast_rate(x, 0.0, t)
        elif cfg.controller is ControllerKind.KNOWN_PARAMETER:
            theta_true = list(plant.theta_true)
            self.control = lambda x, th, t: beta(x, theta_true, t)
            self.plant_rate = lambda x, th, t: closed_rate(x, theta_true, t)
        else:
            self.control = beta
            self.plant_rate = closed_rate

        kind = cfg.estimator
        self.generator = None
        self.estimator = None
        self.excitation = None
        x = self.plant_state
        u0 = self.control(x, self.theta_hat, 0.0)
        up0, yp0 = scenario.ports(x, u0, 0.0)
        # the step's kernels are unrolled to these lengths, and would read
        # past a short closure value or ignore the rest of a long one
        # (fast_rate(x, u0, 0) is the start rate under every controller)
        for closure, value, dim in (("fast_rate", fast_rate(x, u0, 0.0), "n"),
                                    ("ports u_p", up0, "n_p"),
                                    ("ports y_p", yp0, "n_p")):
            if len(value) != getattr(plant, dim):
                raise ValueError(f"{closure} returns {len(value)} components "
                                 f"at the start state, but the plant has "
                                 f"{dim} = {getattr(plant, dim)}")
        if kind in (EstimatorKind.GPLUSD_PBEP, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
            self.generator = PbepGenerator(plant.nlpre, plant.param_map,
                                           cfg.lam, x, up0, yp0)
            self.excitation = ExcitationRecord(plant.param_map.p, cfg.h, cfg.c_c)
        elif kind is EstimatorKind.GRADIENT_STD:
            self.generator = StdLreGenerator(plant.std, cfg.lam, x, up0)
            self.excitation = ExcitationRecord(plant.std.n_w, cfg.h, cfg.c_c)
        if kind is EstimatorKind.GPLUSD_PBEP:
            self.estimator = GplusDEstimator(
                plant.param_map, cfg.gamma_g, cfg.gamma,
                theta_g0=cfg.theta_g0, theta0=self.theta_hat)
        elif kind is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            self.estimator = GradientEstimator(plant.param_map.p, cfg.gamma,
                                               Theta0=cfg.overparam_hat0)
        elif kind is EstimatorKind.GRADIENT_STD:
            self.estimator = GradientEstimator(plant.std.n_w, cfg.gamma,
                                               Theta0=cfg.overparam_hat0)
        if kind in (EstimatorKind.GRADIENT_STD, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
            self.theta_hat = self.extract_theta()

        # the step's stage kernels, unrolled to this run's lengths (smallmat)
        n, q, nsub = plant.n, plant.param_map.q, self.substeps
        self._plant_rk4 = plant_rk4(n, nsub)
        self._midpoint_x, self._hermite_x = midpoint(n), hermite_mid(n)
        self._axpy_th, self._sub_th = axpy(q), sub(q)
        if kind is EstimatorKind.GPLUSD_PBEP:
            self._correction_rk4 = correction_rk4(q, plant.param_map.p)
        if self.generator is not None:
            self._lag_rk4 = lag_rk4(self.generator.n_channels)

    @property
    def x(self):
        import numpy as np
        return np.array(self.plant_state)

    def extract_theta(self) -> list:
        kind = self.cfg.estimator
        if kind is EstimatorKind.GPLUSD_PBEP:
            return self.estimator.theta
        if kind is EstimatorKind.GRADIENT_PBEP_OVERPARAM:
            return list(self.scenario.theta_from_overparam(self.estimator.Theta))
        if kind is EstimatorKind.GRADIENT_STD:
            return list(self.scenario.plant.std.theta_from_C(self.estimator.Theta))
        return self.theta_hat

    def assemble_inputs(self, x, t, theta_hat) -> list:
        """Generator channel inputs at (x, t) under the current estimate."""
        u = self.control(x, theta_hat, t)
        up, yp = self.scenario.ports(x, u, t)
        if isinstance(self.generator, PbepGenerator):
            return self.generator.inputs(x, up, yp)
        return self.generator.inputs(x, up)

    def check_finite(self):
        state = self.generator.bank.state if self.generator is not None else ()
        for part, component in ((self.plant_state, "plant state"),
                                (state, "filter state"),
                                (self.theta_hat, "parameter estimate")):
            if not all(map(math.isfinite, part)):
                raise NonFiniteStateError(self.t, component)


def _finite_samples(*samples: RegressorSample) -> bool:
    return all(all_finite(s.Omega) and all_finite(s.Y) for s in samples)


def step(world: World) -> tuple[SubGrid, Optional[RegressorSample],
                                Optional[RegressorSample]]:
    """Advance the world by one outer step.

    Returns the plant states on the sub-integration grid (one list of
    floats per substep, ending with the new state) and the regression
    samples at the step's start and end (None without a regressor).
    """
    cfg = world.cfg
    plant_rate = world.plant_rate
    h = cfg.h
    t = world.t
    x = world.plant_state
    th = world.theta_hat
    kind = cfg.estimator
    est = world.estimator
    gen = world.generator

    # regression sample at the step start
    sample0 = i0 = None
    if gen is not None:
        end = world._end_sample
        if end is not None and end[0] is x and end[1] is th \
                and end[2] is gen.bank.state and end[3] == t:
            i0, sample0 = end[4], end[5]
        else:
            i0 = world.assemble_inputs(x, t, th)
            sample0 = gen.sample_from(t, i0)

    # the correction flow theta_dot = gamma * P T * Delta * (Ycal - Delta *
    # G(theta)) with the mixing pair frozen at the step start, interpolated
    # for the plant; gradient estimates update after the plant move instead
    nsub = world.substeps
    if kind is EstimatorKind.GPLUSD_PBEP:
        delta, ycal = est.mix()
        ths = world._correction_rk4(est.param_map.G, est._PT, est.gamma,
                                    delta, ycal, th, h, world._fracs)
        th_new = ths[-1]
    else:
        th_new = th
        ths = [th] * (2 * nsub + 1)
    xs = SubGrid(world._plant_rk4(plant_rate, x, ths, t, world._dts, h))
    xc = xs[-1]

    sample1 = None
    if gen is not None:
        # midpoint plant state for the filter stages
        th_mid = ths[nsub]
        if nsub == 1:
            # cubic-Hermite midpoint from endpoint values and rates
            r0 = plant_rate(x, th, t)
            r1 = plant_rate(xc, th_new, t + h)
            x_mid = world._hermite_x(x, xc, h / 8.0, r0, r1)
        elif nsub % 2 == 0:
            x_mid = xs[nsub // 2 - 1]
        else:
            x_mid = world._midpoint_x(xs[nsub // 2 - 1], xs[nsub // 2])
        tm, t1 = t + 0.5 * h, t + h
        im = world.assemble_inputs(x_mid, tm, th_mid)
        i1 = world.assemble_inputs(xc, t1, th_new)
        gen.bank.state = world._lag_rk4(cfg.lam, i0, im, i1, gen.bank.state, h)
        sample1 = gen.sample_from(t1, i1)
        if est is not None:
            if t == 0.0 and not _finite_samples(sample0, sample1):
                # the estimator refuses a non-finite first pair; end the run
                # the way a later step's non-finite samples end it
                world.plant_state, world.t = xc, t + h
                world.check_finite()
                raise NonFiniteStateError(world.t, "regression sample")
            est.propagate(sample0, sample1, h)

    world.plant_state = xc
    world.t = t + h
    if kind in (EstimatorKind.GRADIENT_STD, EstimatorKind.GRADIENT_PBEP_OVERPARAM):
        world.theta_hat = world.extract_theta()
    else:
        if kind is EstimatorKind.GPLUSD_PBEP:
            est.theta = th_new
        world.theta_hat = th_new
    if gen is not None:
        world._end_sample = (xc, th_new, gen.bank.state, world.t, i1, sample1)
    return xs, sample0, sample1


class _Settling:
    """Streaming settling time of an error sampled on the outer grid: the
    first time after which it stays within `band`."""

    def __init__(self, band: float):
        self.band = band
        self.last_bad = -1      # last sample index with error > band
        self.k = -1
        self.value = math.nan   # latest error

    def push(self, err: float):
        self.k += 1
        self.value = err
        if err > self.band:
            self.last_bad = self.k

    def time(self, h: float) -> Optional[float]:
        """0.0 if never outside the band, None if still outside at the end."""
        if self.last_bad < 0:
            return 0.0
        if self.last_bad == self.k:
            return None
        return float((self.last_bad + 1) * h)


def run(scenario: Scenario, cfg: SimConfig, trace=None) -> RunReport:
    """Execute a closed-loop run to t_end and summarize it.

    `trace` is an optional sink with header(columns) and row(values)
    methods; rows are written every cfg.decimation steps plus the final
    step.  Without a sink no row is built, but the excitation record is
    still sampled and `trace_rows` still counted at the row times.  If the
    state leaves the finite range the run stops there and the report has
    `aborted` set, with the abort time and component, the steps taken, the
    state and estimate reached and the rows written.  The run keeps a
    fixed amount of state: its residuals, settling times and final errors
    are running reductions.
    """
    world = World(scenario, cfg)
    plant = scenario.plant
    theta_true = list(plant.theta_true)
    h = cfg.h
    n_steps = int(round(cfg.t_end / h))
    q = plant.param_map.q
    kind = cfg.estimator
    gd = kind is EstimatorKind.GPLUSD_PBEP
    gradient = kind in (EstimatorKind.GRADIENT_STD,
                        EstimatorKind.GRADIENT_PBEP_OVERPARAM)
    energy = scenario.energy
    control = world.control
    reg_metric = scenario.regulation_error
    nsub = world.substeps
    # centered differences of the storage: sub-grid and outer-grid spans
    span_sub = 2.0 * (h / nsub)
    span_outer = 2.0 * h
    x0 = list(world.plant_state)

    report = RunReport(
        scenario=scenario.name, estimator=kind.value,
        controller=cfg.controller.value, t_end=cfg.t_end, h=h,
        substeps=nsub, decimation=cfg.decimation,
        x0=Vector(world.plant_state), theta_hat0=Vector(world.theta_hat),
        c_c=cfg.c_c,
    )

    if trace is not None:
        cols = (["t"] + [f"x{i + 1}" for i in range(plant.n)] + ["u"]
                + [f"yp{i + 1}" for i in range(plant.n_p)]
                + [f"theta_hat{i + 1}" for i in range(q)])
        if gradient:
            cols += [f"overparam_hat{i + 1}" for i in range(world.estimator.n_w)]
        cols += ["delta", "det_phi", "gram_min_eig", "power_residual"]
        trace.header(cols)

    n_theta = math.sqrt(dot(theta_true, theta_true))
    energy_uses_u = scenario.energy_uses_u

    sub_th, axpy_th = world._sub_th, world._axpy_th

    def param_dist(th_hat) -> float:
        if not n_theta > 0:
            return math.nan
        d = sub_th(th_hat, theta_true)
        return math.sqrt(dot(d, d)) / n_theta

    def emit_row(k: int, residual: float):
        t = k * h
        # the excitation record feeds is_ie and t_c
        mineig = world.excitation.record(t) if world.excitation is not None else 0.0
        report.trace_rows += 1
        if trace is None:
            return
        x = world.plant_state
        th = world.theta_hat
        u = control(x, th, t)
        _, yp = scenario.ports(x, u, t)
        vals = [t, *x, u, *yp, *th]
        if gradient:
            vals += world.estimator.Theta
        if gd:
            delta, _ = world.estimator.mix()
            vals += [delta, world.estimator.det_phi()]
        else:
            vals += [0.0, 1.0]
        vals += [mineig, residual]
        trace.row(vals)

    # storage S and net flow at the latest points of each grid, with the S
    # two points back once it exists; residual maxima start at 0 (every
    # residual is an absolute value) and turn nan if any residual is nan
    s_now, flow_now = energy(x0, control(x0, world.theta_hat, 0.0))
    s_back = outer_back = None
    outer_now, outer_flow = s_now, flow_now
    res_sub = max_sub = max_outer = 0.0
    param = _Settling(report.param_band)
    regulation = _Settling(report.regulation_band)
    param.push(param_dist(world.theta_hat))
    regulation.push(reg_metric(x0, x0))

    t_start = time.perf_counter()
    emit_row(0, res_sub)
    try:
        for k in range(1, n_steps + 1):
            th_prev = world.theta_hat
            xs, sample0, sample1 = step(world)
            world.check_finite()
            if world.excitation is not None:
                world.excitation.push(sample0.Omega)
                if k == n_steps:
                    world.excitation.push(sample1.Omega)
            tk = world.t
            # the control the plant applied: only the correction flow's
            # estimate moves across the step (see step)
            if energy_uses_u and gd:
                dth = sub_th(world.theta_hat, th_prev)
            for j, xsub in enumerate(xs):
                if energy_uses_u:
                    frac = (j + 1) / nsub
                    th_sub = axpy_th(th_prev, frac, dth) if gd else th_prev
                    usub = control(xsub, th_sub, tk - h + frac * h)
                else:
                    usub = 0.0
                s_new, flow_new = energy(xsub, usub)
                if s_back is not None:
                    # h / substeps underflows to 0 for a subnormal h
                    res_sub = abs(ieee_div(s_new - s_back, span_sub) - flow_now)
                    if res_sub > max_sub or res_sub != res_sub:
                        max_sub = res_sub
                s_back, s_now, flow_now = s_now, s_new, flow_new
            if outer_back is not None:
                res = abs((s_now - outer_back) / span_outer - outer_flow)
                if res > max_outer or res != res:
                    max_outer = res
            outer_back, outer_now, outer_flow = outer_now, s_now, flow_now
            param.push(param_dist(world.theta_hat))
            regulation.push(reg_metric(world.plant_state, x0))
            if k % cfg.decimation == 0 or k == n_steps:
                emit_row(k, res_sub)
    except NonFiniteStateError as err:
        report.aborted = True
        report.abort_time = err.t
        report.abort_component = err.component
        report.wall_seconds = time.perf_counter() - t_start
        report.n_steps = int(round(world.t / h))
        report.x_final = Vector(world.plant_state)
        report.theta_hat_final = Vector(world.theta_hat)
        return report

    report.wall_seconds = time.perf_counter() - t_start
    report.n_steps = n_steps
    report.x_final = Vector(world.plant_state)
    report.theta_hat_final = Vector(world.theta_hat)
    if gradient:
        report.overparam_hat_final = Vector(world.estimator.Theta)
    if n_theta > 0:
        report.theta_err_rel_final = param.value
        report.settling_time_param = param.time(h)
    report.regulation_error_final = float(regulation.value)
    report.settling_time_regulation = regulation.time(h)
    if n_steps * nsub > 1:
        report.max_power_residual = float(max_sub)
    if n_steps > 1:
        report.max_power_residual_outer = float(max_outer)

    if world.excitation is not None:
        report.gram_min_eig_final = world.excitation.min_eig()
        report.is_ie, report.t_c = excitation_report(world.excitation)
    if gd:
        est = world.estimator
        report.abel_gap = abs(est.log_det_phi
                              + cfg.gamma_g * world.excitation.q_trap)
        delta, _ = est.mix()
        report.delta_final = delta
        report.det_phi_final = est.det_phi()
    return report
