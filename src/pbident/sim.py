"""Fixed-step closed-loop simulation of plant, filters and estimator.

The outer step h is the sampling grid: regression samples are produced at
every outer step and consumed synchronously by the estimator, and traces,
quadratures and diagnostics all live on that grid.  Inside one outer step
the work is layered so every piece stays in its stability region at
realistic gains:

1. The interlaced estimator's `correct` advances theta_hat along the
   correction flow by one classical RK4 step, the mixing pair (Delta,
   Ycal) frozen at the step start (the flow contracts at gamma * Delta^2).
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
closures return those lengths; `run` binds its bookkeeping's kernels the
same way (`power_residuals`, `finite_k`, `dist_k`, `trace_row`), and the
excitation record its `outer_add` and `gram_trapezoid` at the first push.
Each keeps one fixed operation order, with sums taken left to right, so a
step calls no numpy and its numbers do not depend on the BLAS build.  The
excitation record's eigenvalue is taken on floats for a 2x2 Gram (ph) and
by numpy's eigvalsh for the circuit's 3x3 one, the one place a run on the
shipped plants imports numpy.  The report's vectors are tuples of floats,
and the state is read as the lists the engine keeps
(`World.plant_state`, `ExcitationRecord.gram_rows`, the generators'
`bank.state`, `GplusDEstimator.phi`); floats are its only representation.
The run loop keeps its power-balance residuals, settling times and final
errors as running reductions in locals, and its trace rows go to the
caller's sink, so a run needs a fixed amount of memory; only once
`finite_k` fails does `World.check_finite` run, to name the component.

Everything is deterministic: identical configurations produce bit-identical
traces.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .estimator import GplusDEstimator, GradientEstimator
from .plants import Scenario
from .regressor import PbepGenerator, RegressorSample, StdLreGenerator
from .smallmat import (all_finite, check_lengths, cofactors, dist_k, dot,
                       finite_k, flat_floats, gram_trapezoid, lag_rk4,
                       min_eig_symmetric, outer_add, plant_mid, plant_rk4,
                       power_residuals, trace_row)


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
            std = plant.std
            if std is None or std.theta_from_C is None:
                need = "" if std is None else " with theta_from_C"
                raise ConfigValueError("estimator", f"gradient_std needs "
                                       f"standard regression data{need}, which "
                                       f"scenario {scenario.name!r} lacks")
            wanted["overparam_hat0"] = (std.n_w, lambda: (0.0,) * std.n_w,
                                        "zeros")
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

    `push` adds each regressor's outer products to the unit-weight sum on
    Python floats, one regressor column after another and in push order,
    so the Gram at a grid point does not depend on how often it is read
    (the trace decimation).  `gram_trapezoid` adds the end terms as it
    builds the Gram's rows, exactly symmetric as the (i, j) and (j, i)
    products are one float, which `min_eig` hands to `min_eig_symmetric`.
    `record` also keeps `t_c`, the first recorded time at which the
    minimum eigenvalue reached `threshold` (None until then), so the
    record needs a fixed amount of memory however long the run.
    """

    def __init__(self, p: int, h: float, threshold: float):
        self.p = int(p)
        self.h = float(h)
        self.threshold = float(threshold)
        self.t_c: Optional[float] = None
        self._sum = [0.0] * (self.p * self.p)   # row-major
        self._first = None   # the first regressor's outer products
        self._last = None    # the latest regressor
        self._add = self._trapezoid = None   # kernels, bound at the first push

    def push(self, omega):
        """Record the regressor (a p-sequence, or p rows of n whose columns
        each add an outer product) at the next grid point; it is kept as
        the latest, so the caller replaces it instead of changing it."""
        if self._add is None:
            m = len(omega[0]) if hasattr(omega[0], "__len__") else 0
            self._add = outer_add(self.p, m)
            self._trapezoid = gram_trapezoid(self.p, m)
            self._first = self._add(self._sum, omega)
        self._last = omega
        self._sum = self._add(self._sum, omega)

    def gram_rows(self) -> list:
        """The trapezoid Gram as p rows of floats."""
        p = self.p
        if self._first is None:
            return [[0.0] * p for _ in range(p)]
        return self._trapezoid(self.h, self._sum, 0.5 * self.h, self._first,
                               self._last)

    @property
    def q_trap(self) -> float:
        """Trapezoid integral of |Omega|^2 (Frobenius norm squared): the
        Gram's diagonal summed from 0.0 left to right, as ndarray.trace
        adds it (so a -0.0 diagonal sums to 0.0)."""
        acc = 0.0
        for i, row in enumerate(self.gram_rows()):
            acc += row[i]
        return acc

    def min_eig(self) -> float:
        """Smallest eigenvalue of the Gram; nan once it has overflowed."""
        try:
            return min_eig_symmetric(self.gram_rows())
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


@dataclass
class RunReport:
    scenario: str
    estimator: str
    controller: str
    t_end: float
    h: float
    substeps: int
    decimation: int
    x0: tuple
    theta_hat0: tuple
    c_c: float = 1e-3
    x_final: tuple = ()
    theta_hat_final: tuple = ()
    overparam_hat_final: Optional[tuple] = None
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


class World:
    """Mutable closed-loop state: plant, filters, estimator, diagnostics.

    The plant state `plant_state` and the estimate `theta_hat`, the run's
    only copy of it, are lists of floats.  Replace these lists (and the
    generator's bank state) instead of changing them in place: a step
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

        # the estimator kind, resolved once: the correction flow moves an
        # interlaced estimate, `theta_of` maps a gradient one to theta
        kind, pm = cfg.estimator, plant.param_map
        self.interlaced = kind is EstimatorKind.GPLUSD_PBEP
        self.generator = self.estimator = self.excitation = self.theta_of = None
        x = self.plant_state
        u0 = self.control(x, self.theta_hat, 0.0)
        up0, yp0 = scenario.ports(x, u0, 0.0)
        # the step's kernels, unrolled to these lengths, would read past a
        # short value or ignore the rest of a long one (fast_rate(x, u0, 0)
        # is the start rate under every controller; `correct` reads p of G)
        at = "components at the start state"
        checks = [
            ("fast_rate", fast_rate(x, u0, 0.0), at, "the plant has n", plant.n),
            ("ports u_p", up0, at, "the plant has n_p", plant.n_p),
            ("ports y_p", yp0, at, "the plant has n_p", plant.n_p)]
        if self.interlaced:
            checks.append(("G", pm.G(self.theta_hat), "values",
                           "the parameter map has p", pm.p))
        check_lengths(checks)
        if kind is not EstimatorKind.NONE:
            std = kind is EstimatorKind.GRADIENT_STD
            rows = plant.std.n_w if std else pm.p
            self.generator = (StdLreGenerator(plant.std, cfg.lam, x, up0) if std
                              else PbepGenerator(plant.nlpre, pm, cfg.lam, x,
                                                 up0, yp0))
            self.excitation = ExcitationRecord(rows, cfg.h, cfg.c_c)
            inputs, ports, control = \
                self.generator.input_kernel, scenario.ports, self.control

            def inputs_at(x, th, t):
                up, yp = ports(x, control(x, th, t), t)
                return inputs(x, up, yp)
            self.inputs_at = inputs_at
            self._lag_rk4 = lag_rk4(self.generator.n_channels)
            if self.interlaced:
                self.estimator = GplusDEstimator(pm, cfg.gamma_g, cfg.gamma,
                                                 theta_g0=cfg.theta_g0)
            else:
                self.estimator = GradientEstimator(rows, cfg.gamma,
                                                   Theta0=cfg.overparam_hat0)
                self.theta_of = plant.std.theta_from_C if std else \
                    scenario.theta_from_overparam
                self.theta_hat = self.extract_theta()

        # the step's stage kernels, unrolled to this run's lengths (smallmat)
        n = plant.n
        self._plant_rk4 = plant_rk4(n, self.substeps)
        self._plant_mid = plant_mid(n, self.substeps)

    def extract_theta(self) -> list:
        """The physical parameters of a gradient estimator's estimate."""
        return list(self.theta_of(self.estimator.Theta))

    def assemble_inputs(self, x, t, theta_hat) -> list:
        """Generator channel inputs at (x, t) under an estimate (`inputs_at`)."""
        return self.inputs_at(x, theta_hat, t)

    def check_finite(self):
        state = self.generator.bank.state if self.generator is not None else ()
        for part, component in ((self.plant_state, "plant state"),
                                (state, "filter state"),
                                (self.theta_hat, "parameter estimate")):
            if not all(map(math.isfinite, part)):
                raise NonFiniteStateError(self.t, component)


def step(world: World) -> tuple[list, Optional[RegressorSample],
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
            i0 = world.inputs_at(x, th, t)
            sample0 = gen.sample_from(t, i0)

    # the correction flow's estimates, interpolated for the plant; gradient
    # estimates update after the plant move instead
    nsub = world.substeps
    ths = est.correct(th, h, world._fracs) if world.interlaced else \
        [th] * (2 * nsub + 1)
    th_new = ths[-1]
    xs = world._plant_rk4(plant_rate, x, ths, t, world._dts, h)
    xc = xs[-1]

    sample1 = None
    if gen is not None:
        # midpoint plant state for the filter stages
        x_mid = world._plant_mid(plant_rate, x, xs, th, th_new, t, h)
        tm, t1 = t + 0.5 * h, t + h
        im = world.inputs_at(x_mid, ths[nsub], tm)
        i1 = world.inputs_at(xc, th_new, t1)
        gen.bank.state = world._lag_rk4(cfg.lam, i0, im, i1, gen.bank.state, h)
        sample1 = gen.sample_from(t1, i1)
        if t == 0.0 and not all(all_finite(s.Omega) and all_finite(s.Y)
                                for s in (sample0, sample1)):
            # the estimator refuses a non-finite first pair; end the run
            # the way a later step's non-finite samples end it
            world.plant_state, world.t = xc, t + h
            world.check_finite()
            raise NonFiniteStateError(world.t, "regression sample")
        est.propagate(sample0, sample1, h)

    world.plant_state = xc
    world.t = t + h
    world.theta_hat = th_new if world.theta_of is None else \
        world.extract_theta()
    if gen is not None:
        world._end_sample = (xc, th_new, gen.bank.state, world.t, i1, sample1)
    return xs, sample0, sample1


def run(scenario: Scenario, cfg: SimConfig, trace=None) -> RunReport:
    """Execute a closed-loop run to t_end and summarize it.

    `trace` is an optional sink with header(columns) and row(values)
    methods; rows are written every cfg.decimation steps plus the final
    step.  Without a sink no row is built, but the excitation record is
    still sampled and `trace_rows` still counted at the row times.  If the
    state leaves the finite range the run stops there and the report has
    `aborted` set, with the abort time and component, the steps taken, the
    state and estimate reached and the rows written.
    """
    world = World(scenario, cfg)
    plant = scenario.plant
    theta_true, h = plant.theta_true, cfg.h
    n_steps = int(round(cfg.t_end / h))
    n, q, decimation = plant.n, plant.param_map.q, cfg.decimation
    gd, gradient = world.interlaced, world.theta_of is not None
    est, gen, excitation = world.estimator, world.generator, world.excitation
    control, reg_metric = world.control, scenario.regulation_error
    nsub = world.substeps
    x0 = list(world.plant_state)

    report = RunReport(scenario=scenario.name, estimator=cfg.estimator.value,
                       controller=cfg.controller.value, t_end=cfg.t_end, h=h,
                       substeps=nsub, decimation=decimation, c_c=cfg.c_c,
                       x0=tuple(x0), theta_hat0=tuple(world.theta_hat))

    if trace is not None:
        row = trace_row(n, plant.n_p, q, est.n_w if gradient else 0, gd)(
            control, scenario.ports, est,
            cofactors(plant.param_map.p, False) if gd else None)
        trace.header(row.columns)
        write = trace.row

    # the loop's kernels, bound to this run; h / substeps underflows to 0
    # for a subnormal h, where only ieee_div divides by the sub-grid span
    span_sub, uses_u = 2.0 * (h / nsub), scenario.energy_uses_u
    x, th = world.plant_state, world.theta_hat
    residuals = power_residuals(
        nsub, uses_u, q if uses_u and gd else 0, span_sub != 0.0)(
        scenario.energy, control, h, span_sub, 2.0 * h,
        *scenario.energy(x0, control(x0, th, 0.0)))
    finite, dist = finite_k(n, gen.n_channels if gen else 0, q), dist_k(q)
    n_theta = math.sqrt(dot(theta_true, theta_true))
    p_band, r_band = report.param_band, report.regulation_band

    # settling: the last step whose error was outside its band, or -1
    res_sub = max_sub = max_outer = 0.0
    p_bad, r_bad, p_err, rows = -1, -1, math.nan, 0

    t_start = time.perf_counter()
    try:
        for k in range(n_steps + 1):
            if k:
                th_prev = th
                xs, sample0, sample1 = step(world)
                x, th = world.plant_state, world.theta_hat
                if not finite(x, gen and gen.bank.state, th):
                    world.check_finite()   # raises, naming the component
                if excitation is not None:
                    excitation.push(sample0.Omega)
                    if k == n_steps:
                        excitation.push(sample1.Omega)
                res_sub, max_sub, max_outer = residuals(xs, th_prev, th,
                                                        world.t)
            if n_theta > 0:
                p_err = dist(th, theta_true) / n_theta
                if p_err > p_band:
                    p_bad = k
            r_err = reg_metric(x, x0)
            if r_err > r_band:
                r_bad = k
            if k % decimation == 0 or k == n_steps:
                t = k * h
                # the excitation record feeds is_ie and t_c
                mineig = 0.0 if excitation is None else excitation.record(t)
                rows += 1
                if trace is not None:
                    write(row(t, x, th, mineig, res_sub))
    except NonFiniteStateError as err:
        report.aborted = True
        report.abort_time, report.abort_component = err.t, err.component
    report.wall_seconds = time.perf_counter() - t_start
    report.n_steps = int(round(world.t / h)) if report.aborted else n_steps
    report.trace_rows = rows
    report.x_final = tuple(world.plant_state)
    report.theta_hat_final = tuple(world.theta_hat)
    if report.aborted:
        return report

    def settling(last_bad: int) -> Optional[float]:
        # 0.0 if never outside the band, None if outside at the end
        return 0.0 if last_bad < 0 else None if last_bad == n_steps \
            else float((last_bad + 1) * h)

    if gradient:
        report.overparam_hat_final = tuple(est.Theta)
    if n_theta > 0:
        report.theta_err_rel_final = p_err
        report.settling_time_param = settling(p_bad)
    report.regulation_error_final = float(r_err)
    report.settling_time_regulation = settling(r_bad)
    if n_steps * nsub > 1:
        report.max_power_residual = float(max_sub)
    if n_steps > 1:
        report.max_power_residual_outer = float(max_outer)

    if excitation is not None:
        report.gram_min_eig_final = excitation.min_eig()
        report.is_ie, report.t_c = excitation_report(excitation)
    if gd:
        report.abel_gap = abs(est.log_det_phi + cfg.gamma_g * excitation.q_trap)
        report.delta_final = est.mix()[0]
        report.det_phi_final = est.det_phi()
    return report
