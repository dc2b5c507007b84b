"""Span tracing of pbident from outside the package.

The tracer replaces public callables of every pbident module with timing
wrappers and restores them afterwards, so nothing under src/ changes.
Three kinds of binding are patched:

* module functions, in every pbident module that binds them by name
  (smallmat's kernels are imported by name into sim, estimator and
  regressor, and sim.run into cli, so each binding is wrapped);
* methods, on their class;
* the per-instance closures of a Scenario (closed_rate, energy, ports,
  controller.beta, param_map.G_direct, ...), on the scenario object.
  Scenarios built inside the CLI are reached through make_scenario, whose
  bindings return instrumented scenarios while tracing is on.

A run makes millions of spans, so spans are folded into per-name totals
as they close instead of being stored: call count, total time and self
time (span duration minus the time covered by its child spans).  Only the
durations of sim.step are kept whole, for its percentiles.  Time in
callables that are not wrapped (the plant's regression signal maps, the
private helpers) counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = ("sim", "plants", "regressor", "filters", "estimator", "smallmat",
          "cli")

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def restore(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


def _module_functions(pb):
    """(span name, function) for module-level callables, rebound by identity."""
    sim, plants, smallmat, cli = pb.sim, pb.plants, pb.smallmat, pb.cli
    return [
        ("sim.run", sim.run),
        ("sim.step", sim.step),
        ("sim.excitation_report", sim.excitation_report),
        ("smallmat.determinant", smallmat.determinant),
        ("smallmat.adjugate", smallmat.adjugate),
        ("smallmat.min_eig_symmetric", smallmat.min_eig_symmetric),
        ("smallmat.symmetric_eigen", smallmat.symmetric_eigen),
        ("cli.main", cli.main),
        ("cli.sweep_command", cli.sweep_command),
        ("cli.run_command", cli.run_command),
        ("cli.parse_config", cli.parse_config),
        ("cli.emit_config", cli.emit_config),
        ("cli.build_scenario", cli.build_scenario),
        ("cli.sim_config", cli.sim_config),
    ]


def _methods(pb):
    """(span name, class, method name)."""
    sim, reg, est, flt, cli = pb.sim, pb.regressor, pb.estimator, pb.filters, pb.cli
    return [
        ("sim.World.__init__", sim.World, "__init__"),
        ("sim.World.assemble_inputs", sim.World, "assemble_inputs"),
        ("sim.World.check_finite", sim.World, "check_finite"),
        ("sim.World.extract_theta", sim.World, "extract_theta"),
        ("sim.ExcitationRecord.push", sim.ExcitationRecord, "push"),
        ("sim.ExcitationRecord.record", sim.ExcitationRecord, "record"),
        ("regressor.inputs", reg.PbepGenerator, "inputs"),
        ("regressor.inputs", reg.StdLreGenerator, "inputs"),
        ("regressor.sample_from", reg.PbepGenerator, "sample_from"),
        ("regressor.sample_from", reg.StdLreGenerator, "sample_from"),
        ("regressor.ParamMap.G", reg.ParamMap, "G"),
        ("regressor.ParamMap.W", reg.ParamMap, "W"),
        ("filters.output", flt.FirstOrderFilterBank, "output"),
        ("filters.rate", flt.FirstOrderFilterBank, "rate"),
        ("estimator.mix", est.GplusDEstimator, "mix"),
        ("estimator.propagate", est.GplusDEstimator, "propagate"),
        ("estimator.propagate", est.GradientEstimator, "propagate"),
        ("estimator.rate", est.GradientEstimator, "rate"),
        ("cli.CsvTraceWriter.__init__", cli.CsvTraceWriter, "__init__"),
        ("cli.CsvTraceWriter.header", cli.CsvTraceWriter, "header"),
        ("cli.CsvTraceWriter.row", cli.CsvTraceWriter, "row"),
        ("cli.CsvTraceWriter.close", cli.CsvTraceWriter, "close"),
    ]


_SCENARIO_CLOSURES = ("fast_rate", "closed_rate", "energy", "ports",
                      "regulation_error", "theta_from_overparam")


class Tracer:
    """Per-name span totals of pbident calls made inside `active()`."""

    def __init__(self, pb):
        self._pb = pb
        self._stack: list[list[int]] = []
        # span name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        # (span name, binding module) -> [calls]
        self.site_calls: dict[tuple[str, str], list[int]] = {}
        self.step_ns: list[int] = []
        self.root_ns = 0
        self._patches = Patches()

    def wrap(self, fn, name: str, site: str):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0, 0])
        site_count = self.site_calls.setdefault((name, site), [0])
        durations = self.step_ns if name == "sim.step" else None
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                site_count[0] += 1
                if durations is not None:
                    durations.append(dt)
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.root_ns += dt

        return traced

    def instrument_scenario(self, scen, site: str = "scenario", setter=None):
        """Wrap the per-instance closures of one Scenario object.

        By default the patches are undone when tracing stops; pass setattr
        as `setter` for scenarios that are discarded after use.
        """
        setter = setter or self._patches.set
        for attr in _SCENARIO_CLOSURES:
            setter(scen, attr, self.wrap(getattr(scen, attr), f"plants.{attr}", site))
        setter(scen.controller, "beta",
               self.wrap(scen.controller.beta, "plants.beta", site))
        pmap = scen.plant.param_map
        if pmap.G_direct is not None:
            setter(pmap, "G_direct", self.wrap(pmap.G_direct, "plants.G_direct", site))
        return scen

    def _install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "pbident" or name.startswith("pbident."))
                   and m is not None]
        make_scenario = self._pb.plants.make_scenario

        def rebind(fn, make_wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.set(mod, attr, make_wrapper(mod.__name__))

        for name, fn in _module_functions(self._pb):
            rebind(fn, lambda site, fn=fn, name=name: self.wrap(fn, name, site))

        def hooked_make_scenario(site):
            traced = self.wrap(make_scenario, "plants.make_scenario", site)

            def make(*args, **kwargs):
                # scenarios built here live for one cell only
                return self.instrument_scenario(traced(*args, **kwargs), site,
                                                setter=setattr)

            return make

        rebind(make_scenario, hooked_make_scenario)
        for name, cls, attr in _methods(self._pb):
            self._patches.set(cls, attr,
                              self.wrap(vars(cls)[attr], name, cls.__module__))

    @contextlib.contextmanager
    def active(self, scenario=None):
        """Trace pbident, and `scenario` when given, inside the block."""
        self._install()
        try:
            if scenario is not None:
                self.instrument_scenario(scenario)
            yield
        finally:
            self._patches.restore()

    # -- read-out -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def calls_at(self, name: str, site: str) -> int:
        return self.site_calls.get((name, site), [0])[0]

    def layer_totals(self, layer: str) -> tuple[int, int]:
        """(calls, self_ns) summed over the layer's spans."""
        calls = self_ns = 0
        for name, (n, _, s) in self.stats.items():
            if name.split(".", 1)[0] == layer:
                calls += n
                self_ns += s
        return calls, self_ns
