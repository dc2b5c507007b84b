"""Self-test of the benchmark's tracer: pinned call counts and clean patching.

    python3 bench/selftest.py

Runs each workload at a reduced size, once untraced and once traced, and
checks that

* call counts, which repeat exactly, match the counts pinned below for the
  parent commit's engine: 16 plants.closed_rate calls per step on the
  circuit (4 RK4 substeps of 4 stages), 6 on ph (one RK4 step plus the two
  rates of the Hermite midpoint), 2 smallmat.symmetric_eigen calls per step
  from the estimator on circuit-gradstd (one per half-step update), and one
  smallmat.min_eig_symmetric call from sim per trace row plus one for the
  final report, which is about 0.1 per step at decimation 10 and about 1
  on ph-sweep at decimation 1;
* traced outputs are bit-identical to untraced ones;
* every patched attribute is restored afterwards.

A change to the engine that alters these counts is expected to fail here;
the counts are then reported as a finding, not a speed-up.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, import_pbident, per_layer
from tracer import Tracer


def snapshot(pb):
    """Identity of every attribute of every pbident module and class."""
    out = {}
    for mod in (pb, pb.sim, pb.plants, pb.regressor, pb.filters, pb.estimator,
                pb.smallmat, pb.cli):
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("pbident"):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = id(member)
    return out


def traced_counts(pb, workload, tmp: Path):
    workload.prepare(tmp / workload.name)
    untraced = workload.unit(contextlib.nullcontext)
    tracer = Tracer(pb)
    traced = workload.unit(tracer.active)
    values, _ = per_layer(tracer, [untraced], [traced])
    return tracer, values, untraced.digest == traced.digest


def main() -> int:
    pb = import_pbident(ROOT)
    before = snapshot(pb)
    failures = []

    def expect(label, got, want):
        ok = got == want
        print(f"{'PASS' if ok else 'FAIL'} {label}: {got!r} (pinned {want!r})")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for name in ("circuit-gplusd", "circuit-gradstd"):
            wl = workloads.LibraryRun(name, seed=0, t_end=0.2)
            tracer, values, same = traced_counts(pb, wl, tmp)
            steps, rows = wl.steps, wl.rows
            expect(f"{name} sim.step calls", tracer.calls("sim.step"), steps)
            expect(f"{name} plants.closed_rate.calls_per_step",
                   values["plants.closed_rate.calls_per_step"], 16.0)
            expect(f"{name} symmetric_eigen calls from estimator",
                   tracer.calls_at("smallmat.symmetric_eigen", "pbident.estimator"),
                   2 * steps if name == "circuit-gradstd" else 0)
            expect(f"{name} min_eig_symmetric calls from sim",
                   tracer.calls_at("smallmat.min_eig_symmetric", "pbident.sim"),
                   rows + 1)
            expect(f"{name} traced outputs identical", same, True)

        wl = workloads.CliSweep(seed=0, axis=2, t_end=0.05)
        tracer, values, same = traced_counts(pb, wl, tmp)
        cells, steps, rows = wl.n_cells, wl.steps, wl.rows
        expect("ph-sweep sim.step calls", tracer.calls("sim.step"), cells * steps)
        expect("ph-sweep plants.closed_rate.calls_per_step",
               values["plants.closed_rate.calls_per_step"], 6.0)
        expect("ph-sweep min_eig_symmetric calls from sim",
               tracer.calls_at("smallmat.min_eig_symmetric", "pbident.sim"),
               cells * (rows + 1))
        expect("ph-sweep CsvTraceWriter.row calls",
               tracer.calls("cli.CsvTraceWriter.row"), cells * rows)
        expect("ph-sweep make_scenario calls (one per cell, one per sweep)",
               tracer.calls("plants.make_scenario"), cells + 1)
        expect("ph-sweep traced outputs identical", same, True)

    expect("every patched attribute restored", snapshot(pb) == before, True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
