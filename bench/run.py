"""pbident benchmark: end-to-end metrics, or a traced per-layer split.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout and measures the pbident sources under
src/ of that checkout.  The workloads, metric names, units and bounds are
declared in BENCHMARK.json; workloads.py defines the runs and their checks.

--trace 0 measures with nothing wrapped and reports the end-to-end
metrics.  --trace 1 spends half of --seconds on untraced units and half on
units traced through tracer.py, and reports the per-layer metrics plus
trace.overhead, the ratio of the two halves' median unit times.

Human-readable lines come first: the environment, the gains drawn from the
seed, each metric with its unit and sample count, and fail_frac.  The last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.  A
unit fails on an exception, an abort, a nonzero exit, a failed output
check, or an output digest that differs from the first unit's (every unit
of one seed repeats the same inputs, so outputs must be bit-identical).
The exit code is 0 when every unit passed, 1 when one failed, and 2 when
the benchmark cannot run (for instance without src/pbident).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 11


def percentile(values, pct: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_pbident(root: Path):
    """Import the checkout's pbident modules, never an installed copy."""
    src = (root / "src").resolve()
    if not (src / "pbident" / "__init__.py").is_file():
        raise RuntimeError(f"no pbident sources under {src}")
    sys.path.insert(0, str(src))
    import pbident
    import pbident.cli
    if src not in Path(pbident.__file__).resolve().parents:
        raise RuntimeError(f"imported pbident from {pbident.__file__}, not {src}")
    return pbident


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds from SETUP_PROBES fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT),
             name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(workload, seconds: float, hook) -> list:
    """Run units back to back while the next one, taking as long as the
    last, still fits into `seconds` of timed work; at least one unit."""
    units = [workload.unit(hook)]
    busy = units[0].seconds
    while busy + units[-1].seconds <= seconds:
        units.append(workload.unit(hook))
        busy += units[-1].seconds
    return units


def mark_digest_mismatches(units, reference: str):
    for unit in units:
        if unit.digest != reference:
            for failures in unit.failures:
                failures.append("outputs differ from the first unit of this seed")


def pooled(units, attr: str) -> list:
    return [value for unit in units for value in getattr(unit, attr)]


def end_to_end(units, setup_times) -> tuple[dict, dict]:
    """(metric values, sample counts).

    Medians resist the host's bursts of contention: throughput is the
    median over units of each unit's cells per second, and the p90 is taken
    within each unit of 100 cells (10 beyond it), then its median over units.
    """
    ms = [s * 1e3 for s in pooled(units, "cell_seconds")]
    p90 = statistics.median(percentile([s * 1e3 for s in u.cell_seconds], 90)
                            for u in units if u.cell_seconds)
    step_us = pooled(units, "step_us")
    values = {
        "setup_s": statistics.median(setup_times),
        "step_us": statistics.median(step_us),
        "cells_per_s": statistics.median(len(u.cell_seconds) / u.seconds
                                         for u in units),
        "cell_ms_p50": percentile(ms, 50),
        "cell_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup_times), "step_us": len(step_us),
              "cells_per_s": len(units), "cell_ms_p50": len(ms),
              "cell_ms_p90": len(ms), "peak_rss_mb": 1}
    return values, counts


def per_layer(tracer, untraced_units, traced_units) -> tuple[dict, dict]:
    """(metric values, sample counts) from one traced half and one untraced."""
    from tracer import LAYERS

    stats = tracer.stats
    steps = tracer.calls("sim.step")

    calls = tracer.calls

    def ratio(num, den):
        return num / den if den else 0.0

    def self_us(name):
        return stats.get(name, (0, 0, 0))[2] / 1e3

    def total_us(name):
        return stats.get(name, (0, 0, 0))[1] / 1e3

    values = {}
    for layer in LAYERS:
        n, self_ns = tracer.layer_totals(layer)
        values[f"{layer}.self_us_per_step"] = ratio(self_ns / 1e3, steps)
        values[f"{layer}.calls_per_step"] = ratio(n, steps)
        values[f"{layer}.share"] = ratio(self_ns, tracer.root_ns)
    step_us = [ns / 1e3 for ns in tracer.step_ns]
    stamps = pooled(untraced_units, "stamps")
    values.update({
        "sim.step.self_us_per_step": ratio(self_us("sim.step"), steps),
        "sim.step.p50_us": percentile(step_us, 50) if step_us else 0.0,
        "sim.step.p99_us": percentile(step_us, 99) if step_us else 0.0,
        "sim.run.self_us_per_step": ratio(self_us("sim.run"), steps),
        "sim.World.init_ms": ratio(total_us("sim.World.__init__") / 1e3,
                                   calls("sim.World.__init__")),
        "sim.ExcitationRecord.record.self_us_per_call": ratio(
            self_us("sim.ExcitationRecord.record"),
            calls("sim.ExcitationRecord.record")),
        "plants.closed_rate.calls_per_step": ratio(calls("plants.closed_rate"), steps),
        "plants.closed_rate.self_us_per_call": ratio(
            self_us("plants.closed_rate"), calls("plants.closed_rate")),
        "plants.make_scenario.ms_per_call": ratio(
            total_us("plants.make_scenario") / 1e3, calls("plants.make_scenario")),
        "regressor.inputs.self_us_per_step": ratio(self_us("regressor.inputs"), steps),
        "regressor.sample_from.self_us_per_step": ratio(
            self_us("regressor.sample_from"), steps),
        "estimator.propagate.self_us_per_step": ratio(
            self_us("estimator.propagate"), steps),
        "estimator.mix.self_us_per_step": ratio(self_us("estimator.mix"), steps),
        "smallmat.symmetric_eigen.self_us_per_step": ratio(
            self_us("smallmat.symmetric_eigen"), steps),
        "smallmat.symmetric_eigen.calls_per_step": ratio(
            calls("smallmat.symmetric_eigen"), steps),
        "smallmat.min_eig_symmetric.calls_per_step": ratio(
            calls("smallmat.min_eig_symmetric"), steps),
        "cli.CsvTraceWriter.row.self_us_per_row": ratio(
            self_us("cli.CsvTraceWriter.row"), calls("cli.CsvTraceWriter.row")),
        # cell set-up and finish come from the untraced half's cell clock
        "cli.cell_setup_ms": (statistics.median((s[1] - s[0]) * 1e3 for s in stamps)
                              if stamps else 0.0),
        "cli.cell_finish_ms": (statistics.median((s[3] - s[2]) * 1e3 for s in stamps)
                               if stamps else 0.0),
        "trace.overhead": ratio(statistics.median(u.seconds for u in traced_units),
                                statistics.median(u.seconds for u in untraced_units)),
    })
    counts = dict.fromkeys(values, steps)
    for metric, span in (("sim.World.init_ms", "sim.World.__init__"),
                         ("sim.ExcitationRecord.record.self_us_per_call",
                          "sim.ExcitationRecord.record"),
                         ("plants.closed_rate.self_us_per_call", "plants.closed_rate"),
                         ("plants.make_scenario.ms_per_call", "plants.make_scenario"),
                         ("cli.CsvTraceWriter.row.self_us_per_row",
                          "cli.CsvTraceWriter.row")):
        counts[metric] = calls(span)
    counts["cli.cell_setup_ms"] = counts["cli.cell_finish_ms"] = len(stamps)
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(whys)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        pbident = import_pbident(ROOT)
    except (RuntimeError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import numpy

    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        workload = workloads.build(args.workload, args.seed)
        workload.prepare(workdir)
        print(f"# workload {args.workload}: {whys[args.workload]}")
        print(f"# env nproc={os.cpu_count()} "
              f"usable_cpus={len(os.sched_getaffinity(0))} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"pbident={pbident.__version__} commit={git_commit(ROOT)} "
              f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("# gains " + " ".join(f"{k}={v!r}" for k, v in workload.gains.items()))
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(pbident)
            untraced = measure(workload, args.seconds / 2, contextlib.nullcontext)
            traced = measure(workload, args.seconds / 2, tracer.active)
            units = untraced + traced
        else:
            setup_times = measure_setup(args.workload, args.seed)
            units = measure(workload, args.seconds, contextlib.nullcontext)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    mark_digest_mismatches(units, units[0].digest)
    attempts = pooled(units, "failures")
    failed = [f for f in attempts if f]
    for failures in failed[:5]:
        print("failure: " + "; ".join(failures[:3]), file=sys.stderr)
    if args.trace:
        values, counts = per_layer(tracer, untraced, traced)
    else:
        values, counts = end_to_end(units, setup_times)
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    for m in declared:
        print(f"{m['name']:<46} {values[m['name']]:>14.6g} {m['unit']:<10} "
              f"(n={counts[m['name']]})")
    print(f"{'fail_frac':<46} {len(failed) / len(attempts):>14.6g} {'1':<10} "
          f"({len(failed)} of {len(attempts)} runs or cells)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
