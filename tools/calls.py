"""Function calls per outer step of each scenario and estimator.

    python3 tools/calls.py [--src DIR]

Runs each shipped scenario with each estimator for 0.5 s at the default
settings from this checkout's `src` (or DIR), once to warm the kernel
caches and once under `sys.setprofile`, and prints the calls of that
second `run` per outer step, set-up included: Python functions ("call"
events) and C functions ("c_call").  Standard library only.
"""

import argparse
import sys
from pathlib import Path

ESTIMATORS = ("gplusd_pbep", "gradient_std", "gradient_pbep_overparam", "none")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=Path(__file__).resolve().parents[1]
                        / "src", help="the pbident source tree to count")
    sys.path.insert(0, str(parser.parse_args().src))
    from pbident import SimConfig, circuit_scenario, ph_scenario, run

    print(f"{'scenario':9} {'estimator':24} {'python':>7} {'C':>6}  steps")
    for scenario in (circuit_scenario(), ph_scenario()):
        for estimator in ESTIMATORS:
            cfg = SimConfig(t_end=0.5, estimator=estimator)
            run(scenario, cfg)
            calls = {"call": 0, "c_call": 0}

            def profile(frame, event, arg):
                if event in calls:
                    calls[event] += 1
            sys.setprofile(profile)
            try:
                report = run(scenario, cfg)
            finally:
                sys.setprofile(None)
            n = report.n_steps
            print(f"{scenario.name:9} {estimator:24} {calls['call'] / n:7.1f} "
                  f"{calls['c_call'] / n:6.1f}  {n}"
                  + (f" (aborted: {report.abort_component})"
                     if report.aborted else ""))


if __name__ == "__main__":
    main()
