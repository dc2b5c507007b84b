"""Which runs load numpy, checked in a fresh interpreter.

The package imports numpy only inside the functions that need LAPACK's
eigensolvers or numpy's random generator;
`test_numpy_is_imported_only_where_listed` pins that list.  A ph run or
sweep needs none of them, so it completes with numpy blocked from every
start, aborts included, and ends as it does with numpy's special values
(`ieee_div` and `ieee_pow` compute IEEE 754's on floats); the circuit's
3x3 excitation Gram eigenvalue is LAPACK's, so a circuit run imports it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from conftest import numpy_ieee_div, numpy_ieee_pow
from pbident import SimConfig, circuit_scenario, ph_scenario, plants, run

SRC = Path(__file__).resolve().parents[1] / "src"

# the functions of src/pbident that may import numpy, as module.qualname
NUMPY_SITES = [
    "smallmat.symmetric_eigen", "smallmat.min_eig_symmetric",
    "estimator.check_monotonicity",
]


def numpy_imports(tree: ast.Module, module: str) -> list:
    """module.qualname of the scope of each numpy import statement in a
    module's syntax tree, the module itself for a top-level one."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                sites.append(".".join([module] + scope))
            visit(child, scope)

    visit(tree, [])
    return sites


def test_numpy_is_imported_only_where_listed():
    # floats are the package's one representation: an ndarray view or a
    # module-level import would add a site here
    sites = []
    for path in sorted((SRC / "pbident").glob("*.py")):
        sites += numpy_imports(ast.parse(path.read_text(encoding="utf-8")),
                               path.stem)
    assert sorted(sites) == sorted(NUMPY_SITES)

# digest() runs ph under every estimator and controller for 0.5 s, and
# the pinned abort, and gives each run's report fields (wall_seconds
# aside) and trace rows with every float as its IEEE double bytes in hex,
# every nan as "nan" (CPython 3.11 may return either nan operand's bits)
DIGEST = textwrap.dedent("""
    import dataclasses
    import struct

    def digest():
        from pbident import SimConfig, ph_scenario, run

        def hexed(v):
            if isinstance(v, float):
                return "nan" if v != v else struct.pack("<d", v).hex()
            if isinstance(v, (tuple, list)):
                return [hexed(u) for u in v]
            return v

        class Rows:
            def __init__(self):
                self.rows = []

            def header(self, columns):
                self.rows.append(list(columns))

            def row(self, values):
                self.rows.append(hexed(list(values)))

        runs = {f"{est}/{ctrl}": {"estimator": est, "controller": ctrl,
                                  "t_end": 0.5}
                for est in ("gplusd_pbep", "gradient_std",
                            "gradient_pbep_overparam", "none")
                for ctrl in ("adaptive", "known_parameter", "open_loop")}
        runs["pinned-abort"] = {"t_end": 1.0, "theta_hat0": (0.0,)}
        out = {}
        for name, over in runs.items():
            sink = Rows()
            rep = run(ph_scenario(), SimConfig(**over), trace=sink)
            out[name] = [{key: hexed(value) for key, value
                          in dataclasses.asdict(rep).items()
                          if key != "wall_seconds"}, sink.rows]
        return out
""")

PROGRAM = DIGEST + textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    out = Path(sys.argv[1])
    # blocked: any `import numpy` from here on raises ModuleNotFoundError
    sys.modules["numpy"] = None
    import pbident
    import pbident.cli as cli

    def config(name, text):
        path = out / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    # gradient_std's default Theta = 0 makes the estimate 0, which beta
    # divides by: its first step ends in the plant state's abort (exit 2)
    for est in ("gplusd_pbep", "gradient_std", "gradient_pbep_overparam",
                "none"):
        text = f"scenario = ph\\nt_end = 0.5\\nestimator = {est}\\n"
        code = cli.main(["run", config(est + ".cfg", text),
                         "--out", str(out / est)])
        assert code == (2 if est == "gradient_std" else 0), (est, code)
    code = cli.main(["run", config("abort.cfg", "scenario = ph\\n"
                                   "t_end = 1.0\\ntheta_hat0 = 0\\n"),
                     "--out", str(out / "abort")])
    assert code == 2, code

    code = cli.main(["sweep", config("sweep.cfg", "scenario = ph\\n"
                                     "t_end = 0.05\\ndecimation = 1\\n"),
                     "--grid", "gamma_g=75:125:2",
                     "--grid", "gamma=37.5:62.5:2",
                     "--out", str(out / "sweep")])
    assert code == 0, code
    (out / "digest.json").write_text(json.dumps(digest()))

    del sys.modules["numpy"]
    code = cli.main(["run", config("circuit.cfg", "scenario = circuit\\n"
                                   "t_end = 0.05\\n"),
                     "--out", str(out / "circuit")])
    assert code == 0, code
    assert "numpy" in sys.modules, "a circuit run did not load numpy"
    print("ok")
""")


def test_ph_runs_and_sweeps_never_import_numpy(tmp_path, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path)], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    # the last line; the commands print their own lines before it
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "sweep" / "index.csv").read_text().count("\n") == 5
    # the same runs with numpy's special values, as the former fallbacks
    # of ieee_div and ieee_pow gave them, end in the same bytes
    zero_divisors = []

    def div(a, b):
        zero_divisors.append(b == 0.0)
        return numpy_ieee_div(a, b)
    monkeypatch.setattr(plants, "ieee_div", div)
    monkeypatch.setattr(plants, "ieee_pow", numpy_ieee_pow)
    scope = {}
    exec(DIGEST, scope)
    with_numpy = scope["digest"]()
    assert any(zero_divisors)
    assert json.loads((tmp_path / "digest.json").read_text()) == with_numpy
    assert with_numpy["gradient_std/adaptive"][0]["aborted"]


# The pinned aborts of tests/test_sim.py and tools/diffmatrix.py: the runs
# overflow on their way to the abort, and with no numpy arithmetic left on
# the run path (and no np.errstate around it) they must warn about nothing.
PINNED_ABORTS = [
    ("circuit", {"gamma_g": 1e6, "gamma": 1e6}, 0.996, 996),
    ("circuit", {"x0": (0.51, 0.95), "theta_hat0": (0.43, 2.85)}, 2.041,
     2041),
    ("ph", {"t_end": 1.0, "theta_hat0": (0.0,)}, 0.001, 1),
]


@pytest.mark.parametrize("name, over, t_abort, steps", PINNED_ABORTS)
def test_pinned_aborts_raise_no_warning(name, over, t_abort, steps):
    scenario = {"circuit": circuit_scenario, "ph": ph_scenario}[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run(scenario, SimConfig(**over))
    assert rep.aborted and rep.abort_component == "plant state"
    assert rep.abort_time == pytest.approx(t_abort, abs=1e-9)
    assert rep.n_steps == steps
