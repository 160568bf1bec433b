"""Which qmetric modules a CLI call runs, and what outside code can rely on.

``import qmetric`` registers its submodules lazily, so each subcommand
compiles and runs only the modules it uses. The children here start with
``PYTHONDONTWRITEBYTECODE=1``, so every module they run is compiled anew; a
top-level import that brings back eager loading shows up as an extra module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmetric
from qmetric import approxdim, nctorus

SRC = Path(qmetric.__file__).resolve().parents[1]

# run by the child: import the CLI, run it on argv, report the executed modules
# (a lazy module that has not been touched is still a _LazyModule)
CHILD = """
import importlib.util, json, sys
import qmetric.cli
code = qmetric.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(name for name, module in sys.modules.items()
                               if name.startswith("qmetric.")
                               and not isinstance(module, importlib.util._LazyModule))]))
"""

BASE = {"cli", "errors"}

# the README's experiments, with the modules each runs beyond BASE
EXPERIMENTS = {
    "shift-entropy": (["shift-entropy", "--p", "2", "--n-max", "5", "--delta", "0.5"],
                      {"caps", "linalg", "entropy", "approxdim"}),
    "toral-entropy": (["toral-entropy", "--T", "2,1,1,1", "--m", "1", "--n", "14"],
                      {"caps", "linalg", "entropy"}),
    "lattice-growth": (["lattice-growth", "--T", "2,1,1,1", "--m", "1", "--n", "10",
                        "--delta-pad", "0.05"], {"caps", "linalg", "entropy"}),
    "kolmogorov-points": (["kolmogorov", "--points", "grid.csv",
                           "--delta-grid", "0.5:0.0625:4"], {"metricspace"}),
    "kolmogorov-matrix": (["kolmogorov", "--matrix", "dist.csv",
                           "--delta-grid", "0.3:0.05:4"], {"metricspace"}),
    "weyl-dim": (["weyl-dim", "--p", "2", "--lam", "0.5", "--n-min", "1", "--n-max", "3"],
                 {"caps", "linalg", "approxdim", "weyl"}),
    "torus-dim": (["torus-dim", "--p", "2", "--n-min", "1", "--n-max", "6",
                   "--element", "poly.json", "--element-out", "smoothed.json"],
                  {"caps", "linalg", "approxdim", "nctorus"}),
    "cesaro-rate": (["cesaro-rate", "--n-list", "16,64,256,1024,4096"], {"caps", "linalg", "nctorus"}),
    "dim-bracket": (["dim-bracket", "--vectors", "family.json", "--delta-grid", "0.9:0.1:8"],
                    {"metricspace", "approxdim"}),
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("QMETRIC_CAP", None)
    return env


def executed(argv, cwd) -> set[str]:
    """The qmetric modules a fresh interpreter runs for ``qmetric ARGV``."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, names = json.loads(proc.stdout)
    assert code == 0
    return {name.removeprefix("qmetric.") for name in names}


@pytest.fixture
def readme_inputs(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "grid.csv", rng.random((40, 2)), delimiter=",")
    pts = rng.random((12, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    np.savetxt(tmp_path / "dist.csv", dist, delimiter=",")
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    (tmp_path / "family.json").write_text(approxdim.family_to_json(q))
    poly = nctorus.TwistedPolynomial(nctorus.PhaseMatrix.two_torus(0.25),
                                     {(1, 0): 1.0, (0, 1): 0.5j, (1, 1): -0.25})
    (tmp_path / "poly.json").write_text(nctorus.polynomial_to_json(poly))
    return tmp_path


@pytest.mark.parametrize("argv, extra", EXPERIMENTS.values(), ids=EXPERIMENTS)
def test_a_subcommand_runs_only_its_modules(readme_inputs, argv, extra):
    assert executed([*argv, "--out", "out.csv"], readme_inputs) == BASE | extra
    # a rerun runs the modules of the command it reruns
    assert executed(["rerun", "out.csv", "--out", "again.csv"], readme_inputs) == BASE | extra
    assert (readme_inputs / "out.csv").read_bytes() == (readme_inputs / "again.csv").read_bytes()


def test_monomial_product_sets_and_torus_elements_leave_weyl_alone(readme_inputs):
    # entropy and nctorus do not bind weyl at all, so neither can run it
    code = ("import importlib.util, json, sys\n"
            "import numpy as np\n"
            "import qmetric.cli\n"
            "from qmetric import entropy, nctorus\n"
            "ph = nctorus.PhaseMatrix.two_torus(0.25)\n"
            "cat = nctorus.ToralMap(np.array([[2, 1], [1, 1]]))\n"
            "omega = [nctorus.TwistedPolynomial.monomial(ph, k) for k in ((0, 0), (1, 0), (0, 1))]\n"
            "products = entropy.product_set(omega, lambda a: nctorus.toral_map_apply(cat, a), 3)\n"
            "code = qmetric.cli.main(['torus-dim', '--element', 'poly.json',\n"
            "                         '--element-out', 'smoothed.json', '--out', 'td.csv'])\n"
            "print(json.dumps([len(products), code,\n"
            "                  isinstance(sys.modules['qmetric.weyl'], importlib.util._LazyModule),\n"
            "                  [hasattr(m, 'weyl') for m in (entropy, nctorus)]]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=readme_inputs, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, code, weyl_unexecuted, bound = json.loads(proc.stdout)
    assert count > 1 and code == 0
    assert weyl_unexecuted
    assert bound == [False, False]


def test_importing_the_cli_runs_only_cli_and_errors(tmp_path):
    assert executed([], tmp_path) == BASE


def test_import_registers_every_submodule_unexecuted():
    code = ("import importlib.util, sys, qmetric\n"
            "names = [n for n in qmetric.__all__ if n != '__version__']\n"
            "print(all(sys.modules['qmetric.' + n] is getattr(qmetric, n) for n in names),\n"
            "      all(isinstance(getattr(qmetric, n), importlib.util._LazyModule)"
            " for n in names))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.split() == ["True", "True"]


def test_star_import_binds_the_registered_modules():
    namespace = {}
    exec("from qmetric import *", namespace)
    assert namespace["__version__"] == qmetric.__version__
    for name in qmetric.__all__:
        if name != "__version__":
            assert namespace[name] is sys.modules[f"qmetric.{name}"]
    assert namespace["approxdim"].dim_exact_orthonormal(16, 0.5) == 13


def test_cli_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "qmetric.cli", "--help"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: qmetric")


def test_monkeypatch_on_an_unloaded_module_takes_effect():
    code = ("import importlib.util, numpy as np, pytest\n"
            "from qmetric import weyl\n"
            "lazy = isinstance(weyl, importlib.util._LazyModule)\n"
            "one = lambda: weyl.WeylElement(weyl.WeylWindow(2, 0, 0), np.eye(2)).norm()\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    mp.setattr(weyl, 'operator_norm', lambda matrix: -1.0)\n"
            "    patched = one()\n"
            "print(lazy, patched, one())")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.split() == ["True", "-1.0", "1.0"]
