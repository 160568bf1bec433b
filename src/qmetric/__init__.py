"""qmetric: a desk-scale laboratory for metric dimension and product
entropy on finite quantum metric spaces.

Subpackages by subject:

- linalg: dense complex matrix kernel (validated matrices, operator norms,
  the unimodular check).
- weyl: finite clock-and-shift matrix algebras on site windows, the
  product Weyl action, weighted length functions, conditional
  expectations, and exact Lip seminorms as a supremum over character
  fibers, pruned by a bound no skipped fiber can beat.
- nctorus: twisted polynomials over Z^p with bicharacter phases, torus
  action Lip brackets, the Fejér moment and Cesàro means, toral maps, and
  the twisted-polynomial JSON format.
- metricspace: finite metric spaces, nets and box dimension.
- approxdim: subspace approximation dimension brackets and the dimension
  regression estimator.
- entropy: orbit product sets, shift-entropy brackets, lattice
  Minkowski-sum growth, eigenvalue entropy, and box bounds.
- cli: reproducible command-line experiments.

Importing qmetric binds every subpackage above except cli, but each one is
registered through ``importlib.util.LazyLoader``: it sits in ``sys.modules``
as ``qmetric.<name>`` from the start, and its source is compiled and run on
the first attribute access. So a CLI call runs only the modules that its
subcommand uses.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Register the submodule ``name`` unexecuted; it loads on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


approxdim = _lazy("approxdim")
caps = _lazy("caps")
entropy = _lazy("entropy")
errors = _lazy("errors")
linalg = _lazy("linalg")
metricspace = _lazy("metricspace")
nctorus = _lazy("nctorus")
weyl = _lazy("weyl")

__version__ = "0.1.0"

__all__ = [
    "approxdim",
    "caps",
    "entropy",
    "errors",
    "linalg",
    "metricspace",
    "nctorus",
    "weyl",
    "__version__",
]
