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
  action Lip brackets, Fejér/Cesàro machinery, toral maps, and a
  rational-phase clock/shift matrix oracle.
- metricspace: finite metric spaces, nets, box dimension, Lipschitz
  seminorms, and the separated-set unitary construction.
- approxdim: subspace approximation dimension brackets and the dimension
  regression estimator.
- entropy: orbit product sets, shift-entropy brackets, lattice
  Minkowski-sum growth, eigenvalue entropy, and box bounds.
- cli: reproducible command-line experiments.
"""

from . import approxdim, caps, entropy, errors, linalg, metricspace, nctorus, weyl

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
