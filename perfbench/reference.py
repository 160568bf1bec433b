"""Reference figures that lie outside the workloads, timed once each.

    python3 perfbench/reference.py

Prints one line per figure: the cat map counted to n = 14, the Lip norm of
a seeded element with 8 support monomials at p = 3 on 5 sites, and one box
bound of the plastic matrix. Takes about two minutes.
"""

from __future__ import annotations

import sys
import time

from common import import_qmetric, pin_blas_threads

pin_blas_threads()

import numpy as np  # noqa: E402

import weyllip  # noqa: E402


def timed(label, fn):
    cpu0, start = time.process_time(), time.perf_counter()
    result = fn()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    print(f"{label}: wall {wall:.2f} s, cpu {cpu:.2f} s, result {result}", flush=True)


def main() -> int:
    import_qmetric()
    from qmetric import entropy, weyl

    timed("lattice_orbit_card cat map m=1 n=14",
          lambda: entropy.lattice_orbit_card(np.array(((2, 1), (1, 1))), 1, 14).counts[-1])
    el = weyllip.lip_element(np.random.default_rng(0), 3, 5, 8)
    a = weyl.WeylElement(weyl.WeylWindow(el.p, el.lo, el.hi), el.matrix)
    timed("weyl_lip_norm p=3 W=5 k=8 (seed 0)", lambda: weyl.weyl_lip_norm(a, weyllip.LAM))
    timed("box_bound_card plastic m=1 n=1",
          lambda: entropy.box_bound_card(np.array(((0, 1, 0), (0, 0, 1), (1, 1, 0))), 1, 1, 0.05))
    return 0


if __name__ == "__main__":
    sys.exit(main())
