"""Workload ``toral-growth``: lattice sum-set growth under toral automorphisms
and the product set of monomials on the noncommutative 2-torus.

Each round counts the sum sets K_m + T K_m + ... + T^(n-1) K_m for four
fixed maps, and forms the product set of the nine monomials u^k,
k in {-1,0,1}^2, under the cat map acting on the 2-torus at the golden
angle. The seed draws the translation t of the toral map α_T ∘ γ_t and the
unit-modulus coefficients of the nine monomials; neither changes the amount
of work, so every seed costs the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

NAME = "toral-growth"
M = 1
# (label, matrix, n): sizes chosen so that each count takes one to a few seconds
MAPS = (
    ("cat", ((2, 1), (1, 1)), 12),
    ("three-one", ((3, 1), (2, 1)), 9),
    ("parabolic", ((1, 1), (0, 1)), 50),
    ("plastic", ((0, 1, 0), (0, 0, 1), (1, 1, 0)), 14),
)
HYPERBOLIC = ("cat", "three-one")
PRODUCT_MAP = ((2, 1), (1, 1))
PRODUCT_N = 9
THETA = (math.sqrt(5.0) - 1.0) / 2.0
# literal sum sets are rebuilt while |S| * |K| stays below this many sums
LITERAL_BUDGET = 200_000


@dataclass
class Inputs:
    t: np.ndarray
    coeffs: list


def build(seed: int, workdir) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    t = rng.random(2)
    coeffs = [complex(np.exp(2j * np.pi * x)) for x in rng.random(9)]
    return Inputs(t, coeffs)


def ops(inputs: Inputs):
    """The round's operations as (label, callable) pairs."""
    from qmetric import entropy, nctorus

    out = [(f"lattice_orbit_card:{label}",
            lambda T=T, n=n: entropy.lattice_orbit_card(np.array(T), M, n).counts)
           for label, T, n in MAPS]

    def product():
        phase = nctorus.PhaseMatrix.two_torus(THETA)
        tmap = nctorus.ToralMap(np.array(PRODUCT_MAP), inputs.t)
        omega = [nctorus.TwistedPolynomial.monomial(phase, k, c)
                 for k, c in zip(itertools.product((-1, 0, 1), repeat=2), inputs.coeffs)]
        # looked up at call time so that a traced run sees each application
        return len(entropy.product_set(omega, lambda a: nctorus.toral_map_apply(tmap, a),
                                       PRODUCT_N))

    out.append(("product_set:cat", product))
    return out


# ------------------------------------------------------------------ checks


def literal_counts(T, m: int, n_max: int, budget: int = LITERAL_BUDGET) -> list[int]:
    """|Σ_{j<n} T^j K_m| for n = 1, 2, ... from Python sets of integer tuples,
    stopping before a step would form more than ``budget`` sums."""
    T = [list(row) for row in T]
    p = len(T)
    cube = list(itertools.product(range(-m, m + 1), repeat=p))

    def apply(x):
        return tuple(sum(T[i][k] * x[k] for k in range(p)) for i in range(p))

    term = cube
    total = set(cube)
    counts = [len(total)]
    for _ in range(1, n_max):
        term = [apply(x) for x in term]
        if len(total) * len(term) > budget:
            break
        total = {tuple(a + b for a, b in zip(s, x)) for s in total for x in term}
        counts.append(len(total))
    return counts


def eigen_entropy(T) -> float:
    lam = np.abs(np.linalg.eigvals(np.array(T, dtype=float)))
    return float(np.sum(np.log(lam[lam > 1.0])))


def check_literal(label, T, counts) -> list[str]:
    ref = literal_counts(T, M, len(counts))
    if len(ref) < 3:
        return [f"{label}: literal sum set too small to compare"]
    if list(counts[: len(ref)]) != ref:
        return [f"{label}: counts {list(counts[:len(ref)])} != literal sum sets {ref}"]
    return []


def check_hyperbolic(label, T, counts) -> list[str]:
    target = eigen_entropy(T)
    last = math.log(counts[-1] / counts[-2])
    if abs(last - target) > 0.01 * target:
        return [f"{label}: last log-difference {last:.6f} not within 1% of {target:.6f}"]
    return []


def check_decreasing_diffs(label, counts) -> list[str]:
    diffs = [math.log(b / a) for a, b in zip(counts, counts[1:])]
    if any(b >= a for a, b in zip(diffs, diffs[1:])):
        return [f"{label}: log-differences do not decrease"]
    return []


def check_product(card: int, lattice_counts) -> list[str]:
    if card != lattice_counts[PRODUCT_N - 1]:
        return [f"product set has {card} elements, lattice count at n={PRODUCT_N} "
                f"is {lattice_counts[PRODUCT_N - 1]}"]
    return []


def check(inputs: Inputs, outputs: dict) -> list[str]:
    problems = []
    for label, T, n in MAPS:
        counts = outputs.get(f"lattice_orbit_card:{label}")
        if counts is None:
            continue
        if len(counts) != n:
            problems.append(f"{label}: {len(counts)} counts, expected {n}")
            continue
        problems += check_literal(label, T, counts)
        if label in HYPERBOLIC:
            problems += check_hyperbolic(label, T, counts)
        if label == "parabolic":
            problems += check_decreasing_diffs(label, counts)
    # the product map is the cat map, whose counts were checked above
    card = outputs.get("product_set:cat")
    cat = outputs.get("lattice_orbit_card:cat")
    if card is not None and cat is not None:
        problems += check_product(card, cat)
    return problems
