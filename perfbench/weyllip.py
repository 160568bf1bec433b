"""Workload ``weyl-lip``: exact Lip seminorms on Weyl (clock-and-shift)
algebras and conditional-expectation residuals.

Each round takes ``weyl_lip_norm`` at λ = 0.5 of fifteen seeded elements
(``LIP_CONFIGS``: p = 2 on 5-7 sites and p = 3 on 3-4 sites, 1 to 8 support
monomials), then, as one more operation, the residual norms ‖a - E_n a‖,
n = 0..4, of one seeded element on the 9-site p = 2 window [-4, 4] (side 512, so ``operator_norm``
takes its power-iteration path).

A Lip element has k monomials with random exponents that are linearly
independent mod p, and coefficients of random phase and modulus in
[0.5, 1.5] (plus a random multiple of the identity). Independence fixes the
number of character fibers at p^k - 1, so the work of every seed is the same.
The E_n element is a fixed base element, drawn once, moved by a seeded group
element γ_g and a seeded global phase: both keep every residual's singular
values, so the power iteration converges at the same rate for every seed.
Each monomial of the base element lives on one shell {-k, k} of sites,
which makes the residual norms nonincreasing in n (E_n then restricts to a
conditional expectation on the residual).

The benchmark builds every matrix itself, from the clock/shift convention
in ``qmetric.weyl``'s documentation, and hands the program only matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

NAME = "weyl-lip"
LAM = 0.5
# (p, sites, support monomials): seven small supports, where fiber
# enumeration dominates, three of (3, 4, 5), and five large ones, where the
# SVDs dominate. With the residual sequence as one more large operation, the
# median operation is a (3, 4, 5) norm, whose cost does not depend on the seed.
LIP_CONFIGS = (
    (2, 5, 1), (2, 5, 4), (2, 6, 2), (2, 7, 3),
    (3, 3, 2), (3, 3, 4), (3, 4, 3),
    (3, 4, 5), (3, 4, 5), (3, 4, 5),
    (2, 7, 8), (2, 7, 8), (3, 4, 6), (3, 4, 6), (3, 4, 7),
)
# the supremum is checked against all of the group up to this many elements
BRUTE_FORCE_GROUP = 1024
RES_P, RES_LO, RES_HI = 2, -4, 4
RES_NS = (0, 1, 2, 3, 4)
RES_BASE_SEED = 0
RES_PER_SHELL = 2
REL_TOL = 1e-9
NORM_TOL = 1e-8


# ------------------------------------------------ the benchmark's own Weyl side


def clock_shift(p: int):
    rho = np.exp(2j * np.pi / p)
    u = np.diag(rho ** np.arange(p))
    v = np.roll(np.eye(p, dtype=complex), 1, axis=1)  # v[i, i+1] = 1, v[p-1, 0] = 1
    return u, v


def monomial(p: int, exps) -> np.ndarray:
    u, v = clock_shift(p)
    out = np.ones((1, 1), dtype=complex)
    for i, j in exps:
        out = np.kron(out, np.linalg.matrix_power(u, i) @ np.linalg.matrix_power(v, j))
    return out


def assemble(p: int, coeffs: dict) -> np.ndarray:
    return sum(c * monomial(p, exps) for exps, c in coeffs.items())


def site_length(p, r, s):
    r, s = np.asarray(r) % p, np.asarray(s) % p
    return np.hypot(np.minimum(r, p - r) / p, np.minimum(s, p - s) / p)


def group_elements(p: int, n_sites: int) -> np.ndarray:
    """All (r_0, s_0, r_1, s_1, ...) in Z_p^(2W), identity first."""
    return np.array(list(itertools.product(range(p), repeat=2 * n_sites)), dtype=np.int64)


def lengths(p: int, sites, G: np.ndarray, lam: float = LAM) -> np.ndarray:
    weights = lam ** np.abs(np.asarray(sites, dtype=float))
    return (site_length(p, G[:, 0::2], G[:, 1::2]) * weights).sum(axis=1)


def characters(p: int, G: np.ndarray, exps) -> np.ndarray:
    flat = np.array([x for pair in exps for x in pair], dtype=np.int64)
    return np.exp(2j * np.pi * ((G @ flat) % p) / p)


def monomial_lip(p: int, sites, exps, lam: float = LAM) -> float:
    """L(m) = max over g != e of |χ_m(g) - 1| / ℓ_λ(g), over the whole group."""
    G = group_elements(p, len(sites))[1:]
    return float(np.max(np.abs(characters(p, G, exps) - 1.0) / lengths(p, sites, G, lam)))


def rank_mod_p(rows: np.ndarray, p: int) -> int:
    a = np.array(rows, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        pivot = next((i for i in range(rank, a.shape[0]) if a[i, col]), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        for i in range(a.shape[0]):
            if i != rank and a[i, col]:
                a[i] = (a[i] - a[i, col] * a[rank]) % p
        rank += 1
    return rank


def random_coeff(rng) -> complex:
    return complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))


@dataclass
class LipElement:
    p: int
    lo: int
    hi: int
    coeffs: dict  # exponents -> coefficient, identity included
    matrix: np.ndarray

    @property
    def sites(self):
        return tuple(range(self.lo, self.hi + 1))


def lip_element(rng, p: int, n_sites: int, k: int) -> LipElement:
    while True:
        E = rng.integers(0, p, size=(k, 2 * n_sites))
        if rank_mod_p(E, p) == k:
            break
    coeffs = {tuple((int(row[2 * s]), int(row[2 * s + 1])) for s in range(n_sites)):
              random_coeff(rng) for row in E}
    coeffs[((0, 0),) * n_sites] = random_coeff(rng)
    lo = -(n_sites // 2)
    return LipElement(p, lo, lo + n_sites - 1, coeffs, assemble(p, coeffs))


def residual_base() -> dict:
    """Coefficients of the fixed base element on [-4, 4]: each monomial sits
    on one shell {-k, k} of sites."""
    rng = np.random.default_rng(RES_BASE_SEED)
    n_sites = RES_HI - RES_LO + 1
    coeffs = {}
    for k in range(RES_HI + 1):
        shell = sorted({k - RES_LO, -k - RES_LO})
        while len([e for e in coeffs if any(e[s] != (0, 0) for s in shell)]) < RES_PER_SHELL:
            exps = [(0, 0)] * n_sites
            for s in shell:
                exps[s] = tuple(int(x) for x in rng.integers(0, RES_P, size=2))
            if any(e != (0, 0) for e in exps):
                coeffs.setdefault(tuple(exps), random_coeff(rng))
    return coeffs


def residual_element(rng) -> LipElement:
    """γ_g(base) times a global phase, for a seeded g and phase."""
    n_sites = RES_HI - RES_LO + 1
    g = rng.integers(0, RES_P, size=(1, 2 * n_sites))
    phase = np.exp(2j * np.pi * rng.random())
    coeffs = {exps: complex(c * phase * characters(RES_P, g, exps)[0])
              for exps, c in residual_base().items()}
    return LipElement(RES_P, RES_LO, RES_HI, coeffs, assemble(RES_P, coeffs))


def residual_reference(el: LipElement, n: int) -> float:
    """‖a - E_n a‖ by numpy's SVD of the benchmark's own residual."""
    outside = [i for i, site in enumerate(el.sites) if abs(site) > n]
    kept = {e: c for e, c in el.coeffs.items() if any(e[i] != (0, 0) for i in outside)}
    if not kept:
        return 0.0
    return float(np.linalg.svd(assemble(el.p, kept), compute_uv=False)[0])


# ------------------------------------------------------------------ workload


@dataclass
class Inputs:
    lips: list
    residual: LipElement


def build(seed: int, workdir) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    lips = [lip_element(rng, p, w, k) for p, w, k in LIP_CONFIGS]
    return Inputs(lips, residual_element(rng))


def lip_labels() -> list[str]:
    return [f"weyl_lip_norm:{i}:p{p}w{w}k{k}" for i, (p, w, k) in enumerate(LIP_CONFIGS)]


def _window(weyl, el: LipElement):
    return weyl.WeylWindow(el.p, el.lo, el.hi)


def ops(inputs: Inputs):
    from qmetric import weyl

    out = []
    for label, el in zip(lip_labels(), inputs.lips):
        a = weyl.WeylElement(_window(weyl, el), el.matrix)
        out.append((label, lambda a=a: weyl.weyl_lip_norm(a, LAM)))
    el = inputs.residual
    a = weyl.WeylElement(_window(weyl, el), el.matrix)

    def residuals():
        return {n: weyl.WeylElement(a.window,
                                    a.matrix - weyl.conditional_expectation(a, n).matrix).norm()
                for n in RES_NS}

    out.append(("residuals", residuals))
    return out


# ------------------------------------------------------------------ checks


def brute_force_lip(weyl, el: LipElement) -> float:
    """sup over g != e of ‖γ_g(a) - a‖ / ℓ_λ(g), with γ_g from ``weyl_action``."""
    window = _window(weyl, el)
    a = weyl.WeylElement(window, el.matrix)
    G = group_elements(el.p, len(el.sites))[1:]
    lens = lengths(el.p, el.sites, G)
    best = 0.0
    for row, ln in zip(G, lens):
        g = weyl.GroupElement(window, tuple(zip(row[0::2].tolist(), row[1::2].tolist())))
        diff = weyl.weyl_action(g, a).matrix - el.matrix
        best = max(best, float(np.linalg.svd(diff, compute_uv=False)[0]) / ln)
    return best


def sampled_lower(el: LipElement, rng, samples: int = 48) -> float:
    """max of ‖Σ c_m (χ_m(g) - 1) m‖ / ℓ_λ(g) over all single-site group
    elements and ``samples`` random ones: a lower bound for L(a)."""
    n_sites = len(el.sites)
    single = []
    for s in range(n_sites):
        for r, t in itertools.product(range(el.p), repeat=2):
            if (r, t) != (0, 0):
                row = np.zeros(2 * n_sites, dtype=np.int64)
                row[2 * s], row[2 * s + 1] = r, t
                single.append(row)
    G = np.vstack(single + [rng.integers(0, el.p, size=(samples, 2 * n_sites))])
    G = G[G.any(axis=1)]
    lens = lengths(el.p, el.sites, G)
    monos = {e: monomial(el.p, e) for e in el.coeffs}
    best = 0.0
    for row, ln in zip(G, lens):
        diff = sum(c * (characters(el.p, row[None, :], e)[0] - 1.0) * monos[e]
                   for e, c in el.coeffs.items())
        best = max(best, float(np.linalg.svd(diff, compute_uv=False)[0]) / ln)
    return best


def upper_bound(el: LipElement) -> float:
    return sum(abs(c) * monomial_lip(el.p, el.sites, e) for e, c in el.coeffs.items()
               if any(pair != (0, 0) for pair in e))


def check_lip(label, value: float, *, brute=None, lower=None, upper=None,
              scaled=None) -> list[str]:
    """Compare L(a) with whichever references are given."""
    problems = []
    slack = REL_TOL * max(1.0, abs(value))
    if brute is not None and abs(value - brute) > slack:
        problems.append(f"{label}: L = {value!r} but the brute-force supremum is {brute!r}")
    if lower is not None and value < lower - slack:
        problems.append(f"{label}: L = {value!r} below the sampled lower bound {lower!r}")
    if upper is not None and value > upper + slack:
        problems.append(f"{label}: L = {value!r} above Σ|c|L(m) = {upper!r}")
    if scaled is not None and abs(scaled - 3.0 * value) > 3.0 * slack:
        problems.append(f"{label}: L(3a) = {scaled!r} but 3 L(a) = {3.0 * value!r}")
    return problems


def check_residuals(el: LipElement, values: dict) -> list[str]:
    """values: n -> ‖a - E_n a‖ from the program."""
    problems = []
    ns = sorted(values)
    for n in ns:
        ref = residual_reference(el, n)
        if abs(values[n] - ref) > NORM_TOL * max(1.0, ref):
            problems.append(f"residual n={n}: {values[n]!r} but numpy's SVD gives {ref!r}")
    scale = max(values.values())
    for a, b in zip(ns, ns[1:]):
        if values[b] > values[a] + REL_TOL * scale:
            problems.append(f"residual grows from n={a} to n={b}")
    covering = [n for n in ns if n >= max(-el.lo, el.hi)]
    if any(values[n] > REL_TOL * scale for n in covering):
        problems.append("residual does not vanish once [-n, n] covers the window")
    return problems


def check(inputs: Inputs, outputs: dict) -> list[str]:
    from qmetric import weyl

    rng = np.random.default_rng(12345)
    problems = []
    for (p, w, k), label, el in zip(LIP_CONFIGS, lip_labels(), inputs.lips):
        value = outputs.get(label)
        if value is None:
            continue
        if p ** (2 * w) <= BRUTE_FORCE_GROUP:
            scaled = weyl.weyl_lip_norm(weyl.WeylElement(_window(weyl, el), 3.0 * el.matrix), LAM)
            problems += check_lip(label, value, brute=brute_force_lip(weyl, el),
                                  scaled=scaled)
        else:
            problems += check_lip(label, value, lower=sampled_lower(el, rng),
                                  upper=upper_bound(el))
    if "residuals" in outputs:
        problems += check_residuals(inputs.residual, outputs["residuals"])
    return problems
