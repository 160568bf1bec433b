"""Reference implementations that the tests compare qmetric against.

None of these runs in a CLI experiment or in the benchmark: each is a
slow, literal construction (a matrix representation, a dense product loop,
a coefficient vector over the whole monomial basis) whose agreement with
the library's fast or closed-form route is what a test checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from qmetric import metricspace, nctorus, weyl
from qmetric.caps import check_cap
from qmetric.errors import PreconditionError
from qmetric.metricspace import FiniteMetricSpace
from qmetric.nctorus import PhaseMatrix, TwistedPolynomial
from qmetric.weyl import Exponents, WeylElement, WeylWindow

# ------------------------------------------------------------------ Weyl


def shift_element(a: WeylElement, steps: int = 1) -> WeylElement:
    """Right shift: site k content moves to site k + steps."""
    w = a.window
    return WeylElement(WeylWindow(w.p, w.lo + steps, w.hi + steps), a.matrix)


def exponent_index(window: WeylWindow, exps: Exponents) -> int:
    """Flat index of a monomial exponent in the canonical coefficient basis."""
    p = window.p
    idx = 0
    for i, j in exps:
        idx = idx * p * p + i * p + j
    return idx


def gns_vector(a: WeylElement) -> np.ndarray:
    """Coefficient vector of a in the monomial basis (the GNS vector π_τ(a)ξ_τ)."""
    w = a.window
    vec = np.zeros(w.dim**2, dtype=np.complex128)
    for exps, c in weyl.weyl_expand(a).data.items():
        vec[exponent_index(w, exps)] = c
    return vec


def weyl_unitary_family(window: WeylWindow) -> list[Exponents]:
    """All monomial exponent tuples on the window (the elementary-tensor family)."""
    p = window.p
    W = window.n_sites
    check_cap("group_enum", p ** (2 * W), "Weyl monomial family")
    out = []
    for flat in range(p ** (2 * W)):
        exps = []
        for k in range(W - 1, -1, -1):
            pair_idx = (flat // (p * p) ** k) % (p * p)
            exps.append((pair_idx // p, pair_idx % p))
        out.append(tuple(exps))
    return out


# ------------------------------------------------------- product sets


def dense_product_set(omega, alpha, n: int):
    """All ordered products a_0 α(a_1) ⋯ α^{n-1}(a_{n-1}) for a_i in Ω, one
    product per ordered tuple, capped at |Ω|^n elements; Weyl elements are
    deduplicated by coefficient support."""
    omega = list(omega)
    layers = [omega]
    for _ in range(1, n):
        layers.append([alpha(a) for a in layers[-1]])
    check_cap("product_set", len(omega) ** n, "dense product set")
    products = list(omega)
    for layer in layers[1:]:
        products = [a * b for a in products for b in layer]
    if isinstance(products[0], WeylElement):
        seen: dict[tuple, WeylElement] = {}
        for a in products:
            seen.setdefault(tuple(sorted(weyl.weyl_expand(a).data)), a)
        return list(seen.values())
    return products


# ------------------------------------------------------- noncommutative tori


def partial_fourier_sum(a: TwistedPolynomial, nvec) -> TwistedPolynomial:
    """Keep coefficients with |k_i| <= n_i for every i."""
    nvec = tuple(int(x) for x in nvec)
    if len(nvec) != a.phase.p or any(x < 0 for x in nvec):
        raise PreconditionError("partial sum orders must be nonnegative, one per generator")
    kept = {
        k: c
        for k, c in a.coeffs.items()
        if all(abs(ki) <= ni for ki, ni in zip(k, nvec))
    }
    return TwistedPolynomial(a.phase, kept)


def fejer_eval(n: int, t) -> np.ndarray:
    """Fejér kernel K_n(t) = Σ_{|k|<=n} (1 - |k|/(n+1)) e^{2πikt}.

    Closed form (1/(n+1)) (sin(π(n+1)t)/sin(πt))² for the e^{2πikt}
    character convention on t in [-1/2, 1/2).
    """
    if n < 0:
        raise PreconditionError("Fejér order must be >= 0")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    s = np.sin(np.pi * t)
    small = np.abs(s) < 1e-14
    out[small] = n + 1.0
    ts = t[~small]
    out[~small] = (np.sin(np.pi * (n + 1) * ts) / np.sin(np.pi * ts)) ** 2 / (n + 1.0)
    return float(out[0]) if scalar else out


def phase_fractions(phase: PhaseMatrix, max_denominator: int = 10**4) -> tuple[np.ndarray, int]:
    """Recover θ_ij = q_ij / N with a common denominator N, or fail.

    The denominator cap keeps the 1e-12 rationality test decisive: quadratic
    irrationals have convergents with error ~ 1/(2q²), which stays above the
    tolerance for q <= 1e4.
    """
    p = phase.p
    fracs = [[Fraction(0)] * p for _ in range(p)]
    N = 1
    for i in range(p):
        for j in range(p):
            f = Fraction(float(phase.theta[i, j])).limit_denominator(max_denominator)
            if abs(float(f) - float(phase.theta[i, j])) > 1e-12:
                raise PreconditionError(f"theta[{i},{j}] is not rational within 1e-12")
            fracs[i][j] = f
            N = N * f.denominator // gcd(N, f.denominator)
    q = np.array([[int(fracs[i][j] * N) for j in range(p)] for i in range(p)], dtype=np.int64)
    return q, N


def rational_generators(phase: PhaseMatrix) -> list[np.ndarray]:
    """Unitaries U_1..U_p with U_j U_i = e^{2πi θ_ij} U_i U_j at rational θ.

    One clock/shift pair of size N per generator pair (i, j) on the tensor
    product ⊗_{i<j} C^N: U_i acts as the clock and U_j as shift^(q_ij).
    """
    p = phase.p
    if p < 2:
        raise PreconditionError("rational representation needs p >= 2")
    q, N = phase_fractions(phase)
    u, v = weyl.clock_shift(N) if N >= 2 else (np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    gens = []
    for g in range(p):
        mat = np.array([[1.0 + 0j]])
        for (i, j) in pairs:
            if g == i:
                factor = u
            elif g == j:
                factor = np.linalg.matrix_power(v, int(q[i, j]) % N) if N >= 2 else np.eye(1, dtype=complex)
            else:
                factor = np.eye(N if N >= 2 else 1, dtype=complex)
            mat = np.kron(mat, factor)
        gens.append(mat)
    return gens


def rational_representation(phase: PhaseMatrix, a: TwistedPolynomial) -> np.ndarray:
    """Image of a under the clock/shift representation (a *-homomorphism).

    The operator norm of the image is a certified lower bound for the
    universal C*-norm. The representation trace matches τ only on exponent
    windows where clock/shift powers are trace-free; callers restricting to
    |k_i| < N at θ_ij = q/N in lowest terms are safe.
    """
    if a.phase != phase:
        raise PreconditionError("phase matrices do not match")
    gens = rational_generators(phase)
    dim = gens[0].shape[0]
    # order of every generator divides N * (order of shift powers); powers cycle
    out = np.zeros((dim, dim), dtype=np.complex128)
    for k, c in a.coeffs.items():
        mat = np.eye(dim, dtype=np.complex128)
        for g, kg in enumerate(k):
            if kg:
                mat = mat @ _int_matrix_power(gens[g], kg)
        out += c * mat
    return out


def _int_matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    if k >= 0:
        return np.linalg.matrix_power(m, k)
    return np.linalg.matrix_power(m.conj().T, -k)


# ------------------------------------------------------- finite metric spaces

LIP_EXPONENTIAL_CONSTANT = float(2.0 * np.pi * np.exp(2.0 * np.pi))


def lipschitz_seminorm(values, space: FiniteMetricSpace) -> float:
    """Exact max of |f(x) - f(y)| / d(x, y) over pairs."""
    f = np.asarray(values)
    if f.shape != (space.n,):
        raise PreconditionError("one value per point required")
    if space.n < 2:
        return 0.0
    iu = np.triu_indices(space.n, 1)
    return float((np.abs(f[:, None] - f[None, :])[iu] / space.dist[iu]).max())


@dataclass(frozen=True)
class KolmBundle:
    """Partition-of-unity construction over a maximal separated set E.

    f_j(x) = max(0, 1 - d(x, x_j)/δ), g_k = Σ_j frac(jk/r) f_j,
    u_k = exp(2πi g_k). Restricted to E the u_k are the r-point DFT
    characters, so their Gram matrix under the uniform measure on E is the
    identity. The exponential-series Lip estimate carries the constant
    2π e^(2π), recorded as lip_constant.
    """

    delta: float
    separated: tuple[int, ...]
    f: np.ndarray
    g: np.ndarray
    u: np.ndarray
    gram: np.ndarray
    f_lipschitz: np.ndarray
    g_lipschitz: np.ndarray
    lip_constant: float


def kolm_unitaries(space: FiniteMetricSpace, delta: float) -> KolmBundle:
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    E = metricspace.greedy_separated(space, delta)
    r = len(E)
    f = np.maximum(0.0, 1.0 - space.dist[E, :] / delta)  # r x n, rows f_j
    j = np.arange(1, r + 1)
    k = np.arange(1, r + 1)
    frac = np.mod(np.outer(j, k) / r, 1.0)  # frac(jk/r), rows j, cols k
    g = frac.T @ f  # rows g_k
    u = np.exp(2j * np.pi * g)
    u_on_e = u[:, E]
    gram = (u_on_e @ u_on_e.conj().T) / r
    f_lip = np.array([lipschitz_seminorm(f[i], space) for i in range(r)])
    g_lip = np.array([lipschitz_seminorm(g[i], space) for i in range(r)])
    return KolmBundle(
        delta, tuple(E), f, g, u, gram, f_lip, g_lip, LIP_EXPONENTIAL_CONSTANT
    )
