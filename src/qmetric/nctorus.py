"""Symbolic noncommutative p-torus: twisted polynomials over Z^p.

Generators u_1, ..., u_p obey u_j u_i = ρ_ij u_i u_j with
ρ_ij = exp(2πi θ_ij) for a real antisymmetric phase matrix θ (entries
mod 1). Elements are finitely supported coefficient maps k ↦ c_k on Z^p,
understood as normal-ordered sums Σ c_k u_1^{k_1} ⋯ u_p^{k_p}.

Multiplying normal-ordered monomials produces the reordering phase
phase(k, l) = Π_{i<j} ρ_ij^{k_j l_i}. The tests check it against a
rational-θ clock/shift matrix representation (tests/oracles.py) rather
than trust the derivation.

The torus action γ_t(u_j) = e^{2πi t_j} u_j with length scaled by 2π gives
L(u_j) = 1; lip_bounds returns certified (lower, upper) brackets whose
lower end is the exact GNS-norm Lip seminorm and that collapse to |k|_2 on
monomials. Operator norms at irrational θ are never claimed exactly;
consumers take brackets.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .caps import check_cap
from .errors import PreconditionError
from .linalg import as_unimodular, operator_norm

# a coefficient is dropped at or below this fraction of the largest modulus
PRUNE_TOL = 1e-15


def _reduce_mod1(x: np.ndarray) -> np.ndarray:
    return np.mod(x, 1.0)


@dataclass(frozen=True)
class PhaseMatrix:
    p: int
    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.p < 1:
            raise PreconditionError("p must be >= 1")
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (self.p, self.p):
            raise PreconditionError(f"theta must be {self.p}x{self.p}")
        th = _reduce_mod1(th)
        if np.abs(np.diag(th)).max(initial=0.0) > 1e-12:
            raise PreconditionError("theta must have zero diagonal")
        skew = _reduce_mod1(th + th.T)
        skew = np.minimum(skew, 1.0 - skew)
        if skew.max(initial=0.0) > 1e-12:
            raise PreconditionError("theta must be antisymmetric mod 1")
        th = th.copy()
        th.flags.writeable = False
        object.__setattr__(self, "theta", th)

    @classmethod
    def two_torus(cls, theta12: float) -> "PhaseMatrix":
        t = float(theta12) % 1.0
        return cls(2, np.array([[0.0, t], [(-t) % 1.0, 0.0]]))

    def __eq__(self, other):
        return (
            isinstance(other, PhaseMatrix)
            and self.p == other.p
            and np.array_equal(self.theta, other.theta)
        )

    def __hash__(self):
        return hash((self.p, self.theta.tobytes()))


def reorder_exponent(k, l, phase: PhaseMatrix):
    """Additive phase Σ_{i<j} θ_ij k_j l_i with (k-mono)(l-mono) = e^{2πi·} (k+l)-mono;
    the rows of (N, p) stacks broadcast to N phases (0.0 when p = 1)."""
    k = np.asarray(k, dtype=np.int64).T
    l = np.asarray(l, dtype=np.int64).T
    if k.shape[:1] != (phase.p,) or l.shape[:1] != (phase.p,):
        raise PreconditionError(f"exponents must have length {phase.p}")
    total = 0.0
    th = phase.theta
    for i in range(phase.p):
        for j in range(i + 1, phase.p):
            total += th[i, j] * k[j] * l[i]
    return total


def reorder_phase(k, l, phase: PhaseMatrix) -> complex:
    return complex(np.exp(2j * np.pi * reorder_exponent(k, l, phase)))


def _check_int64(k: tuple[int, ...]) -> None:
    # products, adjoints, lip_bounds and toral maps take exponents as int64
    if max(map(abs, k)) >= 2**63:
        raise PreconditionError(f"exponent {k} has an entry of modulus 2^63 or more")


class TwistedPolynomial:
    """Finitely supported coefficient map on Z^p with twisted multiplication."""

    __slots__ = ("phase", "coeffs")

    def __init__(self, phase: PhaseMatrix, coeffs: dict[tuple[int, ...], complex]):
        self.phase = phase
        # the threshold is relative, so c·a has the support of a for every c ≠ 0;
        # the extremes are tracked in the validating pass, and a second pass
        # runs only when some coefficient falls to the threshold
        kept, hi, lo = {}, 0.0, inf
        for k, c in coeffs.items():
            if len(k) != phase.p:
                raise PreconditionError(f"exponent {k} has wrong length for p={phase.p}")
            c = complex(c)
            try:
                mod = abs(c)
            except OverflowError:  # finite parts whose modulus leaves the float range
                mod = inf
            if not mod < inf:
                raise PreconditionError(f"coefficient {c} of {k} has no finite modulus")
            if mod > hi:
                hi = mod
            if mod < lo:
                lo = mod
            k = tuple(map(int, k))
            _check_int64(k)
            kept[k] = c
        thresh = PRUNE_TOL * hi
        if lo <= thresh:
            kept = {k: c for k, c in kept.items() if abs(c) > thresh}
        self.coeffs = kept

    @classmethod
    def _monomials(cls, phase: PhaseMatrix, keys: np.ndarray,
                   coeffs: np.ndarray) -> "MonomialSequence":
        """One monomial per row of (N, p) int exponents and N complex coefficients,
        unchecked but for finiteness; a zero coefficient gives the empty polynomial."""
        if not np.isfinite(np.abs(coeffs)).all():
            raise PreconditionError("monomial coefficients must have finite moduli")
        return MonomialSequence(phase, np.asarray(keys, dtype=np.int64),
                                np.asarray(coeffs, dtype=np.complex128))

    @classmethod
    def _unchecked_monomial(cls, phase: PhaseMatrix, k: tuple[int, ...],
                            c: complex) -> "TwistedPolynomial":
        a = object.__new__(cls)
        a.phase = phase
        a.coeffs = {k: c} if c else {}
        return a

    @classmethod
    def monomial(cls, phase: PhaseMatrix, k, coeff: complex = 1.0) -> "TwistedPolynomial":
        return cls(phase, {tuple(int(x) for x in k): complex(coeff)})

    @classmethod
    def one(cls, phase: PhaseMatrix) -> "TwistedPolynomial":
        return cls.monomial(phase, (0,) * phase.p)

    @classmethod
    def generator(cls, phase: PhaseMatrix, j: int) -> "TwistedPolynomial":
        """u_j, 1-based index as in the relations."""
        if not 1 <= j <= phase.p:
            raise PreconditionError(f"generator index {j} out of range")
        k = [0] * phase.p
        k[j - 1] = 1
        return cls.monomial(phase, k)

    @property
    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    @property
    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def __add__(self, other: "TwistedPolynomial") -> "TwistedPolynomial":
        self._check_phase(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TwistedPolynomial(self.phase, out)

    def __sub__(self, other: "TwistedPolynomial") -> "TwistedPolynomial":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "TwistedPolynomial":
        if isinstance(scalar, (int, float, complex)):
            return TwistedPolynomial(
                self.phase, {k: scalar * c for k, c in self.coeffs.items()}
            )
        return NotImplemented

    def __mul__(self, other) -> "TwistedPolynomial":
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        if isinstance(other, TwistedPolynomial):
            return twisted_product(self, other)
        return NotImplemented

    def adjoint(self) -> "TwistedPolynomial":
        return involution(self)

    def _check_phase(self, other: "TwistedPolynomial") -> None:
        if self.phase != other.phase:
            raise PreconditionError("phase matrices do not match")

    def __repr__(self):
        return f"TwistedPolynomial(p={self.phase.p}, support={len(self.coeffs)})"


class MonomialSequence(Sequence):
    """Read-only sequence of twisted monomials held as an (N, p) int64 exponent
    array ``keys`` and N complex128 coefficients ``coeffs``, both read-only.

    A monomial is built when read, without the validating constructor: its
    exponent is a tuple of Python ints, its coefficient a Python complex with
    the array's bits, and a zero coefficient gives the empty polynomial. A
    slice is a sequence over views of the arrays.
    """

    __slots__ = ("phase", "keys", "coeffs")

    def __init__(self, phase: PhaseMatrix, keys: np.ndarray, coeffs: np.ndarray):
        # views, so that the caller's arrays keep their own flags
        keys, coeffs = keys.view(), coeffs.view()
        keys.flags.writeable = coeffs.flags.writeable = False
        self.phase, self.keys, self.coeffs = phase, keys, coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MonomialSequence(self.phase, self.keys[i], self.coeffs[i])
        i = operator.index(i)
        return TwistedPolynomial._unchecked_monomial(
            self.phase, tuple(self.keys[i].tolist()), self.coeffs[i].item())

    def __iter__(self):
        build, phase = TwistedPolynomial._unchecked_monomial, self.phase
        for k, c in zip(map(tuple, self.keys.tolist()), self.coeffs.tolist()):
            yield build(phase, k, c)


def twisted_product(a: TwistedPolynomial, b: TwistedPolynomial) -> TwistedPolynomial:
    a._check_phase(b)
    out: dict[tuple[int, ...], complex] = {}
    for k, ck in a.coeffs.items():
        for l, cl in b.coeffs.items():
            m = tuple(x + y for x, y in zip(k, l))
            out[m] = out.get(m, 0.0) + ck * cl * np.exp(
                2j * np.pi * reorder_exponent(k, l, a.phase)
            )
    return TwistedPolynomial(a.phase, out)


def involution(a: TwistedPolynomial) -> TwistedPolynomial:
    """Adjoint: (c · k-mono)* = conj(c) e^{2πi Σ_{i<j} θ_ij k_i k_j} · (-k)-mono."""
    out: dict[tuple[int, ...], complex] = {}
    for k, c in a.coeffs.items():
        phase = np.exp(2j * np.pi * reorder_exponent(k, k, a.phase))
        out[tuple(-x for x in k)] = np.conj(c) * phase
    return TwistedPolynomial(a.phase, out)


def trace(a: TwistedPolynomial) -> complex:
    """τ picks the zero-exponent coefficient (γ-invariance)."""
    return complex(a.coeffs.get((0,) * a.phase.p, 0.0))


def gns_vector(a: TwistedPolynomial, exponents: list[tuple[int, ...]]) -> np.ndarray:
    """Coefficient vector of a relative to an ordered exponent list."""
    return np.array([a.coeffs.get(tuple(k), 0.0) for k in exponents], dtype=np.complex128)


def lip_bounds(a: TwistedPolynomial) -> tuple[float, float]:
    """Certified bracket (lower, upper) for the torus-action Lip seminorm.

    upper = Σ |c_k| |k|₂ from the triangle inequality and
    |e^{2πik·t} - 1| ≤ ℓ(t)|k|₂ with ℓ scaled by 2π. lower = σ_max(M), the
    top singular value of the matrix M whose rows are |c_k|·k over the
    nonzero exponents k: the GNS-norm Lip seminorm, which the C*-norm
    dominates. It is exact: ‖γ_t(a) - a‖_GNS / ℓ(t) = √(Σ |c_k|² 4sin²(πk·t))
    / (2π|t|) ≤ |Mt| / |t| for t nearest 0 in its class mod Z^p, and the
    ratio tends to σ_max(M) along t = εv, v the top right singular vector,
    as ε → 0. A single nonzero exponent gives lower = upper = |c||k|₂.
    """
    ks = np.array([k for k in a.coeffs if any(k)], dtype=np.int64)
    if ks.size == 0:
        return 0.0, 0.0
    cs = np.array([a.coeffs[tuple(k)] for k in ks])
    norms = np.linalg.norm(ks.astype(float), axis=1)
    upper = float(np.sum(np.abs(cs) * norms))
    if len(ks) == 1:
        exact = float(abs(cs[0]) * norms[0])
        return exact, exact
    lower = operator_norm(np.abs(cs)[:, None] * ks)
    return min(lower, upper), upper


def cesaro_mean(a: TwistedPolynomial, n: int) -> TwistedPolynomial:
    """σ_n: multiply the coefficient at k by Π_i max(0, 1 - |k_i|/(n+1)).

    Coefficientwise form of averaging the partial Fourier sums s_(n_1..n_p)
    over (n_1, ..., n_p) in {0..n}^p; norm-nonincreasing.
    """
    if n < 0:
        raise PreconditionError("Cesàro order must be >= 0")
    out = {}
    for k, c in a.coeffs.items():
        w = 1.0
        for ki in k:
            w *= max(0.0, 1.0 - abs(ki) / (n + 1.0))
        out[k] = c * w
    return TwistedPolynomial(a.phase, out)


def fejer_abs_moment(n: int) -> float:
    """∫_T |t| K_n(t) dt, exactly: 1/4 - (2/π²) Σ_{odd k<=n} (1 - k/(n+1))/k².

    The odd-k terms are the Fourier coefficients of |t| on [-1/2, 1/2).
    Decays like log n / n.
    """
    if n < 0:
        raise PreconditionError("Fejér order must be >= 0")
    check_cap("fejer_terms", (n + 1) // 2, "Fejér moment series")
    k = np.arange(1, n + 1, 2, dtype=float)
    if k.size == 0:
        return 0.25
    return float(0.25 - (2.0 / np.pi**2) * np.sum((1.0 - k / (n + 1.0)) / k**2))


@dataclass(frozen=True)
class ToralMap:
    """α_T ∘ γ_t: α_T(u_j) = u_1^{T_1j} ⋯ u_p^{T_pj}, γ_t(u_j) = e^{2πi t_j} u_j."""

    T: np.ndarray = field(repr=True)
    t: np.ndarray = field(default=None, repr=True)

    def __post_init__(self):
        T = as_unimodular(self.T)
        T.flags.writeable = False
        object.__setattr__(self, "T", T)
        t = np.zeros(T.shape[0]) if self.t is None else np.mod(np.asarray(self.t, float), 1.0)
        if t.shape != (T.shape[0],):
            raise PreconditionError("t must be a p-vector")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @property
    def p(self) -> int:
        return self.T.shape[0]


def toral_map_apply(tm: ToralMap, a: TwistedPolynomial) -> TwistedPolynomial:
    """Apply α_T ∘ γ_t coefficientwise; support maps k ↦ Tk with phases.

    The image of the k-mono is (k_1 v_1)-mono ⋯ (k_p v_p)-mono for the columns
    v_j of T, multiplied out in Python ints; a column multiple or partial sum
    with an entry of modulus 2^63 or more is rejected before the int64 phases.
    """
    phase = a.phase
    if tm.p != phase.p:
        raise PreconditionError("toral map dimension does not match the torus")
    cols = [tuple(v) for v in tm.T.T.tolist()]
    # (v-mono)^m = e^{2πi B(v,v) m(m-1)/2} · (mv)-mono for any integer m
    squares = [reorder_exponent(v, v, phase) for v in cols]
    out: dict[tuple[int, ...], complex] = {}
    for k, c in a.coeffs.items():
        phi = float(np.dot(k, tm.t))  # γ_t first
        acc = (0,) * phase.p
        for m, v, b in zip(k, cols, squares):
            step = tuple(m * x for x in v)
            _check_int64(step)
            phi += b * m * (m - 1) / 2.0 + reorder_exponent(acc, step, phase)
            acc = tuple(x + y for x, y in zip(acc, step))
            _check_int64(acc)
        out[acc] = out.get(acc, 0.0) + c * np.exp(2j * np.pi * phi)
    return TwistedPolynomial(phase, out)


def polynomial_to_jsonable(a: TwistedPolynomial) -> dict:
    rows = sorted((list(k), c.real, c.imag) for k, c in a.coeffs.items())
    return {
        "p": a.phase.p,
        "theta": [[float(x) for x in row] for row in a.phase.theta],
        "coefficients": [[k, re, im] for k, re, im in rows],
    }


def polynomial_from_jsonable(obj: dict) -> TwistedPolynomial:
    try:
        p, theta = int(obj["p"]), np.array(obj["theta"], dtype=float)
        coeffs = {tuple(int(x) for x in k): complex(re, im)
                  for k, re, im in obj["coefficients"]}
    except KeyError as exc:
        raise PreconditionError(f"twisted-polynomial JSON lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed twisted-polynomial JSON: {exc}") from exc
    return TwistedPolynomial(PhaseMatrix(p, theta), coeffs)


def polynomial_to_json(a: TwistedPolynomial) -> str:
    return json.dumps(polynomial_to_jsonable(a), sort_keys=True)


def polynomial_from_json(text: str) -> TwistedPolynomial:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise PreconditionError(f"twisted polynomial is not JSON: {exc}") from exc
    return polynomial_from_jsonable(obj)
