"""Finite Weyl (clock-and-shift) matrix algebras on site windows.

A window [lo, hi] of sites carries the algebra M_p^{⊗[lo,hi]}. Elements are
dense matrices of side p^(hi-lo+1) together with their expansion in the
Weyl monomial basis u^i v^j per site, where u is the clock matrix
diag(1, ρ, ..., ρ^(p-1)), ρ = exp(2πi/p), and v is the cyclic shift with
1's on the superdiagonal and in the bottom-left entry, so that vu = ρ uv.

The product group (Z_p × Z_p)^window acts by γ_{(r,s)}(u) = ρ^r u,
γ_{(r,s)}(v) = ρ^s v sitewise; with the weighted length
ℓ_λ(g) = Σ_k λ^|k| ℓ(g_k) (ℓ the Euclidean distance to 0 on R²/Z²) this
yields an exact Lip seminorm as a supremum over the finite group, taken
fiber by fiber and pruned by an upper bound that no skipped fiber can beat.

Monomial exponents are tuples of (i, j) pairs, one pair per site in window
order. The coefficient basis is the ground truth for GNS vectors.
Conditional expectations need no basis: since τ(u^i v^j) = 0
unless i = j = 0, E_n is the normalized partial trace over the sites outside
[-n, n], taken on the matrix directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .caps import check_cap
from .errors import PreconditionError
from .linalg import as_matrix, operator_norm

Exponents = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WeylWindow:
    p: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.p < 2:
            raise PreconditionError(f"p must be >= 2, got {self.p}")
        if self.lo > self.hi:
            raise PreconditionError(f"empty window [{self.lo}, {self.hi}]")
        check_cap("matrix_dim", self.dim, "Weyl window matrix")

    @property
    def n_sites(self) -> int:
        return self.hi - self.lo + 1

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1))

    @property
    def dim(self) -> int:
        return self.p**self.n_sites


@dataclass(frozen=True)
class WeylElement:
    window: WeylWindow
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.window.dim, self.window.dim):
            raise PreconditionError(
                f"matrix shape {m.shape} does not match window dimension {self.window.dim}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        a, b = align(self, other)
        return WeylElement(a.window, a.matrix @ b.matrix)

    def adjoint(self) -> "WeylElement":
        return WeylElement(self.window, self.matrix.conj().T)

    def norm(self) -> float:
        return operator_norm(self.matrix)


@dataclass(frozen=True)
class WeylCoefficients:
    window: WeylWindow
    data: dict[Exponents, complex] = field(repr=False)


@dataclass(frozen=True)
class GroupElement:
    window: WeylWindow
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.pairs) != self.window.n_sites:
            raise PreconditionError("group element length does not match window")
        p = self.window.p
        if any(not (0 <= r < p and 0 <= s < p) for r, s in self.pairs):
            raise PreconditionError("group coordinates must be reduced mod p")

    @property
    def is_identity(self) -> bool:
        return all(pair == (0, 0) for pair in self.pairs)


@lru_cache(maxsize=32)
def clock_shift(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Clock u = diag(1, ρ, ..., ρ^(p-1)) and shift v with vu = ρ uv."""
    if p < 2:
        raise PreconditionError(f"p must be >= 2, got {p}")
    rho = np.exp(2j * np.pi / p)
    u = np.diag(rho ** np.arange(p))
    v = np.zeros((p, p), dtype=np.complex128)
    for i in range(p - 1):
        v[i, i + 1] = 1.0
    v[p - 1, 0] = 1.0
    u.flags.writeable = False
    v.flags.writeable = False
    return u, v


@lru_cache(maxsize=64)
def _site_power(p: int, which: int, k: int) -> np.ndarray:
    """u^k (which = 0) or v^k (which = 1) as the iterated product 1·g·g·…·g."""
    g = clock_shift(p)[which]
    out = np.eye(p, dtype=np.complex128)
    for _ in range(k):
        out = out @ g
    out.flags.writeable = False
    return out


def weyl_monomial(window: WeylWindow, exponents: Exponents) -> WeylElement:
    """Tensor product of per-site u^i v^j over the window."""
    exponents = normalize_exponents(window, exponents)
    p = window.p
    out = np.array([[1.0 + 0j]])
    for i, j in exponents:
        out = np.kron(out, _site_power(p, 0, i) @ _site_power(p, 1, j))
    return WeylElement(window, out)


def normalize_exponents(window: WeylWindow, exponents) -> Exponents:
    exponents = tuple((int(i) % window.p, int(j) % window.p) for i, j in exponents)
    if len(exponents) != window.n_sites:
        raise PreconditionError(
            f"{len(exponents)} exponent pairs for a {window.n_sites}-site window"
        )
    return exponents


def _diagonal_columns(p: int, digits: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Flat column of a[b, b+j] per row b and shift j, one digit at a time
    (a (rows, shifts, W) broadcast is too large)."""
    W = digits.shape[1]
    cols = np.zeros((len(digits), len(shifts)), dtype=np.int64)
    for k in range(W):
        cols += (digits[:, k, None] + shifts[None, :, k]) % p * p ** (W - 1 - k)
    return cols


# entries per batched array (diagonals in weyl_expand, fiber factors in
# weyl_lip_norm): about 1 MB of complex128
_BATCH_ENTRIES = 1 << 16
# weyl_expand keeps a coefficient above this fraction of the largest matrix entry
_EXPAND_TOL = 1e-13


def weyl_expand(a: WeylElement) -> WeylCoefficients:
    """Weyl-basis coefficients c_m = τ(m* a) via DFT over Z_p^W.

    For the monomial m with exponents (i_k, j_k) one has
    m[b, b+j] = Π_k ρ^(i_k b_k), so τ(m* a) is the Z_p^W Fourier transform
    of the generalized diagonal b ↦ a[b, b+j]. The diagonals of a batch of
    shifts j (at most _BATCH_ENTRIES entries) are gathered into one array with
    the batch axis last and transformed by one ``fftn``.

    The tolerance is relative: a coefficient is kept when its modulus
    exceeds _EXPAND_TOL·max|a_bc|, so c·a has the support of a for every scalar
    c ≠ 0. Keys are ordered by shift j, then by i, both row-major.
    """
    w = a.window
    p, W, d = w.p, w.n_sites, w.dim
    m = a.matrix
    thresh = _EXPAND_TOL * float(np.abs(m).max())
    digits = (np.arange(d)[:, None] // (p ** np.arange(W - 1, -1, -1))[None, :]) % p
    digit_tuples = [tuple(row) for row in digits.tolist()]
    rows = np.arange(d)[:, None]
    batch = max(1, _BATCH_ENTRIES // d)
    data: dict[Exponents, complex] = {}
    for start in range(0, d, batch):
        shifts = digits[start:start + batch]
        cols = _diagonal_columns(p, digits, shifts)
        diags = m[rows, cols].reshape((p,) * W + (len(shifts),))
        coeff = (np.fft.fftn(diags, axes=tuple(range(W))) / d).reshape(d, -1).T
        for jj, iflat in zip(*np.nonzero(np.abs(coeff) > thresh)):
            exps = tuple(zip(digit_tuples[iflat], digit_tuples[start + jj]))
            data[exps] = complex(coeff[jj, iflat])
    return WeylCoefficients(w, data)


def reconstruct(coeffs: WeylCoefficients) -> WeylElement:
    """Inverse of weyl_expand: Σ c_m · m assembled shiftwise by inverse DFT."""
    w = coeffs.window
    p, W, d = w.p, w.n_sites, w.dim
    by_shift: dict[tuple[int, ...], np.ndarray] = {}
    shape = (p,) * W
    for exps, c in coeffs.data.items():
        jvec = tuple(j for _, j in exps)
        ivec = tuple(i for i, _ in exps)
        tensor = by_shift.setdefault(jvec, np.zeros(shape, dtype=np.complex128))
        tensor[ivec] += c
    m = np.zeros((d, d), dtype=np.complex128)
    rows = np.arange(d)
    digits = (rows[:, None] // (p ** np.arange(W - 1, -1, -1))[None, :]) % p
    for jvec, tensor in by_shift.items():
        diag = np.fft.ifftn(tensor) * d
        cols = _diagonal_columns(p, digits, np.array([jvec]))[:, 0]
        m[rows, cols] += diag.reshape(-1)
    return WeylElement(w, m)


def trace(a: WeylElement) -> complex:
    """Normalized trace (the unique tracial state on the window algebra)."""
    return complex(np.trace(a.matrix) / a.window.dim)


def align(a: WeylElement, b: WeylElement) -> tuple[WeylElement, WeylElement]:
    """Embed both elements into the hull window, tensoring identities."""
    if a.window.p != b.window.p:
        raise PreconditionError("elements live over different p")
    lo = min(a.window.lo, b.window.lo)
    hi = max(a.window.hi, b.window.hi)
    hull = WeylWindow(a.window.p, lo, hi)
    return embed(a, hull), embed(b, hull)


def embed(a: WeylElement, window: WeylWindow) -> WeylElement:
    if a.window.p != window.p:
        raise PreconditionError("embedding must preserve p")
    if window.lo > a.window.lo or window.hi < a.window.hi:
        raise PreconditionError("target window does not contain the element's window")
    if window == a.window:
        return a
    p = window.p
    left = p ** (a.window.lo - window.lo)
    right = p ** (window.hi - a.window.hi)
    check_cap("matrix_dim", window.dim, "embedded element")
    m = np.kron(np.kron(np.eye(left), a.matrix), np.eye(right))
    return WeylElement(window, m)


def conditional_expectation(a: WeylElement, n: int) -> WeylElement:
    """E_n: kill every Weyl coefficient with a nontrivial exponent outside [-n, n].

    Since τ(u^i v^j) = 0 unless i = j = 0, this is τ_outer(a) ⊗ 1_outer, the
    normalized partial trace over the sites outside [-n, n]. With the matrix
    viewed as (L, M, R, L, M, R), L and R the outer sides left and right of the
    kept sites, the block is the sum over the diagonals of L and R divided by
    L·R, written back on the same diagonals of a zeroed matrix. When [-n, n]
    covers the window, E_n a = a and a itself is returned.
    """
    w = a.window
    if n < 0:
        raise PreconditionError("E_n needs n >= 0")
    if w.hi < -n or w.lo > n:
        raise PreconditionError(f"window [{w.lo},{w.hi}] does not intersect [-{n},{n}]")
    p = w.p
    left = p ** (max(w.lo, -n) - w.lo)
    right = p ** (w.hi - min(w.hi, n))
    if left == right == 1:
        return a
    mid = w.dim // (left * right)
    block = np.einsum("aibajb->ij", a.matrix.reshape((left, mid, right) * 2)) / (left * right)
    out = np.zeros((left, mid, right) * 2, dtype=np.complex128)
    np.einsum("aibajb->abij", out)[...] = block
    return WeylElement(w, out.reshape(w.dim, w.dim))


def site_length(p: int, r: int, s: int) -> float:
    """Distance of (r/p, s/p) to 0 in R²/Z² with the Euclidean metric."""
    r %= p
    s %= p
    return float(np.hypot(min(r, p - r) / p, min(s, p - s) / p))


def group_length(g: GroupElement, lam: float) -> float:
    """ℓ_λ(g) = Σ_k λ^|k| ℓ(r_k, s_k); zero iff g is the identity."""
    if not (0.0 < lam < 1.0):
        raise PreconditionError("λ must lie in (0, 1)")
    p = g.window.p
    return float(
        sum(
            lam ** abs(site) * site_length(p, r, s)
            for site, (r, s) in zip(g.window.sites, g.pairs)
        )
    )


def weyl_action(g: GroupElement, a: WeylElement) -> WeylElement:
    """γ_g: multiply the coefficient at (i_k, j_k) by Π_k ρ^(r_k i_k + s_k j_k).

    Realized as conjugation by ⊗_k v^(r_k) u^(-s_k), which fixes u ↦ ρ^r u
    and v ↦ ρ^s v sitewise.
    """
    if g.window != a.window:
        raise PreconditionError("group element and element windows differ")
    p = a.window.p
    u, v = clock_shift(p)
    conj = np.array([[1.0 + 0j]])
    for r, s in g.pairs:
        w_site = np.linalg.matrix_power(v, r) @ np.linalg.matrix_power(u, (-s) % p)
        conj = np.kron(conj, w_site)
    return WeylElement(a.window, conj @ a.matrix @ conj.conj().T)


def _enumerate_group(p: int, n_coords: int, chunk: int = 1 << 16):
    """Yield chunks of all vectors in Z_p^n_coords as int64 arrays."""
    total = p**n_coords
    powers = p ** np.arange(n_coords - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // powers[None, :]) % p


def _fiber_minima(chars: np.ndarray, lens: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct character rows (entries in Z_p), in lexicographic order, and the
    minimal length over each one's fiber.

    Each row is packed into int64 words of ⌊63/b⌋ columns at b = (p-1).bit_length()
    bits per column, most significant column first. One lexsort of the words
    orders the rows lexicographically, a fiber starts wherever the words
    change, and np.minimum.reduceat takes each fiber's minimum.
    """
    if len(chars) == 0:
        return chars, lens
    bits = (p - 1).bit_length()
    per_word = 63 // bits
    words = []
    for start in range(0, chars.shape[1], per_word):
        block = chars[:, start:start + per_word].astype(np.int64)
        shifts = bits * np.arange(block.shape[1] - 1, -1, -1, dtype=np.int64)
        words.append((block << shifts).sum(axis=1))
    order = np.lexsort(words[::-1])
    keys = np.stack(words)[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new)
    return chars[order[starts]], np.minimum.reduceat(lens[order], starts)


def weyl_lip_norm(a: WeylElement, lam: float) -> float:
    """Exact L(a) = sup over nonidentity g of ‖γ_g(a) - a‖ / ℓ_λ(g).

    The supremum runs over all p^(2W) group elements. Since
    γ_g(a) - a = Σ_m c_m (χ_m(g) - 1) m depends on g only through the
    character values on the coefficient support, elements are grouped by
    character fiber, and a fiber's value is one operator norm divided by
    the minimal ℓ_λ over the fiber. Monomials are unitary, so
    Σ_m |c_m (χ_m - 1)| / ℓ_min bounds a fiber's value from above. Fibers
    are visited in descending order of that bound, and the visit stops at
    the first bound below the supremum so far (with a relative margin of
    1e-12, so near-ties are still computed). No skipped fiber can exceed
    the result, which is the exact supremum.
    """
    if not (0.0 < lam < 1.0):
        raise PreconditionError("λ must lie in (0, 1)")
    w = a.window
    p, W = w.p, w.n_sites
    check_cap("group_enum", p ** (2 * W), "Weyl group enumeration")

    coeffs = weyl_expand(a)
    support = [(exps, c) for exps, c in coeffs.data.items() if any(pair != (0, 0) for pair in exps)]
    if not support:
        return 0.0

    # columns ordered (i_0, j_0, i_1, j_1, ...) to pair with group (r_0, s_0, ...)
    E = np.array([[x for pair in exps for x in pair] for exps, _ in support], dtype=np.int64)
    site_weights = np.array([lam ** abs(k) for k in w.sites])
    # per-site length table ℓ(r, s) for r, s in Z_p
    rr, ss = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    ell_table = np.hypot(np.minimum(rr, p - rr) / p, np.minimum(ss, p - ss) / p)

    char_dtype = np.min_scalar_type(p - 1)
    chunks = []
    for G in _enumerate_group(p, 2 * W):
        r = G[:, 0::2]
        s = G[:, 1::2]
        lens = (ell_table[r, s] * site_weights[None, :]).sum(axis=1)
        chars = ((G @ E.T) % p).astype(char_dtype)
        nonzero = chars.any(axis=1)
        chunks.append(_fiber_minima(chars[nonzero], lens[nonzero], p))
    fibers, ell_min = _fiber_minima(np.concatenate([f for f, _ in chunks]),
                                    np.concatenate([b for _, b in chunks]), p)

    rho = np.exp(2j * np.pi / p)
    monos = np.stack([weyl_monomial(w, exps).matrix for exps, _ in support])
    values = np.array([c for _, c in support])

    def factors(t):
        return values * (rho ** t.astype(np.int64) - 1.0)

    step = max(1, _BATCH_ENTRIES // len(support))
    bound = np.concatenate([np.abs(factors(fibers[i:i + step])).sum(axis=1)
                            for i in range(0, len(fibers), step)]) / ell_min
    sup = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] * (1.0 + 1e-12) < sup:
            break
        diff = np.tensordot(factors(fibers[i]), monos, axes=1)
        sup = max(sup, operator_norm(diff) / ell_min[i])
    return float(sup)


def monomial_lip_norm(window: WeylWindow, exponents, lam: float) -> float:
    """Closed-form L of a Weyl monomial.

    For a monomial the numerator |Π_k ρ^(r_k i_k + s_k j_k) - 1| is at most
    the sum of per-site terms while ℓ_λ is a sum, so the supremum is
    attained on single-site group elements and reduces to a finite max.
    """
    if not (0.0 < lam < 1.0):
        raise PreconditionError("λ must lie in (0, 1)")
    exponents = normalize_exponents(window, exponents)
    p = window.p
    rho = np.exp(2j * np.pi / p)
    best = 0.0
    for site, (i, j) in zip(window.sites, exponents):
        weight = lam ** abs(site)
        for r in range(p):
            for s in range(p):
                if (r, s) == (0, 0):
                    continue
                num = abs(rho ** ((r * i + s * j) % p) - 1.0)
                best = max(best, num / (weight * site_length(p, r, s)))
    return best


def family_lip_max(window: WeylWindow, lam: float) -> float:
    """max of monomial_lip_norm over every monomial on the window, the same float.

    A monomial's L is the largest of its per-site terms, each divided by
    λ^|site|, so the largest over the family sits on a monomial supported on
    one outermost site: p² − 1 evaluations instead of p^(2W).
    """
    p = window.p
    edge = max(range(window.n_sites), key=lambda k: abs(window.sites[k]))
    best = 0.0
    for i in range(p):
        for j in range(p):
            if (i, j) == (0, 0):
                continue
            exps = [(0, 0)] * window.n_sites
            exps[edge] = (i, j)
            best = max(best, monomial_lip_norm(window, exps, lam))
    return best
