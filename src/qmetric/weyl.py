"""Finite Weyl (clock-and-shift) matrix algebras on site windows.

A window [lo, hi] of sites carries the algebra M_p^{⊗[lo,hi]}. Elements are
dense matrices of side p^(hi-lo+1) together with their expansion in the
Weyl monomial basis u^i v^j per site, where u is the clock matrix
diag(1, ρ, ..., ρ^(p-1)), ρ = exp(2πi/p), and v is the cyclic shift with
1's on the superdiagonal and in the bottom-left entry, so that vu = ρ uv.

The product group (Z_p × Z_p)^window acts by γ_{(r,s)}(u) = ρ^r u,
γ_{(r,s)}(v) = ρ^s v sitewise; with the weighted length
ℓ_λ(g) = Σ_k λ^|k| ℓ(g_k) (ℓ the Euclidean distance to 0 on R²/Z²) this
yields a Lip seminorm as a supremum over the finite group, visited
in descending order of the triangle bound and pruned once no remaining
element can beat it.

Monomial exponents are tuples of (i, j) pairs, one pair per site in window
order. weyl_expand returns the coefficients as one (p,)*2W array indexed
(i_0, j_0, i_1, j_1, ...), the same pairing as a group element's (r_k, s_k);
its flat order is the GNS vector, and a coefficient at or below the relative
tolerance is stored as 0.
Conditional expectations need no basis: since τ(u^i v^j) = 0
unless i = j = 0, E_n is the normalized partial trace over the sites outside
[-n, n], taken on the matrix directly.
"""

from __future__ import annotations

import itertools
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


def _shear(t: np.ndarray, k: int, step: int) -> np.ndarray:
    """Regather site k's column digit c of the (p,)*2W tensor t at c + step·(row digit) mod p."""
    p, W = t.shape[0], t.ndim // 2
    b = np.arange(p)[:, None]
    t = np.moveaxis(t, (k, W + k), (0, 1))
    return np.moveaxis(t[b, (np.arange(p) + step * b) % p], (0, 1), (k, W + k))


# weyl_expand keeps a coefficient above this fraction of the largest matrix entry
_EXPAND_TOL = 1e-13


def weyl_expand(a: WeylElement) -> np.ndarray:
    """Weyl-basis coefficients c_m = τ(m* a) via DFT over Z_p^W, one site at a time.

    For the monomial m with exponents (i_k, j_k) one has
    m[b, b+j] = Π_k ρ^(i_k b_k), so τ(m* a) is the Z_p^W Fourier transform
    of the generalized diagonal b ↦ a[b, b+j]. On the (p,)*2W tensor view of a,
    each site's (row b, column c) axes are sheared to (b, j = c - b) and transformed
    over b, last site first as in ``fftn``, so each 1-D transform sees fftn's line.

    The result is a read-only complex array of shape (p,)*2W, indexed
    (i_0, j_0, i_1, j_1, ...) in window order. The tolerance is relative: a
    coefficient whose modulus is at most _EXPAND_TOL·max|a_bc| is stored as 0,
    so c·a has the support of a for every scalar c ≠ 0.
    """
    w = a.window
    W = w.n_sites
    t = a.matrix.reshape((w.p,) * (2 * W))
    for k in reversed(range(W)):
        t = np.fft.fft(_shear(t, k, 1), axis=k)
    # axes (i_0, ..., i_{W-1}, j_0, ..., j_{W-1}) interleaved as (i_0, j_0, i_1, j_1, ...)
    c = t.transpose([ax for k in range(W) for ax in (k, W + k)])
    c /= w.dim
    c[np.abs(c) <= _EXPAND_TOL * float(np.abs(a.matrix).max())] = 0
    c.flags.writeable = False
    return c


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


def site_length(p: int, r, s):
    """Distance of (r/p, s/p) to 0 in R²/Z² with the Euclidean metric, elementwise
    for arrays of r and s."""
    r, s = np.mod(r, p), np.mod(s, p)
    return np.hypot(np.minimum(r, p - r) / p, np.minimum(s, p - s) / p)


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

    It is conjugation by ⊗_k v^(r_k) u^(-s_k), so entrywise
    γ_g(a)[b, c] = ρ^(s·(c-b)) a[b+r, c+r], the digits of b + r added mod p:
    a gather through that index and a rank-one phase φφ*, φ[b] = ρ^(-s·b).
    """
    if g.window != a.window:
        raise PreconditionError("group element and element windows differ")
    p = a.window.p
    digit = np.arange(p)
    src, expo = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.int64)
    for r, s in g.pairs:
        src = (src[:, None] * p + (digit + r) % p).ravel()
        expo = (expo[:, None] + s * digit).ravel() % p
    phase = np.exp(-2j * np.pi / p * expo)
    return WeylElement(a.window, a.matrix[np.ix_(src, src)] * np.outer(phase, phase.conj()))


# the bound table's chunks: at most 2^20 characters and 2^16 group elements each
_CHUNK_ENTRIES = 1 << 20
_CHUNK_ROWS = 1 << 16


def _bound_table(w: WeylWindow, c: np.ndarray, E: np.ndarray,
                 lam: float) -> tuple[np.ndarray, np.ndarray]:
    """ℓ_λ(g) and the triangle numerator B(g) = Σ_m |c_m (χ_m(g) - 1)| of every
    group element g, in the flat order of its digits (r_0, s_0, r_1, s_1, ...).

    That order is the (p²,)^W grid of site pairs t = r p + s, so both are built
    from per-site tables over t: λ^|k| ℓ(r, s), and (i_k r + j_k s) mod p for
    each monomial of the support E, in the smallest unsigned dtype that holds
    2(p - 1). The trailing sites form one block of outer sums mod p, shared by
    every chunk; each chunk is one value of the leading sites and adds their
    sum mod p as an offset. The character index t < 2p - 1 reads a table of
    |c_m (ρ^(t mod p) - 1)|, and ℓ_λ and B are row sums of (rows, W) and
    (rows, k) arrays, summed in the same order as a per-element computation.
    """
    p, W, k = w.p, w.n_sites, len(E)
    q = p * p
    trailing = 0  # sites in the shared block: the most that keep a chunk in budget
    while (trailing < W and q ** (trailing + 1) <= _CHUNK_ROWS
           and q ** (trailing + 1) * k <= _CHUNK_ENTRIES):
        trailing += 1
    leading = W - trailing
    dtype = np.min_scalar_type(2 * (p - 1))
    r, s = np.divmod(np.arange(q), p)
    site_lens = [site_length(p, r, s) * lam ** abs(x) for x in w.sites]
    site_chars = [((np.outer(r, E[:, 2 * j]) + np.outer(s, E[:, 2 * j + 1])) % p).astype(dtype)
                  for j in range(W)]
    rho = np.exp(2j * np.pi / p)
    term_table = np.abs(c[tuple(E.T)][:, None] * (rho ** (np.arange(2 * p) % p) - 1.0))

    block = np.zeros((1, k), dtype=dtype)
    for T in site_chars[leading:]:
        block = ((block[:, None, :] + T[None, :, :]) % p).reshape(-1, k)
    ell = np.empty((q,) * trailing + (W,))
    for j in range(leading, W):
        ell[..., j] = site_lens[j].reshape((q,) + (1,) * (W - 1 - j))
    ell = ell.reshape(len(block), W)

    lens, num = np.empty(q ** W), np.empty(q ** W)
    monomials = np.arange(k)
    for chunk, prefix in enumerate(itertools.product(range(q), repeat=leading)):
        offset = np.zeros(k, dtype=dtype)
        for j, t in enumerate(prefix):
            offset = (offset + site_chars[j][t]) % p
            ell[:, j] = site_lens[j][t]
        rows = slice(chunk * len(block), (chunk + 1) * len(block))
        lens[rows] = ell.sum(axis=1)
        num[rows] = term_table[monomials, block + offset].sum(axis=1)
    return lens, num


def weyl_lip_norm(a: WeylElement, lam: float) -> float:
    """L(a) = sup over nonidentity g of ‖γ_g(a) - a‖ / ℓ_λ(g), exact but for
    the coefficients that weyl_expand drops.

    The supremum runs over all p^(2W) group elements. Since
    γ_g(a) - a = Σ_m c_m (χ_m(g) - 1) m and monomials are unitary,
    B(g) / ℓ_λ(g) with B(g) = Σ_m |c_m (χ_m(g) - 1)| bounds g's ratio from
    above. Elements are visited in stable descending order of that bound, and
    the visit stops at the first bound below the supremum so far (with a
    relative margin of 1e-12, so near-ties are still computed). No skipped
    element can exceed the result, which is the exact supremum when no
    coefficient is dropped. B and the fiber test below ignore the dropped ones
    (each at most _EXPAND_TOL·max|a_bc|), so where λ^|k| is tiny an element
    whose ratio comes from them alone can be skipped and the value falls short.

    γ_g(a) - a depends on g only through its characters χ_m(g), and the
    elements of one character fiber share B bit for bit. So a fiber is first
    visited at a shortest member, and a later one is skipped without a norm.

    ℓ_λ and B of all group elements come from _bound_table, which broadcasts
    per-site tables over the (p²,)^W grid of group elements: no digit
    division and no integer matrix product, in chunks of at most 2^20
    characters.
    """
    if not (0.0 < lam < 1.0):
        raise PreconditionError("λ must lie in (0, 1)")
    w = a.window
    p, W = w.p, w.n_sites
    total = p ** (2 * W)
    check_cap("group_enum", total, "Weyl group enumeration")

    c = weyl_expand(a)
    # the nonidentity support, columns (i_0, j_0, i_1, j_1, ...) pairing with group (r_0, s_0, ...)
    E = np.argwhere(c)
    E = E[E.any(axis=1)]
    if not len(E):
        return 0.0

    lens, num = _bound_table(w, c, E, lam)
    powers = p ** np.arange(2 * W - 1, -1, -1, dtype=np.int64)

    sup = 0.0
    taken: dict[float, list[np.ndarray]] = {}  # visited elements by their B
    # element 0 is the identity
    for i in 1 + np.argsort(-(num[1:] / lens[1:]), kind="stable"):
        if num[i] / lens[i] * (1.0 + 1e-12) < sup:
            break
        g = (i // powers) % p
        mates = taken.setdefault(num[i], [])
        if any(((E @ (g - h)) % p == 0).all() for h in mates):
            continue
        mates.append(g)
        elem = GroupElement(w, tuple(zip(g[0::2].tolist(), g[1::2].tolist())))
        sup = max(sup, operator_norm(weyl_action(elem, a).matrix - a.matrix) / lens[i])
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


def family_lip_max(p: int, reach: int, lam: float) -> float:
    """max of monomial_lip_norm over every monomial on a window whose outermost
    site is ±reach, the same float.

    Every per-site term |ρ^(r i + s j) - 1| / (λ^|site| ℓ(r, s)) is at most
    max_t |ρ^t - 1| / (λ^reach ℓ(1, 0)), which (i, j) = (t, 0) on the outermost
    site attains, as ℓ(1, 0) = 1/p is the least nonzero length. Rounding is
    monotone, so the float maximum is that one quotient.
    """
    if p < 2:
        raise PreconditionError(f"p must be >= 2, got {p}")
    if not (0.0 < lam < 1.0):
        raise PreconditionError("λ must lie in (0, 1)")
    check_cap("group_enum", p, "Weyl site characters")
    rho = np.exp(2j * np.pi / p)
    num = max(abs(rho ** t - 1.0) for t in range(1, p))
    return float(num / (lam ** abs(reach) * site_length(p, 1, 0)))
