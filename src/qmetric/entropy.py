"""Product-entropy estimators: orbit product sets, the shift-entropy bracket
on tensor powers of M_p, Minkowski-sum growth of integer lattice sets under
unimodular toral matrices, the eigenvalue closed form Σ_{|λ|>=1} log|λ|, and
a computable box bound on sum-set cardinalities.

Lattice points pack into uint64 keys: 32 bits per coordinate for p <= 2,
16 bits for p in {3, 4} (the cat-map run to n = 14 reaches coordinates
near 5·10^5, beyond 16 bits), the first coordinate lowest. A lattice set is
stored as the maximal runs of consecutive keys, each a row segment along
the first coordinate, and carries its coordinate bounding box. A Minkowski
sum translates the runs of one summand by the keys of the other, in
whichever orientation forms fewer candidate runs, and merges them with
two value sorts, one of the starts and one of the stops, cutting a run
wherever a start lies past the previous stop + 1; this is exact for a
union of integer intervals. The box of a sum is the sum of the boxes; it
is checked against the field range before any add, because an add that
leaves the field would carry silently into the next one. Packing overflow
aborts rather than wraps. Candidate runs are merged in batches of at most
2^22, with the lattice cap checked on the cardinality after each batch.
The growth S_n = Σ_{j<n} T^j K_m adds the cube T^j K_m as p segments
{-m..m}·T^j e_i, each built straight as runs (the keys of a segment are an
arithmetic progression), so each sum forms at most 2m+1 candidate runs per
run of the running sum; along the cat map's growth a run holds about 8.5
keys.

Orbit product sets of twisted monomials add exponents as the same packed
keys. The kept products are held in key order with the rank of their
first occurrence, so a layer's candidates are sorted rows, one per layer
monomial, and one stable sort that merges the rows finds each new key with
its first (kept product, layer monomial) pair. The products come back as a
read-only sequence over an int64 exponent array and a complex128
coefficient array; each monomial is built when read.

Growth slopes are tail regressions with per-step log differences reported
as diagnostics; no claimed limits.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isfinite

import numpy as np

from . import approxdim, nctorus
from .caps import check_cap
from .errors import NumericalError, PreconditionError, ResourceLimitError
from .linalg import as_unimodular, int_matmul

__all__ = [
    "LatticeSet",
    "GrowthSeries",
    "minkowski_sum",
    "lattice_orbit_card",
    "eigen_entropy",
    "char_poly_int",
    "box_bound_card",
    "entropy_slope",
    "shift_entropy_bracket",
    "product_set",
]


def _coord_bits(p: int) -> int:
    if p <= 2:
        return 32
    if p <= 4:
        return 16
    raise PreconditionError("lattice sets support dimensions p <= 4")


def _check_range(lo, hi, p: int) -> None:
    """Abort when a box leaves the packable range |x| < 2^(bits-1)."""
    bits = _coord_bits(p)
    limit = 1 << (bits - 1)
    worst = max([-x for x in lo] + [x for x in hi], default=0)
    if worst >= limit:
        raise ResourceLimitError(f"lattice coordinate {worst} exceeds {bits}-bit packing")


def _pack(points: np.ndarray, p: int) -> np.ndarray:
    bits = _coord_bits(p)
    if points.size:
        _check_range(points.min(axis=0).tolist(), points.max(axis=0).tolist(), p)
    offset = 1 << (bits - 1)
    keys = np.zeros(len(points), dtype=np.uint64)
    for i in range(p):
        keys |= (points[:, i] + offset).astype(np.uint64) << np.uint64(bits * i)
    return keys


def _unpack(keys: np.ndarray, p: int) -> np.ndarray:
    bits = _coord_bits(p)
    offset = 1 << (bits - 1)
    mask = np.uint64((1 << bits) - 1)
    pts = np.empty((len(keys), p), dtype=np.int64)
    for i in range(p):
        pts[:, i] = ((keys >> np.uint64(bits * i)) & mask).astype(np.int64) - offset
    return pts


def _shifts(keys: np.ndarray, p: int) -> np.ndarray:
    """Packed keys as translations: adding one to a key inside the range
    translates its point by this key's point (uint64 wraps for negatives)."""
    bits = _coord_bits(p)
    return keys - np.uint64(sum(1 << (bits * i + bits - 1) for i in range(p)))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort in place (stable: timsort merges presorted runs) and drop repeats."""
    keys.sort(kind="stable")
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    # compress takes a quarter of a boolean index's time unless nearly every key is kept
    return np.compress(keep, keys)


def _integral(x) -> int | None:
    """x as an int when it is an integral real number, else None."""
    try:
        return operator.index(x)
    except TypeError:
        pass
    if isinstance(x, numbers.Real) and isfinite(x) and x == int(x):
        return int(x)
    return None


def _integral_points(points, p: int) -> np.ndarray:
    """points as an (N, p) int64 array; a point of another length or a
    coordinate that is not an integer is a precondition error, a coordinate
    outside the packable range a resource error."""
    try:
        pts = np.asarray(points)
    except ValueError:  # ragged nesting
        raise PreconditionError(f"lattice points must form an (N, {p}) array") from None
    if not pts.size:
        return np.zeros((0, p), dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != p:
        raise PreconditionError(f"lattice points must form an (N, {p}) array, not {pts.shape}")
    if pts.dtype.kind in "fO":
        try:
            pts = pts.astype(float)
        except OverflowError:
            raise ResourceLimitError("lattice coordinate exceeds the float range") from None
        except (TypeError, ValueError):  # objects that are not numbers
            raise PreconditionError("lattice coordinates must be integers") from None
        if not np.all(np.isfinite(pts) & (pts == np.trunc(pts))):
            raise PreconditionError("lattice coordinates must be integers")
    elif pts.dtype.kind not in "biu":
        raise PreconditionError("lattice coordinates must be integers")
    # before the cast, which would wrap an unsigned or large float value
    _check_range(pts.min(axis=0).tolist(), pts.max(axis=0).tolist(), p)
    return pts.astype(np.int64)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last keys of the maximal runs of sorted unique keys."""
    brk = np.empty(len(keys) + 1, dtype=bool)
    brk[0] = brk[-1] = True
    # keys[:-1] + 1 does not wrap: only the last key can be the largest
    np.not_equal(keys[1:], keys[:-1] + np.uint64(1), out=brk[1:-1])
    return np.compress(brk[:-1], keys), np.compress(brk[1:], keys)


def _merge_translates(starts, stops, shifts: np.ndarray, runs: "LatticeSet"):
    """Maximal runs of the union of the runs [starts[i], stops[i]] and the
    runs of ``runs`` translated by each packed shift in the column ``shifts``,
    with the cardinality of that union.

    The starts and the stops are sorted separately, which keeps the union:
    a key x lies in #{starts <= x} - #{stops < x} intervals, so no key
    between the i-th sorted stop and the (i+1)-th sorted start is covered,
    and a new run begins exactly where start[i] > stop[i-1] + 1.
    """
    s, e = (shifts + runs.starts).ravel(), (shifts + runs.stops).ravel()
    if len(starts):
        s, e = np.concatenate([starts, s]), np.concatenate([stops, e])
    # stable: timsort merges the presorted translates
    s.sort(kind="stable")
    e.sort(kind="stable")
    # no field is ever zero (_check_range), so s - 1 does not wrap where e + 1 might
    s -= np.uint64(1)
    cut = np.empty(len(s) + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.greater(s[1:], e[:-1], out=cut[1:-1])
    # each compress frees the candidates it replaces
    s = np.compress(cut[:-1], s)
    s += np.uint64(1)
    e = np.compress(cut[1:], e)
    # the sums wrap modulo 2^64, and their difference is below it
    return s, e, (int(e.sum()) - int(s.sum())) % (1 << 64) + len(s)


@dataclass(frozen=True, init=False, eq=False)
class LatticeSet:
    """Finite subset of Z^p with set semantics, stored as the maximal runs
    of consecutive packed keys.

    A run is a row segment: the lowest coordinate steps by one and the
    others stay fixed. No packed field is ever zero (``_check_range`` keeps
    coordinates above -2^(bits-1)), so a run never crosses into the next
    row, and a run translated by a packed shift is again a run.
    ``starts``/``stops`` are the first and last keys of the runs, sorted,
    with at least one absent key between runs; ``lo``/``hi`` are the
    coordinate bounding box. ``LatticeSet(p, keys)`` takes packed keys in
    any order, with repeats, and derives the runs and the box from them.
    Maximal runs are canonical, so equality of ``p`` and the runs is set
    equality, and the hash is taken over the same.
    """

    p: int
    starts: np.ndarray = field(repr=False)
    stops: np.ndarray = field(repr=False)
    cardinality: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __init__(self, p: int, keys):
        keys = _sorted_unique(np.array(keys, dtype=np.uint64).ravel())
        used = _coord_bits(p) * p
        if used < 64 and len(keys) and keys[-1] >> np.uint64(used):
            raise PreconditionError(f"key {keys[-1]} has bits beyond the {p} packed fields")
        pts = _unpack(keys, p)
        lo = tuple(pts.min(axis=0).tolist()) if len(keys) else (0,) * p
        hi = tuple(pts.max(axis=0).tolist()) if len(keys) else (0,) * p
        _check_range(lo, hi, p)
        self._set(p, *_runs(keys), len(keys), lo, hi)

    def _set(self, p: int, starts: np.ndarray, stops: np.ndarray, card: int, lo, hi) -> None:
        for arr in (starts, stops):
            arr.flags.writeable = False
        for name, value in (("p", p), ("starts", starts), ("stops", stops),
                            ("cardinality", card), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_runs(cls, p: int, starts, stops, card: int, lo, hi) -> "LatticeSet":
        """A set from maximal runs, their key count and their box, unchecked."""
        self = object.__new__(cls)
        self._set(p, starts, stops, card, lo, hi)
        return self

    @classmethod
    def from_points(cls, p: int, points) -> "LatticeSet":
        pts = _integral_points(points, p)
        if not len(pts):
            empty = np.zeros(0, dtype=np.uint64)
            return cls._from_runs(p, empty, empty, 0, (0,) * p, (0,) * p)
        keys = _sorted_unique(_pack(pts, p))
        return cls._from_runs(p, *_runs(keys), len(keys), tuple(pts.min(axis=0).tolist()),
                              tuple(pts.max(axis=0).tolist()))

    @classmethod
    def cube(cls, p: int, m: int) -> "LatticeSet":
        if m < 0:
            raise PreconditionError("cube radius must be >= 0")
        # before the grid is allocated
        _check_range((-m,) * p, (m,) * p, p)
        check_cap("lattice_card", (2 * m + 1) ** p, "lattice set")
        axes = [np.arange(-m, m + 1)] * p
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([g.ravel() for g in grid])
        return cls.from_points(p, pts)

    @property
    def keys(self) -> np.ndarray:
        """The sorted packed keys: the runs expanded, a new array per call."""
        lengths = (self.stops - self.starts + np.uint64(1)).astype(np.int64)
        first = np.cumsum(lengths) - lengths  # position of each run's first key
        # uint64 arithmetic wraps modulo 2^64, and the sum comes back in range
        return np.arange(self.cardinality, dtype=np.uint64) + np.repeat(
            self.starts - first.astype(np.uint64), lengths)

    def points(self) -> np.ndarray:
        return _unpack(self.keys, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return (self.p == other.p and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.stops, other.stops))

    def __hash__(self) -> int:
        return hash((self.p, self.starts.tobytes(), self.stops.tobytes()))

    def __contains__(self, point) -> bool:
        if len(point) != self.p:
            raise PreconditionError(f"point {point} has wrong length for p={self.p}")
        coords = [_integral(x) for x in point]
        if None in coords or not all(lo <= x <= hi for x, lo, hi in zip(coords, self.lo, self.hi)):
            return False
        key = _pack(np.array([coords], dtype=np.int64), self.p)[0]
        i = int(np.searchsorted(self.starts, key, side="right")) - 1
        return i >= 0 and bool(key <= self.stops[i])


# candidate runs translated per merge: two uint64 arrays of about 32 MB each
_MERGE_BUDGET = 1 << 22


def minkowski_sum(a: LatticeSet, b: LatticeSet) -> LatticeSet:
    """{x + y : x in a, y in b}; cardinality kept under the lattice cap.

    The runs of one summand are translated by the keys of the other, in
    whichever orientation forms fewer candidate runs, and merged into the
    running sum's runs in batches of at most _MERGE_BUDGET candidate runs,
    with the cap checked on the cardinality (keys, not runs) before the
    first batch and after each one. Memory follows run counts, not
    cardinalities: besides the summands and the sum, a batch holds two
    keys per candidate run.
    """
    if a.p != b.p:
        raise PreconditionError("summands have different dimensions")
    p = a.p
    if a.cardinality == 0 or b.cardinality == 0:
        return LatticeSet.from_points(p, [])
    lo = tuple(x + y for x, y in zip(a.lo, b.lo))
    hi = tuple(x + y for x, y in zip(a.hi, b.hi))
    # inside the range a translate is one add per key and keeps the order
    _check_range(lo, hi, p)
    check_cap("lattice_card", max(a.cardinality, b.cardinality), "lattice set")
    runs, by = (a, b) if len(a.starts) * b.cardinality <= len(b.starts) * a.cardinality else (b, a)
    shifts = _shifts(by.keys, p)
    batch = max(1, _MERGE_BUDGET // len(runs.starts))
    starts = stops = np.zeros(0, dtype=np.uint64)
    for i in range(0, len(shifts), batch):
        starts, stops, card = _merge_translates(starts, stops, shifts[i:i + batch, None], runs)
        check_cap("lattice_card", card, "lattice set")
    return LatticeSet._from_runs(p, starts, stops, card, lo, hi)


@dataclass(frozen=True)
class GrowthSeries:
    """c_n = cardinality of the n-fold sum set; nondecreasing when 0 is a summand."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c <= 0 for c in counts):
            raise PreconditionError("growth counts must be positive")
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise PreconditionError("growth counts must be nondecreasing")
        object.__setattr__(self, "counts", counts)

    def log_diffs(self) -> list[float]:
        return [float(np.log(b / a)) for a, b in zip(self.counts, self.counts[1:])]


def _segment(p: int, column, m: int) -> LatticeSet:
    """The segment {-m..m}·v for a nonzero column v of Python ints, built from its runs.

    Inside the packable range the key of k·v is key(0) + k·s with
    s = Σ_i v_i·2^(bits·i), so the sorted keys are key(0) + k·|s| for
    k = -m..m: one run when |s| = 1, else 2m+1 single keys.
    """
    hi = tuple(m * abs(x) for x in column)
    lo = tuple(-x for x in hi)
    _check_range(lo, hi, p)
    bits = _coord_bits(p)
    zero = sum(1 << (bits * i + bits - 1) for i in range(p))
    step = abs(sum(x << (bits * i) for i, x in enumerate(column)))
    if step == 1:
        starts = np.array([zero - m], dtype=np.uint64)
        stops = np.array([zero + m], dtype=np.uint64)
    else:
        starts = stops = np.uint64(zero - m * step) + np.uint64(step) * np.arange(
            2 * m + 1, dtype=np.uint64)
    return LatticeSet._from_runs(p, starts, stops, 2 * m + 1, lo, hi)


def lattice_orbit_card(T, m: int, n: int) -> GrowthSeries:
    """Cardinalities c_j of K_m + ζ_T K_m + ... + ζ_T^{j-1} K_m for j = 1..n.

    Summed literally, S_{j+1} = S_j + Σ_i {-m..m}·T^j e_i: p Minkowski sums
    with a (2m+1)-point segment per step. Each segment is built straight
    from its runs (``_segment``), with no points packed or sorted.
    """
    T = as_unimodular(T)
    if m < 1 or n < 1:
        raise PreconditionError("need m >= 1 and n >= 1")
    p = T.shape[0]
    T_int = T.tolist()
    S = LatticeSet.cube(p, m)
    counts = [S.cardinality]
    Tj = np.eye(p, dtype=np.int64).tolist()
    for _ in range(1, n):
        # exact integer powers; every segment is range-checked before the first sum
        Tj = int_matmul(T_int, Tj)
        for segment in [_segment(p, column, m) for column in zip(*Tj)]:
            S = minkowski_sum(S, segment)
        counts.append(S.cardinality)
    return GrowthSeries(tuple(counts))


def char_poly_int(T) -> list[int]:
    """Monic characteristic polynomial coefficients of an integer matrix,
    highest degree first, by the Faddeev-LeVerrier recursion in exact
    integers (each trace it divides by k is a multiple of k)."""
    A = [[int(x) for x in row] for row in np.asarray(T).tolist()]
    n = len(A)
    coeffs = [1]
    AM = A
    for k in range(1, n + 1):
        c, rem = divmod(-sum(AM[i][i] for i in range(n)), k)
        if rem:
            raise NumericalError("characteristic polynomial must be integral")
        coeffs.append(c)
        if k < n:
            AM = int_matmul(A, [[x + (c if i == j else 0) for j, x in enumerate(row)]
                                for i, row in enumerate(AM)])
    return coeffs


def _poly_divmod(a, b):
    """Exact quotient and remainder of polynomials, highest degree first."""
    a = [Fraction(x) for x in a]
    quot = []
    while len(a) >= len(b):
        q = a[0] / b[0]
        quot.append(q)
        for k in range(len(b)):
            a[k] -= q * b[k]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return quot, a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [x / a[0] for x in a]


def _radical_factors(coeffs) -> list[list[int]]:
    """Squarefree factors of a monic integer polynomial whose roots, pooled,
    are its roots with their multiplicities (rest ← rest / radical(rest))."""
    factors = []
    rest = [Fraction(c) for c in coeffs]
    while len(rest) > 1:
        deriv = [c * (len(rest) - 1 - i) for i, c in enumerate(rest[:-1])]
        radical = _poly_divmod(rest, _poly_gcd(rest, deriv))[0]
        rest = _poly_divmod(rest, radical)[0]
        # monic factors of a monic integer polynomial are integral (Gauss)
        if any(c.denominator != 1 for c in radical):
            raise NumericalError("squarefree factor must be integral")
        factors.append([int(c) for c in radical])
    return factors


def _poly_roots(coeffs) -> np.ndarray:
    n = len(coeffs) - 1
    if n == 2:
        # quadratic formula: λ² + b λ + c
        b, c = coeffs[1], coeffs[2]
        disc = complex(b * b - 4 * c)
        root = np.sqrt(disc)
        return np.array([(-b + root) / 2.0, (-b - root) / 2.0])
    return np.roots(np.array(coeffs, dtype=float))


# relative size under which a singular value or an echelon entry counts as zero
_ZERO_TOL = 1e-9


def _spectrum(factors) -> list[tuple[complex, int]]:
    """Eigenvalues with their multiplicities, one of each conjugate pair (the
    one with Im λ > 0), from the radical factors f_k of a characteristic
    polynomial: the roots of f_k / f_{k+1} have multiplicity exactly k."""
    out = []
    for k, (f, g) in enumerate(zip(factors, factors[1:] + [[1]]), start=1):
        for lam in _poly_roots([int(c) for c in _poly_divmod(f, g)[0]]):
            lam = complex(lam)
            if abs(lam.imag) < 1e-12:
                out.append((complex(lam.real), k))
            elif lam.imag > 0:
                out.append((lam, k))
    return out


def eigen_entropy(T) -> float:
    """Σ log|λ_i| over eigenvalues of T with |λ_i| >= 1 (spectral multiplicity)."""
    T = as_unimodular(T)
    total = 0.0
    for lam, k in _spectrum(_radical_factors(char_poly_int(T))):
        if abs(lam) >= 1.0 - 1e-9:
            # _spectrum lists one eigenvalue of each conjugate pair
            total += k * (1 if lam.imag == 0 else 2) * float(np.log(abs(lam)))
    return total


def _annihilates(coeffs, rows) -> bool:
    """Whether coeffs(T) is the zero matrix, by Horner's rule in exact integers."""
    X = [[0] * len(rows) for _ in rows]
    for c in coeffs:
        X = int_matmul(X, rows)
        for i, row in enumerate(X):
            row[i] += c
    return not any(x for row in X for x in row)


def _nullity(X: np.ndarray) -> int:
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(s <= _ZERO_TOL * max(1.0, s[0])))


def _echelon_kernel(X: np.ndarray, dim: int) -> np.ndarray:
    """The dim-dimensional kernel of X as columns in reduced echelon form from
    the last coordinate: each column is 1 at its pivot, the last coordinate
    where it is nonzero, and 0 at the other columns' pivots; columns are
    ordered by pivot. This is the null-space basis that the reduced row
    echelon form of X gives in exact arithmetic."""
    n = X.shape[0]
    R = np.linalg.svd(X)[2][n - dim:].conj()
    pivot_of: dict[int, int] = {}
    for c in range(n - 1, -1, -1):
        rest = [i for i in range(dim) if i not in pivot_of]
        if not rest:
            break
        i = max(rest, key=lambda i: abs(R[i, c]))
        if abs(R[i, c]) <= _ZERO_TOL:
            continue
        R[i, c + 1:] = 0.0
        R[i] /= R[i, c]
        factors = R[:, c].copy()
        factors[i] = 0.0
        R -= np.outer(factors, R[i])
        R[:, c] = 0.0
        R[i, c] = 1.0
        pivot_of[i] = c
    if len(pivot_of) != dim:
        raise NumericalError("kernel basis lost rank in echelon form")
    return R[sorted(pivot_of, key=pivot_of.get)].T


def _outside_span(v: np.ndarray, S: np.ndarray) -> bool:
    if not S.shape[1]:
        return True
    U, s, _ = np.linalg.svd(S, full_matrices=False)
    U = U[:, s > _ZERO_TOL * s[0]]
    return bool(np.linalg.norm(v - U @ (U.conj().T @ v)) > _ZERO_TOL * np.linalg.norm(v))


def _jordan_chains(T: np.ndarray, lam: complex, k: int, defective: bool) -> list[list]:
    """Jordan chains [(T−λ)^{s−1}v, …, v] of an eigenvalue of multiplicity k,
    longest first.

    ker (T−λ)^j has dimension d_j: d_1 = k when T is not defective, d_j = k
    once j = k, and a numeric rank otherwise. There are d_s − d_{s−1}
    chains of length at least s. Each chain starts at the first echelon
    vector of ker (T−λ)^s outside ker (T−λ)^{s−1} plus the chains already
    taken, the vector a symbolic Jordan form picks.
    """
    n = T.shape[0]
    N = T - (lam.real if lam.imag == 0 else lam) * np.eye(n)
    powers, dims = [np.eye(n)], [0]
    while dims[-1] < k:
        powers.append(powers[-1] @ N)
        dims.append(k if len(dims) == k or not defective else _nullity(powers[-1]))
    steps = [b - a for a, b in zip(dims, dims[1:])]
    if dims[-1] != k or min(steps) <= 0 or any(b > a for a, b in zip(steps, steps[1:])):
        raise NumericalError(f"inconsistent kernel dimensions {dims} at eigenvalue {lam}")
    sizes = [sum(1 for step in steps if step > t) for t in range(steps[0])]
    chains: list[list] = []
    taken: list[np.ndarray] = []
    for s in sizes:
        span = np.column_stack([_echelon_kernel(powers[s - 1], dims[s - 1])] + taken)
        big = _echelon_kernel(powers[s], dims[s])
        v = next((v for v in big.T if _outside_span(v, span)), None)
        if v is None:
            raise NumericalError(f"no Jordan chain of length {s} at eigenvalue {lam}")
        chain = [v]
        for _ in range(1, s):
            chain.append(N @ chain[-1])
        taken.extend(chain)
        chains.append(chain[::-1])
    return chains


@functools.lru_cache(maxsize=32)
def _real_block_basis(rows: tuple[tuple[int, ...], ...]):
    """Real basis adapted to the Jordan chains of T, given as a tuple of
    integer rows; cached per matrix, with read-only arrays.

    Returns (P, Pinv, A, blocks, defective) with T = P A P^{-1}, A block
    diagonal in the returned real basis (checked), blocks a tuple of
    (slice, |λ|), one per Jordan chain, and defective true when some Jordan
    block exceeds size 1.

    Eigenvalues and multiplicities come from the exact squarefree
    factorization of the characteristic polynomial, and ``defective`` is
    exact: T is diagonalizable iff its minimal polynomial is squarefree, that
    is iff the radical f₁ of its characteristic polynomial annihilates it.
    The chains are numeric (``_jordan_chains``) and normalised as in a
    symbolic Jordan form; a conjugate pair contributes the real and
    imaginary parts of the chains of its eigenvalue with Im λ > 0.
    """
    T = np.array(rows, dtype=np.int64)
    factors = _radical_factors(char_poly_int(T))
    defective = not _annihilates(factors[0], rows)
    cols: list[np.ndarray] = []
    blocks: list[tuple[slice, float]] = []
    longest = 0
    for lam, k in _spectrum(factors):
        for chain in _jordan_chains(T.astype(float), lam, k, defective):
            start = len(cols)
            for v in chain:
                cols.extend([v.real] if lam.imag == 0 else [v.real, v.imag])
            blocks.append((slice(start, len(cols)), abs(lam)))
            longest = max(longest, len(chain))
    if defective != (longest > 1):
        raise NumericalError("Jordan chains disagree with the exact defectiveness test")
    P = np.column_stack(cols)
    Pinv = np.linalg.inv(P)
    A = Pinv @ T.astype(float) @ P
    mask = np.zeros_like(A, dtype=bool)
    for sl, _ in blocks:
        mask[sl, sl] = True
    off = np.abs(A[~mask]).max(initial=0.0)
    if off > 1e-9 * max(1.0, np.abs(A).max()):
        raise NumericalError(f"spectral basis failed to block-diagonalize T (off={off:.2e})")
    for arr in (P, Pinv, A):
        arr.flags.writeable = False
    return P, Pinv, A, tuple(blocks), defective


def box_bound_card(T, m: int, n: int, delta_pad: float = 0.0) -> float:
    """Computable upper bound for c_n = card(K_m + ζ_T K_m + ... + ζ_T^{n-1} K_m).

    In a real spectral basis the sum sets sit inside a coordinate box whose
    extent along a block with eigenvalue modulus |λ| is at most
    Q·r·m·Σ_{j<n} (j+1)(1+δ)^j max(|λ|^j, 1), with r bounding the basis
    change of the unit cube and Q the scanned block-power constant. The
    returned value is 2^p times the box volume, which also covers the unit
    cubes around the counted lattice points. Defective spectra require
    δ_pad > 0 to absorb polynomial Jordan growth.
    """
    T = as_unimodular(T)
    if m < 1 or n < 1:
        raise PreconditionError("need m >= 1 and n >= 1")
    if not 0 <= delta_pad < inf:
        raise PreconditionError("delta_pad must be finite and >= 0")
    p = T.shape[0]
    P, Pinv, A, blocks, defective = _real_block_basis(tuple(map(tuple, T.tolist())))
    if defective and delta_pad <= 0:
        raise PreconditionError("defective spectrum requires delta_pad > 0")
    r = float(np.abs(Pinv).sum(axis=1).max())
    q_const = 1.0
    for sl, mod in blocks:
        B = A[sl, sl]
        Bj = np.eye(B.shape[0])
        growth = max(mod, 1.0)
        for j in range(n + 1):
            if j > 0:
                Bj = Bj @ B
            denom = (1.0 + delta_pad) ** j * growth**j
            q_const = max(q_const, float(np.abs(Bj).sum(axis=1).max()) / denom)
    js = np.arange(n, dtype=float)
    bound = (2.0**p) * abs(float(np.linalg.det(P)))
    for sl, mod in blocks:
        growth = max(mod, 1.0)
        extent = q_const * r * m * float(
            np.sum((js + 1.0) * (1.0 + delta_pad) ** js * growth**js)
        )
        for _ in range(sl.stop - sl.start):
            bound *= 2.0 * extent
    return bound


def entropy_slope(series: GrowthSeries, tail: int) -> float:
    """Least-squares slope of log c_n against n over the last ``tail`` points."""
    if tail < 3:
        raise PreconditionError("tail must be >= 3")
    counts = series.counts
    if len(counts) < tail:
        raise PreconditionError(f"series has {len(counts)} < tail={tail} points")
    y = np.log(np.asarray(counts[-tail:], dtype=float))
    x = np.arange(len(counts) - tail + 1, len(counts) + 1, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def shift_entropy_bracket(p: int, n: int, delta: float) -> tuple[float, float]:
    """Bracket for the shift's product entropy at stage n.

    lower: (1/n) log D of the p^{2n} orthonormal GNS vectors of the Weyl
    product set at δ. upper: (1/n) log p^{2(2⌈√n⌉+n)}, the dimension of the
    window algebra reached after E_⌈√n⌉ truncation. Both tend to 2 log p.
    """
    if p < 2:
        raise PreconditionError("p must be >= 2")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not (0.0 < delta < 1.0):
        raise PreconditionError("delta must lie in (0, 1)")
    m = p ** (2 * n)
    lower = np.log(approxdim.float_dim(approxdim.dim_exact_orthonormal(m, delta))) / n
    root = int(np.ceil(np.sqrt(n)))
    upper = 2.0 * (2 * root + n) * np.log(p) / n
    return float(lower), float(upper)


def _cmul(a, b):
    """a·b on real and imaginary parts, rounded as Python's scalar complex product."""
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return np.stack((re, im), axis=-1).view(np.complex128)[..., 0]


def _monomial_arrays(layer) -> tuple[np.ndarray, np.ndarray]:
    """Exponents, in int64 by the constructor's check, and coefficients of monomials."""
    exps, coeffs = zip(*(next(iter(a.coeffs.items())) for a in layer))
    return np.array(exps, dtype=np.int64), np.array(coeffs, dtype=np.complex128)


def _first_pairs(keys: np.ndarray, prio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, each with the least priority it carries.

    ``keys`` is a concatenation of sorted rows, which the stable sort
    (timsort) merges; equal keys then sit in one block, in row order, and
    the least priority of each block is taken by a reduction.
    """
    order = np.argsort(keys, kind="stable")
    keys, prio = keys[order], prio[order]
    del order  # one candidate-sized array less during the block scan
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.minimum.reduceat(prio, starts)


def product_set(omega, alpha, n: int):
    """All ordered products a_0 α(a_1) ⋯ α^{n-1}(a_{n-1}) for twisted monomials
    a_i in Ω, one per exponent.

    Layer j is α applied to layer j−1, and every layer must be made of
    twisted monomials. Exponents add as packed lattice keys (so p <= 4):
    once the box of the sums is range-checked, a candidate key is a kept
    product's key translated by a layer monomial's packed shift, as in
    minkowski_sum. Reordering phases go into the coefficient, and the first
    product per exponent is kept, first in the row-major order of the
    (kept product, layer monomial) pairs with the kept products in the
    order they were first made. The kept products are held sorted by key,
    each with that rank, so the J layer monomials translate them into J
    sorted rows, and the pair (rank, j) has the priority rank·J + j; one
    stable sort merges the rows (``_first_pairs``), and the least priority
    in each block of equal keys names the first pair. The ranks are made
    dense before each layer, so rank·J stays small. Pairs come in batches
    of at most _MERGE_BUDGET, whole columns of kept products, each merged
    into the layer's running keys and followed by a product_set cap check.
    The products come back sorted by exponent as a
    read-only ``nctorus.MonomialSequence`` over these checked arrays: its
    ``keys`` and ``coeffs`` are the (N, p) int64 exponents and N complex128
    coefficients, and a monomial is built, without the validating
    constructor, only when an element is read.
    """
    omega = list(omega)
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if not omega:
        raise PreconditionError("Ω must be nonempty")
    layers = [omega]
    for _ in range(1, n):
        layers.append([alpha(a) for a in layers[-1]])
    if not all(isinstance(a, nctorus.TwistedPolynomial) and a.is_monomial
               for layer in layers for a in layer):
        raise PreconditionError("product sets take twisted monomials, and α must keep them")
    phase = omega[0].phase
    p = phase.p
    keys, coeffs = _monomial_arrays(omega)
    # a monomial's priority is its position in Ω, so each exponent keeps its first
    packed, prio = _first_pairs(_pack(keys, p), np.arange(len(keys)))
    keys, coeffs = keys[prio], coeffs[prio]
    check_cap("product_set", len(keys), "product set")
    for layer in layers[1:]:
        k2, c2 = _monomial_arrays(layer)
        J = len(k2)
        shifts = _shifts(_pack(k2, p), p)[:, None]
        # inside the box's range a sum of exponents is one add of packed keys
        _check_range((keys.min(axis=0) + k2.min(axis=0)).tolist(),
                     (keys.max(axis=0) + k2.max(axis=0)).tolist(), p)
        # dense ranks of the kept products in order of their priorities
        by_rank = np.argsort(prio)
        ranks = np.empty(len(prio), dtype=np.int64)
        ranks[by_rank] = np.arange(len(prio))
        # the priority rank·J + j of the pair (kept product, layer monomial j)
        # is its row-major index in the rank order of the kept products
        rows = np.arange(J, dtype=np.int64)[:, None]
        width = max(1, _MERGE_BUDGET // J)
        for start in range(0, len(packed), width):
            cols = slice(start, start + width)
            # J rows, each the sorted kept keys translated by one shift, so sorted
            batch = _first_pairs((packed[None, cols] + shifts).ravel(),
                                 (ranks[None, cols] * J + rows).ravel())
            if start:
                batch = _first_pairs(np.concatenate([new_packed, batch[0]]),
                                     np.concatenate([new_prio, batch[1]]))
            new_packed, new_prio = batch
            check_cap("product_set", len(new_packed), "product set")
        rank, j = np.divmod(new_prio, J)
        k1, c1 = keys[by_rank[rank]], coeffs[by_rank[rank]]
        twist = np.exp(2j * np.pi * nctorus.reorder_exponent(k1, k2[j], phase))
        keys, coeffs = k1 + k2[j], _cmul(_cmul(c1, c2[j]), twist)
        packed, prio = new_packed, new_prio
    order = np.lexsort(keys.T[::-1])
    return nctorus.TwistedPolynomial._monomials(phase, keys[order], coeffs[order])
