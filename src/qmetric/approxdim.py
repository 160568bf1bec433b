"""Subspace-approximation dimension D(Ω, δ) for finite vector families.

D(Ω, δ) is the smallest dimension of a linear subspace containing every
vector of Ω to within δ, with the strict "< δ" convention; a non-strict
variant sits behind the ``strict`` flag. Ties at the boundary are resolved
with a relative slack of 1e-12 so that exact rational boundaries (e.g.
(m-r)/m = δ²) behave as in exact arithmetic.

Three routes:

- dim_lower_spectral: certified lower bound. If a rank-r subspace leaves
  every residual < δ then the Frobenius-optimal rank-r error satisfies
  Σ_{k>r} σ_k² < mδ², so D ≥ min{r : Σ_{k>r} σ_k² < mδ²}. On orthonormal
  input this is at least (1-δ²)·m.
- dim_upper_svd: constructive upper bound with a witness subspace. Tries
  the top-r left singular subspaces; for families with Gram ≈ c²·I it also
  tries the equalized DFT frame, which achieves max residual c√((m-r)/m)
  and is optimal for orthonormal families.
- dim_exact_orthonormal: exact value min{r : (m-r)/m < δ²} for m
  orthonormal vectors (the equalized frame meets the spectral bound).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

_TIE_SLACK = 1e-12


@dataclass(frozen=True)
class DimBracket:
    delta: float
    lower: int
    upper: int
    norm_tag: str

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise PreconditionError("bracket must satisfy 0 <= lower <= upper")


def _passes(x: float, bound: float, strict: bool) -> bool:
    """x < bound (strict) or x <= bound, with relative tie slack."""
    slack = _TIE_SLACK * max(1.0, abs(bound))
    if strict:
        return x < bound - slack
    return x <= bound + slack


def as_family(vectors) -> np.ndarray:
    """Columns are the family vectors; shape (ambient_dim, m)."""
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] < 1:
        raise PreconditionError("vector family must be a 2-D array with >= 1 column")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise PreconditionError("vector family has non-finite entries")
    return v


def dim_lower_spectral(vectors, delta: float, strict: bool = True) -> int:
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    v = as_family(vectors)
    m = v.shape[1]
    sigma = np.linalg.svd(v, compute_uv=False)
    tails = np.concatenate([np.cumsum((sigma**2)[::-1])[::-1], [0.0]])
    budget = m * delta * delta
    for r in range(0, min(v.shape) + 1):
        if _passes(float(tails[r]) if r < len(tails) else 0.0, budget, strict):
            return r
    return min(v.shape)


def dim_exact_orthonormal(m: int, delta: float, strict: bool = True) -> int:
    if m < 1:
        raise PreconditionError("family size must be >= 1")
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    # the passing r are those from some point on, since the rounded (m - r)/m
    # falls with r; bisect for the first (about m·2^-55 consecutive r share one
    # float once m > 2^53, so a closed-form start is no O(1) steps from it)
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2
        if _passes((m - mid) / m, delta * delta, strict):
            hi = mid
        else:
            lo = mid + 1
    return lo


def dim_upper_svd(vectors, delta: float, strict: bool = True) -> tuple[int, np.ndarray]:
    """Smallest r with a witness subspace leaving every residual < δ.

    Returns (r, witness) where witness is an orthonormal d x r basis.
    Always an upper bound for the true D.
    """
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    v = as_family(vectors)
    m = v.shape[1]
    u, _, _ = np.linalg.svd(v, full_matrices=False)

    def smallest_passing(basis: np.ndarray) -> int | None:
        """Smallest r with every residual against span(basis[:, :r]) passing.

        basis must be orthonormal with span containing the columns of v, so
        residual² is the tail sum of the overlaps (no cancellation).
        """
        overlaps2 = np.abs(basis.conj().T @ v) ** 2
        tails = np.vstack([np.cumsum(overlaps2[::-1], axis=0)[::-1], np.zeros((1, m))])
        for r in range(0, overlaps2.shape[0] + 1):
            worst = float(np.sqrt(tails[r].max()))
            if _passes(worst, delta, strict):
                return r
        return None

    best_r = smallest_passing(u)
    if best_r is None:
        best_r, witness = u.shape[1], u
    else:
        witness = u[:, :best_r]

    # equalized DFT frame for families with Gram proportional to identity
    gram = v.conj().T @ v
    scale = float(np.mean(np.real(np.diag(gram))))
    if scale > 0 and np.abs(gram - scale * np.eye(m)).max() <= 1e-9 * scale:
        dft = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        # orthonormalize so prefix spans match the frame prefixes exactly
        frame, _ = np.linalg.qr(v @ dft)
        frame_r = smallest_passing(frame)
        if frame_r is not None and frame_r < best_r:
            best_r, witness = frame_r, frame[:, :frame_r]
    return best_r, witness


def dim_bracket(vectors, delta: float, norm_tag: str, strict: bool = True) -> DimBracket:
    lower = dim_lower_spectral(vectors, delta, strict)
    upper, _ = dim_upper_svd(vectors, delta, strict)
    return DimBracket(float(delta), lower, max(lower, upper), norm_tag)


def float_dim(d: int) -> float:
    """A dimension as a float, for its logarithm: d may pass 2^64, beyond
    numpy's integers, and one beyond the float range is a precondition error."""
    try:
        return float(d)
    except OverflowError as exc:
        raise PreconditionError(
            f"a dimension of {d.bit_length()} bits exceeds the float range") from exc


def mdim_slope(rows) -> float | None:
    """Least-squares slope of log D against -log δ over (δ, D) pairs.

    Only the rows with D ≥ 1 and 0 < δ ≤ 1 count: past δ = 1 the zero
    subspace already approximates the ball, and a δ that underflowed to 0 has
    no logarithm. None when the rows left hold fewer than 3 distinct δ (a
    subnormal δ divided by growing norms can round to one value twice).
    """
    kept = [(delta, d) for delta, d in rows if d >= 1 and 0 < delta <= 1]
    if len({delta for delta, _ in kept}) < 3:
        return None
    deltas, dims = zip(*kept)
    # -log δ rather than log(1/δ), whose quotient overflows at a subnormal δ
    y = np.log([float_dim(d) for d in dims])
    return float(np.polyfit(-np.log(deltas), y, 1)[0])


def brackets_to_csv_rows(brackets) -> list[str]:
    rows = []
    for b in brackets:
        rows.append(f"{b.delta:.12g},{b.lower},{b.upper},{b.norm_tag}")
    return rows


def family_from_json(text: str) -> np.ndarray:
    """JSON family: list of vectors, each a list of [re, im] pairs."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise PreconditionError(f"vector family is not JSON: {exc}") from exc
    if not isinstance(obj, list) or not obj:
        raise PreconditionError("vector family JSON must be a nonempty list")
    cols = []
    for i, vec in enumerate(obj):
        try:
            cols.append([complex(re, im) for re, im in vec])
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"vector {i} is not a list of [re, im] pairs: {exc}") from exc
    if len({len(c) for c in cols}) != 1:
        raise PreconditionError("vectors of the family must have one length")
    v = np.array(cols, dtype=np.complex128).T
    return as_family(v)


def family_to_json(vectors) -> str:
    v = as_family(vectors)
    out = [[[z.real, z.imag] for z in v[:, i]] for i in range(v.shape[1])]
    return json.dumps(out)
