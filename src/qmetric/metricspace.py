"""Finite metric spaces: nets, covering counts and box dimension.

Conventions: a set is δ-separated when pairwise distances exceed δ; a set F
is δ-spanning when every point lies within δ of F (closed balls). Covering
counts use closed δ-balls centered at points of the space, so on a finite
space the covering number is the spanning number, and spn ≤ sep for the
exact quantities. The reported spn keeps that chain: it is the smaller of a
greedy set cover and the greedy maximal δ-separated set, which is itself
δ-spanning.

Distance matrices are checked relative to their largest entry, so a space
and every rescaling of it are accepted or rejected together.

Greedy constructions are deterministic: farthest-point insertion starting
at index 0 with ties broken by lowest index, so regression slopes are
reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import PreconditionError

EXACT_SEP_LIMIT = 20


@dataclass(frozen=True)
class FiniteMetricSpace:
    dist: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise PreconditionError("distance matrix must be square")
        if not np.all(np.isfinite(d)):
            raise PreconditionError("distance matrix has non-finite entries")
        if np.abs(np.diag(d)).max(initial=0.0) > 0:
            raise PreconditionError("distance matrix must have zero diagonal")
        if np.abs(d - d.T).max(initial=0.0) > 1e-12 * np.abs(d).max(initial=0.0):
            raise PreconditionError("distance matrix must be symmetric")
        off = d[~np.eye(d.shape[0], dtype=bool)]
        if off.size and off.min() <= 0:
            raise PreconditionError("distinct points must have positive distance")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max(initial=0.0))

    def check_triangle(self) -> None:
        d = self.dist
        slack = 1e-9 * self.diameter
        for k in range(self.n):
            if np.any(d > d[:, [k]] + d[[k], :] + slack):
                raise PreconditionError(f"triangle inequality fails through point {k}")

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise PreconditionError("points must form a nonempty 2-D array")
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, 0.0)
        return cls(d)

    @classmethod
    def from_matrix(cls, dist) -> "FiniteMetricSpace":
        space = cls(np.asarray(dist, dtype=float))
        space.check_triangle()
        return space


@dataclass(frozen=True)
class NetStatistics:
    delta: float
    sep: int
    spn: int
    sep_exact: bool


def greedy_separated(space: FiniteMetricSpace, delta: float) -> list[int]:
    """Farthest-point maximal δ-separated set; start at 0, ties to lowest index."""
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    chosen = [0]
    mind = space.dist[0].copy()
    while True:
        far = float(mind.max())
        if far <= delta:
            break
        j = int(np.argmax(mind))
        chosen.append(j)
        mind = np.minimum(mind, space.dist[j])
    return chosen


def _max_separated_exact(space: FiniteMetricSpace, delta: float) -> int:
    """Maximum cardinality of a δ-separated subset by branch and bound."""
    n = space.n
    if n > EXACT_SEP_LIMIT:
        raise PreconditionError(f"exact separated search limited to n <= {EXACT_SEP_LIMIT}")
    compat = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and space.dist[i, j] > delta:
                mask |= 1 << j
        compat.append(mask)
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & compat[v] & ~((1 << (v + 1)) - 1), size + 1)
        rec(cand & ~(1 << v), size)

    rec((1 << n) - 1, 0)
    return best


def greedy_spanning(space: FiniteMetricSpace, delta: float) -> list[int]:
    """Greedy set cover with closed δ-balls centered at points."""
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    covered = np.zeros(space.n, dtype=bool)
    balls = space.dist <= delta
    # gains[i] counts the uncovered points in ball i, kept up to date per pick
    gains = balls.sum(axis=1)
    chosen = []
    while not covered.all():
        i = int(np.argmax(gains))
        if gains[i] == 0:
            raise PreconditionError("spanning construction stalled")
        chosen.append(i)
        gains -= balls[:, balls[i] & ~covered].sum(axis=1)
        covered |= balls[i]
    return chosen


def net_statistics(space: FiniteMetricSpace, delta: float) -> NetStatistics:
    if not delta > 0:
        raise PreconditionError("delta must be positive")
    if delta >= space.diameter:
        return NetStatistics(delta, 1, 1, True)
    greedy = len(greedy_separated(space, delta))
    if space.n <= EXACT_SEP_LIMIT:
        sep = _max_separated_exact(space, delta)
        sep_exact = True
    else:
        sep = greedy
        sep_exact = False
    # the greedy maximal separated set is itself δ-spanning
    spn = min(len(greedy_spanning(space, delta)), greedy)
    return NetStatistics(delta, sep, spn, sep_exact)


@dataclass(frozen=True)
class BoxDimension:
    slope: float
    slope_spn: float
    stats: tuple[NetStatistics, ...]


def _loglog_slope(deltas, counts) -> float:
    # -log δ rather than log(1/δ), whose quotient overflows at a subnormal δ
    x = -np.log(np.asarray(deltas, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def box_dimension(space: FiniteMetricSpace, deltas) -> BoxDimension:
    """Least-squares slope of log sep(δ) against log δ^{-1} (sep is primary)."""
    deltas = [float(d) for d in deltas]
    if len(deltas) < 3:
        raise PreconditionError("box dimension needs at least 3 grid points")
    if any(not d > 0 for d in deltas):
        raise PreconditionError("delta grid must be positive")
    stats = tuple(net_statistics(space, d) for d in deltas)
    if space.n == 1:
        return BoxDimension(0.0, 0.0, stats)
    return BoxDimension(
        _loglog_slope(deltas, [s.sep for s in stats]),
        _loglog_slope(deltas, [s.spn for s in stats]),
        stats,
    )


def parse_delta_grid(text: str) -> list[float]:
    """Parse 'a:b:steps' into a geometric grid from a down/up to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise PreconditionError("delta grid must be 'a:b:steps'")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise PreconditionError(f"bad delta grid {text!r}") from exc
    if not (0 < a < inf and 0 < b < inf) or steps < 1:
        raise PreconditionError("delta grid needs finite positive endpoints and steps >= 1")
    if steps == 1:
        return [a]
    return [float(x) for x in np.geomspace(a, b, steps)]


def load_csv(path) -> np.ndarray:
    """A nonempty CSV of numbers (points, one per row, or a distance matrix)."""
    with warnings.catch_warnings():
        # loadtxt only warns on a file without data; the check below rejects it
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise PreconditionError(f"{path} is not a CSV of numbers: {exc}") from exc
    if data.size == 0:
        raise PreconditionError(f"no data in {path}")
    return data
