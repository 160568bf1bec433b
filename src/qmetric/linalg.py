"""Dense complex matrix kernel.

Matrices are plain numpy ``complex128`` 2-D arrays, validated on entry:
finite entries only. The operator norm is the largest singular value,
computed from the full singular spectrum up to side 256 and by power
iteration on ``m* m`` above that, falling back to the spectrum when the
iteration has not converged within about the cost of one SVD.

Integer matrices get exact helpers in Python ints: the product, the
determinant and the unimodular check.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

_SVD_SIDE_LIMIT = 256
# power-iteration steps granted to small sides, where one SVD costs only a few steps
_POWER_MIN_ITER = 100


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise PreconditionError("matrix has non-finite entries")
    return m


def _power_iteration_norm(m: np.ndarray, max_iter: int, tol: float = 1e-13) -> float | None:
    """Power iteration on m* m; None when it has not converged after max_iter steps.

    Converged means two successive estimates agree to a relative tol, a test
    that means the same at every scale of m.
    """
    n = m.shape[1]
    mh = m.conj().T
    # deterministic start with a mild ramp to avoid orthogonality accidents
    x = np.ones(n, dtype=np.complex128) + 1e-3 * np.arange(n)
    x /= np.linalg.norm(x)
    last = 0.0
    for _ in range(max_iter):
        y = mh @ (m @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        est = np.sqrt(ny)
        if abs(est - last) <= tol * est:
            return float(est)
        last = est
    return None


def operator_norm(m) -> float:
    """Largest singular value.

    Up to side _SVD_SIDE_LIMIT it is the top of the full singular spectrum.
    Above that, power iteration runs until two successive estimates agree to
    a relative 1e-13, so the test means the same at every scale of m. The
    iteration stalls when the top two singular values are close, so it gets
    as many steps as cost about one SVD of the same side (half the side, at
    least _POWER_MIN_ITER); past that the SVD gives the value.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    side = max(m.shape)
    if side > _SVD_SIDE_LIMIT:
        est = _power_iteration_norm(m, max(side // 2, _POWER_MIN_ITER))
        if est is not None:
            return est
    return float(np.linalg.svd(m, compute_uv=False)[0])


def int_matmul(X, Y) -> list[list]:
    """Exact product of matrices given as nested lists of Python ints or Fractions."""
    cols = list(zip(*Y))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in X]


def _int_det(rows) -> int:
    """Exact determinant of a square integer matrix, by cofactor expansion in Python ints."""
    rows = [[int(x) for x in row] for row in rows]
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _int_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def as_unimodular(T) -> np.ndarray:
    """Validate a square integer matrix with |det T| = 1; return it as int64."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise PreconditionError("T must be a square matrix")
    if not np.issubdtype(T.dtype, np.integer):
        Tf = np.asarray(T, dtype=float)
        Tr = np.rint(Tf)
        if np.abs(Tf - Tr).max(initial=0.0) > 0:
            raise PreconditionError("T must have integer entries")
        T = Tr
    T = T.astype(np.int64)
    d = _int_det(T.tolist())
    if abs(d) != 1:
        raise PreconditionError(f"|det T| must be 1, got {d}")
    return T
