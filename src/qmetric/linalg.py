"""Dense complex matrix kernel.

Matrices are plain numpy ``complex128`` 2-D arrays, validated on entry:
finite entries only. The operator norm is the largest singular value,
computed from the full singular spectrum up to side 256 and by Lanczos
iteration on ``m* m`` above that, falling back to the spectrum when the
iteration has not converged within half the side in steps.

Integer matrices get exact helpers in Python ints: the product, the
determinant and the unimodular check.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

_SVD_SIDE_LIMIT = 256
# Lanczos steps granted to small sides, where one SVD costs only a few steps
_LANCZOS_MIN_STEPS = 100


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D C-contiguous complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    m = np.ascontiguousarray(m)
    # one pass over the real and imaginary parts together
    if not np.isfinite(m.view(np.float64)).all():
        raise PreconditionError("matrix has non-finite entries")
    return m


def _lanczos_norm(m: np.ndarray, max_steps: int, tol: float = 1e-13) -> float | None:
    """Lanczos on m* m with full reorthogonalization; None when it has not
    converged after max_steps steps.

    The estimate after k steps is the square root of the top eigenvalue of the
    k×k tridiagonal matrix. Converged means two successive estimates agree to
    a relative tol, a test that means the same at every scale of m, or that
    the Krylov basis spans an invariant subspace: the last off-diagonal
    vanished, or the basis has as many vectors as m has columns. The basis
    grows with the steps taken, so an exhausted budget of side/2 steps holds
    at most half the bytes of a square m.
    """
    n = m.shape[1]
    steps = min(max_steps, n)
    # deterministic start with a mild ramp to avoid orthogonality accidents
    q = np.ones(n, dtype=np.complex128) + 1e-3 * np.arange(n)
    q /= np.linalg.norm(q)
    basis = np.empty((1, n), dtype=np.complex128)
    alpha, beta = [], []
    last = 0.0
    for k in range(steps):
        if k == len(basis):  # double the capacity, up to the budget
            basis = np.concatenate([basis, np.empty((min(k, steps - k), n), dtype=np.complex128)])
        basis[k] = q
        z = m @ q
        if k == 0:
            size = float(np.abs(z).max())
            if size == 0.0:
                return 0.0
            if size < np.finfo(np.float64).tiny:
                return None  # m q is subnormal: no power of two rescales it exactly
            # run on m* m / scale², scale a power of two near |m q|, so no norm
            # overflows or underflows at any scale of m and the result scales exactly
            scale = 2.0 ** -np.frexp(size)[1]
        # m* z as (z* m)*, which needs no conjugate copy of m
        w = ((z * scale).conj() @ m).conj() * scale
        alpha.append(np.vdot(q, w).real)
        # classical Gram-Schmidt twice against the whole basis
        Q = basis[:k + 1]
        for _ in range(2):
            w -= (Q @ w.conj()).conj() @ Q
        b = float(np.linalg.norm(w))
        top = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))[-1]
        est = float(np.sqrt(max(top, 0.0)) / scale)
        if abs(est - last) <= tol * est or b == 0.0 or k + 1 == n:
            return est
        last = est
        beta.append(b)
        q = w / b
    return None


def operator_norm(m) -> float:
    """Largest singular value.

    Up to side _SVD_SIDE_LIMIT it is the top of the full singular spectrum.
    Above that, Lanczos iteration on m* m runs until two successive estimates
    agree to a relative 1e-13, so the test means the same at every scale of m.
    Its error bound needs no spectral gap (Kuczyński and Woźniakowski 1992),
    but clustered top values can still slow it, so it gets half the side in
    steps (at least _LANCZOS_MIN_STEPS, and never more than the column count);
    past that, or when m q is too small to rescale exactly, the SVD gives the
    value.
    """
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    side = max(m.shape)
    if side > _SVD_SIDE_LIMIT:
        est = _lanczos_norm(m, max(side // 2, _LANCZOS_MIN_STEPS))
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
