import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetric import linalg
from qmetric.errors import PreconditionError


def test_kron_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = linalg.operator_norm(np.kron(a, b))
        rhs = linalg.operator_norm(a) * linalg.operator_norm(b)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


def test_operator_norm_identity_and_diagonal():
    assert linalg.operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert linalg.operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_power_iteration_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(4):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dense = linalg.operator_norm(m)
        power = linalg._lanczos_norm(m, 10_000)
        assert abs(dense - power) < 1e-9 * max(1.0, dense)


def test_singular_values_zero_and_isometry():
    # the operator norm is the top singular value: 0 for zero, 1 for an isometry
    assert linalg.operator_norm(np.zeros((3, 2))) == 0.0
    # above side 256: the Lanczos iteration's zero iterate returns at once
    assert linalg.operator_norm(np.zeros((512, 512))) == 0.0
    assert linalg.operator_norm(np.zeros((0, 0))) == 0.0
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 3)))
    assert abs(linalg.operator_norm(q) - 1.0) < 1e-12


def test_singular_values_gram_oracle():
    # the top singular value of a 6x4 matrix is the sqrt of the top Gram eigenvalue
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    top = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m).max())
    assert abs(linalg.operator_norm(m) - top) < 1e-9 * top


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert abs(linalg.operator_norm(u @ m @ v) - linalg.operator_norm(m)) < 1e-9


def test_submultiplicative():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.operator_norm(a @ b) <= linalg.operator_norm(a) * linalg.operator_norm(b) + 1e-9


def test_rejects_bad_input():
    with pytest.raises(PreconditionError):
        linalg.operator_norm(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        linalg.operator_norm(np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("layout", ["C", "F", "adjoint"])
def test_as_matrix_rejects_non_finite_parts_in_every_layout(bad, part, layout):
    # the finiteness check reads the real and imaginary parts through one float64
    # view, which must see the entries of a transposed or conjugated view too
    m = np.arange(12, dtype=np.complex128).reshape(3, 4)
    view = {"C": m, "F": np.asfortranarray(m), "adjoint": m.conj().T}[layout]
    assert np.array_equal(linalg.as_matrix(view), view)
    m[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    view = {"C": m, "F": np.asfortranarray(m), "adjoint": m.conj().T}[layout]
    with pytest.raises(PreconditionError, match="non-finite"):
        linalg.as_matrix(view)


def test_power_iteration_stall_falls_back_to_svd():
    # a = (1 - ε/2)·1 + (ε/2)·u at side 512, u = diag(±1) (a clock on the
    # first site): the singular values 1 and 1 - ε are too close for power
    # iteration to separate within its budget
    eps = 1e-4
    u0 = np.diag(np.repeat([1.0, -1.0], 256))
    a = (1 - eps / 2) * np.eye(512) + (eps / 2) * u0
    assert linalg.operator_norm(a) == pytest.approx(1.0, rel=1e-12)


def test_lanczos_gets_a_gapless_side_512_without_svd(monkeypatch):
    # the top singular values of a complex Gaussian matrix have no gap to speak
    # of; Lanczos still converges within its budget, so no SVD is taken
    rng = np.random.default_rng(4)
    m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    want = float(np.linalg.svd(m, compute_uv=False)[0])

    def no_svd(*args, **kwargs):
        raise AssertionError("operator_norm fell back to the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert linalg.operator_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_operator_norm_of_a_subnormal_matrix():
    # m q lies below the normal range, where no power-of-two rescaling is exact,
    # so the SVD decides; unscaled, m* m q underflows to 0
    m = 1e-310 * np.random.default_rng(0).standard_normal((300, 300))
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert want > 0.0
    assert linalg.operator_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lanczos_budget_exhausted_returns_none():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    assert linalg._lanczos_norm(m, 2) is None


def test_lanczos_steps_stop_at_the_column_count():
    # a tall, thin matrix: its Krylov basis is complete after as many steps as
    # it has columns, so one step more than that is never needed
    rng = np.random.default_rng(8)
    m = rng.standard_normal((600, 3)) + 1j * rng.standard_normal((600, 3))
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert linalg._lanczos_norm(m, 3, tol=0.0) == pytest.approx(want, rel=1e-13, abs=0.0)


@st.composite
def lanczos_cases(draw):
    """Matrices above side 256 whose top singular value is known from the SVD:
    gapless complex Gaussians, rank one and low rank, a repeated top value,
    the stall test's 1 and 1 - 1e-4, on square and rectangular shapes."""
    rows = draw(st.integers(257, 700))
    cols = draw(st.sampled_from([rows, draw(st.integers(1, 700))]))
    kind = draw(st.sampled_from(["gaussian", "rank", "repeated", "stall"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    n = min(rows, cols)
    if kind == "gaussian":
        m = gaussian(rows, cols)
    elif kind == "rank":
        rank = draw(st.integers(1, min(n, 5)))
        m = gaussian(rows, rank) @ gaussian(rank, cols)
    else:
        u, _ = np.linalg.qr(gaussian(rows, n))
        v, _ = np.linalg.qr(gaussian(cols, n))
        if kind == "repeated":
            top = [3.0] * min(n, draw(st.integers(2, 4)))
        else:
            top = [1.0, 1.0 - 1e-4][:n]
        s = np.concatenate([top, rng.uniform(0.0, 0.99, n - len(top)) * top[-1]])
        m = (u * s) @ v.conj().T
    return m * 10.0 ** draw(st.floats(-300.0, 300.0))


@settings(max_examples=25, deadline=None)
@given(lanczos_cases())
def test_operator_norm_above_side_256_matches_svd(m):
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert linalg.operator_norm(m) == pytest.approx(want, rel=1e-12, abs=0.0)


_SIDE_512 = np.random.default_rng(17).standard_normal((512, 512))
_SIDE_512_NORM = float(np.linalg.svd(_SIDE_512, compute_uv=False)[0])


@settings(max_examples=8, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(0.0, 2.0 * np.pi))
@example(-20.0, 0.0)
@example(-14.0, 1.0)
@example(-12.0, 2.0)
@example(20.0, 3.0)
def test_operator_norm_homogeneous_at_side_512(log10_mod, angle):
    # above side 256 Lanczos iteration decides; its convergence test is
    # relative, so a tiny matrix is not declared converged after one step
    c = 10.0**log10_mod * np.exp(1j * angle)
    assert linalg.operator_norm(c * _SIDE_512) == pytest.approx(abs(c) * _SIDE_512_NORM,
                                                                rel=1e-10, abs=0.0)


def test_unimodular_validation():
    plastic = [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
    assert linalg.as_unimodular(plastic).tolist() == plastic
    big = [[1, 2**60 + 1], [0, 1]]  # beyond float precision, kept exact
    assert linalg.as_unimodular(np.array(big)).tolist() == big
    assert linalg.as_unimodular([[1.0, 1.0], [0.0, 1.0]]).dtype == np.int64
    for T, message in [
        (np.ones(3), "square"),
        ([[1.5, 0.0], [0.0, 1.0]], "integer entries"),
        ([[2, 0], [0, 2]], "got 4"),
        ([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 7], [0, 0, 0, -1]], "got -6"),
        ([[0, 1, 0], [0, 0, 1], [2, 1, 0]], "got 2"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            linalg.as_unimodular(T)


def test_int_matmul_is_exact():
    from fractions import Fraction

    # 2^62 entries overflow an int64 product; Python ints do not
    X = [[2**62, 1], [0, -3]]
    Y = [[5, 0], [7, 2**62]]
    assert linalg.int_matmul(X, Y) == [[5 * 2**62 + 7, 2**62], [-21, -3 * 2**62]]
    assert linalg.int_matmul([[Fraction(1, 3), 1]], [[3], [Fraction(-1, 2)]]) == [[Fraction(1, 2)]]
    rng = np.random.default_rng(3)
    A, B = rng.integers(-9, 10, (3, 4)), rng.integers(-9, 10, (4, 2))
    assert linalg.int_matmul(A.tolist(), B.tolist()) == (A @ B).tolist()
