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
        power = linalg._power_iteration_norm(m, 10_000)
        assert abs(dense - power) < 1e-9 * max(1.0, dense)


def test_singular_values_zero_and_isometry():
    # the operator norm is the top singular value: 0 for zero, 1 for an isometry
    assert linalg.operator_norm(np.zeros((3, 2))) == 0.0
    # above side 256: the power iteration's zero iterate returns at once
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


def test_power_iteration_stall_falls_back_to_svd():
    # a = (1 - ε/2)·1 + (ε/2)·u at side 512, u = diag(±1) (a clock on the
    # first site): the singular values 1 and 1 - ε are too close for power
    # iteration to separate within its budget
    eps = 1e-4
    u0 = np.diag(np.repeat([1.0, -1.0], 256))
    a = (1 - eps / 2) * np.eye(512) + (eps / 2) * u0
    assert linalg.operator_norm(a) == pytest.approx(1.0, rel=1e-12)


_SIDE_512 = np.random.default_rng(17).standard_normal((512, 512))
_SIDE_512_NORM = float(np.linalg.svd(_SIDE_512, compute_uv=False)[0])


@settings(max_examples=8, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(0.0, 2.0 * np.pi))
@example(-20.0, 0.0)
@example(-14.0, 1.0)
@example(-12.0, 2.0)
@example(20.0, 3.0)
def test_operator_norm_homogeneous_at_side_512(log10_mod, angle):
    # above side 256 power iteration decides; its convergence test is
    # relative, so a tiny matrix is not declared converged after one step
    c = 10.0**log10_mod * np.exp(1j * angle)
    assert linalg.operator_norm(c * _SIDE_512) == pytest.approx(abs(c) * _SIDE_512_NORM,
                                                                rel=1e-10)


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
