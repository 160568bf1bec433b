import numpy as np
import pytest

from qmetric import linalg
from qmetric.errors import PreconditionError, ResourceLimitError


def test_kron_identity():
    i2 = np.eye(2)
    assert np.array_equal(linalg.kron(i2, i2), np.eye(4))


def test_kron_block_expansion():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = b
    expected[2:, 2:] = -b
    assert np.array_equal(linalg.kron(a, b), expected)


def test_kron_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = linalg.operator_norm(linalg.kron(a, b))
        rhs = linalg.operator_norm(a) * linalg.operator_norm(b)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


def test_kron_associative_exact():
    # integer entries make float multiplication exact, so both groupings agree bitwise
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(-4, 5, size=(2, 2)).astype(complex) for _ in range(3))
    assert np.array_equal(linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)))


def test_operator_norm_identity_and_diagonal():
    assert linalg.operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert linalg.operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_power_iteration_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(4):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dense = linalg.operator_norm(m)
        power = linalg.operator_norm(m, force_power_iteration=True)
        assert abs(dense - power) < 1e-9 * max(1.0, dense)


def test_singular_values_zero_and_isometry():
    assert np.array_equal(linalg.singular_values(np.zeros((3, 2))), np.zeros(2))
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 3)))
    assert np.abs(linalg.singular_values(q) - 1.0).max() < 1e-12


def test_singular_values_gram_oracle():
    # sigma of a 6x4 matrix matches sqrt of eigenvalues of the 4x4 Gram matrix
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    sv = linalg.singular_values(m)
    gram_eigs = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
    assert np.abs(sv - np.sqrt(np.maximum(gram_eigs, 0.0))).max() < 1e-9
    assert abs(np.sum(sv**2) - np.linalg.norm(m) ** 2) < 1e-9 * np.linalg.norm(m) ** 2
    assert np.all(np.diff(sv) <= 1e-12)


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    assert np.abs(
        linalg.singular_values(u @ m @ v) - linalg.singular_values(m)
    ).max() < 1e-9


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
        linalg.singular_values(np.ones(3))


def test_kron_cap(monkeypatch):
    monkeypatch.setenv("QMETRIC_CAP", "matrix_dim=8")
    with pytest.raises(ResourceLimitError):
        linalg.kron(np.eye(4), np.eye(4))


def test_power_iteration_stall_falls_back_to_svd():
    # a = (1 - ε/2)·1 + (ε/2)·u at side 512, u = diag(±1) (a clock on the
    # first site): the singular values 1 and 1 - ε are too close for power
    # iteration to separate within its budget
    eps = 1e-4
    u0 = np.diag(np.repeat([1.0, -1.0], 256))
    a = (1 - eps / 2) * np.eye(512) + (eps / 2) * u0
    assert linalg.operator_norm(a) == pytest.approx(1.0, rel=1e-12)


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
