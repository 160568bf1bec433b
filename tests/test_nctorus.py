import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from qmetric import nctorus
from qmetric.errors import PreconditionError
from qmetric.linalg import operator_norm

TP = nctorus.TwistedPolynomial


@pytest.fixture
def quarter():
    return nctorus.PhaseMatrix.two_torus(0.25)


def random_polynomial(phase, rng, support=5, span=4):
    coeffs = {}
    while len(coeffs) < support:
        k = tuple(int(x) for x in rng.integers(-span, span + 1, size=phase.p))
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
    return TP(phase, coeffs)


def test_phase_matrix_validation():
    with pytest.raises(PreconditionError):
        nctorus.PhaseMatrix(2, np.array([[0.0, 0.25], [0.25, 0.0]]))  # not antisymmetric
    with pytest.raises(PreconditionError):
        nctorus.PhaseMatrix(2, np.array([[0.1, 0.0], [0.0, 0.0]]))  # diagonal
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    assert ph.theta[0, 1] == 0.25 and ph.theta[1, 0] == 0.75


def test_pruning_is_relative_to_the_largest_coefficient(quarter):
    tiny = TP(quarter, {(1, 0): 1e-16, (0, 1): 2e-16})
    assert tiny.support == [(0, 1), (1, 0)]
    assert TP(quarter, {(1, 0): 1.0, (0, 1): 1e-16}).support == [(1, 0)]
    assert TP(quarter, {(1, 0): 0.0}).support == []


@pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf), complex(np.nan, 0.0),
                                 complex(1.5e308, 1.5e308)])
def test_coefficients_without_finite_modulus_are_rejected(quarter, bad):
    # an infinite coefficient used to raise the threshold to inf and drop every term
    with pytest.raises(PreconditionError):
        TP(quarter, {(1, 0): 1.0, (0, 1): bad})
    with pytest.raises(PreconditionError):
        TP._monomials(quarter, np.array([[1, 0], [0, 1]]), np.array([1.0, bad]))


@pytest.mark.parametrize("k", [(2**70, 1), (1, -2**63), (2**63, 0)])
def test_exponents_beyond_int64_are_rejected(quarter, k):
    # products, adjoints and lip_bounds take exponents as int64, so the one entry
    # for outside input turns away any that does not fit
    with pytest.raises(PreconditionError, match=re.escape(f"exponent {k} ")):
        TP(quarter, {(0, 1): 1.0, k: 1.0})
    obj = {"p": 2, "theta": quarter.theta.tolist(), "coefficients": [[list(k), 1.0, 0.0]]}
    with pytest.raises(PreconditionError, match=re.escape(f"exponent {k} ")):
        nctorus.polynomial_from_jsonable(obj)


def test_largest_exponents_in_products_adjoints_and_lip_bounds(quarter):
    top = 2**63 - 1
    a = TP(quarter, {(top, -top): 1.0, (0, 1): 2.0})
    assert a.adjoint().support == [(-top, top), (0, -1)]
    assert (a * TP.one(quarter)).coeffs == a.coeffs
    lower, upper = nctorus.lip_bounds(a)
    assert 0.0 < lower <= upper
    # a product whose exponent leaves the range is rejected, not wrapped
    with pytest.raises(PreconditionError, match=re.escape(f"exponent {(2 * top, -2 * top)} ")):
        a * a


# finite parts whose moduli stay in the float range: zeros of both signs,
# subnormals, and parts near the largest float
_parts = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]),
                   st.floats(-1e308, 1e308))


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 4), data=st.data())
def test_monomial_batch_equals_validating_constructor(p, data):
    n = data.draw(st.integers(0, 12))
    rows = data.draw(st.lists(st.tuples(st.lists(st.integers(-2**62, 2**62), min_size=p,
                                                 max_size=p), _parts, _parts),
                              min_size=n, max_size=n))
    phase = nctorus.PhaseMatrix(p, np.zeros((p, p)))
    keys = np.array([k for k, _, _ in rows], dtype=np.int64).reshape(n, p)
    coeffs = np.array([complex(re, im) for _, re, im in rows], dtype=np.complex128)
    got = TP._monomials(phase, keys, coeffs)
    assert len(got) == n
    # read by index and by iteration, each monomial is the constructor's
    for i, a, (k, re, im) in zip(range(n), got, rows, strict=True):
        expect = TP.monomial(phase, k, complex(re, im))
        for b in (got[i], a):
            assert type(b) is TP and b.phase is phase and b.coeffs == expect.coeffs
            for (kb, cb), (_, ce) in zip(b.coeffs.items(), expect.coeffs.items(), strict=True):
                assert all(type(x) is int for x in kb) and type(cb) is complex
                assert np.signbit([cb.real, cb.imag]).tolist() == np.signbit([ce.real, ce.imag]).tolist()


def test_monomial_sequence_contract(quarter):
    keys = np.array([[1, 0], [0, -1], [2, 3], [-4, 5]])
    coeffs = np.array([1.0, -0.0j, 2.5 - 1j, 1j])
    seq = TP._monomials(quarter, keys, coeffs)
    expect = [{(1, 0): 1.0}, {}, {(2, 3): 2.5 - 1j}, {(-4, 5): 1j}]
    assert len(seq) == 4
    assert [seq[i].coeffs for i in range(4)] == expect
    assert [seq[i].coeffs for i in range(-4, 0)] == expect
    assert [a.coeffs for a in seq] == expect
    assert [a.coeffs for a in reversed(seq)] == expect[::-1]
    for i in (4, -5):
        with pytest.raises(IndexError):
            seq[i]
    with pytest.raises(TypeError):
        seq[1.0]
    for sl in (slice(1, 3), slice(None, None, -2), slice(5, 9), slice(-3, None)):
        part = seq[sl]
        assert type(part) is type(seq) and part.phase is quarter
        assert [a.coeffs for a in part] == expect[sl]
        assert np.shares_memory(part.keys, seq.keys) or not len(part)
    # the arrays are read-only, and the caller's arrays keep their flags
    assert seq.keys.dtype == np.int64 and seq.keys.shape == (4, 2)
    assert seq.coeffs.dtype == np.complex128 and seq.coeffs.shape == (4,)
    for arr in (seq.keys, seq.coeffs, seq[1:].keys, seq[1:].coeffs):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert keys.flags.writeable and coeffs.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-20.0, 20.0), st.floats(0.0, 2.0 * np.pi))
def test_scaling_keeps_the_support(seed, log10_mod, angle):
    a = random_polynomial(nctorus.PhaseMatrix.two_torus(0.3), np.random.default_rng(seed))
    c = complex(10.0**log10_mod * np.exp(1j * angle))
    scaled = c * a
    assert scaled.support == a.support
    for k, v in a.coeffs.items():
        assert scaled.coeffs[k] == pytest.approx(c * v, rel=1e-12)


def test_reorder_phase_identity_cases(quarter):
    zero = (0, 0)
    for k in [(1, 0), (2, -3), (0, 0)]:
        assert nctorus.reorder_phase(k, zero, quarter) == 1.0
        assert nctorus.reorder_phase(zero, k, quarter) == 1.0


def test_reorder_phase_cocycle(quarter):
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, l, m = (tuple(rng.integers(-5, 6, size=2)) for _ in range(3))
        lhs = nctorus.reorder_exponent(k, l, quarter) + nctorus.reorder_exponent(
            tuple(a + b for a, b in zip(k, l)), m, quarter
        )
        rhs = nctorus.reorder_exponent(l, m, quarter) + nctorus.reorder_exponent(
            k, tuple(a + b for a, b in zip(l, m)), quarter
        )
        assert abs(lhs - rhs) < 1e-12


def test_generator_relation(quarter):
    u1 = TP.generator(quarter, 1)
    u2 = TP.generator(quarter, 2)
    lhs = u2 * u1
    rhs = np.exp(2j * np.pi * 0.25) * (u1 * u2)
    assert lhs.support == rhs.support == [(1, 1)]
    assert abs(lhs.coeffs[(1, 1)] - rhs.coeffs[(1, 1)]) < 1e-15


def test_phase_against_matrix_oracle_third():
    ph = nctorus.PhaseMatrix.two_torus(1.0 / 3.0)
    k, l = (2, 1), (1, 2)
    phase = nctorus.reorder_phase(k, l, ph)
    gens = oracles.rational_generators(ph)
    img_k = oracles.rational_representation(ph, TP.monomial(ph, k))
    img_l = oracles.rational_representation(ph, TP.monomial(ph, l))
    img_sum = oracles.rational_representation(ph, TP.monomial(ph, (3, 3)))
    assert np.abs(img_k @ img_l - phase * img_sum).max() < 1e-12
    assert gens[0].shape == (3, 3)


def test_product_unital_and_matches_oracle(quarter):
    rng = np.random.default_rng(1)
    one = TP.one(quarter)
    for _ in range(5):
        a = random_polynomial(quarter, rng)
        b = random_polynomial(quarter, rng)
        assert (a * one).coeffs == a.coeffs
        pa = oracles.rational_representation(quarter, a)
        pb = oracles.rational_representation(quarter, b)
        pab = oracles.rational_representation(quarter, a * b)
        assert np.abs(pa @ pb - pab).max() < 1e-12


def test_product_associative(quarter):
    rng = np.random.default_rng(2)
    a, b, c = (random_polynomial(quarter, rng, support=3) for _ in range(3))
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert lhs.support == rhs.support
    for k in lhs.coeffs:
        assert abs(lhs.coeffs[k] - rhs.coeffs[k]) < 1e-10


def test_involution_properties(quarter):
    rng = np.random.default_rng(3)
    a = random_polynomial(quarter, rng)
    b = random_polynomial(quarter, rng)
    double = a.adjoint().adjoint()
    assert double.support == a.support
    for k in a.coeffs:
        assert abs(double.coeffs[k] - a.coeffs[k]) < 1e-12
    lin = (a + 2j * b).adjoint()
    ref = a.adjoint() + (-2j) * b.adjoint()
    for k in lin.coeffs:
        assert abs(lin.coeffs[k] - ref.coeffs[k]) < 1e-12
    # adjoint intertwines with the matrix oracle
    img = oracles.rational_representation(quarter, a.adjoint())
    assert np.abs(img - oracles.rational_representation(quarter, a).conj().T).max() < 1e-12


def test_unitary_cancellation(quarter):
    u1u2 = TP.generator(quarter, 1) * TP.generator(quarter, 2)
    prod = u1u2.adjoint() * u1u2
    assert prod.support == [(0, 0)]
    assert abs(prod.coeffs[(0, 0)] - 1.0) < 1e-14


def l2_pairing(a, b):
    """Σ_k a_k conj(b_k), the ℓ² form on coefficients."""
    return sum(c * np.conj(b.coeffs.get(k, 0.0)) for k, c in a.coeffs.items())


def test_trace_pairing(quarter):
    # τ(b* a) is the ℓ² form on coefficients: the reordering and involution
    # phases cancel, so monomials are orthonormal
    rng = np.random.default_rng(4)
    one = TP.one(quarter)
    assert nctorus.trace(one.adjoint() * one) == 1.0
    for k in [(3, -2), (0, 5), (-7, 1)]:
        m = TP.monomial(quarter, k)
        assert abs(nctorus.trace(m.adjoint() * m) - 1.0) < 1e-15
    a = random_polynomial(quarter, rng)
    b = random_polynomial(quarter, rng)
    assert abs(nctorus.trace(b.adjoint() * a) - l2_pairing(a, b)) < 1e-12
    self_pairing = nctorus.trace(a.adjoint() * a)
    assert self_pairing.real >= 0
    assert abs(self_pairing.imag) < 1e-12


def test_lip_bounds_scalars_and_monomials(quarter):
    assert nctorus.lip_bounds(TP.one(quarter)) == (0.0, 0.0)
    assert nctorus.lip_bounds(3.0 * TP.one(quarter)) == (0.0, 0.0)
    for j in (1, 2):
        lo, hi = nctorus.lip_bounds(TP.generator(quarter, j))
        assert lo == hi == 1.0
    lo, hi = nctorus.lip_bounds(TP.generator(quarter, 1) * TP.generator(quarter, 2))
    assert lo == hi == pytest.approx(np.sqrt(2.0), abs=1e-15)
    # the Leibniz chain of per-generator bounds would only give 2 here
    assert hi < 2.0


def test_lip_bounds_bracket_order(quarter):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_polynomial(quarter, rng)
        lo, hi = nctorus.lip_bounds(a)
        assert lo <= hi


def test_lip_bounds_exact_for_monomials(quarter):
    rng = np.random.default_rng(6)
    for _ in range(10):
        k = tuple(int(x) for x in rng.integers(-10, 11, size=2))
        if k == (0, 0):
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        lo, hi = nctorus.lip_bounds(TP.monomial(quarter, k, c))
        assert lo == hi == pytest.approx(abs(c) * np.linalg.norm(k), rel=1e-12, abs=0)


def sampled_lip_lower(a, n_radii=25, n_lowdisc=1000):
    """The former sampled lower bound: sup of ‖γ_t(a) - a‖_GNS / ℓ(t) over t at
    geometric radii along each support direction and a Kronecker point set."""
    p = a.phase.p
    ks = np.array([k for k in a.coeffs if any(k)], dtype=np.int64)
    if ks.size == 0:
        return 0.0
    abs2 = np.abs(np.array([a.coeffs[tuple(k)] for k in ks])) ** 2
    dirs = ks / np.linalg.norm(ks.astype(float), axis=1)[:, None]
    radii = np.geomspace(1e-4, 0.25, n_radii)
    phi = 1.5  # the root > 1 of x^(p+1) = x + 1
    for _ in range(80):
        phi = (1.0 + phi) ** (1.0 / (p + 1))
    alpha = np.array([(1.0 / phi) ** (j + 1) % 1.0 for j in range(p)])
    kron = np.mod(np.arange(1, n_lowdisc + 1)[:, None] * alpha[None, :], 1.0)
    ts = np.vstack([(dirs[:, None, :] * radii[None, :, None]).reshape(-1, p), kron])
    lower = 0.0
    for t in ts:
        r = np.mod(t, 1.0)
        dist = float(np.linalg.norm(np.minimum(r, 1.0 - r)))
        if dist < 1e-12:
            continue
        num = np.sqrt(np.sum(abs2 * 4.0 * np.sin(np.pi * (ks @ t)) ** 2))
        lower = max(lower, float(num / (2.0 * np.pi * dist)))
    return lower


@st.composite
def torus_polynomials(draw):
    p = draw(st.integers(1, 3))
    theta = np.zeros((p, p))
    for i in range(p):
        for j in range(i + 1, p):
            theta[i, j] = draw(st.floats(0.0, 1.0, exclude_max=True))
            theta[j, i] = (-theta[i, j]) % 1.0
    exps = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * p), min_size=1, max_size=7,
                         unique=True).filter(lambda ks: any(any(k) for k in ks)))
    parts = st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 0.05)
    coeffs = {k: complex(draw(parts), draw(parts)) for k in exps}
    return TP(nctorus.PhaseMatrix(p, theta), coeffs)


@settings(max_examples=40, deadline=None)
@given(torus_polynomials())
def test_lip_lower_is_the_exact_gns_lip_seminorm(a):
    lo, hi = nctorus.lip_bounds(a)
    assert 0.0 < lo <= hi
    # it dominates every value the sampled search could find
    assert sampled_lip_lower(a) <= lo * (1 + 1e-12)
    # and the GNS ratio reaches it along the top right singular vector of M
    ks = np.array([k for k in a.coeffs if any(k)], dtype=float)
    abs2 = np.array([abs(a.coeffs[tuple(int(x) for x in k)]) ** 2 for k in ks])
    v = np.linalg.svd(np.sqrt(abs2)[:, None] * ks)[2][0]
    t = 1e-6 * v
    ratio = np.sqrt(np.sum(abs2 * 4.0 * np.sin(np.pi * (ks @ t)) ** 2)) / (2e-6 * np.pi)
    assert ratio == pytest.approx(lo, rel=1e-9)


def test_cesaro_basics(quarter):
    one = TP.one(quarter)
    for n in (0, 1, 5):
        assert nctorus.cesaro_mean(one, n).coeffs == one.coeffs
    line = nctorus.PhaseMatrix(1, np.zeros((1, 1)))
    u = TP.monomial(line, (1,))
    halved = nctorus.cesaro_mean(u, 1)
    assert abs(halved.coeffs[(1,)] - 0.5) < 1e-15


def test_cesaro_against_partial_sum_average(quarter):
    # brute-force average of partial Fourier sums over {0..n}^2
    rng = np.random.default_rng(7)
    a = random_polynomial(quarter, rng, support=5, span=4)
    for n in (1, 3, 4):
        avg: dict = {}
        for nvec in itertools.product(range(n + 1), repeat=2):
            s = oracles.partial_fourier_sum(a, nvec)
            for k, c in s.coeffs.items():
                avg[k] = avg.get(k, 0.0) + c
        avg = {k: c / (n + 1) ** 2 for k, c in avg.items()}
        ces = nctorus.cesaro_mean(a, n).coeffs
        keys = set(avg) | set(ces)
        for k in keys:
            assert abs(avg.get(k, 0.0) - ces.get(k, 0.0)) < 1e-12


def test_cesaro_weights_bounded_and_converging(quarter):
    a = TP.monomial(quarter, (2, -3))
    prev = 0.0
    for n in (1, 2, 4, 8, 64, 1024):
        c = nctorus.cesaro_mean(a, n).coeffs.get((2, -3), 0.0)
        w = abs(c)
        assert 0.0 <= w <= 1.0
        assert w >= prev
        prev = w
    assert prev > 0.99


def test_fejer_series_matches_closed_form():
    ts = np.linspace(-0.5, 0.4999, 257)
    for n in (0, 1, 4, 16):
        k = np.arange(-n, n + 1)
        w = 1.0 - np.abs(k) / (n + 1.0)
        series = np.real(
            np.sum(w[:, None] * np.exp(2j * np.pi * np.outer(k, ts)), axis=0)
        )
        assert np.abs(series - oracles.fejer_eval(n, ts)).max() < 1e-10
        assert oracles.fejer_eval(n, 0.0) == pytest.approx(n + 1.0, abs=1e-12)
        assert np.min(oracles.fejer_eval(n, ts)) >= -1e-12


def test_fejer_pointwise_bound():
    ts = np.linspace(-0.499, 0.499, 401)
    ts = ts[np.abs(ts) > 1e-6]
    for n in (4, 16, 64):
        kn = oracles.fejer_eval(n, ts)
        bound = np.minimum(n + 1.0, 1.0 / (4.0 * (n + 1) * ts**2))
        assert np.all(kn <= bound + 1e-9)


def test_fejer_integral_and_moment_quadrature():
    for n in (4, 16):
        edges = np.arange(0, n + 2) / (n + 1) * 0.5
        total = 0.0
        moment = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += integrate.quad(lambda t: oracles.fejer_eval(n, t), a, b, limit=200)[0]
            moment += integrate.quad(
                lambda t: t * oracles.fejer_eval(n, t), a, b, limit=200
            )[0]
        assert abs(2 * total - 1.0) < 1e-10
        assert abs(2 * moment - nctorus.fejer_abs_moment(n)) < 1e-10


def test_telescoping_identity_commutative_two_torus():
    # a - σ_n(a) = Σ_k ∫ γ_(t_1..t_{k-1},0)( ∫ (a - γ_{r_k(t)}(a)) K_n(t) dt ) ΠK_n dt
    # verified by quadrature for a commutative 2-torus polynomial
    flat = nctorus.PhaseMatrix(2, np.zeros((2, 2)))
    rng = np.random.default_rng(9)
    a = random_polynomial(flat, rng, support=4, span=2)
    n = 3

    ks = np.array(a.support)
    cs = np.array([a.coeffs[tuple(k)] for k in ks])

    def value(coeff, x):
        return np.sum(coeff[:, None] * np.exp(2j * np.pi * (ks @ np.asarray(x).T)), axis=0)

    grid = np.linspace(-0.5, 0.5, 1201)[:-1]
    dt = grid[1] - grid[0]
    kn = oracles.fejer_eval(n, grid)
    ces = nctorus.cesaro_mean(a, n)
    ces_cs = np.array([ces.coeffs.get(tuple(k), 0.0) for k in ks])
    for x in [(0.13, -0.29), (0.0, 0.41)]:
        lhs = value(cs, np.array([x]))[0] - value(ces_cs, np.array([x]))[0]
        # k = 1 term: ∫ (a - γ_{(t,0)} a)(x) K_n(t) dt
        shifted1 = np.column_stack([x[0] + grid, np.full_like(grid, x[1])])
        term1 = np.sum((value(cs, np.array([x]))[0] - value(cs, shifted1)) * kn) * dt
        # k = 2 term: ∫ γ_{(t1,0)}( ∫ (a - γ_{(0,t2)} a) K_n(t2) dt2 )(x) K_n(t1) dt1
        # inner(y1) evaluated on y1 = x1 + grid via the coefficient filter (1 - w2(k2))
        inner_weight = 1.0 - np.array(
            [np.sum(np.exp(2j * np.pi * k[1] * grid) * kn) * dt for k in ks]
        )
        inner_cs = cs * inner_weight * np.exp(2j * np.pi * ks[:, 1] * x[1])
        vals_inner = np.sum(
            inner_cs[:, None] * np.exp(2j * np.pi * np.outer(ks[:, 0], x[0] + grid)), axis=0
        )
        term2 = np.sum(vals_inner * kn) * dt
        assert abs(lhs - (term1 + term2)) < 1e-6


def test_rational_representation_basics(quarter):
    one_img = oracles.rational_representation(quarter, TP.one(quarter))
    assert np.array_equal(one_img, np.eye(4))
    u, v = oracles.rational_generators(quarter)
    assert np.abs(v @ u - np.exp(2j * np.pi / 4) * u @ v).max() < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_rational_representation_trace_window():
    ph = nctorus.PhaseMatrix.two_torus(1.0 / 3.0)
    dim = 3
    for k in (1, 2, 3, 4):
        img = oracles.rational_representation(ph, TP.monomial(ph, (k, 0)))
        tr = np.trace(img) / dim
        if k % 3 == 0:
            assert abs(tr - 1.0) < 1e-12  # outside the faithful window |k| < N
        else:
            assert abs(tr) < 1e-12


def test_rational_representation_pairing_in_window(quarter):
    # trace pairing intertwined on supports with diameter < N
    rng = np.random.default_rng(10)
    dim = 4
    for _ in range(3):
        a = random_polynomial(quarter, rng, support=3, span=1)
        b = random_polynomial(quarter, rng, support=3, span=1)
        pa = oracles.rational_representation(quarter, a)
        pb = oracles.rational_representation(quarter, b)
        mat_pairing = np.trace(pb.conj().T @ pa) / dim
        assert abs(mat_pairing - l2_pairing(a, b)) < 1e-12


def test_gns_norm_dominance(quarter):
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_polynomial(quarter, rng, support=4, span=1)
        l2 = np.sqrt(sum(abs(c) ** 2 for c in a.coeffs.values()))
        op = operator_norm(oracles.rational_representation(quarter, a))
        l1 = sum(abs(c) for c in a.coeffs.values())
        assert l2 <= op + 1e-10
        assert op <= l1 + 1e-10


def test_toral_map_identity_and_action(quarter):
    ident = nctorus.ToralMap(np.eye(2, dtype=int))
    rng = np.random.default_rng(12)
    a = random_polynomial(quarter, rng)
    same = nctorus.toral_map_apply(ident, a)
    assert same.support == a.support
    for k in a.coeffs:
        assert abs(same.coeffs[k] - a.coeffs[k]) < 1e-12
    rot = nctorus.ToralMap(np.eye(2, dtype=int), t=(0.3, 0.7))
    for j, tj in ((1, 0.3), (2, 0.7)):
        img = nctorus.toral_map_apply(rot, TP.generator(quarter, j))
        k = tuple(int(i == j - 1) for i in range(2))
        assert abs(img.coeffs[k] - np.exp(2j * np.pi * tj)) < 1e-12


def test_toral_map_homomorphism_against_oracle(quarter):
    cat = nctorus.ToralMap(np.array([[2, 1], [1, 1]]))
    u1 = TP.generator(quarter, 1)
    u2 = TP.generator(quarter, 2)
    lhs = nctorus.toral_map_apply(cat, u1) * nctorus.toral_map_apply(cat, u2)
    rhs = nctorus.toral_map_apply(cat, u1 * u2)
    assert lhs.support == rhs.support
    img_l = oracles.rational_representation(quarter, lhs)
    img_r = oracles.rational_representation(quarter, rhs)
    assert np.abs(img_l - img_r).max() < 1e-12
    # commutes with involution
    a = random_polynomial(quarter, np.random.default_rng(13), support=3, span=2)
    left = nctorus.toral_map_apply(cat, a.adjoint())
    right = nctorus.toral_map_apply(cat, a).adjoint()
    assert np.abs(
        oracles.rational_representation(quarter, left)
        - oracles.rational_representation(quarter, right)
    ).max() < 1e-12


def test_toral_map_support_and_trace(quarter):
    cat = nctorus.ToralMap(np.array([[2, 1], [1, 1]]))
    rng = np.random.default_rng(14)
    a = random_polynomial(quarter, rng)
    image = nctorus.toral_map_apply(cat, a)
    expected = sorted(tuple(cat.T @ np.array(k)) for k in a.coeffs)
    assert image.support == [tuple(int(x) for x in k) for k in expected]
    assert abs(nctorus.trace(image) - nctorus.trace(a)) < 1e-12


def test_toral_map_rejects_images_beyond_int64(quarter):
    # T·k must not wrap in int64, where cat would send (3·2^61, 0) to (-2^62, 3·2^61)
    cat = nctorus.ToralMap(np.array([[2, 1], [1, 1]]))
    k = (3 * 2**61, 0)
    with pytest.raises(PreconditionError, match=re.escape(f"exponent {(3 * 2**62, 3 * 2**61)} ")):
        nctorus.toral_map_apply(cat, TP.monomial(quarter, k))
    # a partial sum can leave the range although the image, (2^62, 2^62, 2^62), returns to it
    ph3 = nctorus.PhaseMatrix(3, np.zeros((3, 3)))
    shear = nctorus.ToralMap(np.array([[1, 1, -1], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(PreconditionError, match=re.escape(f"exponent {(2**63, 2**62, 0)} ")):
        nctorus.toral_map_apply(shear, TP.monomial(ph3, (2**62,) * 3))
    # just inside the range the image is computed exactly
    top = 2**63 - 1
    image = nctorus.toral_map_apply(cat, TP.monomial(quarter, (2**62 - 1, 1)))
    assert image.support == [(top, 2**62)]
    image = nctorus.toral_map_apply(nctorus.ToralMap(np.array([[-1, 0], [0, 1]])),
                                    TP.monomial(quarter, (-top, top)))
    assert image.support == [(top, top)]


def test_toral_map_validation():
    with pytest.raises(PreconditionError):
        nctorus.ToralMap(np.array([[2, 0], [0, 2]]))
    with pytest.raises(PreconditionError):
        nctorus.ToralMap(np.array([[1.5, 0.0], [0.0, 1.0]]))


def test_polynomial_json_roundtrip(quarter):
    rng = np.random.default_rng(15)
    a = random_polynomial(quarter, rng)
    b = nctorus.polynomial_from_json(nctorus.polynomial_to_json(a))
    assert b.phase == a.phase
    assert b.support == a.support
    for k in a.coeffs:
        assert abs(b.coeffs[k] - a.coeffs[k]) < 1e-12


@pytest.mark.parametrize("text", [
    '{"p": 2, "coefficients": [[[1, 0], 1.0, 0.0]]}',
    '{"p": 2, "theta": [[0, 0.25], [0.75]], "coefficients": []}',
    '{"p": 2, "theta": [[0, 0.25], [0.75, 0]], "coefficients": [[[1, 0], 1.0]]}',
    '{"p": 2, "theta": [[0, 0.25], [0.75, 0]], "coefficients": [[[1, "x"], 1.0, 0.0]]}',
    '[2]', "{not json"])
def test_polynomial_json_rejects_malformed_input(text):
    with pytest.raises(PreconditionError):
        nctorus.polynomial_from_json(text)


def test_rational_fraction_rejects_irrational():
    ph = nctorus.PhaseMatrix.two_torus(np.sqrt(2) / 2)
    with pytest.raises(PreconditionError):
        oracles.rational_generators(ph)


def test_rep_dim_is_an_unknown_cap(monkeypatch):
    # the clock/shift representation is a test oracle, with no cap of its own
    monkeypatch.setenv("QMETRIC_CAP", "rep_dim=5")
    with pytest.raises(PreconditionError, match="unknown cap 'rep_dim'"):
        nctorus.fejer_abs_moment(16)
