import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qmetric import weyl
from qmetric.errors import PreconditionError, ResourceLimitError
from qmetric.linalg import operator_norm


def random_element(window, rng):
    d = window.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return weyl.WeylElement(window, m)


def test_commutation_relation():
    for p in range(2, 8):
        u, v = weyl.clock_shift(p)
        rho = np.exp(2j * np.pi / p)
        assert np.abs(v @ u - rho * u @ v).max() < 1e-12


def test_p2_explicit_matrices():
    u, v = weyl.clock_shift(2)
    assert np.allclose(u, np.diag([1.0, -1.0]))
    assert np.allclose(v, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(v @ u + u @ v).max() < 1e-12  # vu = -uv


def test_roots_of_unity_order():
    u, v = weyl.clock_shift(3)
    assert np.abs(np.linalg.matrix_power(u, 3) - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(v, 3) - np.eye(3)).max() < 1e-12


def stacked_site_monomials(p):
    """u^i v^j for all (i, j) as one (p, p, p, p) stack, built by the iterated
    products that weyl_monomial's per-site factors must reproduce bit for bit."""
    u, v = weyl.clock_shift(p)
    out = np.empty((p, p, p, p), dtype=np.complex128)
    ui = np.eye(p, dtype=np.complex128)
    for i in range(p):
        vj = np.eye(p, dtype=np.complex128)
        for j in range(p):
            out[i, j] = ui @ vj
            vj = vj @ v
        ui = ui @ u
    return out


@pytest.mark.parametrize("p", range(2, 8))
def test_monomials_bit_identical_to_the_stacked_products(p):
    stack = stacked_site_monomials(p)
    w = weyl.WeylWindow(p, 0, 1)
    for exps in oracles.weyl_unitary_family(w):
        want = np.kron(np.kron([[1.0 + 0j]], stack[exps[0]]), stack[exps[1]])
        assert np.array_equal(weyl.weyl_monomial(w, exps).matrix, want)


def test_lip_norm_one_site_p257():
    # characters reach 256, so they need more than a byte; the site monomial
    # is built without the p^4 stack of every u^i v^j
    w = weyl.WeylWindow(257, 0, 0)
    a = weyl.weyl_monomial(w, [(1, 0)])
    assert weyl.weyl_lip_norm(a, 0.5) == pytest.approx(
        weyl.monomial_lip_norm(w, [(1, 0)], 0.5), rel=1e-12)


def test_monomial_identity_and_tensor():
    w = weyl.WeylWindow(2, 0, 1)
    ident = weyl.weyl_monomial(w, [(0, 0), (0, 0)])
    assert np.array_equal(ident.matrix, np.eye(4))
    m = weyl.weyl_monomial(w, [(1, 0), (0, 1)])
    assert np.allclose(m.matrix, np.kron(np.diag([1, -1]), [[0, 1], [1, 0]]))


def test_monomial_trace_vanishes():
    w = weyl.WeylWindow(3, -1, 0)
    for exps in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        m = weyl.weyl_monomial(w, exps)
        tr = weyl.trace(m)
        if all(e == (0, 0) for e in exps):
            assert abs(tr - 1.0) < 1e-12
        else:
            assert abs(tr) < 1e-12


def test_expand_identity_and_monomial():
    w = weyl.WeylWindow(2, 0, 1)
    ident = weyl.weyl_monomial(w, [(0, 0), (0, 0)])
    data = oracles.coefficient_dict(weyl.weyl_expand(ident))
    assert set(data) == {((0, 0), (0, 0))}
    assert abs(data[((0, 0), (0, 0))] - 1.0) < 1e-12
    uv = weyl.weyl_monomial(w, [(1, 0), (0, 1)])
    data = oracles.coefficient_dict(weyl.weyl_expand(uv))
    assert set(data) == {((1, 0), (0, 1))}
    assert abs(data[((1, 0), (0, 1))] - 1.0) < 1e-12


def test_expand_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    w = weyl.WeylWindow(2, 0, 1)
    a = random_element(w, rng)
    coeffs = weyl.weyl_expand(a)
    rec = oracles.reconstruct(w, coeffs)
    assert np.abs(rec.matrix - a.matrix).max() < 1e-10
    lhs = np.sum(np.abs(coeffs) ** 2)
    rhs = weyl.trace(a.adjoint() * a).real
    assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


@pytest.mark.parametrize("p, lo, hi", [
    (2, -1, 1), (2, 0, 2), (3, -2, 0), (3, 1, 3), (4, -1, 0), (4, 0, 2), (5, 0, 0), (5, -1, 0),
])
def test_expand_matches_the_trace_definition(p, lo, hi):
    # every coefficient of a dense element is τ(m* a) = Σ conj(m) ⊙ a / d, at index
    # (i_0, j_0, i_1, j_1, ...), so the flat order is exponent_index's
    w = weyl.WeylWindow(p, lo, hi)
    a = random_element(w, np.random.default_rng(100 * p + lo))
    c = weyl.weyl_expand(a)
    assert c.shape == (p,) * (2 * w.n_sites) and c.dtype == np.complex128
    assert not c.flags.writeable
    family = oracles.weyl_unitary_family(w)
    assert [oracles.exponent_index(w, exps) for exps in family] == list(range(c.size))
    scale = np.abs(a.matrix).max()
    flat = c.ravel()
    for exps in family:
        want = np.vdot(weyl.weyl_monomial(w, exps).matrix, a.matrix) / w.dim
        assert abs(flat[oracles.exponent_index(w, exps)] - want) <= 1e-15 * scale


def test_expand_roundtrip_p3_three_sites():
    a = random_element(weyl.WeylWindow(3, -1, 1), np.random.default_rng(33))
    rec = oracles.reconstruct(a.window, weyl.weyl_expand(a))
    assert np.abs(rec.matrix - a.matrix).max() < 1e-13 * np.abs(a.matrix).max()


def test_trace_orthonormality_small_windows():
    # expansion rows of monomials are one-hot, which is the Gram against all monomials
    for p in (2, 3):
        w = weyl.WeylWindow(p, 0, 1)
        for exps in oracles.weyl_unitary_family(w):
            data = oracles.coefficient_dict(weyl.weyl_expand(weyl.weyl_monomial(w, exps)))
            assert set(data) == {exps}
            assert abs(data[exps] - 1.0) < 1e-12


def test_conditional_expectation_fixed_point_and_kill():
    w = weyl.WeylWindow(2, 0, 1)
    a = weyl.weyl_monomial(w, [(1, 0), (1, 0)])  # u0 ⊗ u1
    e0 = weyl.conditional_expectation(a, 0)
    assert np.abs(e0.matrix).max() < 1e-12
    inside = weyl.weyl_monomial(weyl.WeylWindow(2, -1, 1), [(0, 0), (1, 1), (0, 0)])
    kept = weyl.conditional_expectation(inside, 1)
    assert np.abs(kept.matrix - inside.matrix).max() < 1e-12


def test_conditional_expectation_group_average_oracle():
    # averaging γ_g over the site-1 subgroup reproduces E_0 on the window [0, 1]
    rng = np.random.default_rng(4)
    w = weyl.WeylWindow(2, 0, 1)
    a = random_element(w, rng)
    avg = np.zeros_like(a.matrix)
    for r, s in itertools.product(range(2), repeat=2):
        g = weyl.GroupElement(w, ((0, 0), (r, s)))
        avg = avg + weyl.weyl_action(g, a).matrix
    avg /= 4.0
    e0 = weyl.conditional_expectation(a, 0)
    assert np.abs(e0.matrix - avg).max() < 1e-10


def expectation_by_coefficients(a, n):
    """E_n the long way: expand, drop every coefficient with a nontrivial
    exponent outside [-n, n], reconstruct."""
    w = a.window
    kept = {exps: c for exps, c in oracles.coefficient_dict(weyl.weyl_expand(a)).items()
            if all(pair == (0, 0) for site, pair in zip(w.sites, exps) if abs(site) > n)}
    return oracles.reconstruct(w, oracles.coefficient_array(w, kept))


@st.composite
def expectation_cases(draw):
    """A random dense element on a window of p ∈ {2, 3, 4}, with or without
    site 0, an n whose [-n, n] meets the window (and may cover it), and two
    random elements b, c supported in [-n, n]."""
    p = draw(st.sampled_from([2, 3, 4]))
    n_sites = draw(st.integers(1, {2: 4, 3: 3, 4: 2}[p]))
    lo = draw(st.integers(-3, 2))
    w = weyl.WeylWindow(p, lo, lo + n_sites - 1)
    nearest = min(abs(k) for k in w.sites)
    n = draw(st.integers(nearest, nearest + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_element(w, rng)
    inner = weyl.WeylWindow(p, max(w.lo, -n), min(w.hi, n))
    b, c = (weyl.embed(random_element(inner, rng), w) for _ in range(2))
    return a, n, b, c


def max_entry(a):
    return float(np.abs(a.matrix).max())


@settings(max_examples=60, deadline=None)
@given(expectation_cases())
def test_conditional_expectation_properties(case):
    a, n, b, c = case
    w = a.window
    e = weyl.conditional_expectation(a, n)
    assert e.window == w
    tol = 1e-12 * max_entry(a)
    assert np.abs(e.matrix - expectation_by_coefficients(a, n).matrix).max() <= tol
    # idempotent and unital
    assert np.abs(weyl.conditional_expectation(e, n).matrix - e.matrix).max() <= tol
    one = weyl.WeylElement(w, np.eye(w.dim))
    assert np.array_equal(weyl.conditional_expectation(one, n).matrix, one.matrix)
    # a bimodule map over the elements supported in [-n, n]
    bac = weyl.conditional_expectation(b * a * c, n)
    tol_bac = 1e-12 * max_entry(b) * max_entry(a) * max_entry(c) * w.dim**2
    assert np.abs(bac.matrix - (b * e * c).matrix).max() <= tol_bac
    # trace-preserving, *-preserving, contractive
    assert abs(weyl.trace(e) - weyl.trace(a)) <= tol
    assert np.abs(weyl.conditional_expectation(a.adjoint(), n).matrix
                  - e.adjoint().matrix).max() <= tol
    assert e.norm() <= a.norm() * (1 + 1e-12)
    # nothing to kill once [-n, n] covers the window
    if -n <= w.lo and w.hi <= n:
        assert e is a


def test_group_length_closed_forms():
    w1 = weyl.WeylWindow(2, 0, 0)
    g = weyl.GroupElement(w1, ((1, 0),))
    assert weyl.group_length(g, 0.7) == pytest.approx(0.5)
    assert weyl.group_length(weyl.GroupElement(w1, ((0, 0),)), 0.3) == 0.0
    w2 = weyl.WeylWindow(2, 2, 2)
    g2 = weyl.GroupElement(w2, ((1, 1),))
    assert weyl.group_length(g2, 0.5) == pytest.approx(0.25 * np.sqrt(2) / 2)


def test_weyl_action_phase_and_isometry():
    w = weyl.WeylWindow(2, 0, 0)
    u, _ = weyl.clock_shift(2)
    ue = weyl.WeylElement(w, u)
    moved = weyl.weyl_action(weyl.GroupElement(w, ((1, 0),)), ue)
    assert np.abs(moved.matrix + u).max() < 1e-12  # γ_(1,0)(u) = -u
    ident = weyl.weyl_action(weyl.GroupElement(w, ((0, 0),)), ue)
    assert np.abs(ident.matrix - u).max() < 1e-12
    rng = np.random.default_rng(8)
    w2 = weyl.WeylWindow(2, 0, 1)
    a = random_element(w2, rng)
    g = weyl.GroupElement(w2, ((1, 1), (0, 1)))
    assert abs(weyl.weyl_action(g, a).norm() - a.norm()) < 1e-10 * max(1.0, a.norm())


def test_weyl_action_matches_coefficient_rule():
    rng = np.random.default_rng(12)
    w = weyl.WeylWindow(3, 0, 1)
    a = random_element(w, rng)
    g = weyl.GroupElement(w, ((1, 2), (2, 0)))
    acted = oracles.coefficient_dict(weyl.weyl_expand(weyl.weyl_action(g, a)))
    rho = np.exp(2j * np.pi / 3)
    for exps, c in oracles.coefficient_dict(weyl.weyl_expand(a)).items():
        character = np.prod(
            [rho ** (r * i + s * j) for (r, s), (i, j) in zip(g.pairs, exps)]
        )
        assert abs(acted[exps] - character * c) < 1e-10


@st.composite
def action_cases(draw):
    """A random group element and a random dense element on a window of 1-3
    sites at p ∈ {2, 3, 4, 6, 7}."""
    p = draw(st.sampled_from([2, 3, 4, 6, 7]))
    lo = draw(st.integers(-3, 2))
    w = weyl.WeylWindow(p, lo, lo + draw(st.integers(0, 2)))
    pairs = tuple((draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)))
                  for _ in range(w.n_sites))
    a = random_element(w, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return weyl.GroupElement(w, pairs), a


@settings(max_examples=60, deadline=None)
@given(action_cases())
def test_weyl_action_equals_the_conjugation(case):
    g, a = case
    moved = weyl.weyl_action(g, a).matrix
    assert np.abs(moved - oracles.conjugation_action(g, a).matrix).max() <= 1e-12 * max_entry(a)


def test_lip_norm_scalar_is_zero():
    w = weyl.WeylWindow(2, 0, 1)
    a = weyl.WeylElement(w, (2.0 - 1.0j) * np.eye(4))
    assert weyl.weyl_lip_norm(a, 0.5) == 0.0


def test_lip_norm_single_site_clock():
    # max of 2/(1/2), 2/(sqrt2/2), 0 over the three nonidentity group elements
    u, _ = weyl.clock_shift(2)
    a = weyl.WeylElement(weyl.WeylWindow(2, 0, 0), u)
    for lam in (0.3, 0.5, 0.9):
        assert weyl.weyl_lip_norm(a, lam) == pytest.approx(4.0, rel=1e-12)


def test_lip_norm_scales_with_site():
    u, _ = weyl.clock_shift(2)
    for n, lam in [(1, 0.5), (2, 0.5), (2, 0.25)]:
        w = weyl.WeylWindow(2, 0, n)
        exps = [(0, 0)] * n + [(1, 0)]
        a = weyl.weyl_monomial(w, exps)
        assert weyl.weyl_lip_norm(a, lam) == pytest.approx(4.0 * lam**-n, rel=1e-10)
        assert weyl.monomial_lip_norm(w, exps, lam) == pytest.approx(
            4.0 * lam**-n, rel=1e-12
        )


@pytest.mark.parametrize("p, lo, hi, lam", [(2, -1, 1, 0.5), (2, -2, 2, 0.5), (2, -2, 2, 0.9),
                                             (3, -1, 1, 0.3), (2, -2, 1, 0.6), (4, -1, 0, 0.7),
                                             (5, 0, 1, 0.45), (6, 2, 2, 0.5), (7, -1, 0, 0.35),
                                             (12, -3, -3, 0.8)])
def test_family_lip_max_equals_max_over_the_family(p, lo, hi, lam):
    w = weyl.WeylWindow(p, lo, hi)
    want = max(weyl.monomial_lip_norm(w, exps, lam) for exps in oracles.weyl_unitary_family(w))
    assert weyl.family_lip_max(p, max(-lo, hi), lam) == want


def test_family_lip_max_checks_p_and_lambda():
    with pytest.raises(PreconditionError):
        weyl.family_lip_max(1, 1, 0.5)
    for lam in (0.0, 1.0, float("nan")):
        with pytest.raises(PreconditionError):
            weyl.family_lip_max(2, 1, lam)


def test_monomial_lip_matches_exhaustive():
    w = weyl.WeylWindow(2, 0, 1)
    for exps in oracles.weyl_unitary_family(w):
        if all(e == (0, 0) for e in exps):
            continue
        a = weyl.weyl_monomial(w, exps)
        assert weyl.monomial_lip_norm(w, exps, 0.6) == pytest.approx(
            weyl.weyl_lip_norm(a, 0.6), rel=1e-10
        )


def test_leibniz_rule():
    rng = np.random.default_rng(21)
    w = weyl.WeylWindow(2, 0, 1)
    for _ in range(4):
        a = random_element(w, rng)
        b = random_element(w, rng)
        lab = weyl.weyl_lip_norm(a * b, 0.5)
        bound = weyl.weyl_lip_norm(a, 0.5) * b.norm() + a.norm() * weyl.weyl_lip_norm(b, 0.5)
        assert lab <= bound * (1 + 1e-9)


@st.composite
def element_pairs(draw):
    """Two elements on one small window, each with 1-6 random monomials."""
    p, lo, hi = draw(st.sampled_from([(2, 0, 0), (2, 0, 1), (2, -1, 1), (3, 0, 0), (3, -1, 0),
                                      (4, 0, 0)]))
    window = weyl.WeylWindow(p, lo, hi)
    family = oracles.weyl_unitary_family(window)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        exps = draw(st.lists(st.sampled_from(family), min_size=1, max_size=6, unique=True))
        coeffs = {e: complex(rng.standard_normal(), rng.standard_normal()) for e in exps}
        pair.append(oracles.reconstruct(window, oracles.coefficient_array(window, coeffs)))
    return pair[0], pair[1], draw(st.sampled_from([0.3, 0.5, 0.8]))


@settings(max_examples=40, deadline=None)
@given(element_pairs())
def test_leibniz_rule_property(case):
    a, b, lam = case
    lab = weyl.weyl_lip_norm(a * b, lam)
    bound = weyl.weyl_lip_norm(a, lam) * b.norm() + a.norm() * weyl.weyl_lip_norm(b, lam)
    assert lab <= bound * (1 + 1e-12)


def test_adjoint_invariance():
    rng = np.random.default_rng(31)
    w = weyl.WeylWindow(2, 0, 1)
    a = random_element(w, rng)
    assert weyl.weyl_lip_norm(a.adjoint(), 0.4) == pytest.approx(
        weyl.weyl_lip_norm(a, 0.4), rel=1e-10
    )


def test_conditional_expectation_error_bound():
    # ||E_n(a) - a|| <= L(a) 2 λ^{n+1} / (1-λ)
    rng = np.random.default_rng(17)
    lam = 0.5
    w = weyl.WeylWindow(2, -2, 2)
    a = random_element(w, rng)
    lip = weyl.weyl_lip_norm(a, lam)
    for n in (0, 1, 2):
        resid = operator_norm(weyl.conditional_expectation(a, n).matrix - a.matrix)
        assert resid <= lip * 2 * lam ** (n + 1) / (1 - lam) + 1e-9


def test_expectation_error_bound_on_full_support_elements():
    # the certificate behind weyl-dim's upper rows, ||a - E_n a|| <= 2λ^{n+1}/(1-λ)·L(a),
    # on dense elements, whose Lip norms visit the most fibers
    rng = np.random.default_rng(23)
    lam = 0.5
    for lo, hi in [(-2, 2)] * 6 + [(-1, 2)] * 6:
        a = random_element(weyl.WeylWindow(2, lo, hi), rng)
        lip = weyl.weyl_lip_norm(a, lam)
        for n in (0, 1):
            resid = operator_norm(a.matrix - weyl.conditional_expectation(a, n).matrix)
            assert resid <= 2 * lam ** (n + 1) / (1 - lam) * lip


def test_lip_norm_memory_at_full_support():
    # a p = 2, W = 6 element has 4 095 monomials: a k×d×d stack of them would be
    # 256 MiB, a 65 536-row block of int64 characters 128 MiB, and a table of the
    # character rows of all 4 095 fibers 16 MiB; a 256-row chunk takes 8 MiB
    import tracemalloc

    a = random_element(weyl.WeylWindow(2, 0, 5), np.random.default_rng(6))
    tracemalloc.start()
    try:
        weyl.weyl_lip_norm(a, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_expand_memory_of_a_dense_element():
    # p = 2 on 9 sites (d = 512): the 2^18 coefficients are one 4 MiB complex array,
    # and the expansion holds a few such arrays at a time
    import tracemalloc

    a = random_element(weyl.WeylWindow(2, -4, 4), np.random.default_rng(9))
    tracemalloc.start()
    try:
        c = weyl.weyl_expand(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.count_nonzero(c) == 2**18


def test_shift_and_embed():
    u, _ = weyl.clock_shift(2)
    a = weyl.WeylElement(weyl.WeylWindow(2, 0, 0), u)
    s = oracles.shift_element(a, 2)
    assert s.window == weyl.WeylWindow(2, 2, 2)
    prod = a * s  # hull window [0, 2]
    assert prod.window == weyl.WeylWindow(2, 0, 2)
    expected = np.kron(np.kron(u, np.eye(2)), u)
    assert np.abs(prod.matrix - expected).max() < 1e-12


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("QMETRIC_CAP", "group_enum=3")
    u, _ = weyl.clock_shift(2)
    a = weyl.WeylElement(weyl.WeylWindow(2, 0, 0), u)
    with pytest.raises(ResourceLimitError):
        weyl.weyl_lip_norm(a, 0.5)


def test_bad_lambda_rejected():
    u, _ = weyl.clock_shift(2)
    a = weyl.WeylElement(weyl.WeylWindow(2, 0, 0), u)
    with pytest.raises(PreconditionError):
        weyl.weyl_lip_norm(a, 1.5)
    with pytest.raises(PreconditionError):
        weyl.group_length(weyl.GroupElement(a.window, ((1, 0),)), 0.0)


def brute_force_lip(a, lam):
    """sup over g ≠ e of ‖γ_g(a) - a‖ / ℓ_λ(g): every group element acts by
    the reference conjugation and the operator-norm ratio is taken directly."""
    w = a.window
    best = 0.0
    for pairs in itertools.product(itertools.product(range(w.p), repeat=2), repeat=w.n_sites):
        g = weyl.GroupElement(w, pairs)
        if g.is_identity:
            continue
        num = operator_norm(oracles.conjugation_action(g, a).matrix - a.matrix)
        best = max(best, num / weyl.group_length(g, lam))
    return best


def test_lip_norm_against_per_element_brute_force():
    # independent oracle on random dense (so full-support) elements: p = 4, 5, 6
    # and 7 windows, and full supports of 255 (p = 2, W = 4) and 80 (p = 3, W = 2)
    # nontrivial monomials
    rng = np.random.default_rng(77)
    lam = 0.45
    for (p, lo, hi), count in [((2, 0, 1), 3), ((4, -1, 0), 2), ((6, 0, 0), 2), ((6, 2, 2), 1),
                               ((2, -2, 1), 1), ((3, 0, 1), 1), ((5, -1, 0), 1), ((7, 1, 1), 2)]:
        w = weyl.WeylWindow(p, lo, hi)
        for _ in range(count):
            a = random_element(w, rng)
            assert np.count_nonzero(weyl.weyl_expand(a)) == p ** (2 * w.n_sites)
            assert weyl.weyl_lip_norm(a, lam) == pytest.approx(brute_force_lip(a, lam), rel=1e-9)


@pytest.mark.parametrize("p, lo, hi", [
    (2, 0, 0), (2, -1, 0), (2, -1, 1), (2, -2, 1), (3, 1, 1), (3, -1, 0), (3, -1, 1),
    (4, 0, 0), (4, -1, 0), (5, 2, 2), (5, 0, 1), (6, -3, -3), (6, -1, 0), (7, 0, 0), (7, 1, 2),
])
def test_bound_table_bit_identical_to_the_digit_division(p, lo, hi):
    # the broadcast per-site tables give ℓ_λ and B bit for bit as the digit
    # division and int64 character product did, so the visit order is the same;
    # full supports at p = 6 and 7 on two sites need several chunks
    w = weyl.WeylWindow(p, lo, hi)
    rng = np.random.default_rng(100 * p + 10 * (hi - lo) + hi % 10)
    full = p ** (2 * w.n_sites) - 1
    for k in sorted({1, 2, min(8, full), full // 2, full} - {0}):
        c = np.zeros((p,) * (2 * w.n_sites), dtype=np.complex128)
        c.reshape(-1)[1 + rng.choice(full, k, replace=False)] = (rng.standard_normal(k)
                                                                 + 1j * rng.standard_normal(k))
        E = np.argwhere(c)
        E = E[E.any(axis=1)]
        lens, num = weyl._bound_table(w, c, E, 0.45)
        want_lens, want_num = oracles.bound_table(w, c, E, 0.45)
        assert lens.tobytes() == want_lens.tobytes()
        assert num.tobytes() == want_num.tobytes()
        order = np.argsort(-(num[1:] / lens[1:]), kind="stable")
        assert np.array_equal(order, np.argsort(-(want_num[1:] / want_lens[1:]), kind="stable"))


def test_expand_roundtrip_p5():
    rng = np.random.default_rng(55)
    w = weyl.WeylWindow(5, 0, 0)
    a = random_element(w, rng)
    coeffs = weyl.weyl_expand(a)
    assert np.count_nonzero(coeffs) == 25
    rec = oracles.reconstruct(w, coeffs)
    assert np.abs(rec.matrix - a.matrix).max() < 1e-10


def test_lip_norm_p3_closed_form():
    # L(u) at p=3: the winning group elements are (r, 0) with
    # |ρ^r - 1| = sqrt(3) and length 1/3
    u, _ = weyl.clock_shift(3)
    a = weyl.WeylElement(weyl.WeylWindow(3, 0, 0), u)
    expected = 3 * np.sqrt(3)
    assert weyl.weyl_lip_norm(a, 0.5) == pytest.approx(expected, rel=1e-12)
    assert weyl.monomial_lip_norm(a.window, [(1, 0)], 0.5) == pytest.approx(
        expected, rel=1e-12
    )


def test_window_dimension_cap(monkeypatch):
    monkeypatch.setenv("QMETRIC_CAP", "matrix_dim=64")
    with pytest.raises(ResourceLimitError):
        weyl.WeylWindow(2, 0, 6)  # dimension 128


def fiber_oracle_lip(window, coeffs, lam):
    """sup of ‖Σ c_m (χ_m(g) - 1) m‖ / ℓ_λ(g) over every character fiber,
    without pruning; built from the coefficients, not from weyl_expand."""
    p = window.p
    rho = np.exp(2j * np.pi / p)
    support = [(e, c) for e, c in coeffs.items() if any(pair != (0, 0) for pair in e)]
    fibers = {}
    for pairs in itertools.product(itertools.product(range(p), repeat=2), repeat=window.n_sites):
        g = weyl.GroupElement(window, pairs)
        chars = tuple(
            sum(r * i + s * j for (r, s), (i, j) in zip(pairs, e)) % p for e, _ in support
        )
        if any(chars):
            ln = weyl.group_length(g, lam)
            fibers[chars] = min(ln, fibers.get(chars, np.inf))
    best = 0.0
    for chars, ln in fibers.items():
        diff = sum(
            c * (rho**t - 1.0) * weyl.weyl_monomial(window, e).matrix
            for t, (e, c) in zip(chars, support)
        )
        best = max(best, operator_norm(diff) / ln)
    return best


@st.composite
def sparse_elements(draw):
    p = draw(st.sampled_from([2, 3, 4]))
    n_sites = draw(st.integers(1, {2: 3, 3: 2, 4: 2}[p]))
    lo = draw(st.integers(-2, 1))
    window = weyl.WeylWindow(p, lo, lo + n_sites - 1)
    family = oracles.weyl_unitary_family(window)
    exps = draw(st.lists(st.sampled_from(family), min_size=1, max_size=4, unique=True))
    # equal moduli make fibers tie on the triangle bound; a single nontrivial
    # monomial attains it exactly
    equal = draw(st.booleans())
    coeffs = {}
    for e in exps:
        modulus = 1.0 if equal else draw(st.floats(0.25, 4.0))
        coeffs[e] = modulus * np.exp(2j * np.pi * draw(st.integers(0, 7)) / 8)
    return window, coeffs, draw(st.sampled_from([0.3, 0.5, 0.8]))


@settings(max_examples=60, deadline=None)
@given(sparse_elements())
def test_pruned_supremum_matches_all_fiber_oracle(case):
    window, coeffs, lam = case
    a = oracles.reconstruct(window, oracles.coefficient_array(window, coeffs))
    value = weyl.weyl_lip_norm(a, lam)
    assert type(value) is float
    assert value == pytest.approx(fiber_oracle_lip(window, coeffs, lam), rel=1e-10, abs=1e-12)


def test_full_support_p3_matches_oracle():
    # 80 nontrivial monomials: a character row packed in radix 3 would need 3^80
    rng = np.random.default_rng(41)
    w = weyl.WeylWindow(3, 0, 1)
    a = random_element(w, rng)
    coeffs = oracles.coefficient_dict(weyl.weyl_expand(a))
    assert len(coeffs) == 81
    assert weyl.weyl_lip_norm(a, 0.5) == pytest.approx(
        fiber_oracle_lip(w, coeffs, 0.5), rel=1e-10
    )


def test_pruned_supremum_takes_few_norms(monkeypatch):
    # p=3, W=5, eight independent exponents: 3^8 - 1 = 6560 character fibers
    rng = np.random.default_rng(8)
    w = weyl.WeylWindow(3, -2, 2)
    E = np.hstack([np.eye(8, dtype=np.int64), rng.integers(0, 3, size=(8, 2))])
    E = E[:, rng.permutation(10)]
    coeffs = {
        tuple((int(row[2 * k]), int(row[2 * k + 1])) for k in range(5)):
            rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random())
        for row in E
    }
    a = oracles.reconstruct(w, oracles.coefficient_array(w, coeffs))
    calls = []

    def counting_norm(m):
        calls.append(1)
        return operator_norm(m)

    monkeypatch.setattr(weyl, "operator_norm", counting_norm)
    value = weyl.weyl_lip_norm(a, 0.5)
    assert len(calls) < 100
    monkeypatch.undo()
    # bracket: single-site group elements from below, Σ|c| L(m) from above
    lower = 0.0
    for k in range(5):
        for r, s in itertools.product(range(3), repeat=2):
            pairs = [(0, 0)] * 5
            pairs[k] = (r, s)
            g = weyl.GroupElement(w, tuple(pairs))
            if not g.is_identity:
                moved = weyl.weyl_action(g, a).matrix - a.matrix
                lower = max(lower, operator_norm(moved) / weyl.group_length(g, 0.5))
    upper = sum(abs(c) * weyl.monomial_lip_norm(w, e, 0.5) for e, c in coeffs.items())
    assert lower * (1 - 1e-10) <= value <= upper * (1 + 1e-10)


def test_fiber_mates_take_no_norm(monkeypatch):
    # u⊗1⊗u on [-1, 1]: g = (1, 0) at site -1 and at site 1 are both shortest in
    # the fiber χ(g) = -1, with equal bounds; only the first takes a norm
    u, _ = weyl.clock_shift(2)
    a = weyl.WeylElement(weyl.WeylWindow(2, -1, 1), np.kron(np.kron(u, np.eye(2)), u))
    calls = []

    def counting_norm(m):
        calls.append(1)
        return operator_norm(m)

    monkeypatch.setattr(weyl, "operator_norm", counting_norm)
    assert weyl.weyl_lip_norm(a, 0.5) == 8.0
    assert len(calls) == 1


HOMOGENEITY_WINDOW = weyl.WeylWindow(2, -1, 1)
HOMOGENEITY_ELEMENT = random_element(HOMOGENEITY_WINDOW, np.random.default_rng(90))


@settings(max_examples=30, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(0.0, 1.0))
@example(-14.0, 0.0)  # at ε = 1e-14 an absolute tolerance dropped every coefficient
def test_lip_norm_is_homogeneous(log_modulus, turn):
    c = 10.0**log_modulus * np.exp(2j * np.pi * turn)
    a = HOMOGENEITY_ELEMENT
    scaled = weyl.WeylElement(a.window, c * a.matrix)
    assert weyl.weyl_lip_norm(scaled, 0.5) == pytest.approx(
        abs(c) * weyl.weyl_lip_norm(a, 0.5), rel=1e-9
    )
