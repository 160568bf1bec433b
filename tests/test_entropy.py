import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qmetric import entropy, nctorus, weyl
from qmetric.errors import PreconditionError, ResourceLimitError

CAT = np.array([[2, 1], [1, 1]])


def test_cube_and_contains():
    k1 = entropy.LatticeSet.cube(2, 1)
    assert k1.cardinality == 9
    assert (0, 0) in k1 and (1, -1) in k1 and (2, 0) not in k1
    assert entropy.LatticeSet.cube(3, 2).cardinality == 125
    # points outside the box, even outside the 16-bit field, are not members
    k3 = entropy.LatticeSet.cube(3, 1)
    assert (1, 1, -1) in k3 and (1, 2, 0) not in k3
    assert (40000, 0, 0) not in k3 and (-2**70, 0, 0) not in k3
    assert (0, 0) not in entropy.LatticeSet.from_points(2, [])
    with pytest.raises(PreconditionError):
        (1, 2) in k3


def test_minkowski_identity_and_cubes():
    k1 = entropy.LatticeSet.cube(2, 1)
    zero = entropy.LatticeSet.from_points(2, [[0, 0]])
    assert np.array_equal(entropy.minkowski_sum(k1, zero).keys, k1.keys)
    k2 = entropy.minkowski_sum(k1, k1)
    assert k2.cardinality == 25
    assert np.array_equal(k2.keys, entropy.LatticeSet.cube(2, 2).keys)


def test_minkowski_against_double_loop():
    k1 = entropy.LatticeSet.cube(2, 1)
    zk1 = entropy.LatticeSet.from_points(2, k1.points() @ CAT.T)
    got = entropy.minkowski_sum(k1, zk1)
    brute = set()
    for a in k1.points():
        for b in zk1.points():
            brute.add((int(a[0] + b[0]), int(a[1] + b[1])))
    assert got.cardinality == len(brute)
    assert set(map(tuple, got.points())) == brute


def test_minkowski_cap(monkeypatch):
    monkeypatch.setenv("QMETRIC_CAP", "lattice_card=10")
    k1 = entropy.LatticeSet.cube(2, 1)
    with pytest.raises(ResourceLimitError):
        entropy.minkowski_sum(k1, k1)
    # every intermediate set of a growth is checked
    monkeypatch.setenv("QMETRIC_CAP", "lattice_card=100")
    with pytest.raises(ResourceLimitError):
        entropy.lattice_orbit_card(CAT, 1, 5)


def test_packing_overflow_aborts():
    with pytest.raises(ResourceLimitError):
        entropy.LatticeSet.from_points(3, [[40000, 1, 1]])
    with pytest.raises(ResourceLimitError):
        entropy.LatticeSet.from_points(2, [[2**31, 0]])


def test_orbit_identity_matrix():
    series = entropy.lattice_orbit_card(np.eye(2, dtype=int), 1, 5)
    assert series.counts == tuple((2 * n + 1) ** 2 for n in range(1, 6))
    series_m2 = entropy.lattice_orbit_card(np.eye(2, dtype=int), 2, 4)
    assert series_m2.counts == tuple((2 * 2 * n + 1) ** 2 for n in range(1, 5))


def test_orbit_recursion_matches_literal_sum():
    for T in (CAT, np.array([[1, 1], [0, 1]])):
        series = entropy.lattice_orbit_card(T, 1, 6)
        for n in (1, 2, 4, 6):
            assert len(oracle_orbit_set(T, 1, n)) == series.counts[n - 1]


def test_growth_series_validation():
    with pytest.raises(PreconditionError):
        entropy.GrowthSeries((5, 3))
    with pytest.raises(PreconditionError):
        entropy.GrowthSeries((0, 3))


def test_char_poly_exact():
    assert entropy.char_poly_int(CAT) == [1, -3, 1]
    assert entropy.char_poly_int(np.array([[0, -1], [1, 0]])) == [1, 0, 1]
    plastic = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert entropy.char_poly_int(plastic) == [1, 0, -1, -1]


def test_eigen_entropy_values():
    assert entropy.eigen_entropy(np.array([[0, -1], [1, 0]])) == pytest.approx(0.0, abs=1e-12)
    assert entropy.eigen_entropy(np.array([[1, 1], [0, 1]])) == pytest.approx(0.0, abs=1e-9)
    assert entropy.eigen_entropy(CAT) == pytest.approx(np.log((3 + np.sqrt(5)) / 2), rel=1e-12)
    with pytest.raises(PreconditionError):
        entropy.eigen_entropy(np.array([[2, 0], [0, 2]]))
    # repeated roots: unipotent Jordan blocks have entropy exactly 0
    for p in (3, 4):
        J = np.eye(p, dtype=np.int64) + np.eye(p, k=1, dtype=np.int64)
        assert entropy.eigen_entropy(J) == pytest.approx(0.0, abs=1e-12)


def test_eigen_entropy_pinned_bits():
    # pinned to the last bit: a change in how the spectrum is summed shows here
    pinned = {((2, 1), (1, 1)): 0.9624236501192069, ((3, 1), (2, 1)): 1.3169578969248166,
              ((1, 1), (0, 1)): 0.0, ((0, 1, 0), (0, 0, 1), (1, 1, 0)): 0.2811995743229614}
    for T, want in pinned.items():
        assert entropy.eigen_entropy(np.array(T)) == want


def test_eigen_entropy_power_law():
    for T in (CAT, np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])):
        base = entropy.eigen_entropy(T)
        Tk = np.eye(T.shape[0], dtype=np.int64)
        for k in range(1, 5):
            Tk = Tk @ T
            assert entropy.eigen_entropy(Tk) == pytest.approx(k * base, rel=1e-9)


def test_box_bound_dominates_cat_map():
    series = entropy.lattice_orbit_card(CAT, 1, 10)
    for n in range(1, 11):
        assert entropy.box_bound_card(CAT, 1, n, 0.05) >= series.counts[n - 1]


def test_box_bound_identity_polynomial():
    series = entropy.lattice_orbit_card(np.eye(2, dtype=int), 1, 10)
    bounds = [entropy.box_bound_card(np.eye(2, dtype=int), 1, n, 0.0) for n in range(1, 11)]
    assert all(b >= c for b, c in zip(bounds, series.counts))
    # polynomial growth: doubling n multiplies the bound by a bounded factor
    assert bounds[9] / bounds[4] < 40


def test_box_bound_defective_needs_pad():
    parab = np.array([[1, 1], [0, 1]])
    with pytest.raises(PreconditionError):
        entropy.box_bound_card(parab, 1, 5, 0.0)
    assert entropy.box_bound_card(parab, 1, 5, 0.05) > 0


def test_box_bound_log_slope():
    # asymptotic slope of the bound: log Πλ plus one log(1+δ_pad) per
    # padded direction (p of them); a rescaling of δ_pad absorbs the count
    dpad = 0.05
    ns = np.arange(400, 501, 20)
    logs = [np.log(entropy.box_bound_card(CAT, 1, int(n), dpad)) for n in ns]
    slope = np.polyfit(ns, logs, 1)[0]
    expected = np.log((3 + np.sqrt(5)) / 2) + 2 * np.log(1 + dpad)
    assert slope == pytest.approx(expected, rel=0.01)


def test_entropy_slope_closed_forms():
    doubling = entropy.GrowthSeries(tuple(2**n for n in range(1, 9)))
    est = entropy.entropy_slope(doubling, 5)
    assert est.slope == pytest.approx(np.log(2), rel=1e-12)
    assert np.allclose(est.diffs, np.log(2))
    quadratic = entropy.GrowthSeries(tuple(n * n for n in range(40, 60)))
    assert entropy.entropy_slope(quadratic, 5).slope < 0.05
    with pytest.raises(PreconditionError):
        entropy.entropy_slope(doubling, 2)
    with pytest.raises(PreconditionError):
        entropy.entropy_slope(entropy.GrowthSeries((1, 2, 3)), 5)


def test_shift_entropy_bracket_values():
    lo, hi = entropy.shift_entropy_bracket(2, 2, 0.5)
    assert lo == pytest.approx(np.log(13) / 2)
    assert hi == pytest.approx(np.log(2) * 12 / 2)
    assert lo <= 2 * np.log(2) <= hi
    # δ → 0 forces every vector: lower hits 2 log p exactly
    lo_small, _ = entropy.shift_entropy_bracket(2, 3, 1e-6)
    assert lo_small == pytest.approx(2 * np.log(2), rel=1e-12)
    widths = []
    for n in range(1, 6):
        lo_n, hi_n = entropy.shift_entropy_bracket(2, n, 0.5)
        assert lo_n <= 2 * np.log(2) + 1e-12
        assert hi_n >= 2 * np.log(2)
        widths.append(hi_n - lo_n)
    assert widths[-1] < widths[0]


def test_product_set_n1_returns_omega():
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    omega = [nctorus.TwistedPolynomial.generator(ph, 1)]
    out = entropy.product_set(omega, lambda a: a, 1)
    assert len(out) == 1
    assert out[0].coeffs == omega[0].coeffs


def test_product_set_shift_weyl_tensors():
    # shift on M_2 with the site-0 Weyl unitaries: products are exactly the
    # elementary monomial tensors over [0, n-1], cardinality p^(2n)
    p, n = 2, 3
    w0 = weyl.WeylWindow(p, 0, 0)
    omega = [weyl.weyl_monomial(w0, [e]) for e in itertools.product(range(p), repeat=2)]
    out = oracles.dense_product_set(omega, oracles.shift_element, n)
    assert len(out) == p ** (2 * n)
    hull = weyl.WeylWindow(p, 0, n - 1)
    seen = set()
    for a in out:
        data = weyl.weyl_expand(a).data
        assert len(data) == 1
        (exps, c), = data.items()
        assert abs(abs(c) - 1.0) < 1e-12
        seen.add(exps)
    assert seen == set(oracles.weyl_unitary_family(hull))


def test_product_set_toral_exponent_image():
    # α_T on twisted monomials with support K: exponent image is K + ζK + ζ²K
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    tm = nctorus.ToralMap(CAT)
    K = entropy.LatticeSet.cube(2, 1)
    omega = [nctorus.TwistedPolynomial.monomial(ph, k) for k in K.points()]
    out = entropy.product_set(omega, lambda a: nctorus.toral_map_apply(tm, a), 3)
    expect = oracle_orbit_set(CAT, 1, 3)
    assert {a.support[0] for a in out} == expect
    assert len(out) == len(expect)


def test_product_set_symbolic_matches_dense():
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    tm = nctorus.ToralMap(np.array([[1, 1], [0, 1]]))
    omega = [
        nctorus.TwistedPolynomial.monomial(ph, (1, 0)),
        nctorus.TwistedPolynomial.monomial(ph, (0, 1)),
    ]
    alpha = lambda a: nctorus.toral_map_apply(tm, a)
    symbolic = entropy.product_set(omega, alpha, 3)
    # dense route: force it by wrapping one element as a 2-term polynomial sum
    dense = [
        a * alpha(b) * alpha(alpha(c))
        for a in omega
        for b in omega
        for c in omega
    ]
    dense_exps = {e.support[0] for e in dense}
    assert {a.support[0] for a in symbolic} == dense_exps


def test_product_set_rejects_non_monomials():
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    u = nctorus.TwistedPolynomial.monomial(ph, (1, 0))
    two = u + nctorus.TwistedPolynomial.one(ph)
    with pytest.raises(PreconditionError):
        entropy.product_set([u, two], lambda a: a, 2)
    # Ω of monomials whose images under α are not
    with pytest.raises(PreconditionError):
        entropy.product_set([u], lambda a: a + two, 2)
    w0 = weyl.WeylWindow(2, 0, 0)
    with pytest.raises(PreconditionError):
        entropy.product_set([weyl.weyl_monomial(w0, [(1, 0)])], oracles.shift_element, 2)


def scalar_product_set(omega, alpha, n):
    """The monomial product set by one Python loop over every (kept exponent,
    layer monomial) pair, first representative per exponent (oracle)."""
    phase = omega[0].phase
    layers = [[next(iter(a.coeffs.items())) for a in omega]]
    elems = list(omega)
    for _ in range(1, n):
        elems = [alpha(a) for a in elems]
        layers.append([next(iter(a.coeffs.items())) for a in elems])
    acc = {}
    for k, c in layers[0]:
        acc.setdefault(k, c)
    for layer in layers[1:]:
        nxt = {}
        for k1, c1 in acc.items():
            for k2, c2 in layer:
                key = tuple(a + b for a, b in zip(k1, k2))
                if key not in nxt:
                    x1, x2 = np.asarray(k1, dtype=np.int64), np.asarray(k2, dtype=np.int64)
                    twist = 0.0
                    for i in range(phase.p):
                        for j in range(i + 1, phase.p):
                            twist += phase.theta[i, j] * x1[j] * x2[i]
                    nxt[key] = c1 * c2 * np.exp(2j * np.pi * twist)
        acc = nxt
    return sorted(acc.items())


def _unimodular(rng, p):
    """A random sign diagonal changed by elementary row operations (det ±1)."""
    T = np.diag(rng.choice([-1, 1], size=p)).astype(np.int64)
    for _ in range(3 * p):
        i, j = rng.integers(p, size=2)
        if i != j:
            T[i] += rng.integers(-1, 2) * T[j]
    return T


@settings(max_examples=12, deadline=None)
@given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([5, 37, 1 << 22]))
def test_product_set_equals_scalar_loop(p, seed, budget):
    rng = np.random.default_rng(seed)
    theta = rng.random((p, p))
    phase = nctorus.PhaseMatrix(p, (theta - theta.T) % 1.0)
    tm = nctorus.ToralMap(_unimodular(rng, p), rng.random(p))
    # exponents from a small cube, with repeats
    exps = [tuple(x) for x in rng.integers(-1, 2, size=(int(rng.integers(2, 8)), p))]
    exps += exps[:2]
    omega = [nctorus.TwistedPolynomial.monomial(phase, k, np.exp(2j * np.pi * rng.random()))
             for k in exps]
    alpha = lambda a: nctorus.toral_map_apply(tm, a)
    n = 3 if p <= 2 else 2
    expect = scalar_product_set(omega, alpha, n)
    old_budget = entropy._MERGE_BUDGET
    entropy._MERGE_BUDGET = budget
    try:
        got = entropy.product_set(omega, alpha, n)
    finally:
        entropy._MERGE_BUDGET = old_budget
    got = [next(iter(a.coeffs.items())) for a in got]
    assert [k for k, _ in got] == [k for k, _ in expect]
    # same bits, not just close: the phase and both products round as the loop does
    assert [c for _, c in got] == [c for _, c in expect]
    assert all(np.signbit([c.real, c.imag]).tolist() == np.signbit([d.real, d.imag]).tolist()
               for (_, c), (_, d) in zip(got, expect))


def test_product_set_symbolic_cap(monkeypatch):
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    tm = nctorus.ToralMap(CAT)
    omega = [nctorus.TwistedPolynomial.monomial(ph, k) for k in itertools.product((-1, 0, 1), repeat=2)]
    alpha = lambda a: nctorus.toral_map_apply(tm, a)
    counts = entropy.lattice_orbit_card(CAT, 1, 3).counts
    monkeypatch.setenv("QMETRIC_CAP", f"product_set={counts[-1]}")
    assert len(entropy.product_set(omega, alpha, 3)) == counts[-1]
    monkeypatch.setenv("QMETRIC_CAP", f"product_set={counts[-1] - 1}")
    with pytest.raises(ResourceLimitError):
        entropy.product_set(omega, alpha, 3)
    # one kept product per batch: the last layer stops long before its 37 batches
    # (each batch merges its keys into the seen set once)
    merged = []
    merge = entropy._sorted_unique
    monkeypatch.setattr(entropy, "_sorted_unique", lambda keys: merged.append(len(keys)) or merge(keys))
    monkeypatch.setattr(entropy, "_MERGE_BUDGET", 9)
    monkeypatch.setenv("QMETRIC_CAP", f"product_set={counts[1]}")
    with pytest.raises(ResourceLimitError):
        entropy.product_set(omega, alpha, 3)
    assert len(merged) < counts[0] + counts[1]
    monkeypatch.setenv("QMETRIC_CAP", "product_set=8")
    with pytest.raises(ResourceLimitError):
        entropy.product_set(omega, alpha, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_product_set_rejects_overflowing_coefficients():
    # coefficients near 1e200 are finite, their products are not: the product
    # set raises rather than dropping those monomials to zero
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    big = [nctorus.TwistedPolynomial.monomial(ph, (1, 0), 1e200),
           nctorus.TwistedPolynomial.monomial(ph, (0, 1), 1e200j)]
    assert [a.coeffs for a in entropy.product_set(big, lambda a: a, 1)] == \
        [{(0, 1): 1e200j}, {(1, 0): 1e200}]
    with pytest.raises(PreconditionError):
        entropy.product_set(big, lambda a: a, 2)
    fine = [nctorus.TwistedPolynomial.monomial(ph, (1, 0), 1e150)]
    assert entropy.product_set(fine, lambda a: a, 2)[0].coeffs == {(2, 0): (1e150 + 0j) ** 2}


def test_product_set_rank_and_field_limits():
    # exponents share the lattice key fields: p <= 4, |x| < 2^15 for p in {3, 4}
    ph5 = nctorus.PhaseMatrix(5, np.zeros((5, 5)))
    with pytest.raises(PreconditionError):
        entropy.product_set([nctorus.TwistedPolynomial.one(ph5)], lambda a: a, 2)
    ph3 = nctorus.PhaseMatrix(3, np.zeros((3, 3)))
    edge = [nctorus.TwistedPolynomial.monomial(ph3, (20000, 0, 0))]
    assert len(entropy.product_set(edge, lambda a: a, 1)) == 1
    with pytest.raises(ResourceLimitError):
        entropy.product_set(edge, lambda a: a, 2)
    far = [nctorus.TwistedPolynomial.monomial(ph3, (2**70, 0, 0))]
    with pytest.raises(ResourceLimitError):
        entropy.product_set(far, lambda a: a, 1)


def test_cat_slope_below_eigen_plus_pad_and_diffs_monotone():
    series = entropy.lattice_orbit_card(CAT, 1, 12)
    est = entropy.entropy_slope(series, 5)
    eigen = entropy.eigen_entropy(CAT)
    assert est.slope <= eigen + np.log(1.05) + 0.05
    tail = est.diffs[-8:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))  # monotone toward eigen
    assert tail[-1] >= eigen - 1e-6


def test_toral_lower_bound_chain_end_to_end():
    # the product-entropy lower-bound route: orbit monomials -> orthonormal
    # GNS vectors -> spectral dimension bound (1 - δ²)·card of the sum set
    from qmetric import approxdim

    ph = nctorus.PhaseMatrix.two_torus(0.25)
    tm = nctorus.ToralMap(CAT)
    K = entropy.LatticeSet.cube(2, 1)
    omega = [nctorus.TwistedPolynomial.monomial(ph, k) for k in K.points()]
    n = 3
    products = entropy.product_set(omega, lambda a: nctorus.toral_map_apply(tm, a), n)
    card = entropy.lattice_orbit_card(CAT, 1, n).counts[-1]
    assert len(products) == card
    basis = sorted({a.support[0] for a in products})
    fam = np.column_stack([nctorus.gns_vector(a, basis) for a in products])
    for delta in (0.5, 0.3):
        d_tau = approxdim.dim_lower_spectral(fam, delta)
        assert d_tau >= (1 - delta**2) * card


def test_complex_spectrum_block_basis():
    # plastic matrix: one real expanding eigenvalue plus a complex pair,
    # exercising the conjugate-chain merge in the real spectral basis
    plastic = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert entropy.eigen_entropy(plastic) == pytest.approx(np.log(1.324717957244746), rel=1e-12)
    series = entropy.lattice_orbit_card(plastic, 1, 8)
    for n in (1, 4, 8):
        assert entropy.box_bound_card(plastic, 1, n, 0.05) >= series.counts[n - 1]


def test_four_dimensional_block_cat():
    big = np.zeros((4, 4), dtype=np.int64)
    big[:2, :2] = CAT
    big[2:, 2:] = CAT
    target = 2 * np.log((3 + np.sqrt(5)) / 2)
    assert entropy.eigen_entropy(big) == pytest.approx(target, rel=1e-12)
    series = entropy.lattice_orbit_card(big, 1, 5)
    assert series.counts[0] == 81
    assert all(
        entropy.box_bound_card(big, 1, n, 0.05) >= c
        for n, c in enumerate(series.counts, start=1)
    )


def oracle_orbit_set(T, m, n):
    """Σ_{j<n} T^j K_m from Python sets of integer tuples, independent of the engine."""
    T = [[int(x) for x in row] for row in T]
    p = len(T)
    term = list(itertools.product(range(-m, m + 1), repeat=p))
    total = set(term)
    for _ in range(1, n):
        term = [tuple(sum(T[i][k] * x[k] for k in range(p)) for i in range(p)) for x in term]
        total = {tuple(a + b for a, b in zip(s, x)) for s in total for x in term}
    return total


@st.composite
def growth_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    T = np.eye(p, dtype=np.int64)
    # a product of elementary row operations is unimodular
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(p)))[:2]
        kind = draw(st.sampled_from(["shear", "swap", "negate"]))
        if kind == "shear":
            T[i] += draw(st.sampled_from([-2, -1, 1, 2])) * T[j]
        elif kind == "swap":
            T[[i, j]] = T[[j, i]]
        else:
            T[i] = -T[i]
    m = draw(st.sampled_from([1, 2]))
    n_max = {(2, 1): 5, (2, 2): 4, (3, 1): 3, (3, 2): 2}[p, m]
    return T, m, draw(st.integers(1, n_max))


@settings(max_examples=40, deadline=None)
@given(growth_cases())
def test_orbit_card_matches_set_oracle(case):
    T, m, n = case
    counts = entropy.lattice_orbit_card(T, m, n).counts
    assert counts == tuple(len(oracle_orbit_set(T, m, j)) for j in range(1, n + 1))


def test_orbit_growth_across_field_raises():
    # 16-bit fields: T^2 e_1 = (40000, 1, 0) cannot be packed
    with pytest.raises(ResourceLimitError):
        entropy.lattice_orbit_card(np.array([[1, 20000, 0], [0, 1, 0], [0, 0, 1]]), 1, 3)
    # each segment fits, but the box of the sum (1 + 15000 + 30000) does not
    with pytest.raises(ResourceLimitError):
        entropy.lattice_orbit_card(np.array([[1, 15000, 0], [0, 1, 0], [0, 0, 1]]), 1, 3)
    a = entropy.LatticeSet.from_points(3, [[20000, 0, 0], [0, 0, 0]])
    with pytest.raises(ResourceLimitError):
        entropy.minkowski_sum(a, a)
    b = entropy.LatticeSet.from_points(2, [[0, 2**30], [0, 0]])
    with pytest.raises(ResourceLimitError):
        entropy.minkowski_sum(b, b)


def test_orbit_growth_at_field_edge_matches_oracle():
    # the box of K_1 + T K_1 reaches 1 + 1 + 32765 = 32767, the largest 16-bit coordinate
    T = np.array([[1, 32765, 0], [0, 1, 0], [0, 0, 1]])
    assert entropy.lattice_orbit_card(T, 1, 2).counts == (27, len(oracle_orbit_set(T, 1, 2)))
    with pytest.raises(ResourceLimitError):
        entropy.lattice_orbit_card(T, 1, 3)
    a = entropy.LatticeSet.from_points(3, [[32000, 0, -5], [-32000, 5, 0], [0, -32767, 0]])
    b = entropy.LatticeSet.from_points(3, [[767, 0, 1], [-767, 2, -1], [0, 0, 0]])
    got = entropy.minkowski_sum(a, b)
    want = {tuple(int(u + v) for u, v in zip(x, y)) for x in a.points() for y in b.points()}
    assert set(map(tuple, got.points().tolist())) == want
    assert (got.lo, got.hi) == ((-32767, -32767, -6), (32767, 7, 1))
    c = entropy.LatticeSet.from_points(2, [[2**31 - 2, -(2**31 - 2)], [0, 0]])
    one = entropy.LatticeSet.from_points(2, [[1, -1], [-1, 1]])
    edge = entropy.minkowski_sum(c, one)
    assert set(map(tuple, edge.points().tolist())) == {
        (2**31 - 1, -(2**31 - 1)), (2**31 - 3, -(2**31 - 3)), (1, -1), (-1, 1)}


def test_box_bound_computes_one_basis():
    entropy._real_block_basis.cache_clear()
    bounds = [entropy.box_bound_card(CAT, 1, n, 0.05) for n in range(1, 6)]
    info = entropy._real_block_basis.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert bounds == sorted(bounds)
    P = entropy._real_block_basis(((2, 1), (1, 1)))[0]
    assert not P.flags.writeable


# box_bound_card(T, 1, n, 0.05) at n = 1, 5, 14, computed from a symbolic
# (sympy) Jordan form
PINNED_BOX_BOUNDS = {
    "cat": ([[2, 1], [1, 1]],
        (49.043961347997644, 333896.3144377857, 86048314999.45406)),
    "cat31": ([[3, 1], [2, 1]],
        (51.71281292110205, 1305167.2263292458, 7912372888213.222)),
    "plastic": ([[0, 1, 0], [0, 0, 1], [1, 1, 0]],
        (733.4926969431216, 8394365.117655762, 57587438949.62403)),
    "identity": ([[1, 0], [0, 1]],
        (16.0, 4687.062559515627, 422022.81676195894)),
    "minus_identity": ([[-1, 0], [0, -1]],
        (16.0, 4687.062559515627, 422022.81676195894)),
    "rotation": ([[0, -1], [1, 0]],
        (16.0, 4687.062559515627, 422022.81676195894)),
    "parabolic": ([[1, 1], [0, 1]],
        (58.04988662131519, 103588.19371660735, 24222450.43916484)),
    "unipotent3": ([[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        (442.2848504481157, 632224886.640178, 42069847002555.17)),
    "block_cat": ([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
        (2405.310144703886, 111486748795.13667, 7.404312514245271e+21)),
    "double_rotation": ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        (256.0, 21968555.43681318, 178103257867.69797)),
    "rotation_jordan": ([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]],
        (3369.789336747548, 10730513877.46937, 586727105277797.0)),
}


@pytest.mark.parametrize("name", sorted(PINNED_BOX_BOUNDS))
def test_box_bound_matches_symbolic_jordan_form(name):
    T, want = PINNED_BOX_BOUNDS[name]
    got = [entropy.box_bound_card(np.array(T), 1, n, 0.05) for n in (1, 5, 14)]
    assert got == pytest.approx(list(want), rel=1e-12)


def _annihilates_exactly(coeffs, T):
    T = [[int(x) for x in row] for row in T]
    p = len(T)
    X = [[0] * p for _ in range(p)]
    for c in coeffs:
        X = [[sum(X[i][k] * T[k][j] for k in range(p)) + (c if i == j else 0)
              for j in range(p)] for i in range(p)]
    return not any(x for row in X for x in row)


@settings(max_examples=40, deadline=None)
@given(growth_cases())
def test_block_basis_and_box_bound_properties(case):
    T, m, n = case
    P, _, _, blocks, defective = entropy._real_block_basis(tuple(map(tuple, T.tolist())))
    A = np.linalg.solve(P, T @ P)
    off = A.copy()
    for sl, _ in blocks:
        off[sl, sl] = 0.0
    assert np.abs(off).max() <= 1e-9 * np.abs(A).max()
    # T is diagonalizable iff the squarefree part of its characteristic
    # polynomial annihilates it; then every block is an eigenvector or the
    # real form of a complex one, a normal matrix, while a Jordan chain of
    # length > 1 gives a block that is not normal
    radical = entropy._radical_factors(entropy.char_poly_int(T))[0]
    assert defective == (not _annihilates_exactly(radical, T))
    normal = [np.abs(B @ B.T - B.T @ B).max() <= 1e-9 * np.abs(A).max() ** 2
              for B in (A[sl, sl] for sl, _ in blocks)]
    assert defective == (not all(normal))
    assert entropy.box_bound_card(T, m, n, 0.05) >= len(oracle_orbit_set(T, m, n))


def test_constructor_normalises_keys_and_derives_box():
    pts = [[3, -1], [0, 0], [-2, 5], [3, -1]]
    ref = entropy.LatticeSet.from_points(2, pts)
    shuffled = entropy.LatticeSet(2, ref.keys[::-1].copy().repeat(2))
    assert np.array_equal(shuffled.keys, ref.keys)
    assert (shuffled.lo, shuffled.hi) == (ref.lo, ref.hi) == ((-2, -1), (3, 5))
    # sums of a constructed set see the right box, so they still abort at the field edge
    edge = entropy.LatticeSet(3, entropy.LatticeSet.from_points(3, [[32000, 0, 0]]).keys)
    with pytest.raises(ResourceLimitError):
        entropy.minkowski_sum(edge, edge)


def test_minkowski_merge_is_bounded_under_the_cap(monkeypatch):
    # the full product would be 3000^2 keys (72 MB); the cap stops the sum
    # after the first small batch of translates
    import tracemalloc

    a = entropy.LatticeSet.from_points(2, np.column_stack([np.arange(3000), np.zeros(3000)]))
    b = entropy.LatticeSet.from_points(2, np.column_stack([np.zeros(3000), np.arange(3000)]))
    monkeypatch.setattr(entropy, "_MERGE_BUDGET", 1 << 15)
    monkeypatch.setenv("QMETRIC_CAP", "lattice_card=100000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            entropy.minkowski_sum(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 * 8 // 8
    # in batches the sum is the same as in one pass
    small = entropy.LatticeSet.cube(2, 3)
    monkeypatch.delenv("QMETRIC_CAP")
    batched = entropy.minkowski_sum(a, small)
    monkeypatch.setattr(entropy, "_MERGE_BUDGET", 1 << 22)
    assert np.array_equal(batched.keys, entropy.minkowski_sum(a, small).keys)
