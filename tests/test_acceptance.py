"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import resource
import time

import numpy as np
import pytest

import oracles
from qmetric import approxdim, cli, entropy, metricspace, nctorus, weyl

CAT = np.array([[2, 1], [1, 1]])


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_01_weyl_relations_and_trace_orthonormality():
    t0 = time.monotonic()
    for p in (2, 3):
        u, v = weyl.clock_shift(p)
        rho = np.exp(2j * np.pi / p)
        assert np.abs(v @ u - rho * u @ v).max() < 1e-12
        for n_sites in (1, 2, 3):
            window = weyl.WeylWindow(p, 0, n_sites - 1)
            for exps in oracles.weyl_unitary_family(window):
                data = oracles.coefficient_dict(weyl.weyl_expand(weyl.weyl_monomial(window, exps)))
                # expansion row = Gram row against every monomial: one-hot
                assert set(data) == {exps}
                assert abs(data[exps] - 1.0) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"Weyl relations + trace orthonormality, p in {{2,3}}, <= 3 sites ({elapsed:.2f}s)")


def test_02_twisted_product_matrix_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    pairs_done = 0
    qs = {2: [1], 3: [1, 2], 4: [1, 3], 5: [1, 2]}
    for N in (2, 3, 4, 5):
        for q in qs[N]:
            ph = nctorus.PhaseMatrix.two_torus(q / N)
            reps = {}
            n_pairs = 200 // sum(len(v) for v in qs.values())
            for _ in range(n_pairs + 1):
                k = tuple(int(x) for x in rng.integers(-6, 7, size=2))
                l = tuple(int(x) for x in rng.integers(-6, 7, size=2))
                phase = nctorus.reorder_phase(k, l, ph)
                for key in (k, l, tuple(a + b for a, b in zip(k, l))):
                    if key not in reps:
                        reps[key] = oracles.rational_representation(
                            ph, nctorus.TwistedPolynomial.monomial(ph, key)
                        )
                lhs = reps[k] @ reps[l]
                rhs = phase * reps[tuple(a + b for a, b in zip(k, l))]
                assert np.abs(lhs - rhs).max() < 1e-12
                pairs_done += 1
    elapsed = time.monotonic() - t0
    assert pairs_done >= 200
    assert elapsed < 10.0
    _report(2, f"{pairs_done} random monomial pairs vs clock/shift oracle ({elapsed:.2f}s)")


def test_03_orthonormal_dimension_family():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for m in (4, 16, 64):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        fam, _ = np.linalg.qr(g)
        for delta in (0.3, 0.5, 0.9):
            oracle = min(r for r in range(m + 1) if (m - r) / m < delta**2)
            lower = approxdim.dim_lower_spectral(fam, delta)
            exact = approxdim.dim_exact_orthonormal(m, delta)
            upper, _ = approxdim.dim_upper_svd(fam, delta)
            assert exact == oracle
            assert lower >= (1 - delta**2) * m
            assert lower <= exact <= upper
            assert lower == oracle and upper == oracle
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(3, f"orthonormal-family dimension certificates exact, m in {{4,16,64}} ({elapsed:.2f}s)")


def test_04_shift_entropy_brackets_and_gns():
    t0 = time.monotonic()
    target = 2 * np.log(2)
    for n in range(1, 6):
        lo, hi = entropy.shift_entropy_bracket(2, n, 0.5)
        assert lo <= target + 1e-12
        assert hi >= target - 1e-12
    lo5, _ = entropy.shift_entropy_bracket(2, 5, 0.5)
    assert abs(target - lo5) < 0.10
    # D_tau from actual GNS vectors of the shift product sets, n <= 4
    w0 = weyl.WeylWindow(2, 0, 0)
    omega = [weyl.weyl_monomial(w0, [e]) for e in itertools.product(range(2), repeat=2)]
    for n in range(1, 5):
        products = oracles.dense_product_set(omega, oracles.shift_element, n)
        assert len(products) == 2 ** (2 * n)
        fam = np.column_stack([weyl.weyl_expand(a).ravel() for a in products])
        m = fam.shape[1]
        oracle = approxdim.dim_exact_orthonormal(m, 0.5)
        assert approxdim.dim_lower_spectral(fam, 0.5) == oracle
        assert approxdim.dim_upper_svd(fam, 0.5)[0] == oracle
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"shift brackets contain 2log2; GNS D_tau = oracle for n <= 4 ({elapsed:.2f}s)")


def test_05_toral_entropy_cat_parabolic_rotation():
    t0 = time.monotonic()
    target = np.log((3 + np.sqrt(5)) / 2)
    series = entropy.lattice_orbit_card(CAT, 1, 14)
    slope = entropy.entropy_slope(series, 5)
    assert abs(slope - target) <= 0.10 * target
    for n in range(1, 15):
        assert entropy.box_bound_card(CAT, 1, n, 0.05) >= series.counts[n - 1]
    parabolic = np.array([[1, 1], [0, 1]])
    assert entropy.eigen_entropy(parabolic) == pytest.approx(0.0, abs=1e-9)
    slope_par = entropy.entropy_slope(entropy.lattice_orbit_card(parabolic, 1, 100), 5)
    assert slope_par < 0.05
    rotation = np.array([[0, -1], [1, 0]])
    assert entropy.eigen_entropy(rotation) == pytest.approx(0.0, abs=1e-12)
    slope_rot = entropy.entropy_slope(entropy.lattice_orbit_card(rotation, 1, 64), 5)
    assert slope_rot < 0.05
    elapsed = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    assert elapsed < 120.0
    assert peak_gb < 2.0
    _report(
        5,
        f"cat slope {slope:.4f} ~ {target:.4f}; bounds dominate; "
        f"parabolic {slope_par:.3f}, rotation {slope_rot:.3f} < 0.05 "
        f"({elapsed:.1f}s, peak {peak_gb:.2f} GB)",
    )


def test_06_eigen_entropy_power_law():
    base = entropy.eigen_entropy(CAT)
    Tk = np.eye(2, dtype=np.int64)
    for k in range(1, 5):
        Tk = Tk @ CAT
        val = entropy.eigen_entropy(Tk)
        assert abs(val - k * base) < 1e-9 * k * base
    _report(6, "eigen_entropy(T^k) = k * eigen_entropy(T) for k = 1..4")


def test_07_kolmogorov_dimension_slopes():
    t0 = time.monotonic()
    xs, ys = np.meshgrid(np.linspace(0, 1, 32), np.linspace(0, 1, 32))
    square = metricspace.FiniteMetricSpace.from_points(
        np.column_stack([xs.ravel(), ys.ravel()])
    )
    slope2 = metricspace.box_dimension(square, [2**-1, 2**-2, 2**-3, 2**-4]).slope
    assert 1.8 <= slope2 <= 2.0
    segment = metricspace.FiniteMetricSpace.from_points(np.linspace(0, 1, 1024))
    slope1 = metricspace.box_dimension(
        segment, [2**-2, 2**-3, 2**-4, 2**-5, 2**-6, 2**-7]
    ).slope
    assert 0.9 <= slope1 <= 1.05
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(7, f"box-dimension slopes: square {slope2:.3f}, segment {slope1:.3f} ({elapsed:.1f}s)")


def test_08_kolm_construction():
    # 64 separated points: 8x8 grid with spacing 1/7 > delta = 0.1
    xs, ys = np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    space = metricspace.FiniteMetricSpace.from_points(
        np.column_stack([xs.ravel(), ys.ravel()])
    )
    delta = 0.1
    bundle = oracles.kolm_unitaries(space, delta)
    assert len(bundle.separated) == 64
    defect = np.abs(bundle.gram - np.eye(64)).max()
    assert defect < 1e-10
    assert bundle.g_lipschitz.max() <= (1 / delta) * (1 + 1e-9)
    _report(8, f"Gram defect {defect:.2e}; max L(g_k) = {bundle.g_lipschitz.max():.3f} <= 10")


def test_09_fejer_cesaro_rates():
    t0 = time.monotonic()
    from scipy import integrate

    for n in (16, 256, 4096):
        edges = np.arange(0, n + 2) / (n + 1) * 0.5
        total = sum(
            integrate.quad(lambda t: oracles.fejer_eval(n, t), a, b, limit=100)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        assert abs(2 * total - 1.0) < 1e-8
    C = 0.2  # fitted once at desk scale; the ratio peaks at n = 16 (0.176)
    ns = np.unique(np.round(np.geomspace(16, 4096, 17)).astype(int))
    for n in ns:
        assert nctorus.fejer_abs_moment(int(n)) * n / np.log(n) <= C
    # commutative rate: f = distance to 0 on R/Z, sup|f - sigma_n f| <= C log n / n
    worst_margin = np.inf
    for n in ns:
        n = int(n)
        ts = np.linspace(-0.5, 0.5, 8 * (n + 1) + 1)
        k = np.arange(1, n + 1, 2)
        wk = (1.0 - k / (n + 1.0)) / k**2
        approx = np.full_like(ts, 0.25)
        for start in range(0, len(ts), 4096):
            block = ts[start : start + 4096]
            approx[start : start + 4096] -= (2 / np.pi**2) * (
                np.cos(2 * np.pi * np.outer(block, k)) @ wk
            )
        err = np.abs(np.abs(ts) - approx).max()
        assert err <= C * np.log(n) / n
        worst_margin = min(worst_margin, C * np.log(n) / n - err)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(9, f"Fejér integral/moment/rate with C = {C} across n in [16, 4096] ({elapsed:.1f}s)")


def test_10_torus_lip_monomials():
    rng = np.random.default_rng(10)
    ph = nctorus.PhaseMatrix.two_torus(0.25)
    done = 0
    while done < 50:
        k = tuple(int(x) for x in rng.integers(-10, 11, size=2))
        if k == (0, 0):
            continue
        target = float(np.linalg.norm(k))
        lower, upper = nctorus.lip_bounds(nctorus.TwistedPolynomial.monomial(ph, k))
        assert lower == upper == pytest.approx(target, rel=1e-12, abs=0)
        done += 1
    _report(10, "Lip bracket collapses to |k|_2 within 1e-12, 50 monomials")


def test_11_uhf_dimension_experiment():
    t0 = time.monotonic()
    lam = 0.5
    rng = np.random.default_rng(11)

    # (a) E_n residual <= L(a) 2 lam^{n+1} / (1 - lam) on random sparse elements
    window = weyl.WeylWindow(2, -3, 3)
    exps_pool = oracles.weyl_unitary_family(weyl.WeylWindow(2, 0, 1))
    for _ in range(2):
        data = {}
        while len(data) < 8:
            exps = tuple(
                (int(rng.integers(0, 2)), int(rng.integers(0, 2))) for _ in range(7)
            )
            data[exps] = complex(rng.standard_normal(), rng.standard_normal())
        a = oracles.reconstruct(window, oracles.coefficient_array(window, data))
        lip = weyl.weyl_lip_norm(a, lam)
        for n in (1, 2, 3):
            resid = np.linalg.norm(
                weyl.conditional_expectation(a, n).matrix - a.matrix, 2
            )
            assert resid <= lip * 2 * lam ** (n + 1) / (1 - lam) + 1e-9

    # (b) Weyl monomial family: D >= (3/4) p^{2(2n+1)} at delta = 1/2
    for n in (1, 2):
        win = weyl.WeylWindow(2, -n, n)
        fam = np.column_stack(
            [
                weyl.weyl_expand(weyl.weyl_monomial(win, exps)).ravel()
                for exps in oracles.weyl_unitary_family(win)
            ]
        )
        m = fam.shape[1]
        assert m == 2 ** (2 * (2 * n + 1))
        assert approxdim.dim_lower_spectral(fam, 0.5) >= 0.75 * m
    # n = 3: the family is 16384 one-hot coefficient vectors; orthonormality
    # is structural (distinct exponents), spot-checked on a sample, and the
    # exact oracle gives the bound
    win3 = weyl.WeylWindow(2, -3, 3)
    family3 = oracles.weyl_unitary_family(win3)
    assert len(set(family3)) == 2**14
    for idx in rng.choice(len(family3), size=64, replace=False):
        exps = family3[int(idx)]
        data = oracles.coefficient_dict(weyl.weyl_expand(weyl.weyl_monomial(win3, exps)))
        assert set(data) == {exps} and abs(data[exps] - 1.0) < 1e-12
    assert approxdim.dim_exact_orthonormal(2**14, 0.5) >= 0.75 * 2**14

    # (c) regression brackets contain 4 log p / log lam^{-1} = 4
    body, summary = cli.run_weyl_dim(
        {"p": 2, "lam": lam, "delta": 0.5, "n_min": 1, "n_max": 3}
    )
    assert summary["slope_lower"] <= 4.0 + 1e-9
    assert summary["slope_upper"] >= 4.0 - 1e-9
    elapsed = time.monotonic() - t0
    _report(
        11,
        f"E_n bound, GNS lower families, bracket [{summary['slope_lower']:.3f}, "
        f"{summary['slope_upper']:.3f}] contains 4 ({elapsed:.1f}s)",
    )


def test_12_cli_reproducibility(tmp_path):
    rng = np.random.default_rng(12)
    pts_path = tmp_path / "pts.csv"
    np.savetxt(pts_path, rng.random((40, 2)), delimiter=",")
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(approxdim.family_to_json(q))
    runs = [
        ["weyl-dim", "--p", "2", "--lam", "0.5", "--n-min", "1", "--n-max", "3"],
        ["torus-dim", "--p", "2", "--n-min", "1", "--n-max", "5"],
        ["shift-entropy", "--p", "2", "--n-max", "5", "--delta", "0.5"],
        ["toral-entropy", "--T", "2,1,1,1", "--m", "1", "--n", "8"],
        ["kolmogorov", "--points", str(pts_path), "--delta-grid", "0.4:0.1:4"],
        ["cesaro-rate", "--n-list", "16,64,256"],
        ["lattice-growth", "--T", "1,1,0,1", "--m", "1", "--n", "6", "--delta-pad", "0.05"],
        ["dim-bracket", "--vectors", str(fam_path), "--delta-grid", "0.9:0.3:4"],
    ]
    for i, argv in enumerate(runs):
        first = tmp_path / f"run{i}.csv"
        second = tmp_path / f"run{i}_again.csv"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(["rerun", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    _report(12, f"{len(runs)} experiments rerun byte-identical from emitted configs")
