import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmetric import approxdim
from qmetric.cli import extract_config, fmt, fmt_lower, fmt_upper, main

CAT = [[2, 1], [1, 1]]


def run(argv):
    return main([str(a) for a in argv])


def body_of(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if not l.startswith("#")]


def test_shift_entropy_and_rerun(tmp_path):
    out = tmp_path / "shift.csv"
    js = tmp_path / "shift.json"
    assert run(["shift-entropy", "--p", 2, "--n-max", 4, "--delta", 0.5,
                "--out", out, "--json-out", js]) == 0
    rows = body_of(out)
    assert rows[0] == "n,lower,upper"
    assert len(rows) == 5
    summary = json.loads(js.read_text())
    assert summary["target"] == pytest.approx(2 * np.log(2))
    out2 = tmp_path / "shift2.csv"
    assert run(["rerun", out, "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_toral_entropy_rerun(tmp_path):
    out = tmp_path / "toral.csv"
    js = tmp_path / "toral.json"
    assert run(["toral-entropy", "--T", "2,1,1,1", "--m", 1, "--n", 7,
                "--out", out, "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["eigen_entropy"] == pytest.approx(np.log((3 + np.sqrt(5)) / 2))
    out2 = tmp_path / "toral2.csv"
    assert run(["rerun", out, "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_weyl_dim(tmp_path):
    out = tmp_path / "weyl.csv"
    js = tmp_path / "weyl.json"
    assert run(["weyl-dim", "--p", 2, "--lam", 0.5, "--n-min", 1, "--n-max", 2,
                "--out", out, "--json-out", js]) == 0
    rows = body_of(out)
    assert rows[0] == "series,n,delta,dim"
    assert len(rows) == 5


def test_torus_dim(tmp_path):
    out = tmp_path / "torus.csv"
    js = tmp_path / "torus.json"
    assert run(["torus-dim", "--p", 2, "--n-min", 2, "--n-max", 6,
                "--out", out, "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["target"] == 2.0


def test_kolmogorov_with_points(tmp_path):
    pts = np.linspace(0.0, 1.0, 64)
    src = tmp_path / "pts.csv"
    np.savetxt(src, pts.reshape(-1, 1), delimiter=",")
    out = tmp_path / "kolm.csv"
    js = tmp_path / "kolm.json"
    assert run(["kolmogorov", "--points", src, "--delta-grid", "0.25:0.03125:4",
                "--out", out, "--json-out", js]) == 0
    rows = body_of(out)
    assert rows[0] == "delta,sep,spn,sep_exact"
    summary = json.loads(js.read_text())
    assert 0.8 <= summary["slope_sep"] <= 1.1
    out2 = tmp_path / "kolm2.csv"
    assert run(["rerun", out, "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_cesaro_rate(tmp_path):
    out = tmp_path / "rate.csv"
    js = tmp_path / "rate.json"
    assert run(["cesaro-rate", "--n-list", "16,64,256", "--out", out, "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["fitted_constant"] < 0.2


def test_cesaro_rate_huge_order_hits_the_cap(tmp_path, capsys):
    # the moment series has about n/2 terms; beyond the cap it is refused, not allocated
    out = tmp_path / "rate.csv"
    assert run(["cesaro-rate", "--n-list", "2,99999999999", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("qmetric: error: ") and "Traceback" not in err
    assert "fejer_terms" in err
    assert not out.exists()


def test_shift_entropy_at_huge_family_size(tmp_path):
    # n = 40 asks for D of m = 2^80 orthonormal vectors; in a child with a timeout,
    # so that a regression to a walk over r fails instead of hanging
    import os
    import subprocess
    import sys

    import qmetric

    env = dict(os.environ, PYTHONPATH=str(Path(qmetric.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qmetric.cli", "shift-entropy", "--p", "2",
                           "--n-max", "40", "--out", "shift.csv"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    rows = body_of(tmp_path / "shift.csv")[1:]
    assert len(rows) == 40
    # at n = 1 the lower end is 2 log 2 itself, printed rounded down
    target = Fraction(2 * np.log(2))
    for row in rows:
        _, lower, upper = (Fraction(x) for x in row.split(","))
        assert lower <= target <= upper


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(2 * np.log(2))  # shift-entropy's n = 1 lower end, once printed above itself
@example(-0.0)
@example(5e-324)
@example(999999999999.5)
@example(1.7976931348623157e308)
def test_bounds_print_on_their_safe_side(x):
    # a printed lower end is at most the value and an upper end at least it,
    # compared exactly; each is the nearest 12-digit string when that one is
    # on the safe side, and otherwise the next 12-digit decimal toward it
    value, nearest = Fraction(x), fmt(x)
    for printed, safe in ((fmt_lower(x), lambda s: Fraction(s) <= value),
                          (fmt_upper(x), lambda s: Fraction(s) >= value)):
        assert safe(printed)
        if safe(nearest):
            assert printed == nearest
        else:
            digits = printed.lstrip("-").split("e")[0].replace(".", "").strip("0")
            assert 1 <= len(digits) <= 12
            step = abs(Fraction(nearest) - Fraction(printed))
            assert 0 < step <= abs(Fraction(nearest)) / 10**11


def test_bound_columns_round_toward_safety(tmp_path):
    # every printed bound against the value computed for it, on configurations
    # where rounding to nearest printed some of them on the wrong side
    from qmetric import entropy, nctorus, weyl

    def rows(argv):
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", out]) == 0
        return [row.split(",") for row in body_of(out)[1:]]

    for n, lower, upper in rows(["shift-entropy", "--p", 2, "--n-max", 6]):
        lo, hi = entropy.shift_entropy_bracket(2, int(n), 0.5)
        assert Fraction(lower) <= Fraction(lo) and Fraction(hi) <= Fraction(upper)
    for n, _, bound, _ in rows(["lattice-growth", "--T", "2,1,1,1", "--n", 8]):
        assert Fraction(bound) >= Fraction(entropy.box_bound_card(CAT, 1, int(n), 0.05))
    for lam in (0.3, 0.4):
        for series, n, delta, _ in rows(["weyl-dim", "--lam", lam, "--n-max", 3]):
            n = int(n)
            if series == "lower":
                lip = weyl.family_lip_max(2, n, lam)
                assert Fraction(delta) <= Fraction(0.5) / Fraction(lip)
            else:
                assert Fraction(delta) >= Fraction(2.0 * lam ** (n + 1) / (1.0 - lam))
    # at δ = 1e-320 the float quotient δ/lip_max is subnormal, and rounding it
    # to nearest printed 42 of the 100 lower rows above the exact quotient
    for series, n, delta, _ in rows(["torus-dim", "--delta", 1e-320, "--n-max", 100]):
        if series == "lower":
            assert Fraction(delta) <= Fraction(1e-320) / Fraction(int(n) * np.sqrt(2))
    for series, n, delta, _ in rows(["torus-dim", "--p", 3, "--n-max", 6]):
        n = int(n)
        if series == "lower":
            assert Fraction(delta) <= Fraction(0.5) / Fraction(n * np.sqrt(3))
        else:
            # the Cesàro bound 2π·p·μ₁(K_n), rounded up
            bound = 2.0 * np.pi * 3 * nctorus.fejer_abs_moment(n)
            assert delta == fmt_upper(bound) and Fraction(delta) >= Fraction(bound)


@pytest.mark.parametrize("p, code", [(0, 2), (-1, 2), (40, 0), (400, 2)])
def test_torus_dim_rank(tmp_path, capsys, p, code):
    # p = 0 used to write rows with δ = inf and p = -1 to warn before failing;
    # p = 40 reaches dimensions past 2^64, and p = 400 past the float range.
    # At p = 40 the upper δ = 80π·μ₁(K_n) first falls to 1 at n = 191, so the
    # upper slope needs rows up to n = 193
    out, js = tmp_path / "td.csv", tmp_path / "td.json"
    n_max = 193 if p == 40 else 3
    assert run(["torus-dim", "--p", p, "--n-max", n_max, "--out", out, "--json-out", js]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("qmetric: error: ")
        assert not out.exists()
    else:
        summary = json.loads(js.read_text())
        assert summary["slope_lower"] <= summary["target"] == p <= summary["slope_upper"]


def test_torus_dim_upper_rows_hold_in_a_clock_shift_representation(tmp_path):
    # ‖π(σ_n a − a)‖ ≤ δ_upper(n)·L(a) in the representation at θ = 3/10, whose
    # norm is at most the C*-norm; u₁^{n+1}/(n+1) lies at GNS distance 1/(n+1)
    # from the window, so no upper row at n may carry a δ below 1/(n+1)
    import oracles

    from qmetric import nctorus

    out = tmp_path / "td.csv"
    assert run(["torus-dim", "--p", 2, "--n-max", 6, "--out", out]) == 0
    uppers = [(int(n), float(delta)) for series, n, delta, _ in
              (row.split(",") for row in body_of(out)[1:]) if series == "upper"]
    assert [n for n, _ in uppers] == list(range(1, 7))
    phase = nctorus.PhaseMatrix.two_torus(0.3)
    rng = np.random.default_rng(7)
    for n, delta in uppers:
        elements = [nctorus.TwistedPolynomial.monomial(phase, (n + 1, 0), 1.0 / (n + 1))]
        for _ in range(4):
            keys = rng.integers(-n - 3, n + 4, size=(6, 2))
            elements.append(nctorus.TwistedPolynomial(
                phase, {tuple(map(int, k)): complex(*rng.standard_normal(2)) for k in keys}))
        for a in elements:
            gap = oracles.rational_representation(phase, nctorus.cesaro_mean(a, n) - a)
            assert np.linalg.norm(gap, 2) <= delta * nctorus.lip_bounds(a)[1]


def test_torus_dim_past_delta_one(tmp_path):
    # at δ = 1.5 every lower row has D = 0, which says nothing, so there is
    # no lower slope; the upper rows with δ ≤ 1 still give one
    js = tmp_path / "td.json"
    assert run(["torus-dim", "--delta", 1.5, "--out", tmp_path / "td.csv",
                "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["slope_lower"] is None
    assert summary["slope_upper"] >= summary["target"]


def test_weyl_dim_runs_up_to_the_window_cap(tmp_path, capsys):
    # D comes from a bisection, not an enumeration of the p^{2(2n+1)} monomials,
    # and no window matrix is built, so n runs until m = 4^{2n+1} leaves the
    # float range its log is taken in: n = 255 is the last row
    for n_max in (7, 255):
        js = tmp_path / "weyl.json"
        assert run(["weyl-dim", "--n-max", n_max, "--out", tmp_path / "weyl.csv",
                    "--json-out", js]) == 0
        summary = json.loads(js.read_text())
        assert summary["slope_lower"] <= 4.0 + 1e-9 and summary["slope_upper"] >= 4.0 - 1e-9
    capsys.readouterr()
    assert run(["weyl-dim", "--n-max", 300, "--out", tmp_path / "weyl300.csv"]) == 2
    assert capsys.readouterr().err.startswith("qmetric: error: row n = 256: ")
    assert not (tmp_path / "weyl300.csv").exists()


@pytest.mark.parametrize("lam, n", [("1e-300", 1), ("1e-160", 1), ("1e-100", 3)])
def test_weyl_dim_rejects_a_lambda_power_below_the_normal_range(tmp_path, capsys, lam, n):
    # λ^{n+1} underflows to 0 (1e-300; 1e-100 at n = 3, after two good rows) or
    # to a subnormal that lost digits (1e-160: λ² = 1e-320 printed an upper δ of
    # 1.99997773437e-320, below 2λ²/(1−λ)): no row may print such a δ
    out = tmp_path / "weyl.csv"
    assert run(["weyl-dim", "--lam", lam, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qmetric: error: row n = {n}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["weyl-dim", "--delta", "1e-320"],
    ["torus-dim", "--delta", "1e-320"],
    ["torus-dim", "--delta", "1e-320", "--n-max", "100"],
    ["kolmogorov", "--points", "grid.csv", "--delta-grid", "1e-320:1e-315:3"],
], ids=["weyl-dim", "torus-dim", "torus-dim-tied-deltas", "kolmogorov"])
def test_subnormal_delta_fits_finite_slopes(tmp_path, monkeypatch, capsys, argv):
    # 1/δ overflows at a subnormal δ; its log was inf and the fit raised. From
    # n = 43 on, some neighbouring lower δ = 1e-320/(n√2) round to one value
    monkeypatch.chdir(tmp_path)
    np.savetxt("grid.csv", np.random.default_rng(0).random((12, 2)), delimiter=",")
    assert run([*argv, "--out", "x.csv", "--json-out", "x.json"]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads(Path("x.json").read_text())
    slopes = [v for k, v in summary.items() if k.startswith("slope")]
    assert len(slopes) == 2 and all(np.isfinite(slopes))


def test_lattice_growth(tmp_path):
    out = tmp_path / "growth.csv"
    js = tmp_path / "growth.json"
    assert run(["lattice-growth", "--T", "1,1,0,1", "--m", 1, "--n", 6,
                "--delta-pad", 0.05, "--out", out, "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["dominates"] is True
    assert summary["eigen_entropy"] == pytest.approx(0.0, abs=1e-9)


def test_dim_bracket(tmp_path):
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    fam_path = tmp_path / "family.json"
    fam_path.write_text(approxdim.family_to_json(q))
    out = tmp_path / "brackets.csv"
    assert run(["dim-bracket", "--vectors", fam_path, "--delta-grid", "0.9:0.3:3",
                "--norm-tag", "gns", "--out", out]) == 0
    rows = body_of(out)
    assert rows[0] == "delta,lower,upper,norm_tag"
    assert len(rows) == 4
    assert all(r.endswith("gns") for r in rows[1:])


def test_stamp_changes_header_only(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["shift-entropy", "--n-max", 2, "--out", a]) == 0
    assert run(["shift-entropy", "--n-max", 2, "--out", b, "--stamp"]) == 0
    assert body_of(a) == body_of(b)
    assert any(l.startswith("# stamp:") for l in b.read_text().splitlines())


def test_config_header_extraction(tmp_path):
    out = tmp_path / "se.csv"
    assert run(["shift-entropy", "--p", 3, "--n-max", 2, "--out", out]) == 0
    cfg = extract_config(str(out))
    assert cfg == {"command": "shift-entropy", "delta": 0.5, "n_max": 2, "p": 3}


def test_exit_codes(tmp_path, monkeypatch, capsys):
    # precondition violation -> 2
    assert run(["shift-entropy", "--delta", "1.5", "--out", tmp_path / "x.csv"]) == 2
    assert "error" in capsys.readouterr().err
    # resource cap -> 3
    monkeypatch.setenv("QMETRIC_CAP", "lattice_card=10")
    assert run(["toral-entropy", "--T", "2,1,1,1", "--n", 5,
                "--out", tmp_path / "y.csv"]) == 3
    monkeypatch.delenv("QMETRIC_CAP")
    # malformed matrix -> 2
    assert run(["toral-entropy", "--T", "1,2,3", "--out", tmp_path / "z.csv"]) == 2


def test_kolmogorov_with_matrix(tmp_path):
    pts = np.linspace(0.0, 1.0, 20)
    dist = np.abs(pts[:, None] - pts[None, :])
    src = tmp_path / "dist.csv"
    np.savetxt(src, dist, delimiter=",")
    out = tmp_path / "kolm.csv"
    assert run(["kolmogorov", "--matrix", src, "--delta-grid", "0.3:0.05:4",
                "--out", out]) == 0
    assert body_of(out)[0] == "delta,sep,spn,sep_exact"


def test_torus_dim_element_io(tmp_path):
    from qmetric import nctorus

    ph = nctorus.PhaseMatrix.two_torus(0.25)
    poly = nctorus.TwistedPolynomial(ph, {(1, 0): 1.0, (0, 2): 0.5j})
    src = tmp_path / "elem.json"
    src.write_text(nctorus.polynomial_to_json(poly))
    out = tmp_path / "td.csv"
    js = tmp_path / "td.json"
    smoothed_path = tmp_path / "smoothed.json"
    assert run(["torus-dim", "--p", 2, "--n-min", 1, "--n-max", 4,
                "--element", src, "--element-out", smoothed_path,
                "--out", out, "--json-out", js]) == 0
    summary = json.loads(js.read_text())
    assert summary["element_lip_lower"] <= summary["element_lip_upper"]
    assert summary["element_lip_upper"] == pytest.approx(2.0)  # 1*|(1,0)| + 0.5*|(0,2)|
    smoothed = nctorus.polynomial_from_json(smoothed_path.read_text())
    assert smoothed.coeffs[(1, 0)] == pytest.approx(1.0 - 1.0 / 5.0)


@pytest.mark.parametrize("bad", ["Infinity, 0.0", "1.5e308, 1.5e308"])
def test_torus_dim_rejects_non_finite_element(tmp_path, bad):
    # an Infinity coefficient used to exit 0 and write an empty smoothed element,
    # a finite one beyond the float range to die with a traceback
    src = tmp_path / "elem.json"
    src.write_text('{"p": 2, "theta": [[0.0, 0.25], [0.75, 0.0]], "coefficients": '
                   f'[[[1, 0], 1.0, 0.0], [[0, 1], {bad}]]}}')
    smoothed = tmp_path / "smoothed.json"
    assert run(["torus-dim", "--n-max", 3, "--element", src, "--element-out", smoothed,
                "--out", tmp_path / "td.csv"]) == 2
    assert not smoothed.exists()


def test_more_error_paths(tmp_path):
    assert run(["toral-entropy", "--T", "a,b,c,d", "--out", tmp_path / "x"]) == 2
    assert run(["kolmogorov", "--points", tmp_path / "missing.csv",
                "--delta-grid", "0.3:0.1:3", "--out", tmp_path / "y"]) == 2
    assert run(["cesaro-rate", "--n-list", "1,16", "--out", tmp_path / "z"]) == 2
    assert run(["kolmogorov", "--delta-grid", "0.3:0.1:3", "--out", tmp_path / "w"]) == 2


# argv, and whether a regression would run forever rather than fail
BAD_INPUTS = {
    "nan-delta-grid": (["kolmogorov", "--points", "grid.csv", "--delta-grid", "nan:0.1:3"], True),
    "inf-delta-grid": (["kolmogorov", "--points", "grid.csv", "--delta-grid", "inf:0.1:3"], True),
    "weyl-nan-delta": (["weyl-dim", "--delta", "nan"], False),
    "torus-nan-delta": (["torus-dim", "--delta", "nan"], False),
    "nan-delta-pad": (["lattice-growth", "--T", "2,1,1,1", "--delta-pad", "nan"], False),
    "inf-delta-pad": (["lattice-growth", "--T", "2,1,1,1", "--delta-pad", "inf"], False),
    "text-points": (["kolmogorov", "--points", "text.csv", "--delta-grid", "0.3:0.1:3"], False),
    "text-matrix": (["kolmogorov", "--matrix", "text.csv", "--delta-grid", "0.3:0.1:3"], False),
    "empty-points": (["kolmogorov", "--points", "empty.csv", "--delta-grid", "0.3:0.1:3"], False),
    "empty-matrix": (["kolmogorov", "--matrix", "empty.csv", "--delta-grid", "0.3:0.1:3"], False),
    "element-without-theta": (["torus-dim", "--element", "no_theta.json"], False),
    "element-not-json": (["torus-dim", "--element", "text.csv"], False),
    "element-not-utf8": (["torus-dim", "--element", "binary.json"], False),
    "vectors-not-utf8": (["dim-bracket", "--vectors", "binary.json",
                          "--delta-grid", "0.9:0.1:3"], False),
    "three-number-pair": (["dim-bracket", "--vectors", "triple.json",
                           "--delta-grid", "0.9:0.1:3"], False),
    # D = 2^1024 at n = 512 is beyond the float range its log is taken in
    "shift-beyond-float": (["shift-entropy", "--n-max", "520"], False),
}


@pytest.mark.parametrize("argv, hangs", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_inputs_exit_2(tmp_path, monkeypatch, capsys, argv, hangs):
    import os
    import subprocess
    import sys

    import qmetric

    monkeypatch.chdir(tmp_path)
    np.savetxt("grid.csv", np.random.default_rng(0).random((12, 2)), delimiter=",")
    Path("text.csv").write_text("0.1,0.2\n0.3,abc\n")
    Path("empty.csv").write_text("")
    Path("no_theta.json").write_text('{"p": 2, "coefficients": [[[1, 0], 1.0, 0.0]]}')
    Path("triple.json").write_text("[[[1.0, 0.0, 2.0]]]")
    Path("binary.json").write_bytes(b"\xff\xfe\x00")
    argv = argv + ["--out", "x.csv"]
    if hangs:
        # in a child with a timeout, so that a regression fails instead of hanging
        env = dict(os.environ, PYTHONPATH=str(Path(qmetric.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qmetric.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = run(argv), capsys.readouterr().err
    assert code == 2
    assert err.startswith("qmetric: error: ") and "Traceback" not in err
    assert not Path("x.csv").exists()


def test_element_exponent_beyond_int64_exits_2(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"p": 2, "theta": [[0.0, 0.25], [0.75, 0.0]],
                               "coefficients": [[[2**70, 1], 1.0, 0.0]]}))
    out = tmp_path / "td.csv"
    assert run(["torus-dim", "--n-max", 2, "--element", big, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qmetric: error: exponent {(2**70, 1)} ") and err.count("\n") == 1
    assert not out.exists()


def test_rerun_resolves_inputs_against_source_dir(tmp_path, monkeypatch):
    # relative paths in a header are relative to the header's file, so a
    # rerun from another directory reads the same input
    work = tmp_path / "work"
    work.mkdir()
    np.savetxt(work / "grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",")
    monkeypatch.chdir(work)
    assert run(["kolmogorov", "--points", "grid.csv", "--delta-grid", "0.25:0.03125:4",
                "--out", "nets.csv"]) == 0
    monkeypatch.chdir(tmp_path)
    assert run(["rerun", "work/nets.csv", "--out", "work/same.csv"]) == 0
    assert (work / "nets.csv").read_bytes() == (work / "same.csv").read_bytes()
    # a rerun written elsewhere records the input relative to its own file
    assert run(["rerun", "work/nets.csv", "--out", "again.csv"]) == 0
    assert body_of(tmp_path / "again.csv") == body_of(work / "nets.csv")
    assert extract_config("again.csv")["points"] == "work/grid.csv"
    monkeypatch.chdir(work)
    assert run(["rerun", "../again.csv", "--out", "third.csv"]) == 0
    assert (work / "nets.csv").read_bytes() == (work / "third.csv").read_bytes()


def test_rerun_of_output_written_to_a_subdirectory(tmp_path, monkeypatch):
    # inputs are typed relative to the working directory, the output goes
    # below it; the rerun from that working directory finds the same files
    from qmetric import nctorus

    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    np.savetxt("grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",")
    assert run(["kolmogorov", "--points", "grid.csv", "--delta-grid", "0.25:0.03125:4",
                "--out", "results/nets.csv"]) == 0
    assert extract_config("results/nets.csv")["points"] == "../grid.csv"
    assert run(["rerun", "results/nets.csv", "--out", "results/again.csv"]) == 0
    assert (tmp_path / "results/nets.csv").read_bytes() == \
        (tmp_path / "results/again.csv").read_bytes()

    poly = nctorus.TwistedPolynomial(nctorus.PhaseMatrix.two_torus(0.25), {(1, 0): 1.0})
    (tmp_path / "elem.json").write_text(nctorus.polynomial_to_json(poly))
    assert run(["torus-dim", "--n-max", 3, "--element", "elem.json",
                "--element-out", "smoothed.json", "--out", "results/td.csv"]) == 0
    written = (tmp_path / "smoothed.json").read_bytes()
    (tmp_path / "smoothed.json").unlink()
    assert run(["rerun", "results/td.csv", "--out", "results/td2.csv"]) == 0
    # the rerun writes the element where the original run wrote it
    assert (tmp_path / "smoothed.json").read_bytes() == written
    assert not (tmp_path / "results/smoothed.json").exists()
    assert (tmp_path / "results/td.csv").read_bytes() == \
        (tmp_path / "results/td2.csv").read_bytes()


def test_file_flags_are_recorded_as_paths():
    # every flag that names a file is marked where the parser defines it
    from qmetric.cli import build_parser

    assert build_parser().path_keys == {"points", "matrix", "vectors", "element",
                                        "element_out"}


def test_header_records_sha256_of_the_files_read(tmp_path, monkeypatch):
    # the inputs get a digest, the written --element-out does not
    import hashlib

    from qmetric import nctorus
    from qmetric.cli import build_parser

    assert build_parser().input_keys == {"points", "matrix", "vectors", "element"}
    monkeypatch.chdir(tmp_path)
    poly = nctorus.TwistedPolynomial(nctorus.PhaseMatrix.two_torus(0.25), {(1, 0): 1.0})
    Path("elem.json").write_text(nctorus.polynomial_to_json(poly))
    assert run(["torus-dim", "--n-max", 2, "--element", "elem.json",
                "--element-out", "smoothed.json", "--out", "td.csv"]) == 0
    digest = hashlib.sha256(Path("elem.json").read_bytes()).hexdigest()
    lines = Path("td.csv").read_text().splitlines()
    assert f'# input-sha256: {{"element":"{digest}"}}' in lines
    # a run that reads no file has no digest line
    assert run(["shift-entropy", "--n-max", 2, "--out", "se.csv"]) == 0
    assert not any(l.startswith("# input-sha256") for l in Path("se.csv").read_text().splitlines())


def test_rerun_refuses_a_changed_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    np.savetxt("grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",")
    assert run(["kolmogorov", "--points", "grid.csv", "--delta-grid", "0.25:0.03125:4",
                "--out", "nets.csv"]) == 0
    assert run(["rerun", "nets.csv", "--out", "same.csv"]) == 0
    assert Path("nets.csv").read_bytes() == Path("same.csv").read_bytes()
    # the same points written differently are a different file
    np.savetxt("grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",", fmt="%.6f")
    capsys.readouterr()
    assert run(["rerun", "nets.csv", "--out", "again.csv"]) == 2
    err = capsys.readouterr().err
    assert "grid.csv" in err and "sha256" in err
    assert not Path("again.csv").exists()


def test_rerun_of_a_header_without_digests(tmp_path, monkeypatch):
    # a header written before digests were recorded reruns as before, and the
    # rerun records the digest
    monkeypatch.chdir(tmp_path)
    np.savetxt("grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",")
    assert run(["kolmogorov", "--points", "grid.csv", "--delta-grid", "0.25:0.03125:4",
                "--out", "nets.csv"]) == 0
    old = [l for l in Path("nets.csv").read_text().splitlines(keepends=True)
           if not l.startswith("# input-sha256")]
    Path("old.csv").write_text("".join(old))
    np.savetxt("grid.csv", np.linspace(0.0, 1.0, 40).reshape(-1, 1), delimiter=",", fmt="%.6f")
    assert run(["rerun", "old.csv", "--out", "again.csv"]) == 0
    assert body_of(Path("again.csv")) == body_of(Path("old.csv"))
    assert any(l.startswith("# input-sha256") for l in Path("again.csv").read_text().splitlines())


@pytest.mark.parametrize("header", [
    "# config-json: {not json\n",
    '# config-json: ["shift-entropy"]\n',
    '# config-json: {"command":"shift-entropy","delta":0.5,"n_max":2,"p":2}\n'
    '# input-sha256: ["grid.csv"]\n',
])
def test_rerun_rejects_malformed_header_lines(tmp_path, capsys, header):
    src = tmp_path / "x.csv"
    src.write_text(header)
    assert run(["rerun", src, "--out", tmp_path / "y.csv"]) == 2
    assert "not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


def test_config_keys_are_the_parser_flags(tmp_path, monkeypatch):
    # an experiment's header echoes every flag it has except those saying
    # where and how it writes, so a rerun sees the whole configuration
    from qmetric.cli import build_parser

    monkeypatch.chdir(tmp_path)
    np.savetxt("pts.csv", np.linspace(0.0, 1.0, 8).reshape(-1, 1), delimiter=",")
    Path("family.json").write_text(approxdim.family_to_json(np.eye(4)))
    argv = {
        "weyl-dim": ["--n-max", 1],
        "torus-dim": ["--n-max", 3],
        "shift-entropy": ["--n-max", 2],
        "toral-entropy": ["--T", "2,1,1,1", "--n", 5, "--tail", 3],
        "kolmogorov": ["--points", "pts.csv", "--delta-grid", "0.5:0.1:3"],
        "cesaro-rate": ["--n-list", "16"],
        "lattice-growth": ["--T", "1,1,0,1", "--n", 2],
        "dim-bracket": ["--vectors", "family.json", "--delta-grid", "0.9:0.3:3"],
    }
    parser = build_parser()
    assert set(parser.commands) == set(argv) | {"rerun"}
    for command, args in argv.items():
        flags = {a.dest for a in parser.commands[command]._actions}
        assert run([command, *args, "--out", f"{command}.csv"]) == 0
        cfg = extract_config(f"{command}.csv")
        assert cfg.pop("command") == command
        assert set(cfg) == flags - {"help", "out", "json_out", "stamp"}


def test_rerun_rejects_unknown_command(tmp_path):
    src = tmp_path / "x.csv"
    for command in ("no-such-experiment", "rerun"):
        src.write_text(f'# config-json: {{"command":"{command}"}}\n')
        assert run(["rerun", src, "--out", tmp_path / "y.csv"]) == 2


@pytest.mark.parametrize("config, named", [
    ('{"command":"shift-entropy","p":2}', "missing keys delta, n_max"),
    ('{"bogus":1,"command":"shift-entropy","delta":0.5,"n_max":2,"p":2}', "unknown keys bogus"),
])
def test_rerun_rejects_header_keys_that_do_not_fit(tmp_path, capsys, config, named):
    src = tmp_path / "x.csv"
    src.write_text(f"# config-json: {config}\n")
    assert run(["rerun", src, "--out", tmp_path / "y.csv"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


def test_cli_import_leaves_sympy_out():
    # qmetric does not use sympy, not even for the spectral basis of the box bound
    import os
    import subprocess
    import sys

    import qmetric

    env = dict(os.environ, PYTHONPATH=str(Path(qmetric.__file__).resolve().parents[1]))
    code = ("import sys, qmetric.cli; before = 'sympy' in sys.modules; "
            "qmetric.entropy.box_bound_card([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 1, 3, 0.05); "
            "print(before, 'sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False False"
