"""Each check of the benchmark accepts the program's answer and rejects a
wrong one. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from common import import_qmetric

import_qmetric()

import clisession  # noqa: E402
import layers  # noqa: E402
import toral  # noqa: E402
import weyllip  # noqa: E402
from qmetric import entropy, weyl  # noqa: E402
from tracer import Tracer  # noqa: E402

CAT = ((2, 1), (1, 1))


# ------------------------------------------------------------- toral-growth


def test_literal_counts_match_program_and_reject_off_by_one():
    counts = list(entropy.lattice_orbit_card(np.array(CAT), 1, 7).counts)
    assert toral.check_literal("cat", CAT, counts) == []
    wrong = counts[:]
    wrong[3] += 1
    assert toral.check_literal("cat", CAT, wrong)


def test_hyperbolic_rate_rejects_a_wrong_last_count():
    counts = list(entropy.lattice_orbit_card(np.array(CAT), 1, 11).counts)
    assert toral.check_hyperbolic("cat", CAT, counts) == []
    wrong = counts[:-1] + [int(counts[-1] * 1.02)]
    assert toral.check_hyperbolic("cat", CAT, wrong)


def test_parabolic_diffs_must_decrease():
    counts = list(entropy.lattice_orbit_card(np.array(((1, 1), (0, 1))), 1, 12).counts)
    assert toral.check_decreasing_diffs("parabolic", counts) == []
    assert toral.check_decreasing_diffs("parabolic", counts[:-1] + [counts[-1] * 2])


def test_product_set_must_equal_lattice_count():
    counts = list(range(1, toral.PRODUCT_N + 1))
    assert toral.check_product(toral.PRODUCT_N, counts) == []
    assert toral.check_product(toral.PRODUCT_N + 1, counts)


def test_eigen_entropy_of_the_cat_map():
    assert toral.eigen_entropy(CAT) == pytest.approx(math.log((3 + math.sqrt(5)) / 2))


# ----------------------------------------------------------------- weyl-lip


def small_element(p=2, n_sites=2, k=2, seed=0):
    return weyllip.lip_element(np.random.default_rng(seed), p, n_sites, k)


def program_lip(el):
    return weyl.weyl_lip_norm(
        weyl.WeylElement(weyl.WeylWindow(el.p, el.lo, el.hi), el.matrix), weyllip.LAM)


def test_own_monomials_match_the_program():
    w = weyl.WeylWindow(3, -1, 0)
    exps = ((1, 2), (0, 1))
    assert np.allclose(weyllip.monomial(3, exps), weyl.weyl_monomial(w, exps).matrix)
    assert weyllip.monomial_lip(3, (-1, 0), exps) == pytest.approx(
        weyl.monomial_lip_norm(w, exps, weyllip.LAM))


@pytest.mark.parametrize("p,n_sites,k", [(2, 2, 2), (3, 2, 3)])
def test_brute_force_rejects_a_scaled_lip_norm(p, n_sites, k):
    el = small_element(p, n_sites, k)
    value = program_lip(el)
    brute = weyllip.brute_force_lip(weyl, el)
    assert weyllip.check_lip("x", value, brute=brute) == []
    assert weyllip.check_lip("x", value * 1.01, brute=brute)


def test_bounds_reject_values_outside_them():
    el = small_element(2, 3, 4, seed=3)
    value = program_lip(el)
    lower = weyllip.sampled_lower(el, np.random.default_rng(1))
    upper = weyllip.upper_bound(el)
    assert lower <= value <= upper
    assert weyllip.check_lip("x", value, lower=lower, upper=upper) == []
    assert weyllip.check_lip("x", upper * 1.01, lower=lower, upper=upper)
    assert weyllip.check_lip("x", lower / 1.01, lower=lower, upper=upper)


def test_homogeneity_rejects_a_wrong_scaling():
    el = small_element()
    value = program_lip(el)
    assert weyllip.check_lip("x", value, scaled=3.0 * value) == []
    assert weyllip.check_lip("x", value, scaled=3.0 * value * 1.01)


def test_residual_checks_reject_wrong_norms():
    el = weyllip.residual_element(np.random.default_rng(0))
    good = {n: weyllip.residual_reference(el, n) for n in weyllip.RES_NS}
    assert weyllip.check_residuals(el, good) == []
    assert weyllip.check_residuals(el, {**good, 1: good[1] * 1.01})
    assert weyllip.check_residuals(el, {**good, 4: 1e-3})


def test_residual_base_lives_on_shells_and_seed_keeps_its_spectrum():
    base = weyllip.residual_base()
    sites = range(weyllip.RES_LO, weyllip.RES_HI + 1)
    for exps in base:
        touched = {abs(s) for s, pair in zip(sites, exps) if pair != (0, 0)}
        assert len(touched) == 1
    a = weyllip.residual_element(np.random.default_rng(1))
    b = weyllip.residual_element(np.random.default_rng(2))
    assert weyllip.residual_reference(a, 1) == pytest.approx(weyllip.residual_reference(b, 1))


def test_lip_elements_have_independent_exponents():
    for p, n_sites, k in [(2, 5, 8), (3, 4, 7)]:
        el = weyllip.lip_element(np.random.default_rng(5), p, n_sites, k)
        rows = [[x for pair in e for x in pair] for e in el.coeffs if any(q != (0, 0) for q in e)]
        assert weyllip.rank_mod_p(np.array(rows), p) == k


# -------------------------------------------------------------- cli-session


def test_shift_bracket_must_contain_two_log_two():
    ok = [{"n": "1", "lower": "1.0", "upper": "3.0"}]
    assert clisession.check_shift(ok) == []
    assert clisession.check_shift([{"n": "1", "lower": "1.4", "upper": "3.0"}])
    assert clisession.check_shift([{"n": "1", "lower": "1.0", "upper": "1.3"}])


def test_box_bound_must_dominate_the_count():
    assert clisession.check_box_bounds("b", [{"n": "1", "card": "9", "box_bound": "9"}]) == []
    assert clisession.check_box_bounds("b", [{"n": "1", "card": "10", "box_bound": "9.5"}])


def test_dim_brackets_against_the_orthonormal_formula():
    good = [{"delta": f"{d:.12g}", "lower": str(r), "upper": str(r)}
            for d in clisession.dim_grid()
            for r in [clisession.orthonormal_dim(clisession.FAMILY_SIZE, d)]]
    assert clisession.check_dim_brackets(good) == []
    bad = [dict(row) for row in good]
    bad[2]["upper"] = str(int(bad[2]["upper"]) + 1)
    assert clisession.check_dim_brackets(bad)


def test_dim_grid_has_no_ties():
    # ties (m - r)/m == δ² would make the strict bracket depend on rounding
    m = clisession.FAMILY_SIZE
    for d in clisession.dim_grid():
        x = m * (1 - d * d)
        assert abs(x - round(x)) > 1e-6


def test_net_counts_must_not_grow_with_delta():
    rows = [{"delta": "0.1", "sep": "20", "spn": "9"}, {"delta": "0.2", "sep": "8", "spn": "4"}]
    assert clisession.check_nets(rows) == []
    assert clisession.check_nets([rows[0], {**rows[1], "spn": "10"}])


def test_rerun_bodies_must_match(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("# config\nn,x\n1,2\n")
    b.write_text("# other header\nn,x\n1,2\n")
    assert clisession.check_rerun("a", a, b) == []
    b.write_text("# other header\nn,x\n1,3\n")
    assert clisession.check_rerun("a", a, b)


# --------------------------------------------------------- tracing, layers


def test_round_metrics_self_time_and_ratios():
    spans = [
        {"name": "weyl.weyl_lip_norm", "start": 0.0, "end": 10.0, "parent": None, "group": 16},
        {"name": "linalg.operator_norm", "start": 1.0, "end": 3.0, "parent": 0, "side": 4},
        {"name": "linalg.operator_norm", "start": 4.0, "end": 5.0, "parent": 0, "side": 4},
        {"name": "linalg.operator_norm", "start": 11.0, "end": 14.0, "parent": None,
         "side": 512},
        {"name": "entropy.minkowski_sum", "start": 20.0, "end": 21.0, "parent": None,
         "candidates": 100, "kept": 25},
    ]
    m = layers.round_metrics(spans)
    assert m["weyl.weyl_lip_norm.self_s"] == pytest.approx(7.0)
    assert m["weyl.weyl_lip_norm.norms_per_group_elem"] == pytest.approx(2 / 16)
    assert m["linalg.operator_norm.calls"] == 3
    assert m["linalg.operator_norm.power_s"] == pytest.approx(3.0)
    assert m["entropy.minkowski_sum.kept_ratio"] == pytest.approx(0.25)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   sympy.core\n"
            "import time:       200 |       4000 |     sympy\n"
            "import time:       300 |       6000 |   qmetric.entropy\n"
            "import time:       400 |       7000 | qmetric\n"
            "import time:        50 |         50 | qmetric.cli\n")
    assert layers.parse_importtime(text) == pytest.approx((7.05e-3, 4e-3))


def test_tracer_wraps_the_attribute_callers_use_and_reports_absent(monkeypatch):
    import sys
    import types

    pkg = types.ModuleType("fakeq")
    linalg = types.ModuleType("fakeq.linalg")
    user = types.ModuleType("fakeq.weyl")

    def operator_norm(m):
        return 2.0

    linalg.operator_norm = operator_norm
    user.operator_norm = operator_norm  # as after "from .linalg import operator_norm"
    for mod in (pkg, linalg, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    tracer.install("fakeq")
    assert user.operator_norm(np.zeros((3, 3))) == 2.0
    assert [s["name"] for s in tracer.spans] == ["linalg.operator_norm"]
    assert tracer.spans[0]["side"] == 3
    assert "weyl.weyl_lip_norm" in tracer.absent
    tracer.uninstall()
    assert user.operator_norm is operator_norm
