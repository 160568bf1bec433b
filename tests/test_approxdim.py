import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetric import approxdim as ad
from qmetric.errors import PreconditionError


def orthonormal_family(d, m, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
    return q[:, :m]


def test_exact_orthonormal_table():
    assert ad.dim_exact_orthonormal(16, 0.5) == 13
    assert ad.dim_exact_orthonormal(4, 0.5) == 4  # boundary: (m-r)/m = δ² at r = 3
    assert ad.dim_exact_orthonormal(4, 1.5) == 0
    assert ad.dim_exact_orthonormal(1, 0.5) == 1
    # non-strict convention accepts the boundary
    assert ad.dim_exact_orthonormal(4, 0.5, strict=False) == 3


def scan_exact_orthonormal(m, delta, strict=True):
    """min{r : (m - r)/m < δ²} by a linear scan over r (oracle)."""
    for r in range(0, m + 1):
        if ad._passes((m - r) / m, delta * delta, strict):
            return r
    return m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.floats(1e-4, 1.5), st.booleans(), st.integers(0, 5000))
@example(4, 0.5, True, 3)
@example(10**6, 1e-4, False, 10**6 - 1)
def test_exact_orthonormal_matches_scan(m, delta, strict, r):
    assert ad.dim_exact_orthonormal(m, delta, strict) == scan_exact_orthonormal(m, delta, strict)
    # and at an exact boundary δ² = (m - r)/m, where the tie slack decides
    boundary = math.sqrt((m - r % m) / m)
    assert ad.dim_exact_orthonormal(m, boundary, strict) == scan_exact_orthonormal(
        m, boundary, strict)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2**50), st.floats(1e-4, 1.5), st.booleans())
@example(10**13, 0.5, False)  # the tie slack admits r about 10 below m(1 - δ²)
def test_exact_orthonormal_matches_closed_form_steps_at_large_m(m, delta, strict):
    # a scan is too slow here; below 2^53 the closed form (m - r)/m = δ² ∓ slack
    # lands within a few r of the first passing one, so step from there
    b = delta * delta
    slack = ad._TIE_SLACK * max(1.0, b)
    r = int(min(max(m * (1.0 - b + (slack if strict else -slack)), 0.0), m))
    while r > 0 and ad._passes((m - r + 1) / m, b, strict):
        r -= 1
    while r < m and not ad._passes((m - r) / m, b, strict):
        r += 1
    assert ad.dim_exact_orthonormal(m, delta, strict) == r


@pytest.mark.parametrize("m", [2**64, 2**80, 3**50])
@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("strict", [True, False])
def test_exact_orthonormal_is_fast_at_huge_m(m, delta, strict):
    # shift-entropy asks for m = p^(2n); a walk over r took time linear in m
    start = time.perf_counter()
    r = ad.dim_exact_orthonormal(m, delta, strict)
    assert time.perf_counter() - start < 0.05
    assert ad._passes((m - r) / m, delta * delta, strict)
    assert not ad._passes((m - r + 1) / m, delta * delta, strict)


def test_lower_spectral_boundary_and_noise():
    fam = orthonormal_family(8, 4, 0)
    assert ad.dim_lower_spectral(fam, 0.5) == 4
    assert ad.dim_lower_spectral(fam, 1.5) == 0
    assert ad.dim_lower_spectral(fam, 0.5, strict=False) == 3
    # rank-2 family of 10 vectors plus floor-level noise
    rng = np.random.default_rng(1)
    base = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    mix = rng.standard_normal((2, 10))
    fam2 = base @ mix + 1e-13 * rng.standard_normal((12, 10))
    fam2 /= np.linalg.norm(fam2, axis=0)
    assert ad.dim_lower_spectral(fam2, 1e-4) == 2


def test_upper_svd_witness_and_examples():
    # family inside a known 3-dim subspace
    rng = np.random.default_rng(2)
    base = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    fam = base @ rng.standard_normal((3, 7))
    r, witness = ad.dim_upper_svd(fam, 1e-8)
    assert r <= 3
    assert witness.shape == (10, r)
    resid = fam - witness @ (witness.conj().T @ fam)
    assert np.linalg.norm(resid, axis=0).max() < 1e-8
    # orthonormal m=4 at δ=1/2: any 3-dim subspace leaves a residual >= 1/2
    fam4 = orthonormal_family(8, 4, 3)
    assert ad.dim_upper_svd(fam4, 0.5)[0] == 4
    # frame witness matches the exact oracle at δ=0.9
    fam16 = orthonormal_family(24, 16, 4)
    assert ad.dim_upper_svd(fam16, 0.9)[0] == ad.dim_exact_orthonormal(16, 0.9)


def test_bracket_order_on_orthonormal_grid():
    fam = orthonormal_family(40, 32, 5)
    for delta in (0.2, 0.35, 0.5, 0.7, 0.9):
        lower = ad.dim_lower_spectral(fam, delta)
        exact = ad.dim_exact_orthonormal(32, delta)
        upper, _ = ad.dim_upper_svd(fam, delta)
        assert lower <= exact <= upper
        assert upper - lower <= 1 or abs((32 - lower) / 32 - delta**2) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.booleans(),
       st.floats(0.05, 1.2), st.floats(0.05, 1.2))
def test_bracket_ordered_and_nonincreasing_in_delta(seed, d, m, orthonormal, d1, d2):
    rng = np.random.default_rng(seed)
    if orthonormal:
        fam = orthonormal_family(max(d, m), m, seed)
    else:
        fam = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    small, large = sorted((d1, d2))
    at_small = ad.dim_bracket(fam, small, "t")
    at_large = ad.dim_bracket(fam, large, "t")
    for b in (at_small, at_large):
        assert b.lower <= b.upper
        assert ad.dim_lower_spectral(fam, b.delta) <= ad.dim_upper_svd(fam, b.delta)[0]
    assert at_large.lower <= at_small.lower
    assert at_large.upper <= at_small.upper


def test_orthonormal_lower_bound_guarantee():
    for m in (4, 16, 64):
        fam = orthonormal_family(m, m, m)
        for delta in (0.3, 0.5, 0.9):
            assert ad.dim_lower_spectral(fam, delta) >= (1 - delta**2) * m


def test_scale_equivariance_exact():
    fam = orthonormal_family(12, 8, 6)
    for delta in (0.3, 0.5, 0.7):
        b1 = ad.dim_bracket(fam, delta, "t")
        b2 = ad.dim_bracket(2.0 * fam, 2.0 * delta, "t")
        assert (b1.lower, b1.upper) == (b2.lower, b2.upper)


def test_mdim_regression_synthetic():
    deltas = np.geomspace(0.5, 0.01, 8)
    rows = [(float(d), max(1, round(d**-2))) for d in deltas]
    assert abs(ad.mdim_slope(rows) - 2.0) < 2e-2
    assert abs(ad.mdim_slope([(float(d), 7) for d in deltas])) < 1e-12


def test_mdim_regression_exact_powerlaw():
    # exactly log-linear data fits with slope 2 to machine precision
    deltas = [2.0**-k for k in range(1, 7)]
    assert abs(ad.mdim_slope([(d, int(round(d**-2))) for d in deltas]) - 2.0) < 1e-6


def test_mdim_regression_preconditions():
    # a fit needs 3 distinct δ; a repeated δ is one more sample, in any order
    rows = [(0.5, 1), (0.25, 4)]
    assert ad.mdim_slope(rows) is None
    assert ad.mdim_slope(rows + [(0.25, 4)]) is None
    assert ad.mdim_slope([(0.125, 16), *rows, (0.25, 4)]) == pytest.approx(2.0, rel=1e-12)


def test_mdim_slope_skips_rows_that_say_nothing():
    # D = 0, δ > 1 and a δ that underflowed to 0 are left out of the fit;
    # δ = 1 stays in, and the rest is an exact power law of slope 2
    power_law = [(2.0**-k, 4**k) for k in range(0, 5)]
    rows = [(3.0, 1), (1.5, 2), *power_law, (0.01, 0), (0.0, 5)]
    assert ad.mdim_slope(rows) == pytest.approx(2.0, rel=1e-12)
    # without enough rows left there is no slope
    assert ad.mdim_slope([(3.0, 1), (1.5, 2), (0.5, 4), (0.25, 16), (0.125, 0)]) is None


def test_bracket_validation_and_csv():
    with pytest.raises(PreconditionError):
        ad.DimBracket(0.5, 4, 3, "t")
    rows = ad.brackets_to_csv_rows([ad.DimBracket(0.5, 2, 3, "gns")])
    assert rows == ["0.5,2,3,gns"]


def test_family_json_roundtrip():
    fam = orthonormal_family(5, 3, 7)
    back = ad.family_from_json(ad.family_to_json(fam))
    assert np.abs(back - fam).max() < 1e-15


@pytest.mark.parametrize("delta", [0.0, float("nan")])
def test_delta_must_be_positive(delta):
    fam = orthonormal_family(4, 3, 1)
    for route in (ad.dim_lower_spectral, ad.dim_upper_svd):
        with pytest.raises(PreconditionError):
            route(fam, delta)
    with pytest.raises(PreconditionError):
        ad.dim_exact_orthonormal(3, delta)


@pytest.mark.parametrize("text", ["[[[1.0, 0.0, 2.0]]]", "[[[1, 0]], [[1, 0], [0, 1]]]",
                                  "[[1.0]]", "[[[1, \"a\"]]]", "not json"])
def test_family_json_rejects_malformed_entries(text):
    with pytest.raises(PreconditionError):
        ad.family_from_json(text)
