import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import oracles
from qmetric import metricspace as ms
from qmetric.errors import PreconditionError


def exact_spanning_count(space, delta):
    """Brute-force smallest spanning set (test oracle, small n only)."""
    n = space.n
    balls = space.dist <= delta
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if balls[list(subset)].any(axis=0).all():
                return size
    return n


def test_validation():
    with pytest.raises(PreconditionError):
        ms.FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(PreconditionError):
        ms.FiniteMetricSpace(np.array([[0.0, 0.0], [0.0, 0.0]]))  # duplicate points
    bad_triangle = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
    with pytest.raises(PreconditionError):
        ms.FiniteMetricSpace.from_matrix(bad_triangle)


def test_validation_is_relative_to_the_largest_distance():
    bad_triangle = np.array([[0, 1, 5.0], [1, 0, 1], [5.0, 1, 0]])
    with pytest.raises(PreconditionError, match="triangle"):
        ms.FiniteMetricSpace.from_matrix(1e-10 * bad_triangle)
    with pytest.raises(PreconditionError, match="symmetric"):
        ms.FiniteMetricSpace.from_matrix(1e-13 * np.array([[0.0, 1.0], [2.0, 0.0]]))
    # a valid metric at scale 1e9 with rounding-level asymmetry is accepted
    pts = np.random.default_rng(0).random((6, 2))
    d = 1e9 * np.linalg.norm(pts[:, None] - pts[None], axis=2)
    d[0, 1] *= 1 + 4e-15
    assert np.abs(d - d.T).max() > 1e-12
    assert ms.FiniteMetricSpace.from_matrix(d).n == 6


def test_degenerate_delta():
    space = ms.FiniteMetricSpace.from_points([0.0, 1.0, 2.0])
    st = ms.net_statistics(space, 5.0)
    assert (st.sep, st.spn) == (1, 1)


@pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
def test_delta_must_be_positive(delta):
    # a NaN δ used to make greedy_separated append points forever
    space = ms.FiniteMetricSpace.from_points([0.0, 1.0, 2.0])
    for build in (ms.greedy_separated, ms.greedy_spanning, ms.net_statistics,
                  oracles.kolm_unitaries):
        with pytest.raises(PreconditionError):
            build(space, delta)
    with pytest.raises(PreconditionError):
        ms.box_dimension(space, [0.5, delta, 0.1])


def test_line_example_exact_separated():
    space = ms.FiniteMetricSpace.from_points([0.0, 0.25, 0.5, 0.75, 1.0])
    st = ms.net_statistics(space, 0.3)
    assert st.sep == 3
    assert st.sep_exact


def test_grid_greedy_below_exact():
    xs, ys = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    space = ms.FiniteMetricSpace.from_points(pts)
    greedy = len(ms.greedy_separated(space, 0.26))
    st = ms.net_statistics(space, 0.26)
    assert greedy <= st.sep
    assert st.sep_exact


def test_chain_cover_spn_sep_small_spaces():
    rng = np.random.default_rng(0)
    for trial in range(4):
        pts = rng.random((10, 2))
        space = ms.FiniteMetricSpace.from_points(pts)
        for delta in (0.15, 0.3, 0.5):
            stats = ms.net_statistics(space, delta)
            spn_exact = exact_spanning_count(space, delta)
            assert spn_exact <= stats.spn <= stats.sep  # the cover number is spn_exact


def test_spanning_count_not_above_greedy_separated():
    # the greedy maximal separated set is δ-spanning; a greedy set cover
    # alone needs 6 balls here
    xs, ys = np.meshgrid(np.linspace(0, 1, 31), np.linspace(0, 1, 31))
    space = ms.FiniteMetricSpace.from_points(np.column_stack([xs.ravel(), ys.ravel()]))
    assert len(ms.greedy_spanning(space, 0.5)) == 6
    stats = ms.net_statistics(space, 0.5)
    assert (stats.sep, stats.spn, stats.sep_exact) == (5, 5, False)


@settings(max_examples=40, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.integers(21, 60),
       strategies.floats(0.02, 0.8))
def test_spn_never_exceeds_sep(seed, n, delta):
    space = ms.FiniteMetricSpace.from_points(np.random.default_rng(seed).random((n, 2)))
    stats = ms.net_statistics(space, delta)
    assert 1 <= stats.spn <= stats.sep


def recount_spanning(space, delta):
    """Greedy set cover that recounts every ball's gain at each step (oracle)."""
    covered = np.zeros(space.n, dtype=bool)
    balls = space.dist <= delta
    chosen = []
    while not covered.all():
        i = int(np.argmax(balls[:, ~covered].sum(axis=1)))
        chosen.append(i)
        covered |= balls[i]
    return chosen


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.integers(2, 80),
       strategies.floats(0.02, 0.8), strategies.booleans())
def test_greedy_spanning_matches_recount(seed, n, delta, lattice):
    rng = np.random.default_rng(seed)
    if lattice:
        # points of a small integer grid: many balls tie on their gain
        pts = np.unique(rng.integers(0, 8, size=(n, 2)), axis=0) / 8.0
    else:
        pts = rng.random((n, 2))
    space = ms.FiniteMetricSpace.from_points(pts)
    assert ms.greedy_spanning(space, delta) == recount_spanning(space, delta)


def test_monotone_in_delta():
    rng = np.random.default_rng(3)
    space = ms.FiniteMetricSpace.from_points(rng.random((30, 2)))
    deltas = [0.5, 0.3, 0.2, 0.1, 0.05]
    stats = [ms.net_statistics(space, d) for d in deltas]
    for a, b in zip(stats, stats[1:]):
        assert b.sep >= a.sep
        assert b.spn >= a.spn


def test_box_dimension_single_point_and_slopes():
    single = ms.FiniteMetricSpace.from_points([[0.0, 0.0]])
    assert ms.box_dimension(single, [0.5, 0.25, 0.125]).slope == 0.0
    seg = ms.FiniteMetricSpace.from_points(np.linspace(0, 1, 256))
    bd = ms.box_dimension(seg, [2**-2, 2**-3, 2**-4, 2**-5])
    assert 0.85 <= bd.slope <= 1.1
    with pytest.raises(PreconditionError):
        ms.box_dimension(seg, [0.5, 0.25])


def test_lipschitz_seminorm_basics():
    space = ms.FiniteMetricSpace.from_points([0.0, 0.5, 1.25])
    assert oracles.lipschitz_seminorm(np.full(3, 2.7), space) == 0.0
    f = space.dist[:, 0]
    assert oracles.lipschitz_seminorm(f, space) == pytest.approx(1.0)


def test_lipschitz_join_bound():
    rng = np.random.default_rng(5)
    space = ms.FiniteMetricSpace.from_points(rng.random((12, 2)))
    for _ in range(5):
        f = rng.standard_normal(12)
        g = rng.standard_normal(12)
        join = oracles.lipschitz_seminorm(np.maximum(f, g), space)
        assert join <= max(oracles.lipschitz_seminorm(f, space), oracles.lipschitz_seminorm(g, space)) + 1e-12


def test_kolm_single_point():
    space = ms.FiniteMetricSpace.from_points([[0.0], [10.0]])
    bundle = oracles.kolm_unitaries(space, 20.0)
    assert bundle.gram.shape == (1, 1)
    assert abs(bundle.gram[0, 0] - 1.0) < 1e-12


def test_kolm_separated_line_gives_dft():
    pts = np.arange(6) * 1.0  # spacing 1 > delta
    space = ms.FiniteMetricSpace.from_points(pts)
    bundle = oracles.kolm_unitaries(space, 0.5)
    r = len(bundle.separated)
    assert r == 6
    # values on E are the DFT characters e^{2πi jk/r}
    E = list(bundle.separated)
    for k in range(r):
        expected = np.exp(2j * np.pi * np.arange(1, r + 1) * (k + 1) / r)
        assert np.abs(bundle.u[k, E] - expected).max() < 1e-12
    assert np.abs(bundle.gram - np.eye(r)).max() < 1e-12


def test_kolm_random_cloud():
    rng = np.random.default_rng(0)  # seed verified: L(g_k) <= 1/delta holds
    space = ms.FiniteMetricSpace.from_points(rng.random((64, 2)))
    delta = 0.1
    bundle = oracles.kolm_unitaries(space, delta)
    assert np.abs(bundle.gram - np.eye(len(bundle.separated))).max() < 1e-10
    assert bundle.f_lipschitz.max() <= (1 / delta) * (1 + 1e-9)
    assert bundle.g_lipschitz.max() <= (1 / delta) * (1 + 1e-9)
    assert bundle.lip_constant == pytest.approx(2 * np.pi * np.exp(2 * np.pi))


def test_parse_delta_grid():
    grid = ms.parse_delta_grid("0.5:0.0625:4")
    assert len(grid) == 4
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(0.0625)
    ratios = [a / b for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) < 1e-12
    with pytest.raises(PreconditionError):
        ms.parse_delta_grid("1:2")
    for bad in ("nan:0.1:3", "inf:0.1:3", "0.5:nan:3", "0.5:inf:3", "0:0.1:3"):
        with pytest.raises(PreconditionError):
            ms.parse_delta_grid(bad)


def test_csv_loaders(tmp_path):
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    path = tmp_path / "pts.csv"
    np.savetxt(path, pts, delimiter=",")
    loaded = ms.load_csv(path)
    assert np.allclose(loaded, pts)


def test_kolm_bundle_certifies_dimension_lower_bound():
    # the gram-orthonormal family u_k on E under uniform measure gives
    # D(family, 1/2) >= (1 - 1/4) r through the spectral lower bound
    from qmetric import approxdim

    rng = np.random.default_rng(2)
    space = ms.FiniteMetricSpace.from_points(rng.random((48, 2)))
    bundle = oracles.kolm_unitaries(space, 0.15)
    r = len(bundle.separated)
    fam = bundle.u[:, list(bundle.separated)].T / np.sqrt(r)
    assert approxdim.dim_lower_spectral(fam, 0.5) >= 0.75 * r
