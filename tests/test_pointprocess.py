import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import stochgeo
from stochgeo import (
    DataError,
    MhcParams,
    MhcSource,
    ParameterError,
    PppSource,
    Window,
    generate_grid,
    load_deployment,
    mhc_density,
    retention_probability,
    sample_mhc,
    sample_ppp,
)
from stochgeo.pointprocess import (
    MAX_EXPECTED_POINTS,
    MAX_TRIALS,
    _close_pairs,
    _grid_shape,
    _min_mark_thinning,
    _nearest_retained,
    _rng_from_state,
    _stream_states,
    mhc_realization,
    ppp_points,
)
from stochgeo import pointprocess

from seed_streams import seed_sequence_rng


def kd_tree(window, points):
    """scipy's k-d tree under the window metric; on a torus the points are
    wrapped into [0, width) x [0, height) first, so a point on the far edge is
    the point 0."""
    if window.toroidal:
        box = (window.width, window.height)
        return cKDTree(np.remainder(points, box), boxsize=box)
    return cKDTree(points)


def min_pair_distance(window, points):
    """Smallest pairwise distance under the window metric (inf below 2 points)."""
    if len(points) < 2:
        return math.inf
    tree = kd_tree(window, points)
    d, _ = tree.query(tree.data, k=2)
    return float(d[:, 1].min())


def kd_tree_thinning(points, marks, d, window):
    """Min-mark thinning over the pairs of scipy's query_pairs (i < j), the
    reference for the cell list: on equal marks the higher index loses."""
    keep = np.ones(len(points), dtype=bool)
    if d <= 0 or len(points) < 2:
        return keep
    pairs = kd_tree(window, points).query_pairs(d, output_type="ndarray")
    if len(pairs):
        first, second = pairs[:, 0], pairs[:, 1]
        second_loses = marks[second] >= marks[first]
        keep[second[second_loses]] = False
        keep[first[~second_loses]] = False
    return keep


def test_window_validation():
    with pytest.raises(ParameterError):
        Window(0, 10)
    with pytest.raises(ParameterError):
        Window(10, -1)
    with pytest.raises(ParameterError):
        Window(10, 10, edge="mirror")
    with pytest.raises(ParameterError):
        Window(10, 10, edge="guard", margin=-1)
    with pytest.raises(ParameterError):
        Window(10, 10, edge="guard", margin=5)  # no interior left
    with pytest.raises(ParameterError, match="squared diagonal"):
        Window(1e200, 1.0)  # squared distances in it would overflow
    for w, h in ((1e-300, 1e-300), (1e-162, 1e-162), (5e-324, 0.1)):
        with pytest.raises(ParameterError, match="area underflows"):
            Window(w, h)  # every point density and lattice spacing divides by the area
    assert Window(1e-161, 1e-161).area > 0


def test_toroidal_distance_wraps():
    win = Window(10, 10)
    d = win.distances((0.5, 0.5), np.array([[9.5, 0.5], [0.5, 9.5], [5.5, 0.5]]))
    assert np.allclose(d, [1.0, 1.0, 5.0])
    guard = Window(10, 10, edge="guard", margin=1)
    d = guard.distances((0.5, 0.5), np.array([[9.5, 0.5]]))
    assert np.allclose(d, [9.0])


def test_ppp_count_moments():
    # E[count] = var[count] = lambda * area
    win = Window(10, 10)
    counts = np.array([len(sample_ppp(1.0, win, seed)) for seed in range(300)])
    se_mean = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 100.0) < 3 * se_mean
    # SD of the sample variance of Poisson(100) over n draws
    se_var = math.sqrt((100 + 3 * 100**2 - 100**2) / len(counts))
    assert abs(counts.var(ddof=1) - 100.0) < 3 * se_var


def test_ppp_coordinates_uniform():
    win = Window(10, 10)
    pts = np.vstack([sample_ppp(2.0, win, s).points for s in range(50)])
    assert abs(pts[:, 0].mean() - 5.0) < 0.15
    assert abs(pts[:, 1].mean() - 5.0) < 0.15
    assert win.contains(pts).all()


def test_ppp_determinism():
    win = Window(10, 10)
    a = sample_ppp(1.5, win, 42)
    b = sample_ppp(1.5, win, 42)
    assert np.array_equal(a.points, b.points)
    assert a.seed == 42
    c = sample_ppp(1.5, win, 43)
    assert not np.array_equal(a.points, c.points)


def test_ppp_parameter_errors():
    win = Window(10, 10)
    with pytest.raises(ParameterError):
        sample_ppp(0.0, win, 1)
    with pytest.raises(ParameterError):
        sample_ppp(1.0, win, -3)


def test_ppp_expected_count_cap_checked_before_any_draw():
    rng = seed_sequence_rng(5)
    state = rng.bit_generator.state
    side = math.sqrt(MAX_EXPECTED_POINTS)
    with pytest.raises(ParameterError, match="cap"):
        ppp_points(rng, 2.0, 0.0, side, 0.0, side)
    assert rng.bit_generator.state == state
    assert len(ppp_points(rng, 1e-3, 0.0, side, 0.0, side)) > 0  # below the cap


def ppp_points_two_uniform_calls(rng, lambda_p, xmin, xmax, ymin, ymax):
    """ppp_points as one call per draw: the count, then one Generator.uniform
    call per axis, stacked as columns."""
    n = rng.poisson(lambda_p * (xmax - xmin) * (ymax - ymin))
    return np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])


# rectangle sides (low, high): a zero lower corner, any lower corner, and the
# (-d, width + d) side of a guard-band MHC parent window
_SIDE = st.one_of(
    st.floats(0.1, 30.0).map(lambda w: (0.0, w)),
    st.tuples(st.floats(-50.0, 50.0), st.floats(0.1, 30.0)).map(lambda cw: (cw[0], sum(cw))),
    st.tuples(st.floats(1.0, 30.0), st.floats(0.0, 2.0)).map(lambda wd: (-wd[1], sum(wd))))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), lambda_p=st.floats(0.01, 3.0), xs=_SIDE, ys=_SIDE)
@example(seed=0, lambda_p=2.0, xs=(0.0, 6.0), ys=(0.0, 5.0))
@example(seed=2 ** 32, lambda_p=2.0, xs=(-0.4, 6.4), ys=(-0.4, 5.4))  # MHC(2, 0.4) guard
@example(seed=2 ** 128 - 1, lambda_p=1.0, xs=(-0.5, 10.5), ys=(3.25, 7.5))
def test_ppp_points_equals_one_uniform_call_per_axis(seed, lambda_p, xs, ys):
    got_rng, want_rng = seed_sequence_rng(seed), seed_sequence_rng(seed)
    got = ppp_points(got_rng, lambda_p, *xs, *ys)
    want = ppp_points_two_uniform_calls(want_rng, lambda_p, *xs, *ys)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()  # bit for bit
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


def test_mhc_d_zero_equals_parent_ppp():
    win = Window(10, 10)
    mhc = sample_mhc(MhcParams(2.0, 0.0), win, 7)
    ppp = sample_ppp(2.0, win, 7)
    assert np.array_equal(mhc.points, ppp.points)


@pytest.mark.parametrize("edge", ["toroidal", "guard"])
def test_mhc_hardcore_property(edge):
    win = Window(12, 12, edge=edge, margin=1.0 if edge == "guard" else 0.0)
    for seed in range(5):
        ps = sample_mhc(MhcParams(2.0, 0.5), win, seed)
        assert min_pair_distance(win, ps.points) >= 0.5
        assert win.contains(ps.points).all()


_mhc_cases = dict(seed=st.integers(0, 2**32 - 1), lambda_p=st.floats(0.5, 4.0),
                  d=st.floats(0.05, 1.0), edge=st.sampled_from(["toroidal", "guard"]))


@settings(max_examples=25, deadline=None)
@given(**_mhc_cases)
def test_mhc_retained_parents_are_d_apart(seed, lambda_p, d, edge):
    # every retained parent, guard extension included, under the window metric
    win = Window(5.0, 5.0, edge=edge)
    parents, _, keep = mhc_realization(seed_sequence_rng(seed), MhcParams(lambda_p, d), win)
    assert min_pair_distance(win, parents[keep]) >= d


@settings(max_examples=25, deadline=None)
@given(**_mhc_cases)
def test_mhc_keep_set_invariant_under_joint_permutation(seed, lambda_p, d, edge):
    win = Window(5.0, 5.0, edge=edge)
    rng = seed_sequence_rng(seed)
    parents, marks, keep = mhc_realization(rng, MhcParams(lambda_p, d), win)
    perm = rng.permutation(len(parents))
    shuffled = parents[perm]
    assert np.array_equal(_min_mark_thinning(shuffled, marks[perm], d, win), keep[perm])


def test_mhc_parent_on_the_far_edge_wraps(monkeypatch):
    # a parent drawn exactly at x = width is the point x = 0 of the torus
    parents = np.array([[3.0, 1.0], [0.1, 1.0], [1.5, 2.0]])
    monkeypatch.setattr(pointprocess, "ppp_points", lambda *args: parents.copy())
    _, marks, keep = mhc_realization(seed_sequence_rng(0), MhcParams(1.0, 0.5), Window(3.0, 3.0))
    assert keep[2] and keep[:2].sum() == 1
    assert keep[int(np.argmin(marks[:2]))]


def nearest_retained_reference(parents, marks, d, window, loc):
    """_nearest_retained from every parent's thinning."""
    kept = parents[_min_mark_thinning(parents, marks, d, window)]
    return window.distances(loc, kept).min() if len(kept) else math.inf


def assert_nearest_retained(parents, marks, d, window, loc, expected):
    parents, marks = np.asarray(parents, dtype=float), np.asarray(marks, dtype=float)
    got = _nearest_retained(parents, marks, d, window, np.asarray(loc, dtype=float))
    assert got == expected == nearest_retained_reference(parents, marks, d, window, loc)


@pytest.mark.parametrize("loc,expected", [((1.125, 1.0), 0.125), ((1.375, 1.0), 0.375)])
def test_nearest_retained_tied_marks_keep_the_lower_index(loc, expected):
    # rows 1 and 2 are 0.25 apart with equal marks: row 1 wins, also where row 2
    # is nearer the location
    assert_nearest_retained([[5.0, 5.0], [1.0, 1.0], [1.25, 1.0]], [0.1, 0.5, 0.5], 0.5,
                            Window(10.0, 10.0), loc, expected)


def test_nearest_retained_pair_exactly_d_apart_is_close():
    # dx is exactly d: the higher mark loses, though it is nearer the location
    assert_nearest_retained([[1.0, 1.0], [1.5, 1.0]], [0.2, 0.7], 0.5, Window(10.0, 10.0),
                            (1.5, 1.25), 0.5590169943749475)


def test_nearest_retained_nearest_parent_killed_across_the_torus_seam():
    # rows 0 and 1 are 0.25 apart across x = 0; row 0 is nearest, row 1 wins
    win = Window(10.0, 10.0)
    parents = [[0.125, 5.0], [9.875, 5.0], [3.0, 5.0]]
    expected = float(win.distances((0.375, 5.0), np.array([[9.875, 5.0]]))[0])
    assert expected == 0.5
    assert_nearest_retained(parents, [0.9, 0.1, 0.5], 0.5, win, (0.375, 5.0), expected)


def test_nearest_retained_keeps_coincident_parents_at_d_zero():
    assert_nearest_retained([[2.0, 2.0], [2.0, 2.0], [4.0, 4.0]], [0.9, 0.1, 0.5], 0.0,
                            Window(10.0, 10.0), (2.0, 3.0), 1.0)


def test_nearest_retained_of_no_parents_is_inf():
    for d in (0.0, 0.5):
        assert _nearest_retained(np.empty((0, 2)), np.empty(0), d, Window(10.0, 10.0),
                                 np.array([1.0, 1.0])) == math.inf


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lambda_p=st.floats(0.5, 60.0), d=st.floats(0.05, 1.0),
       edge=st.sampled_from(["toroidal", "guard"]))
def test_nearest_retained_matches_full_thinning(seed, lambda_p, d, edge):
    # up to lambda_p pi d^2 = 190: the walk then passes many batches of thinned parents
    win = Window(5.0, 5.0, edge=edge)
    rng = seed_sequence_rng(seed)
    parents, marks, _ = mhc_realization(rng, MhcParams(lambda_p, d), win)
    loc = rng.uniform(0.0, 5.0, 2)
    assert (_nearest_retained(parents, marks, d, win, loc)
            == nearest_retained_reference(parents, marks, d, win, loc))


@st.composite
def thinning_cases(draw):
    """(points, marks, d, window) for the cell list against scipy's k-d tree.

    Sides and d are quarter-km multiples on a lattice, so pairs exactly d apart
    occur, or free floats; d is tiny, below a third of the shorter side (three
    or more cells per axis), or just under half of it (two cells per axis,
    where the neighbour cells on a torus repeat). Some points sit exactly on
    the far edge, and marks may tie.
    """
    edge = draw(st.sampled_from(["toroidal", "guard"]))
    lattice = draw(st.booleans())
    if lattice:
        width, height = (draw(st.integers(4, 40)) / 4 for _ in range(2))
        short = min(width, height)
        d = draw(st.integers(1, math.ceil(2 * short) - 1)) / 4
    else:
        width, height = (draw(st.floats(0.5, 12.0)) for _ in range(2))
        short = min(width, height)
        d = short * draw(st.sampled_from([1e-9, 0.02, 0.1, 0.25, 0.33, 0.3334, 0.49,
                                          0.4999999]) | st.floats(1e-3, 0.4999))
    window = Window(width, height, edge=edge)
    ext = 0.0 if window.toroidal else d
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 120))
    lo, hi = np.array([-ext, -ext]), np.array([width + ext, height + ext])
    if lattice:
        points = rng.integers(np.ceil(4 * lo), np.floor(4 * hi) + 1, (n, 2)) / 4
    else:
        points = lo + rng.random((n, 2)) * (hi - lo)
    for axis in (0, 1):
        on_edge = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
        points[on_edge, axis] = hi[axis]
    if draw(st.booleans()):
        marks = rng.integers(0, 3, n) / 3  # frequent ties
    else:
        marks = rng.random(n)
    return points, marks, d, window


@settings(max_examples=300, deadline=None)
@given(thinning_cases())
@example((np.array([[3.0, 1.0], [0.5, 1.0], [1.5, 2.0], [2.0, 1.0]]),
          np.array([0.5, 0.5, 0.5, 0.5]), 1.0, Window(3.0, 3.0)))
def test_cell_list_matches_kd_tree(case):
    points, marks, d, window = case
    i, j, d2 = _close_pairs(points, d, window)
    got = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
    assert len(got) == len(i)  # every pair once
    want = kd_tree(window, points).query_pairs(d) if len(points) else set()
    assert got == want
    if len(i):
        ref = window.distances(points[i], points[j])
        assert np.allclose(np.sqrt(d2), ref, rtol=1e-12, atol=1e-12)
    keep = _min_mark_thinning(points, marks, d, window)
    assert np.array_equal(keep, kd_tree_thinning(points, marks, d, window))


def test_cell_list_on_a_line_with_a_tiny_radius():
    # collinear points on a guard window: a zero-area bounding box
    points = np.array([[0.0, 2.0], [0.0, 2.0], [5.0, 2.0], [1e4, 2.0]])
    i, j, d2 = _close_pairs(points, 1e-12, Window(10.0, 10.0, edge="guard"))
    assert sorted(zip(i.tolist(), j.tolist())) in ([(0, 1)], [(1, 0)])
    assert d2.tolist() == [0.0]


def test_tiny_hardcore_distance_keeps_the_cell_table_small():
    # cells 1e-9 km wide would number 1e20 on this torus; the grid is capped
    # by the point count instead
    tracemalloc.start()
    try:
        parents, _, keep = mhc_realization(seed_sequence_rng(4), MhcParams(1.0, 1e-9),
                                           Window(10.0, 10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parents) > 50 and keep.all()
    assert peak < 2 ** 20


LIBRARY_WITHOUT_SCIPY = """
import sys
import stochgeo as sg
import stochgeo.cli
ch = sg.ChannelParams(alpha=4.0, sigma2=0.1)
params = sg.MhcParams(2.0, 0.4)
win = sg.default_torus(params)
sg.sample_ppp(1.0, win, 1)
sg.sample_mhc(params, win, 1)
sg.simulate_coverage(sg.PppSource(1.0, win), ch, [0.0, 10.0], 20, 1, threads=1)
sg.simulate_coverage(sg.MhcSource(params, win), ch, [0.0, 10.0], 20, 1, threads=1)
sg.empty_space_ks(params, 20, 1)
sg.pair_density_empirical(params, [0.5, 0.6], 4, 1)
sg.pgfl_bound_check(params, ch, 1.0, 0.3, 100, 1)
sg.void_probability_empirical(params, 0.5, 30, 1)
def loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name.startswith("numpy.polynomial"))
print(loaded())
for kind in ("theorem1", "proposition1"):
    sg.coverage_bound(kind, ch, params, [-10.0, 0.0, 30.0],
                      sg.QuadConfig(n_r=16, n_theta=16, n_upsilon=16))
print("numpy.polynomial.legendre" in loaded(), "scipy" in sys.modules)
"""


def test_the_library_never_loads_scipy():
    # nor numpy.polynomial, which only the bound's angular rule needs
    src = Path(pointprocess.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", LIBRARY_WITHOUT_SCIPY], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # a bound curve loads numpy.polynomial, so the guard sees a module when it
    # is loaded; the bound's far field needs no scipy
    assert out.stdout.split("\n")[:2] == ["[]", "True False"]


def test_every_public_name_resolves():
    assert [name for name in stochgeo.__all__ if not hasattr(stochgeo, name)] == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1))
@example(seed=0)
@example(seed=2 ** 32)
@example(seed=2 ** 128 - 1)
def test_samplers_draw_stream_zero_of_the_seed(seed):
    params = MhcParams(2.0, 0.4)
    for window in (Window(6.0, 5.0), Window(6.0, 5.0, edge="guard", margin=0.5)):
        ppp, mhc = sample_ppp(2.0, window, seed), sample_mhc(params, window, seed)
        assert ppp.seed == mhc.seed == seed
        want = PppSource(2.0, window).points_for_trial(seed_sequence_rng(seed))
        assert np.array_equal(ppp.points, want)
        want = MhcSource(params, window).points_for_trial(seed_sequence_rng(seed))
        assert np.array_equal(mhc.points, want)


def test_mhc_retained_subset_of_parents():
    win = Window(15, 15)
    rng = seed_sequence_rng(11)
    parents, marks, keep = mhc_realization(rng, MhcParams(1.0, 0.5), win)
    assert keep.shape == (len(parents),)
    assert 0 < keep.sum() < len(parents)
    # every eliminated point has a neighbor within d holding a smaller mark
    lost = np.flatnonzero(~keep)[:20]
    for i in lost:
        d = win.distances(parents[i], parents)
        close = (d <= 0.5) & (np.arange(len(parents)) != i)
        assert np.any(marks[close] < marks[i])


def test_mhc_density_matches_retention_formula():
    # empirical retained density ~ lambda_m, retained fraction ~ p
    params = MhcParams(1.0, 0.5)
    win = Window(25, 25)  # 50d x 50d
    dens = []
    frac = []
    for seed in range(200):
        parents, _, keep = mhc_realization(seed_sequence_rng(seed), params, win)
        dens.append(keep.sum() / win.area)
        frac.append(keep.sum() / len(parents))
    dens = np.array(dens)
    se = dens.std(ddof=1) / math.sqrt(len(dens))
    assert abs(dens.mean() - mhc_density(params)) < 3 * se
    assert abs(np.mean(frac) - retention_probability(params)) < 0.01


def test_mhc_stationarity_proxy():
    # mean count in a fixed sub-square should not depend on its location
    params = MhcParams(1.0, 0.5)
    win = Window(20, 20)
    boxes = [(0, 5, 0, 5), (10, 15, 10, 15), (13, 18, 2, 7)]
    counts = np.zeros((150, len(boxes)))
    for seed in range(150):
        pts = sample_mhc(params, win, seed).points
        for j, (x0, x1, y0, y1) in enumerate(boxes):
            counts[seed, j] = np.sum((pts[:, 0] >= x0) & (pts[:, 0] < x1)
                                     & (pts[:, 1] >= y0) & (pts[:, 1] < y1))
    means = counts.mean(axis=0)
    ses = counts.std(axis=0, ddof=1) / math.sqrt(len(counts))
    for j in range(1, len(boxes)):
        assert abs(means[0] - means[j]) < 3 * math.hypot(ses[0], ses[j])


def test_mhc_d_too_large_for_torus():
    with pytest.raises(ParameterError):
        sample_mhc(MhcParams(1.0, 6.0), Window(10, 10), 1)


def test_grid_single_point_centered():
    ps = generate_grid(1, Window(10, 10))
    assert np.allclose(ps.points, [[5.0, 5.0]])


def test_grid_two_by_two():
    ps = generate_grid(4, Window(10, 10))
    got = {tuple(p) for p in np.round(ps.points, 9)}
    assert got == {(2.5, 2.5), (2.5, 7.5), (7.5, 2.5), (7.5, 7.5)}


def test_grid_24_in_rural_window():
    win = Window(100, 80)
    assert _grid_shape(24, win) == (6, 4)
    ps = generate_grid(24, win)
    assert len(ps) == 24
    xs = np.unique(np.round(ps.points[:, 0], 6))
    ys = np.unique(np.round(ps.points[:, 1], 6))
    assert len(xs) == 6 and len(ys) == 4
    assert np.allclose(np.diff(xs), 100 / 6)
    assert np.allclose(np.diff(ys), 20.0)
    assert np.isclose(xs[0], 100 / 12) and np.isclose(ys[0], 10.0)


def test_grid_nearest_realizable_count_warns():
    with pytest.warns(UserWarning, match="using 3x2 = 6"):
        ps = generate_grid(7, Window(10, 10))
    assert len(ps) == 6


def test_grid_invalid_count():
    with pytest.raises(ParameterError):
        generate_grid(0, Window(10, 10))


def test_load_deployment_basic(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("x_km,y_km\n0,0\n1,1\n")
    ps = load_deployment(f, Window(10, 10))
    assert len(ps) == 2
    assert np.allclose(ps.points, [[0, 0], [1, 1]])


def test_load_deployment_parse_error_names_line(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("x_km,y_km\na,b\n")
    with pytest.raises(DataError, match="line 2"):
        load_deployment(f, Window(10, 10))


def test_load_deployment_rejects_out_of_window(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("x_km,y_km\n200,5\n50,40\n")
    with pytest.warns(UserWarning, match="1 rejected"):
        ps = load_deployment(f, Window(100, 80))
    assert len(ps) == 1


def test_load_deployment_empty_file(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("x_km,y_km\n")
    with pytest.raises(DataError, match="no coordinate rows"):
        load_deployment(f, Window(10, 10))


def test_load_deployment_bad_header(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("lat,lon\n1,2\n")
    with pytest.raises(DataError, match="header"):
        load_deployment(f, Window(10, 10))


def test_load_deployment_affine_header(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("# offset_x=-1000 offset_y=-2000 scale=0.001\n"
                 "x_km,y_km\n6000,4000\n")
    ps = load_deployment(f, Window(10, 10))
    assert np.allclose(ps.points, [[5.0, 2.0]])


def test_pointset_rejects_outside_points():
    with pytest.raises(ParameterError):
        from stochgeo import PointSet
        PointSet(np.array([[20.0, 5.0]]), Window(10, 10), "test")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 1000 - 1), lo=st.integers(0, MAX_TRIALS),
       n=st.integers(0, 12), block=st.integers(1, 5))
@example(seed=2 ** 32 - 1, lo=MAX_TRIALS - 5, n=5, block=4)
@example(seed=0, lo=0, n=3, block=1)
@example(seed=2 ** 128 - 1, lo=MAX_TRIALS - 1, n=1, block=5)
# more than four seed words: the hash constant then depends on the word count
@example(seed=2 ** 128, lo=0, n=5, block=2)
@example(seed=2 ** 200 + 12345, lo=4094, n=6, block=4)
@example(seed=2 ** 1000 - 1, lo=MAX_TRIALS - 3, n=3, block=2)
def test_block_streams_match_seed_sequence(seed, lo, n, block):
    hi = min(lo + n, MAX_TRIALS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointprocess, "STREAM_BLOCK", block)
        states = list(_stream_states(seed, lo, hi))
    assert len(states) == hi - lo
    for i, words in zip(range(lo, hi), states):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        assert words.dtype == np.uint64
        assert np.array_equal(words, ref.generate_state(4, np.uint64))
        got, want = _rng_from_state(words), seed_sequence_rng(seed, i)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(3), want.random(3))
        assert got.poisson(50.0) == want.poisson(50.0)


def test_block_streams_reject_indices_beyond_one_word():
    with pytest.raises(ParameterError):
        list(_stream_states(1, 0, MAX_TRIALS + 1))
    with pytest.raises(ParameterError):
        list(_stream_states(1, 5, 4))
