import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochgeo import (
    DataError,
    MhcParams,
    ParameterError,
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
    _grid_shape,
    _min_mark_thinning,
    _rng_for,
    _rng_from_state,
    _stream_states,
    mhc_realization,
    ppp_points,
)
from stochgeo import pointprocess


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
    rng = _rng_for(5)
    state = rng.bit_generator.state
    side = math.sqrt(MAX_EXPECTED_POINTS)
    with pytest.raises(ParameterError, match="cap"):
        ppp_points(rng, 2.0, 0.0, side, 0.0, side)
    assert rng.bit_generator.state == state
    assert len(ppp_points(rng, 1e-3, 0.0, side, 0.0, side)) > 0  # below the cap


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
        assert win.min_pair_distance(ps.points) >= 0.5
        assert win.contains(ps.points).all()


_mhc_cases = dict(seed=st.integers(0, 2**32 - 1), lambda_p=st.floats(0.5, 4.0),
                  d=st.floats(0.05, 1.0), edge=st.sampled_from(["toroidal", "guard"]))


@settings(max_examples=25, deadline=None)
@given(**_mhc_cases)
def test_mhc_retained_parents_are_d_apart(seed, lambda_p, d, edge):
    # every retained parent, guard extension included, under the window metric
    win = Window(5.0, 5.0, edge=edge)
    parents, _, keep = mhc_realization(_rng_for(seed), MhcParams(lambda_p, d), win)
    assert win.min_pair_distance(parents[keep]) >= d


@settings(max_examples=25, deadline=None)
@given(**_mhc_cases)
def test_mhc_keep_set_invariant_under_joint_permutation(seed, lambda_p, d, edge):
    win = Window(5.0, 5.0, edge=edge)
    rng = _rng_for(seed)
    parents, marks, keep = mhc_realization(rng, MhcParams(lambda_p, d), win)
    perm = rng.permutation(len(parents))
    shuffled = parents[perm]
    assert np.array_equal(_min_mark_thinning(shuffled, marks[perm], d, win.tree(shuffled)),
                          keep[perm])


def test_mhc_parent_on_the_far_edge_wraps(monkeypatch):
    # a parent drawn exactly at x = width is the point x = 0 of the torus
    parents = np.array([[3.0, 1.0], [0.1, 1.0], [1.5, 2.0]])
    monkeypatch.setattr(pointprocess, "ppp_points", lambda *args: parents.copy())
    _, marks, keep = mhc_realization(_rng_for(0), MhcParams(1.0, 0.5), Window(3.0, 3.0))
    assert keep[2] and keep[:2].sum() == 1
    assert keep[int(np.argmin(marks[:2]))]


def test_mhc_retained_subset_of_parents():
    win = Window(15, 15)
    rng = _rng_for(11)
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
        parents, _, keep = mhc_realization(_rng_for(seed), params, win)
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
@given(seed=st.integers(0, 2 ** 128 - 1), lo=st.integers(0, MAX_TRIALS),
       n=st.integers(0, 12), block=st.integers(1, 5))
@example(seed=2 ** 32 - 1, lo=MAX_TRIALS - 5, n=5, block=4)
@example(seed=0, lo=0, n=3, block=1)
@example(seed=2 ** 128 - 1, lo=MAX_TRIALS - 1, n=1, block=5)
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
        got, want = _rng_from_state(words), _rng_for(seed, i)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(3), want.random(3))
        assert got.poisson(50.0) == want.poisson(50.0)


def test_block_streams_reject_indices_beyond_one_word():
    with pytest.raises(ParameterError):
        list(_stream_states(1, 0, MAX_TRIALS + 1))
    with pytest.raises(ParameterError):
        list(_stream_states(1, 5, 4))
