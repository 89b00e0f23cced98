import concurrent.futures
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from stochgeo import (
    ChannelParams,
    CoverageCurve,
    DataError,
    FixedSource,
    MhcParams,
    MhcSource,
    ParameterError,
    PointSet,
    PppSource,
    Window,
    fit_mhc,
    generate_grid,
    simulate_coverage,
    sinr_sample,
)
from stochgeo import coverage
from stochgeo.coverage import _count_chunk, _eval_trial_sinr
from stochgeo.pointprocess import MAX_TRIALS, R_MIN_KM

from seed_streams import seed_sequence_rng


def quiet_simulate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_coverage(*args, **kwargs)


def test_channel_validation():
    with pytest.raises(ParameterError):
        ChannelParams(alpha=2.0, sigma2=0.1)
    with pytest.raises(ParameterError):
        ChannelParams(alpha=4.0, sigma2=-0.1)
    with pytest.raises(ParameterError):
        ChannelParams(alpha=4.0, sigma2=0.1, p_t=0.0)
    ch = ChannelParams(alpha=4.0, sigma2=0.1, p_t=2.0)
    assert ch.gamma == 0.5


def test_curve_validation():
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 0.0]), np.array([0.5, 0.5]), None, "x")
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]), None, "x")
    with pytest.raises(ParameterError, match=r"in \[0, 1\]"):  # NaN fails p < 0 and p > 1
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, np.nan]), None, "x")
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5]), None, "x")


def test_single_station_sinr_is_scaled_exponential():
    # one station, noise only: P[SINR >= beta] = exp(-gamma*beta*sigma2*r^alpha)
    win = Window(10, 10, edge="guard", margin=1)
    bs = generate_grid(1, win)
    ch = ChannelParams(alpha=4.0, sigma2=0.5)
    rng = np.random.default_rng(8)
    user = (5.0, 6.2)  # r = 1.2
    n = 20000
    draws = np.array([sinr_sample(user, bs, ch, rng) for _ in range(n)])
    for beta in (0.2, 1.0, 3.0):
        ref = math.exp(-ch.gamma * beta * ch.sigma2 * 1.2 ** 4)
        p_hat = np.mean(draws >= beta)
        se = math.sqrt(ref * (1 - ref) / n)
        assert abs(p_hat - ref) < 4 * se


def test_two_equidistant_stations_no_noise():
    # SINR = h/g with iid exponentials: P[h/g >= beta] = 1/(1+beta)
    win = Window(10, 10, edge="guard", margin=1)
    bs = PointSet(np.array([[4.0, 5.0], [6.0, 5.0]]), win, "pair")
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    rng = np.random.default_rng(21)
    n = 20000
    draws = np.array([sinr_sample((5.0, 5.0), bs, ch, rng) for _ in range(n)])
    for beta in (0.5, 1.0, 4.0):
        ref = 1.0 / (1.0 + beta)
        se = math.sqrt(ref * (1 - ref) / n)
        assert abs(np.mean(draws >= beta) - ref) < 4 * se


def test_user_on_station_clamps():
    win = Window(10, 10, edge="guard", margin=1)
    bs = PointSet(np.array([[5.0, 5.0], [7.0, 5.0]]), win, "pair")
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    s = sinr_sample((5.0, 5.0), bs, ch, np.random.default_rng(0))
    assert math.isfinite(s) and s > 1e10


def test_single_station_no_noise_is_infinite():
    win = Window(10, 10, edge="guard", margin=1)
    bs = generate_grid(1, win)
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    assert sinr_sample((5.0, 6.0), bs, ch, np.random.default_rng(0)) == math.inf


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), n=st.integers(1, 40), toroidal=st.booleans(),
       user=st.tuples(st.floats(1.0, 7.0), st.floats(1.0, 5.0)))
@example(seed=0, n=12, toroidal=True, user=(2.0, 1.5))
@example(seed=2 ** 32, n=1, toroidal=False, user=(4.0, 3.0))
@example(seed=2 ** 128 - 1, n=40, toroidal=True, user=(1.0, 5.0))
def test_sinr_sample_draws_the_fades_of_one_call_per_draw(seed, n, toroidal, user):
    # sinr_sample's one standard_exponential(n + 1) block holds the values of
    # a scalar serving fade followed by standard_exponential(n)
    window = Window(8.0, 6.0) if toroidal else Window(8.0, 6.0, edge="guard", margin=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n not realizable as a lattice
        bs = generate_grid(n, window)
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    got_rng, want_rng = seed_sequence_rng(seed), seed_sequence_rng(seed)
    got = sinr_sample(user, bs, ch, got_rng)
    serving = want_rng.standard_exponential()
    want, _ = _eval_trial_sinr(bs.points, [len(bs)], [user], [serving],
                               want_rng.standard_exponential(len(bs)), window, ch)
    assert np.float64(got).tobytes() == want[:1].tobytes()  # bit for bit
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


def test_simulate_ccdf_limits():
    source = PppSource(1.0, Window(20, 20))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    curve = quiet_simulate(source, ch, [-60.0, 60.0], 3000, 5)
    assert curve.p_c[0] >= 0.999
    assert curve.p_c[1] <= 0.001


def test_simulate_monotone_exact():
    source = MhcSource(MhcParams(2.0, 0.4), Window(18, 18))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    curve = quiet_simulate(source, ch, np.arange(-10.0, 21.0, 3.0), 2000, 13, threads=1)
    assert np.all(np.diff(curve.p_c) <= 0)


def test_simulate_deterministic_and_thread_independent():
    source = MhcSource(MhcParams(2.0, 0.4), Window(18, 18))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    beta = [0.0, 5.0, 10.0]
    a = quiet_simulate(source, ch, beta, 2500, 99, threads=1)
    b = quiet_simulate(source, ch, beta, 2500, 99, threads=1)
    c = quiet_simulate(source, ch, beta, 2500, 99, threads=2)
    assert np.array_equal(a.p_c, b.p_c)
    assert np.array_equal(a.p_c, c.p_c)
    assert np.array_equal(a.std_err, c.std_err)


def test_scale_invariance_bit_exact():
    # multiplying transmit and noise power by a binary factor changes nothing
    source = PppSource(1.0, Window(20, 20))
    beta = [0.0, 5.0, 10.0]
    base = quiet_simulate(source, ChannelParams(4.0, 0.1, p_t=1.0), beta, 2000, 7)
    scaled = quiet_simulate(source, ChannelParams(4.0, 0.4, p_t=4.0), beta, 2000, 7)
    assert np.array_equal(base.p_c, scaled.p_c)


def test_removing_nearest_interferer_never_hurts():
    rng = np.random.default_rng(31)
    ch = ChannelParams(alpha=4.0, sigma2=0.05)
    win = Window(20, 20, edge="guard", margin=1)
    user = np.array([[10.0, 10.0], [10.0, 10.0]])
    for _ in range(200):
        r = rng.uniform(0.1, 1.0)
        dists = rng.uniform(r, 5.0, 8)
        fades = rng.standard_exponential(8)
        h = rng.standard_exponential()
        # the serving station first, then the interferers, on a ray from the user;
        # trial 0 has every interferer, trial 1 all but the nearest
        k = 1 + int(np.argmin(dists))
        full = np.column_stack([10.0 + np.concatenate(([r], dists)), np.full(9, 10.0)])
        full_fades = np.concatenate(([0.0], fades))
        sinr, _ = _eval_trial_sinr(
            np.concatenate([full, np.delete(full, k, axis=0)]), np.array([9, 8]), user,
            np.array([h, h]), np.concatenate([full_fades, np.delete(full_fades, k)]), win, ch)
        assert sinr[1] >= sinr[0]


def reference_trial(points, window, user, serving_fade, fades, ch):
    """Scalar SINR of one trial, station by station: (sinr, clamped, serving index).

    The serving station is the first of least squared distance, as the scorer
    ranks them (distances below about 1e-154 km square to 0 and tie); path
    gains take the distances themselves."""
    dist = [float(x) for x in window.distances(user, points)]
    squared = []
    for px, py in points:
        dx, dy = abs(px - user[0]), abs(py - user[1])
        if window.toroidal:
            dx, dy = min(dx, window.width - dx), min(dy, window.height - dy)
        squared.append(dx * dx + dy * dy)
    k = squared.index(min(squared))
    interference = sum(f * max(x, R_MIN_KM) ** -ch.alpha
                       for j, (f, x) in enumerate(zip(fades, dist)) if j != k)
    denom = ch.sigma2 / ch.p_t + interference
    num = serving_fade * max(dist[k], R_MIN_KM) ** -ch.alpha
    return (math.inf if denom == 0.0 else num / denom), dist[k] < R_MIN_KM, k


# a quarter-km lattice makes exact distance ties common; free floats do not
_x = st.one_of(st.integers(0, 32).map(lambda i: i / 4), st.floats(0.0, 8.0))
_y = st.one_of(st.integers(0, 24).map(lambda i: i / 4), st.floats(0.0, 6.0))
_fade = st.floats(0.01, 10.0)


@st.composite
def _trial(draw):
    n = draw(st.integers(1, 50))
    points = [(draw(_x), draw(_y)) for _ in range(n)]
    on_station = draw(st.booleans())
    user = points[draw(st.integers(0, n - 1))] if on_station else (draw(_x), draw(_y))
    return points, user, draw(_fade), [draw(_fade) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(trials=st.lists(_trial(), min_size=1, max_size=4), toroidal=st.booleans(),
       alpha=st.floats(2.1, 6.0), sigma2=st.sampled_from([0.0, 0.1]),
       p_t=st.floats(0.5, 2.0))
# two stations inside the clamp, one at a distance whose square underflows to 0:
# their squared distances tie, and the first serves
@example(trials=[([(0.0, 5.77649256199604e-243), (0.0, 0.0)], (0.0, 0.0), 1.0, [1.0, 0.5])],
         toroidal=False, alpha=3.0, sigma2=0.0, p_t=1.0)
def test_block_scorer_matches_per_trial_reference(trials, toroidal, alpha, sigma2, p_t):
    window = Window(8.0, 6.0) if toroidal else Window(8.0, 6.0, edge="guard", margin=1.0)
    ch = ChannelParams(alpha, sigma2, p_t)
    ref = [reference_trial(np.array(p), window, np.array(u), h, f, ch) for p, u, h, f in trials]
    points = np.concatenate([np.array(p) for p, _, _, _ in trials])
    sizes = np.array([len(p) for p, _, _, _ in trials])
    users = np.array([u for _, u, _, _ in trials])
    serving = np.array([h for _, _, h, _ in trials])
    fades = np.concatenate([np.array(f) for _, _, _, f in trials])
    sinr, clamped = _eval_trial_sinr(points, sizes, users, serving, fades, window, ch)
    assert clamped == sum(c for _, c, _ in ref)
    for got, (want, _, _) in zip(sinr, ref):
        assert math.isclose(got, want, rel_tol=1e-12)
    # the serving station's own fade is dropped: changing the fade of the
    # reference's serving station leaves every SINR bit for bit the same
    fades[np.cumsum(sizes) - sizes + [k for _, _, k in ref]] *= 1000.0
    assert np.array_equal(_eval_trial_sinr(points, sizes, users, serving, fades, window, ch)[0],
                          sinr)


_SPLIT_SOURCES = {
    "ppp": PppSource(0.1, Window(5, 5)),  # about 8% of trials draw no station
    "mhc": MhcSource(MhcParams(2.0, 0.4), Window(6, 6, edge="guard", margin=0.5)),
    "grid": FixedSource(generate_grid(12, Window(4, 3))),
}
_SPLIT_TRIALS = 60


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(sorted(_SPLIT_SOURCES)),
       cuts=st.lists(st.integers(0, _SPLIT_TRIALS), max_size=4),
       block=st.integers(1, 200))
def test_counts_independent_of_chunks_and_blocks(key, cuts, block):
    source = _SPLIT_SOURCES[key]
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    beta_lin = coverage.beta_db_to_linear(np.arange(-10.0, 21.0, 5.0))
    whole = _count_chunk(source, ch, beta_lin, 17, 0, _SPLIT_TRIALS)
    edges = sorted({0, _SPLIT_TRIALS, *cuts})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "BLOCK_STATIONS", block)
        parts = [_count_chunk(source, ch, beta_lin, 17, lo, hi)
                 for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(sum(p[0] for p in parts), whole[0])
    assert (sum(p[1] for p in parts), sum(p[2] for p in parts)) == whole[1:]


def reference_counts(source, ch, beta_lin, seed, lo, hi):
    """_count_chunk's contract, one trial at a time on numpy's SeedSequence streams."""
    xmin, xmax, ymin, ymax = source.window.interior_bounds()
    counts = np.zeros(len(beta_lin), dtype=np.int64)
    clamped = empty = 0
    for trial in range(lo, hi):
        rng = seed_sequence_rng(seed, trial)
        stations = source.points_for_trial(rng)
        if len(stations) == 0:
            empty += 1
            continue
        user = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        serving = rng.standard_exponential()
        fades = rng.standard_exponential(len(stations))
        sinr, n_clamped = _eval_trial_sinr(stations, [len(stations)], [user], [serving],
                                           fades, source.window, ch)
        counts += sinr[0] >= beta_lin
        clamped += n_clamped
    return counts, clamped, empty


@pytest.mark.parametrize("key", sorted(_SPLIT_SOURCES))
@pytest.mark.parametrize("seed", [0, 17, 2 ** 32 - 1, 2 ** 70 + 11])
def test_last_trial_indices_use_the_seed_sequence_streams(key, seed):
    source = _SPLIT_SOURCES[key]
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    beta_lin = coverage.beta_db_to_linear(np.arange(-10.0, 21.0, 5.0))
    for lo, hi in ((MAX_TRIALS - 3, MAX_TRIALS), (0, 8)):
        got = _count_chunk(source, ch, beta_lin, seed, lo, hi)
        want = reference_counts(source, ch, beta_lin, seed, lo, hi)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


class InlinePool:
    """ProcessPoolExecutor stand-in that runs each chunk in process and
    records the pool size it was asked for."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("threads, cpus, n_trials, workers", [
    (10 ** 6, 2, 2000, 2),  # a huge request is capped at the CPU count
    (0, 3, 2000, 3),        # auto uses every CPU
    (0, 16, 2000, 4),       # never more workers than chunks
    (2, 8, 2500, 2),
])
def test_pool_size_is_capped(threads, cpus, n_trials, workers, monkeypatch):
    monkeypatch.setattr(coverage, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(coverage.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(InlinePool, "sizes", [])
    source = FixedSource(generate_grid(12, Window(4, 3)))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    pooled = quiet_simulate(source, ch, [0.0, 5.0], n_trials, 5, threads=threads)
    assert InlinePool.sizes == [workers]
    single = quiet_simulate(source, ch, [0.0, 5.0], n_trials, 5, threads=1)
    assert np.array_equal(pooled.p_c, single.p_c)
    assert InlinePool.sizes == [workers]


def test_negative_threads_and_huge_counts_rejected():
    source = PppSource(1.0, Window(20, 20))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    target = CoverageCurve(np.array([0.0]), np.array([0.5]), None, "t")
    for threads in (0, 1):
        with pytest.raises(ParameterError):
            quiet_simulate(source, ch, [0.0], MAX_TRIALS + 1, 1, threads=threads)
        with pytest.raises(ParameterError):
            quiet_fit(target, [MhcParams(1.0, 0.2)], ch, 10 ** 20, 1, threads=threads)
    with pytest.raises(ParameterError):
        quiet_simulate(source, ch, [0.0], 10, 1, threads=-3)
    with pytest.raises(ParameterError):
        quiet_fit(target, [MhcParams(1.0, 0.2)], ch, 10, 1, threads=-1)


def test_empty_deployment_is_data_error():
    win = Window(10, 10)
    empty = PointSet(np.empty((0, 2)), win, "empty")
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    with pytest.raises(DataError):
        quiet_simulate(FixedSource(empty), ch, [0.0], 10, 1, threads=1)


def test_empty_realizations_count_as_outage():
    # about 45% of these PPP(0.05) draws on a 4 x 4 window have no station
    source = PppSource(0.05, Window(4, 4))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    n, seed = 50, 1
    empty = sum(len(source.points_for_trial(seed_sequence_rng(seed, t))) == 0 for t in range(n))
    assert 0 < empty < n
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = simulate_coverage(source, ch, [-10.0, 0.0], n, seed, threads=1)
    assert sum(f"{empty} of {n} trials drew no stations" in str(w.message)
               for w in caught) == 1
    assert np.all(curve.p_c <= (n - empty) / n)
    assert curve.p_c[0] > 0


def test_simulate_parameter_errors():
    source = PppSource(1.0, Window(20, 20))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    with pytest.raises(ParameterError):
        quiet_simulate(source, ch, [], 100, 1)
    with pytest.raises(ParameterError):
        quiet_simulate(source, ch, [0.0], 0, 1)
    with pytest.raises(ParameterError):
        quiet_simulate(source, ch, [1.0, 0.0], 100, 1)


def test_noise_only_curve_matches_user_average():
    # single station, guard interior: P_c(beta) = E_user[exp(-gamma*beta*sigma2*r^alpha)]
    win = Window(10, 10, edge="guard", margin=2.0)
    source = FixedSource(generate_grid(1, win))
    ch = ChannelParams(alpha=4.0, sigma2=1.0)
    beta_db = [0.0, 6.0]
    curve = quiet_simulate(source, ch, beta_db, 40000, 3)
    for beta_db_val, p_hat, se in zip(curve.beta_db, curve.p_c, curve.std_err):
        beta = 10 ** (beta_db_val / 10)
        val, _ = dblquad(
            lambda y, x: math.exp(-ch.gamma * beta * ch.sigma2
                                  * math.hypot(x - 5.0, y - 5.0) ** 4),
            2.0, 8.0, 2.0, 8.0)
        ref = val / 36.0
        assert abs(p_hat - ref) < 3 * se + 1e-4


def quiet_fit(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_mhc(*args, **kwargs)


def test_fit_single_candidate():
    target_src = MhcSource(MhcParams(2.0, 0.4), Window(18, 18))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    target = quiet_simulate(target_src, ch, [0.0, 5.0, 10.0], 2000, 1)
    result = quiet_fit(target, [MhcParams(1.0, 0.2)], ch, 1000, 2,
                       window=Window(18, 18))
    assert result.params == MhcParams(1.0, 0.2)
    assert result.error >= 0
    assert len(result.table) == 1


def test_fit_recovers_generating_parameters():
    truth = MhcParams(2.0, 0.4)
    win = Window(18, 18)
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    beta_db = [-5.0, 0.0, 5.0, 10.0, 15.0]
    target = quiet_simulate(MhcSource(truth, win), ch, beta_db, 6000, 123)
    search = [MhcParams(1.0, 0.4), MhcParams(2.0, 0.4), MhcParams(3.0, 0.4),
              MhcParams(2.0, 0.1), MhcParams(2.0, 0.7)]
    result = quiet_fit(target, search, ch, 6000, 321, window=win)
    assert result.params == truth
    assert len(result.table) == len(search)


def test_fit_empty_search_rejected():
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    target = CoverageCurve(np.array([0.0]), np.array([0.5]), None, "t")
    with pytest.raises(ParameterError):
        fit_mhc(target, [], ch, 100, 1)


def test_loaded_deployment_sits_between_ppp_and_grid(tmp_path):
    # an irregular-but-repulsive fixed deployment (jittered lattice standing
    # in for real coordinates) should land between the Poisson and lattice
    # extremes at matched density
    from stochgeo import load_deployment, mhc_density
    from stochgeo.io import write_points_csv

    params = MhcParams(2.0, 0.4)
    lam = mhc_density(params)
    win = Window(18, 18)
    nx = ny = int(round(18 * math.sqrt(lam)))
    s = 18.0 / nx
    gx, gy = np.meshgrid((np.arange(nx) + 0.5) * s, (np.arange(ny) + 0.5) * s,
                         indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    rng = np.random.default_rng(404)
    jittered = np.remainder(lattice + rng.uniform(-0.3 * s, 0.3 * s,
                                                  lattice.shape), 18.0)
    path = tmp_path / "deploy.csv"
    write_points_csv(path, PointSet(jittered, win, "survey"))
    deploy = load_deployment(path, win)

    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    beta_db = np.arange(-10.0, 21.0, 3.0)
    n = 25000
    ppp = quiet_simulate(PppSource(lam, win), ch, beta_db, n, 61)
    mid = quiet_simulate(FixedSource(deploy), ch, beta_db, n, 62)
    area = len(lattice) / lam
    gw = math.sqrt(area)
    grid = quiet_simulate(FixedSource(generate_grid(len(lattice), Window(gw, gw))),
                          ch, beta_db, n, 63)

    def violations(lo, hi):
        v = lo.p_c - hi.p_c
        se = np.hypot(lo.std_err, hi.std_err)
        bad = v > 0
        return int(bad.sum()), bool(np.all(v[bad] < se[bad])) if bad.any() else True

    n1, ok1 = violations(ppp, mid)
    n2, ok2 = violations(mid, grid)
    assert n1 + n2 <= 2 and ok1 and ok2, (ppp.p_c, mid.p_c, grid.p_c)
