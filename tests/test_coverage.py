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
)
from stochgeo import coverage
from stochgeo.coverage import _count_chunk, _eval_trial_sinr, simulate_curves
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
    assert ChannelParams(alpha=4.0, sigma2=0.1, p_t=2.0).p_t == 2.0


def test_curve_validation():
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 0.0]), np.array([0.5, 0.5]), None, "x")
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]), None, "x")
    with pytest.raises(ParameterError, match=r"in \[0, 1\]"):  # NaN fails p < 0 and p > 1
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5, np.nan]), None, "x")
    with pytest.raises(ParameterError):
        CoverageCurve(np.array([0.0, 1.0]), np.array([0.5]), None, "x")


def test_beta_db_to_linear_needs_a_finite_linear_value():
    assert np.isfinite(coverage.beta_db_to_linear([-4000.0, 0.0, 3082.5])).all()
    for bad in (3082.6, math.inf, math.nan):
        with pytest.raises(ParameterError, match="beta_db"):
            coverage.beta_db_to_linear([0.0, bad])


def sinr_draws(user, bs, ch, rng, n=1):
    """n SINR samples at one fixed user location, one _eval_trial_sinr trial
    each: nearest-station association and unit-mean Rayleigh fades on every
    link, drawn per trial as one block, serving fade first. Returns (sinr,
    number of trials under the serving-distance clamp)."""
    fades = rng.standard_exponential((n, len(bs) + 1))
    return _eval_trial_sinr(np.tile(bs.points, (n, 1)), np.full(n, len(bs)),
                            np.tile(np.asarray(user, dtype=float), (n, 1)), fades[:, 0],
                            fades[:, 1:].ravel(), bs.window, ch)


def test_single_station_sinr_is_scaled_exponential():
    # one station, noise only: P[SINR >= beta] = exp(-gamma*beta*sigma2*r^alpha)
    win = Window(10, 10, edge="guard", margin=1)
    bs = generate_grid(1, win)
    ch = ChannelParams(alpha=4.0, sigma2=0.5)
    rng = np.random.default_rng(8)
    user = (5.0, 6.2)  # r = 1.2
    n = 20000
    draws, _ = sinr_draws(user, bs, ch, rng, n)
    for beta in (0.2, 1.0, 3.0):
        ref = math.exp(-beta * ch.sigma2 / ch.p_t * 1.2 ** 4)
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
    draws, _ = sinr_draws((5.0, 5.0), bs, ch, rng, n)
    for beta in (0.5, 1.0, 4.0):
        ref = 1.0 / (1.0 + beta)
        se = math.sqrt(ref * (1 - ref) / n)
        assert abs(np.mean(draws >= beta) - ref) < 4 * se


def test_user_on_station_clamps():
    win = Window(10, 10, edge="guard", margin=1)
    bs = PointSet(np.array([[5.0, 5.0], [7.0, 5.0]]), win, "pair")
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    (s,), clamped = sinr_draws((5.0, 5.0), bs, ch, np.random.default_rng(0))
    assert math.isfinite(s) and s > 1e10
    assert clamped == 1


def test_single_station_no_noise_is_infinite():
    win = Window(10, 10, edge="guard", margin=1)
    bs = generate_grid(1, win)
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    assert sinr_draws((5.0, 6.0), bs, ch, np.random.default_rng(0))[0][0] == math.inf


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
    """ProcessPoolExecutor stand-in that records the pool size it was asked
    for and runs the queued chunks in process, in submission order, when a
    result is asked for. Like the real pool, shutdown runs the chunks still
    queued unless cancel_futures is set."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.queue = []

    def submit(self, fn, *args):
        future = InlineFuture(self)
        self.queue.append((future, fn, args))
        return future

    def run_next(self):
        future, fn, args = self.queue.pop(0)
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)

    def shutdown(self, wait=True, *, cancel_futures=False):
        while self.queue:
            if cancel_futures:
                self.queue.pop(0)[0].cancel()
            else:
                self.run_next()


class InlineFuture(concurrent.futures.Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        while not self.done():
            self.pool.run_next()
        return super().result(timeout)


def use_inline_pool(monkeypatch, cpus=2):
    monkeypatch.setattr(coverage, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(coverage.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(InlinePool, "sizes", [])


@pytest.mark.parametrize("threads, cpus, n_trials, workers", [
    (10 ** 6, 2, 2000, 2),  # a huge request is capped at the CPU count
    (0, 3, 2000, 3),        # auto uses every CPU
    (0, 16, 2000, 4),       # never more workers than chunks
    (2, 8, 2500, 2),
])
def test_pool_size_is_capped(threads, cpus, n_trials, workers, monkeypatch):
    use_inline_pool(monkeypatch, cpus)
    source = FixedSource(generate_grid(12, Window(4, 3)))
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    pooled = quiet_simulate(source, ch, [0.0, 5.0], n_trials, 5, threads=threads)
    assert InlinePool.sizes == [workers]
    single = quiet_simulate(source, ch, [0.0, 5.0], n_trials, 5, threads=1)
    assert np.array_equal(pooled.p_c, single.p_c)
    assert InlinePool.sizes == [workers]


def test_several_sources_share_one_pool_and_keep_their_curves(monkeypatch):
    use_inline_pool(monkeypatch)
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    sources = [FixedSource(generate_grid(12, Window(4, 3))), PppSource(1.0, Window(4, 4))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled = simulate_curves(sources, ch, [0.0, 5.0], 2000, 5)
    assert InlinePool.sizes == [2]
    for source, curve in zip(sources, pooled):
        alone = quiet_simulate(source, ch, [0.0, 5.0], 2000, 5, threads=1)
        assert curve.label == source.label
        assert np.array_equal(curve.p_c, alone.p_c)
        assert np.array_equal(curve.std_err, alone.std_err)
    assert InlinePool.sizes == [2]


def test_fit_asks_for_one_pool_and_matches_the_in_process_table(monkeypatch):
    use_inline_pool(monkeypatch)
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    target = CoverageCurve(np.array([0.0, 5.0]), np.array([0.5, 0.3]), None, "t")
    search = [MhcParams(1.0, 0.2), MhcParams(2.0, 0.3), MhcParams(3.0, 0.4)]
    pooled = quiet_fit(target, search, ch, 2000, 7, window=Window(6, 6))
    assert InlinePool.sizes == [2]
    single = quiet_fit(target, search, ch, 2000, 7, window=Window(6, 6), threads=1)
    assert InlinePool.sizes == [2]
    assert pooled == single


def test_a_failed_chunk_cancels_the_later_sources_chunks(monkeypatch):
    use_inline_pool(monkeypatch)
    ran = []
    count_chunk = coverage._count_chunk

    def recording(source, *args):
        ran.append(source.params)
        return count_chunk(source, *args)

    def draw(self, rng):
        if self.params == search[1]:
            raise RuntimeError("worker failed")
        return mhc_points(self, rng)

    search = [MhcParams(1.0, 0.2), MhcParams(2.0, 0.3), MhcParams(3.0, 0.4)]
    mhc_points = MhcSource.points_for_trial
    monkeypatch.setattr(coverage, "_count_chunk", recording)
    monkeypatch.setattr(MhcSource, "points_for_trial", draw)
    target = CoverageCurve(np.array([0.0]), np.array([0.5]), None, "t")
    with pytest.raises(RuntimeError, match="worker failed"):
        quiet_fit(target, search, ChannelParams(alpha=4.0, sigma2=0.1), 2000, 7,
                  window=Window(6, 6))
    assert InlinePool.sizes == [2]
    assert ran == [search[0]] * 4 + [search[1]]  # 4 chunks a source; the rest cancelled


def test_warnings_name_their_source_when_several_run():
    # both PPP(0.05) sources on a 4 x 4 window draw empty trials, and the
    # window is far narrower than 20 mean spacings
    sources = [PppSource(0.05, Window(4, 4)), PppSource(0.06, Window(4, 4))]
    ch = ChannelParams(alpha=4.0, sigma2=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate_curves(sources, ch, [0.0], 50, 1, threads=1)
    messages = [str(w.message) for w in caught]
    for source in sources:
        mine = [m for m in messages if m.startswith(source.label + ": ")]
        assert sum("is narrower than" in m for m in mine) == 1
        assert sum("trials drew no stations; counted as outage" in m for m in mine) == 1
    assert len(messages) == 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate_coverage(sources[0], ch, [0.0], 50, 1, threads=1)
    assert str(caught[0].message).startswith("window 4x4 is narrower than")
    assert len(caught) == 2 and not any(sources[0].label in str(w.message) for w in caught)
    # the 20-spacing width reads right at every scale: for 4 stations it is
    # 1e-149 km on 1e-300 x 1 and 1e51 km on 1 x 1e100
    for (w, h), width in (((1e-300, 1.0), "1e-149"), ((1.0, 1e100), "1e+51")):
        grid = FixedSource(generate_grid(4, Window(w, h)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate_coverage(grid, ch, [0.0], 2, 1, threads=1)
        assert f"is narrower than {width} km (20 mean spacings)" in str(caught[0].message)


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
            lambda y, x: math.exp(-beta * ch.sigma2 / ch.p_t
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
    from stochgeo.io import points_csv_text

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
    path.write_text(points_csv_text(PointSet(jittered, win, "survey")), encoding="utf-8")
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
