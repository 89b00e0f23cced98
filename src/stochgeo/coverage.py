"""Monte Carlo estimation of downlink SINR coverage probability.

Each trial realizes the deployment (fresh for random sources, reused for
fixed ones), drops one uniform user and draws Rayleigh fades for every link.
Trials are scored in blocks: one vectorised pass attaches each user to its
nearest station under the window metric and compares the resulting SINR
with every threshold. Coverage is the fraction of trials at or above each
threshold.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import MIN_WINDOW_SPACINGS, default_torus
from .errors import DataError, ParameterError
from .pointprocess import (
    MhcParams,
    MhcSource,
    R_MIN_KM,
    Window,
    _check_count,
    _check_seed,
    _rng_from_state,
    _stream_states,
)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and radio parameters.

    alpha: path-loss exponent (> 2, else interference diverges).
    sigma2: noise power, in the same unit as the transmit power.
    p_t: transmit power; fading powers are exponential with mean p_t, i.e.
         rate gamma = 1/p_t.
    """

    alpha: float
    sigma2: float
    p_t: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ParameterError("alpha must be finite and > 2")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ParameterError("sigma2 must be finite and >= 0")
        if not (math.isfinite(self.p_t) and self.p_t > 0):
            raise ParameterError("p_t must be finite and > 0")

    @property
    def gamma(self) -> float:
        return 1.0 / self.p_t


@dataclass(frozen=True)
class CoverageCurve:
    """SINR thresholds (dB) with coverage probabilities and, for Monte Carlo
    curves, binomial standard errors (None for quadrature curves)."""

    beta_db: np.ndarray
    p_c: np.ndarray
    std_err: np.ndarray | None
    label: str

    def __post_init__(self):
        beta = threshold_grid(self.beta_db)
        p = np.asarray(self.p_c, dtype=float)
        if beta.shape != p.shape:
            raise ParameterError("beta_db and p_c must be equal-length 1-D arrays")
        if not np.all((p >= 0) & (p <= 1)):  # NaN fails both
            raise ParameterError("coverage probabilities must lie in [0, 1]")
        se = self.std_err
        if se is not None:
            se = np.asarray(se, dtype=float)
            if se.shape != beta.shape:
                raise ParameterError("std_err must match beta_db in length")
            se.setflags(write=False)
        for arr in (beta, p):
            arr.setflags(write=False)
        object.__setattr__(self, "beta_db", beta)
        object.__setattr__(self, "p_c", p)
        object.__setattr__(self, "std_err", se)

    def __len__(self) -> int:
        return len(self.beta_db)


def threshold_grid(beta_db) -> np.ndarray:
    """beta_db as a float array, checked to be a nonempty, strictly
    increasing 1-D grid."""
    beta = np.asarray(beta_db, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise ParameterError("beta_db grid must be a nonempty 1-D array")
    if not np.all(np.diff(beta) > 0):
        raise ParameterError("beta_db must be strictly increasing")
    return beta


def beta_db_to_linear(beta_db) -> np.ndarray:
    """Linear thresholds 10^(beta/10), each checked to be a finite float."""
    beta = np.asarray(beta_db, dtype=float)
    with np.errstate(over="ignore"):
        linear = 10.0 ** (beta / 10.0)
    if not np.isfinite(linear).all():
        raise ParameterError("beta_db must be finite and below about 3082.5 dB, where "
                             "10^(beta/10) overflows")
    return linear


# Stations per scored block: caps a block's memory whatever the window size.
BLOCK_STATIONS = 2 ** 14


def _eval_trial_sinr(points: np.ndarray, sizes: np.ndarray, users: np.ndarray,
                     serving_fades: np.ndarray, fades: np.ndarray, window: Window,
                     ch: ChannelParams) -> tuple[np.ndarray, int]:
    """SINR of a block of trials in one vectorised pass.

    Trial i owns the next sizes[i] >= 1 rows of `points` and of the unit-mean
    station `fades`, the user users[i] and the serving fade serving_fades[i].
    The user attaches to its nearest station under the window metric (the
    first one on a tie), whose own fade is dropped; every other station
    interferes. Noise enters as sigma2 / p_t, so scaling {p_t, sigma2} by a
    common factor leaves the result unchanged. Returns (sinr per trial,
    number of trials whose serving distance is below the R_MIN_KM floor).
    Distances stay squared: path gains are max(d^2, R_MIN_KM^2)^(-alpha/2).
    """
    starts = np.cumsum(sizes) - sizes
    users = np.repeat(np.asarray(users, dtype=float), sizes, axis=0)
    dx, dy = window._fold(points[:, 0] - users[:, 0], points[:, 1] - users[:, 1])
    d2 = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    r2 = np.minimum.reduceat(d2, starts)
    at_min = np.flatnonzero(d2 == np.repeat(r2, sizes))
    gain = fades * np.maximum(d2, R_MIN_KM ** 2) ** (-ch.alpha / 2)
    gain[at_min[np.searchsorted(at_min, starts)]] = 0.0
    denom = ch.sigma2 / ch.p_t + np.add.reduceat(gain, starts)
    num = serving_fades * np.maximum(r2, R_MIN_KM ** 2) ** (-ch.alpha / 2)
    sinr = np.divide(num, denom, out=np.full(len(sizes), math.inf), where=denom > 0)
    return sinr, int(np.count_nonzero(r2 < R_MIN_KM ** 2))


def _trial_rng(words: np.ndarray) -> np.random.Generator:
    # Its own function, called once per trial, so that perfbench traces the
    # per-trial generator set-up by this name (coverage.rng_setup_us).
    return _rng_from_state(words)


def _count_chunk(source, ch: ChannelParams, beta_lin: np.ndarray, seed: int,
                 lo: int, hi: int) -> tuple[np.ndarray, int, int]:
    """Score trials [lo, hi): per-threshold success counts, clamp count and
    empty-realization count.

    Each trial draws from its own generator stream keyed by (seed, index), in
    the order stations, user x, user y, serving fade, one fade per station,
    so the reduction is independent of chunking, blocking and execution
    order. The user is one rng.random(2) call, scaled per block as
    low + span * u like Generator.uniform, and the fades one
    standard_exponential(n + 1) call, serving first. Seed words are derived a
    block of trials at a time; draws are scored per BLOCK_STATIONS stations.
    A trial with no station is an outage at every threshold.
    """
    window = source.window
    low, high = np.array(window.interior_bounds()).reshape(2, 2).T
    counts = np.zeros(len(beta_lin), dtype=np.int64)
    clamped = empty = buffered = 0
    pts, users, fades = [], [], []
    for trial, words in zip(range(lo, hi), _stream_states(seed, lo, hi)):
        rng = _trial_rng(words)
        stations = source.points_for_trial(rng)
        if len(stations) == 0:
            empty += 1
        else:
            pts.append(stations)
            users.append(rng.random(2))
            fades.append(rng.standard_exponential(len(stations) + 1))
            buffered += len(stations)
        if pts and (buffered >= BLOCK_STATIONS or trial == hi - 1):
            sinr, n_clamped = _eval_trial_sinr(
                np.concatenate(pts), np.array([len(p) for p in pts]),
                low + (high - low) * np.array(users), np.array([f[0] for f in fades]),
                np.concatenate([f[1:] for f in fades]), window, ch)
            clamped += n_clamped
            counts += (sinr[:, None] >= beta_lin).sum(axis=0)
            pts, users, fades = [], [], []
            buffered = 0
    return counts, clamped, empty


def simulate_coverage(source, ch: ChannelParams, beta_db: Sequence[float],
                      n_trials: int, seed: int, threads: int = 0,
                      label: str | None = None) -> CoverageCurve:
    """Monte Carlo coverage curve P[SINR >= beta] for a deployment source.

    `source` is one of the pointprocess sources (PppSource, MhcSource,
    FixedSource). `threads` caps worker processes (0 = auto, 1 = in-process;
    never more than the CPU count). Results are reproducible for a given seed
    regardless of threads.
    """
    curve = simulate_curves([source], ch, beta_db, n_trials, seed, threads)[0]
    return replace(curve, label=label) if label else curve


def simulate_curves(sources: Sequence, ch: ChannelParams, beta_db: Sequence[float],
                    n_trials: int, seed: int, threads: int = 0) -> list[CoverageCurve]:
    """simulate_coverage for several sources, each curve as if run alone.

    All sources' trial chunks share one process pool, and a failed chunk
    cancels the chunks still queued. With several sources, each warning
    starts with its source's label.
    """
    sources = list(sources)
    if not sources:
        raise ParameterError("sources must be nonempty")
    _check_run(ch, n_trials, threads)
    seed = _check_seed(seed)
    beta_db = threshold_grid(beta_db)
    beta_lin = beta_db_to_linear(beta_db)
    tags = [f"{source.label}: " if len(sources) > 1 else "" for source in sources]
    for source, tag in zip(sources, tags):
        w, h, density = source.window.width, source.window.height, source.mean_density
        min_side = MIN_WINDOW_SPACINGS / math.sqrt(density) if density > 0 else 0.0
        if min(w, h) < min_side:
            warnings.warn(f"{tag}window {w:g}x{h:g} is narrower than {min_side:.1f} km "
                          f"({MIN_WINDOW_SPACINGS:g} mean spacings); interference "
                          "truncation bias may exceed Monte Carlo noise", stacklevel=2)

    cpus = os.cpu_count() or 1
    workers = min(threads or cpus, cpus)
    n_chunks = min(workers * 4, n_trials // 500) if workers > 1 and n_trials >= 2000 else 1
    edges = np.linspace(0, n_trials, n_chunks + 1, dtype=int).tolist()
    jobs = [(source, ch, beta_lin, seed, lo, hi)
            for source in sources for lo, hi in zip(edges[:-1], edges[1:])]
    if n_chunks > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
        try:
            futures = [pool.submit(_count_chunk, *job) for job in jobs]
            chunks = [fut.result() for fut in futures]
        finally:
            pool.shutdown(cancel_futures=True)  # after a failure, run no queued chunk
    else:
        chunks = [_count_chunk(*job) for job in jobs]

    curves = []
    for i, (source, tag) in enumerate(zip(sources, tags)):
        counts, clamped, empty = map(sum, zip(*chunks[i * n_chunks:(i + 1) * n_chunks]))
        if empty == n_trials:
            raise DataError(f"{tag}deployment has no stations")
        if clamped:
            warnings.warn(f"{tag}{clamped} of {n_trials} trials hit the {R_MIN_KM:g} km "
                          "serving-distance clamp", stacklevel=2)
        if empty:
            warnings.warn(f"{tag}{empty} of {n_trials} trials drew no stations; counted "
                          "as outage", stacklevel=2)
        p = counts / n_trials
        curves.append(CoverageCurve(beta_db, p, np.sqrt(p * (1.0 - p) / n_trials), source.label))
    return curves


def _check_run(ch: ChannelParams, n_trials: int, threads: int) -> None:
    """Reject an alpha whose path gains overflow, a trial count outside
    [1, MAX_TRIALS] and a negative worker cap."""
    # a station gain is at most fade * R_MIN_KM^-alpha
    if not ch.alpha * math.log(1.0 / R_MIN_KM) < math.log(sys.float_info.max):
        raise ParameterError(f"alpha {ch.alpha:g} is too large: path gains up to "
                             f"{R_MIN_KM:g} km^-alpha overflow")
    _check_count(n_trials, 1, "n_trials")
    if threads < 0:
        raise ParameterError("threads must be >= 0 (0 = auto)")


class FitResult(NamedTuple):
    params: MhcParams
    error: float
    table: list[tuple[MhcParams, float]]


def fit_mhc(target: CoverageCurve, search: Sequence[MhcParams], ch: ChannelParams,
            n_trials: int, seed: int, window: Window | None = None,
            threads: int = 0) -> FitResult:
    """Exhaustive hardcore-parameter fit to a measured coverage curve.

    Simulates every candidate in one simulate_curves call, on the target's
    threshold grid with common random numbers, and minimizes the mean squared
    vertical gap; ties break toward smaller hardcore distance. Candidates run on `window` or, by
    default, on a torus sized to each candidate's retained density.
    """
    candidates = list(search)
    sources = [MhcSource(cand, window if window is not None else default_torus(cand))
               for cand in candidates]
    curves = simulate_curves(sources, ch, target.beta_db, n_trials, seed, threads)
    table = [(cand, float(np.mean((curve.p_c - target.p_c) ** 2)))
             for cand, curve in zip(candidates, curves)]
    best, err = min(table, key=lambda item: (item[1], item[0].d, item[0].lambda_p))
    return FitResult(best, err, table)
