"""Closed-form Matern hardcore quantities and their empirical validators.

Retention probability, retained density, the two-disc union area, the
second-order product density, and the exponential approximation of the
empty-space (nearest-station distance) distribution. All lengths in km,
densities in km^-2; no unit conversions happen here.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .pointprocess import (
    MhcParams,
    MhcSource,
    Window,
    _check_count,
    _check_seed,
    _close_pairs,
    _realizations,
)

# Minimum side of a study window, in mean station spacings: below it the
# interference truncated by the window is no longer negligible.
MIN_WINDOW_SPACINGS = 20.0

# Below t = lambda_p pi d^2 = RHO2_SERIES_T a series in t replaces the closed
# form of rho2, which loses a share of about eps / t to cancellation.
RHO2_SERIES_T = 1e-3


def retention_probability(params: MhcParams) -> float:
    """Chance that a parent point survives min-mark thinning:
    (1 - exp(-lambda_p*pi*d^2)) / (lambda_p*pi*d^2), continuous limit 1 at d=0."""
    t = params.lambda_p * math.pi * params.d * params.d
    if t == 0.0:
        return 1.0
    return -math.expm1(-t) / t


def mhc_density(params: MhcParams) -> float:
    """Retained density lambda_m = p * lambda_p; saturates below 1/(pi d^2)."""
    lam_m = retention_probability(params) * params.lambda_p
    if not lam_m > 0:
        raise ParameterError("retained density underflows to 0; lower lambda_p or d")
    return lam_m


def disc_union_area(upsilon, d: float):
    """Area of the union of two radius-d discs with centers `upsilon` apart.

    2*pi*d^2 - 2*d^2*arccos(u/(2d)) + u*sqrt(d^2 - u^2/4) for u <= 2d,
    constant 2*pi*d^2 beyond. Vectorized over `upsilon`.
    """
    if d < 0:
        raise ParameterError("d must be >= 0")
    u = np.asarray(upsilon, dtype=float)
    if np.any(u < 0):
        raise ParameterError("upsilon must be >= 0")
    if d == 0:
        return np.zeros_like(u) if u.ndim else 0.0
    full = 2 * math.pi * d * d
    uc = np.minimum(u, 2 * d)
    out = full - 2 * d * d * np.arccos(uc / (2 * d)) + uc * np.sqrt(d * d - uc * uc / 4)
    out = np.where(u >= 2 * d, full, out)
    return out if u.ndim else float(out)


def second_order_density(upsilon, params: MhcParams):
    """Second-order product density rho2(upsilon) of the Matern hardcore
    process, for ordered point pairs at separation `upsilon`: 0 below d,
    lambda_m^2 at and beyond 2d, and the pair-retention expression in between.
    Continuous at 2d. Vectorized over `upsilon`.
    """
    u = np.asarray(upsilon, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    d = params.d
    if not params.lambda_p * params.lambda_p < math.inf:
        raise ParameterError("lambda_p is too large: lambda_p^2 overflows")
    lam_m = mhc_density(params)
    out = np.full(u.shape, lam_m * lam_m)
    if d > 0:
        out[u < d] = 0.0
        mid = (u >= d) & (u < 2 * d)
        t = params.lambda_p * math.pi * d * d
        if mid.any() and t < RHO2_SERIES_T:
            # rho2 / lambda_p^2 = 2 sum_{k>=2} (-t)^(k-2) (1 + v + ... + v^(k-2)) / k!
            # with v = V / (pi d^2) in [1.6, 2]: no d^2 and no cancellation
            v = disc_union_area(u[mid] / d, 1.0) / math.pi
            out[mid] = params.lambda_p ** 2 * sum(
                2.0 * (-t) ** (k - 2) / math.factorial(k) * (v ** (k - 1) - 1.0) / (v - 1.0)
                for k in range(2, 9))
        elif mid.any():
            # lengths in units of s = d (rho2 scales as s^-4) where d^6 leaves the floats
            s = 1.0 if 1e-50 < d < 1e50 else d
            V = disc_union_area(u[mid] / s, d / s)
            pidd = math.pi * (d / s) * (d / s)
            num = 2 * V * (-math.expm1(-t)) - 2 * pidd * (-np.expm1(-params.lambda_p * s * s * V))
            out[mid] = num / (pidd * V * (V - pidd)) / (s * s) / (s * s)
    return float(out[0]) if scalar else out


def empty_space_pdf(r, lambda_m: float):
    """Approximate density of the distance from a uniform location to the
    nearest retained station: 2*pi*lambda_m*r*exp(-pi*lambda_m*r^2)."""
    if not lambda_m > 0:
        raise ParameterError("lambda_m must be > 0")
    r = np.asarray(r, dtype=float)
    out = 2 * math.pi * lambda_m * r * np.exp(-math.pi * lambda_m * r * r)
    return float(out) if out.ndim == 0 else out


def empty_space_cdf(r, lambda_m: float):
    """Companion CDF: 1 - exp(-pi*lambda_m*r^2)."""
    if not lambda_m > 0:
        raise ParameterError("lambda_m must be > 0")
    r = np.asarray(r, dtype=float)
    out = -np.expm1(-math.pi * lambda_m * r * r)
    return float(out) if out.ndim == 0 else out


class VoidEstimate(NamedTuple):
    probability: float
    std_error: float


def default_torus(params: MhcParams, extent: float = 0.0) -> Window:
    """Square toroidal window sized for stable hardcore statistics: at least
    MIN_WINDOW_SPACINGS mean spacings wide and comfortably larger than d and
    any probe radius."""
    side = max(MIN_WINDOW_SPACINGS / math.sqrt(mhc_density(params)), 8.0 * params.d,
               4.0 * extent, 1.0)
    return Window(side, side)


def void_probability_empirical(params: MhcParams, r: float, n_realizations: int,
                               seed: int) -> VoidEstimate:
    """Monte Carlo estimate of P[no retained point within distance r of a
    uniform test location], one test location per realization: the share of
    nearest_distance_samples beyond r, on the torus sized for r."""
    if not r > 0:
        raise ParameterError("r must be > 0")
    _check_count(n_realizations, 1, "n_realizations")
    if n_realizations < 30:
        warnings.warn(f"void probability from only {n_realizations} realizations; "
                      "standard error is unreliable", stacklevel=2)
    samples = nearest_distance_samples(params, n_realizations, seed, extent=r)
    p = np.count_nonzero(samples > r) / n_realizations
    se = math.sqrt(p * (1.0 - p) / n_realizations)
    return VoidEstimate(p, se)


def nearest_distance_samples(params: MhcParams, n_realizations: int, seed: int,
                             extent: float = 0.0) -> np.ndarray:
    """Distance from one uniform test location to the nearest retained point,
    sampled across independent realizations on the torus sized for `extent`."""
    _check_count(n_realizations, 1, "n_realizations")
    seed = _check_seed(seed)
    window = default_torus(params, extent)
    out = np.empty(n_realizations)
    for i, (rng, pts) in enumerate(_realizations(MhcSource(params, window), n_realizations, seed)):
        loc = rng.uniform(0.0, 1.0, 2) * (window.width, window.height)
        out[i] = window.distances(loc, pts).min() if len(pts) else math.inf
    return out


class KsResult(NamedTuple):
    statistic: float
    n_samples: int


def empty_space_ks(params: MhcParams, n_realizations: int, seed: int) -> KsResult:
    """Kolmogorov-Smirnov distance between sampled nearest-point distances
    and the exponential-form CDF 1 - exp(-pi*lambda_m*r^2). The CDF is an
    approximation whose quality degrades as d grows, so this reports rather
    than judges."""
    samples = np.sort(nearest_distance_samples(params, n_realizations, seed))
    lam_m = mhc_density(params)
    cdf = empty_space_cdf(samples, lam_m)
    n = len(samples)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return KsResult(float(max(hi.max(), lo.max())), n)


class PairDensityEstimate(NamedTuple):
    upsilon: np.ndarray
    density: np.ndarray
    std_err: np.ndarray


def pair_density_empirical(params: MhcParams, upsilons, n_realizations: int,
                           seed: int) -> PairDensityEstimate:
    """Empirical second-order product density at the given separations.

    Counts ordered point pairs falling in [u-h, u+h], h = 0.02 d (0.02 min(u)
    when d = 0), per realization on the torus sized for max(u) and normalizes
    by area * 2*pi*u * 2h; the standard error is the spread of the counts
    across realizations, normalized after (squared densities can underflow).
    """
    _check_count(n_realizations, 2, "n_realizations")
    seed = _check_seed(seed)
    ups = np.sort(np.asarray(upsilons, dtype=float))
    if np.any(ups <= 0):
        raise ParameterError("upsilons must be > 0")
    window = default_torus(params, extent=float(ups.max()))
    h = 0.02 * params.d if params.d > 0 else 0.02 * float(ups.min())
    # the bin areas grow with u: the last one, as a Python float, overflows without a warning
    if not window.area * 2.0 * math.pi * float(ups[-1]) * 2.0 * h < math.inf:
        raise ParameterError("d or upsilon is too large: the bin area overflows")
    norm = window.area * 2.0 * math.pi * ups * 2.0 * h
    if not np.all(norm > 0):
        raise ParameterError("d or upsilon is too small: the bin area underflows to 0")
    edges = np.concatenate([ups - h, ups + h])
    # minimum-image counts need reach < side/2, and they get it: the side is
    # at least max(4 max(u), 8d) and reach at most max(u) + 0.02 max(d, min(u))
    reach = float(np.abs(edges).max())
    # a pair is in a bin when lower edge^2 < distance^2 <= upper edge^2
    edges2 = edges * edges
    counts = np.empty((n_realizations, len(ups)))  # ordered pairs per realization and bin
    for i, (_, pts) in enumerate(_realizations(MhcSource(params, window), n_realizations, seed)):
        d2 = np.sort(_close_pairs(pts, reach, window)[2])
        cum = np.searchsorted(d2, edges2, side="right")
        counts[i] = 2 * (cum[len(ups):] - cum[:len(ups)])
    density = (counts / norm).mean(axis=0)
    se = counts.std(axis=0, ddof=1) / norm / math.sqrt(n_realizations)
    return PairDensityEstimate(ups, density, se)
