"""Analytical lower bounds on Matern hardcore coverage, by quadrature.

Both bounds share the same structure: an outer integral of the empty-space
density times a noise factor times exp(-(near + far)), where near/far are
reduced Campbell integrals of a per-interferer kernel against the hardcore
pair density. They differ only in the kernel:

  theorem1:      log(1 + x)        (Jensen route)
  proposition1:  x / (1 + x)       (PGFL-inequality route, the tighter one)

with x = beta * (r/R)^alpha and R the user-to-interferer distance. The
kernel depends on R alone; there is no station-centred form of it. Both
integrals run over {R >= r} in polar coordinates (R, psi) around the user,
psi measured from the direction of the serving station. Only the pair density
sees the station: an interferer at (R, psi) lies upsilon = sqrt(R^2 + r^2 -
2 R r cos psi) from it, the density varies where d <= upsilon < 2d (the near
shell) and is flat (lambda_m^2) beyond 2d. So the far term is lambda_m times
the Poisson integral over {R >= r}, which has a closed form in one 2F1
(Andrews-Baccelli-Ganti; summed from its Pfaff and 1/z series, A&S 15.3.5 and
15.3.7, within 1e-14 relative), minus the same integral over the compact part
{R >= r, upsilon < 2d}. Integrating psi out leaves one radial weight per part
and serving distance, and each threshold costs two dot products over R.

The near weight is an integral over psi of rho2, taken at every radial node
by an n_theta-node Gauss-Legendre rule on [psi_d, psi_2d], where the
integrand is smooth. The 16 default nodes sit within 1.3e-9 relative of the
curves at 512 nodes; the R and r trapezoids hold the larger errors, about
6e-5 and 4e-5.

rho2 depends on upsilon alone, so it is tabulated at RHO2_TABLE_INTERVALS + 1
nodes equally spaced in upsilon^2 over [d^2, 4d^2] and read linearly in
upsilon^2 by index, with no search. A bound curve takes every serving
distance in one pass, and every kind of bound shares that pass's weights.
The measured interpolation error is at most 2.2e-7 lambda_m^2 (at
(lambda_p, d) = (10, 0.5), next to the square-root edge of rho2 at 2d; the
tests hold it below 1e-6 lambda_m^2) and moves the bound curves by less than
1e-8 relative.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .analytics import default_torus, empty_space_pdf, mhc_density, second_order_density
from .coverage import ChannelParams, CoverageCurve, beta_db_to_linear, threshold_grid
from .errors import DataError, ParameterError
from .pointprocess import R_MIN_KM, MhcParams, MhcSource, _check_count, _check_seed, _realizations

# Intervals of the pair-density table over the band d^2 <= upsilon^2 <= 4d^2.
RHO2_TABLE_INTERVALS = 2048
# Most angular nodes: the Gauss-Legendre rule solves a dense n x n eigenproblem.
MAX_N_THETA = 2048
# Terms of each _hyp2f1 series; every term is at most 2/3 of the one before.
HYP2F1_TERMS = 96


class BoundKind(str, Enum):
    THEOREM1 = "theorem1"
    PROPOSITION1 = "proposition1"


@dataclass(frozen=True)
class QuadConfig:
    """Grid resolutions for the bound integrals.

    n_r points for the serving distance (clustered near 0), n_upsilon
    log-spaced radial nodes for the user-to-interferer distance R on
    [max(r, d - r), r + 2d], and n_theta Gauss-Legendre angular nodes per
    radial node across the near shell (at most MAX_N_THETA).
    """

    n_r: int = 128
    n_theta: int = 16
    n_upsilon: int = 256

    def __post_init__(self):
        for name in ("n_r", "n_theta", "n_upsilon"):
            if getattr(self, name) < 16:
                raise ParameterError(f"{name} must be >= 16")
        if self.n_theta > MAX_N_THETA:
            raise ParameterError(f"n_theta must be <= {MAX_N_THETA}")


class ExponentResult(NamedTuple):
    near: float
    far: float
    upsilon_max: float
    tail_estimate: float
    n_clamped: int


def _kernel_from_geometry(kind: BoundKind, geom: np.ndarray, beta_linear) -> np.ndarray:
    """Per-interferer kernel at geom = (r/R)^alpha: log(1+x) for theorem1 and
    x/(1+x) for proposition1, with x = beta * geom; the ratio kernel never
    exceeds the log kernel. At x = inf each kernel takes its limit (inf, 1)."""
    x = beta_linear * geom
    if kind is BoundKind.THEOREM1:
        return np.log1p(x)
    return np.divide(x, 1.0 + x, out=np.ones_like(x), where=x < math.inf)


def _hyp2f1(eps: float, beta: np.ndarray) -> np.ndarray:
    """2F1(1, b; b+1; -beta) for b = 1 - eps in (0, 1) and beta >= 0: the Pfaff
    series (1+beta)^-1 sum_k k!/(b+1)_k w^k, w = beta/(1+beta), up to beta = 2, and
    beyond it the 1/z form b pi/sin(pi b) beta^-b - b sum_k (-1)^k beta^(-k-1)/(k+1-b),
    whose first and k = 0 terms, each ~1/eps, are summed as
    b/(eps beta) expm1(eps ln beta + ln(pi eps/sin(pi b)))."""
    b, k = 1.0 - eps, np.arange(HYP2F1_TERMS, dtype=float)
    out, low = np.empty_like(beta), beta <= 2.0
    w, s = beta[low] / (1.0 + beta[low]), 1.0
    for q in (k[1:] / (k[1:] + b))[::-1]:  # Horner: term k / term k-1 = q w
        s = 1.0 + q * w * s
    out[low] = s / (1.0 + beta[low])
    x, s = beta[~low], 0.0
    for c in (1.0 / (k + eps))[:0:-1]:  # Horner in -1/x over the terms k >= 1
        s = c - s / x
    # Viete: ln(pi m/sin(pi m)) = -sum_j ln cos(pi m/2^j), to the last bits as m -> 0
    m = min(eps, b)  # sin(pi b) = sin(pi m)
    viete = np.log1p(-2.0 * np.sin(math.pi * m / 2.0 ** np.arange(2, 34)) ** 2)
    log_ratio = math.log(eps / m) - viete.sum()
    out[~low] = b / x * (np.expm1(eps * np.log(x) + log_ratio) / eps + s / x)
    return out


def _outside_disk_integral(kind: BoundKind, r: float, beta_lin, alpha: float):
    """Integral of the kernel over {R_x >= r} at unit density, in closed form.

    Ratio kernel: pi r^2 * 2 beta/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -beta);
    log kernel, by parts in t = R_x^2/r^2: (alpha/2) * ratio - pi r^2 log(1+beta).
    2F1 by _hyp2f1's Pfaff and 1/z series, within 1e-14 relative at alpha 2.0000001-1e12.
    """
    beta = np.asarray(beta_lin, dtype=float)
    ratio = math.pi * r * r * 2.0 * beta / (alpha - 2.0) * _hyp2f1(2.0 / alpha, beta)
    if kind is BoundKind.PROPOSITION1:
        return ratio
    return 0.5 * alpha * ratio - math.pi * r * r * np.log1p(beta)


def _pair_density_table(params: MhcParams) -> tuple[np.ndarray, np.ndarray]:
    """(rho2, its forward differences) at RHO2_TABLE_INTERVALS + 1 nodes equally
    spaced in upsilon^2 over the band [d^2, 4d^2], for _read_pair_density."""
    d = params.d
    ups2 = np.linspace(d * d, 4.0 * d * d, RHO2_TABLE_INTERVALS + 1)
    # the band edges are d and 2d; clipping keeps rounding off the zero
    # branch of rho2 below d
    rho2 = second_order_density(np.clip(np.sqrt(ups2), d, 2.0 * d), params)
    return rho2, np.diff(rho2)


def _read_pair_density(table: tuple, d: float, ups2: np.ndarray, index: np.ndarray):
    """Overwrite ups2 = upsilon^2 with rho2 read linearly in upsilon^2 from the
    table, and index (intp, of its shape) with each node's table interval. Like
    np.interp it holds the end values outside the band, whose width 3d^2 must be
    a normal float: clipped before it is scaled, the position stays in [0, n]."""
    (rho2, steps), n = table, RHO2_TABLE_INTERVALS
    np.minimum(np.maximum(ups2, d * d, out=ups2), 4.0 * d * d, out=ups2)
    ups2 -= d * d
    ups2 /= 3.0 * d * d / n
    # truncation is the floor of a position >= 0; at n the last interval holds it
    np.minimum(ups2, n - 1, out=index, casting="unsafe")
    ups2 -= index
    ups2 *= steps[index]
    ups2 += rho2[index]


@functools.cache
def _angular_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule as read-only (t, w), built once per n:
    nodes t = (x + 1)/2 in (0, 1) and weights w on [-1, 1].
    numpy.polynomial is imported here, not with the module, so that sampling
    and simulation never load it."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    t = (x + 1.0) / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _exponents(kinds: Sequence[BoundKind], r: np.ndarray, beta_lin: np.ndarray,
               ch: ChannelParams, params: MhcParams, quad: QuadConfig) -> Iterator[tuple]:
    """Yields each kind's (near, far) interference exponents, each of shape
    (len(beta_lin), len(r)), at the positive serving distances r over the
    thresholds beta_lin (1-D arrays).

    In polar coordinates (R, psi) around the user the kernel is
    K(beta * geom) with geom = (r/R)^alpha, so psi integrates out into one
    weight per part, shared by every threshold and kind. psi_s(R) is the half-angle
    within which interferers at distance R from the user lie closer than s to
    the serving station.

      near weight:    2R * int_{psi_d}^{psi_2d} rho2(upsilon) / lambda_m dpsi
      compact weight: 2R * psi_2d(R)

    Both live on R in [r0, r + 2d] with r0 = max(r, d - r): closer than d - r
    every interferer lies within d of the station, where the near weight is
    zero and the compact part cancels the closed form exactly.
    """
    lam_m = mhc_density(params)
    d = params.d
    r0 = np.maximum(r, d - r)
    R = np.geomspace(r0, r + 2.0 * d, quad.n_upsilon, axis=1)
    r = r[:, None]

    def psi(s):
        return np.arccos(np.clip((R * R + r * r - s * s) / (2.0 * R * r), -1.0, 1.0))

    psi_d, psi_2d = psi(d), psi(2.0 * d)
    # both weights carry the R trapezoid's weights
    trap = (np.diff(R, axis=1, prepend=R[:, :1]) + np.diff(R, axis=1, append=R[:, -1:])) / 2.0
    compact_weight = 2.0 * R * psi_2d * trap
    span = psi_2d - psi_d
    # rho2 at upsilon^2 = R^2 + r^2 - 2 R r cos(psi) of every angular node, summed in
    # place; a band of zero or subnormal width 3d^2 has span 0 and takes no nodes
    table = _pair_density_table(params)
    scale, shift = (-2.0 * r) * R, R * R + r * r
    near_weight, ups2, index = np.zeros_like(R), np.empty_like(R), np.empty(R.shape, np.intp)
    rule = _angular_rule(quad.n_theta) if 3.0 * d * d >= sys.float_info.min else ((), ())
    for t, w in zip(*rule):
        np.multiply(span, t, out=ups2)
        ups2 += psi_d
        np.cos(ups2, out=ups2)
        ups2 *= scale
        ups2 += shift
        _read_pair_density(table, d, ups2, index)
        ups2 *= w
        near_weight += ups2
    # Gauss-Legendre in psi: 2R times span/2 times the weighted sum
    near_weight *= R * span * trap
    near_weight /= lam_m
    del psi_d, psi_2d, span, scale, shift, ups2, index, trap  # freed before the kernel pass
    geom = ((r / R) ** 2) ** (ch.alpha / 2.0)

    for kind in kinds:
        near, compact = np.empty((2, beta_lin.size, r.size))
        for i, beta in enumerate(beta_lin):
            kernel = _kernel_from_geometry(kind, geom, beta)
            near[i] = np.vecdot(kernel, near_weight)
            compact[i] = np.vecdot(kernel, compact_weight)
        # K(beta (r/R)^alpha) = K(beta geom[:, 0] (r0/R)^alpha): the closed form at r0
        outside = _outside_disk_integral(kind, r0, np.multiply.outer(beta_lin, geom[:, 0]),
                                         ch.alpha)
        yield near, lam_m * (outside - compact)


def interference_exponent(kind: BoundKind, r: float, phi: float, beta_linear: float,
                          ch: ChannelParams, params: MhcParams,
                          quad: QuadConfig | None = None) -> ExponentResult:
    """Near/far interference exponents at serving distance r.

    near: integral over the pair-correlation shell d <= upsilon < 2d;
    far: integral over upsilon >= 2d, taken as lambda_m times the closed form
    over {R >= r0} minus a trapezoid over its compact part upsilon < 2d. Both
    exclude interferers closer to the user than the serving station (R < r).

    phi, the user angle, is unused: the integral is invariant under rotation.
    n_clamped is always 0 (R >= r0 > 0 on the grid), upsilon_max is 2d and
    tail_estimate is 0.0 since nothing is truncated; the fields stay because
    perfbench/probes.py reads them.
    """
    quad = quad or QuadConfig()
    outer = r + 2.0 * params.d
    if not (r > 0 and math.isfinite(outer * outer + r * r)):
        raise ParameterError("r must be > 0 with (r + 2d)^2 + r^2 finite")
    if not 0 <= beta_linear < math.inf:
        raise ParameterError("beta_linear must be finite and >= 0")
    [(near, far)] = _exponents([BoundKind(kind)], np.array([r], float),
                               np.array([beta_linear]), ch, params, quad)
    return ExponentResult(float(near[0, 0]), float(far[0, 0]), 2.0 * params.d, 0.0, 0)


def coverage_bound(kind: BoundKind, ch: ChannelParams, params: MhcParams,
                   beta_db: Sequence[float], quad: QuadConfig | None = None) -> CoverageCurve:
    """coverage_bounds for one kind: its lower bound on Matern hardcore coverage."""
    return coverage_bounds([kind], ch, params, beta_db, quad)[0]


# a noise or interference exponent past the floats is inf: exp(-inf) = 0 is its limit
@np.errstate(over="ignore")
def coverage_bounds(kinds: Sequence[BoundKind], ch: ChannelParams, params: MhcParams,
                    beta_db: Sequence[float],
                    quad: QuadConfig | None = None) -> list[CoverageCurve]:
    """Lower bounds of each kind over a threshold grid, from one set of weights.

    Integrates empty_space_pdf(r) * exp(-gamma*beta*sigma2*r^alpha) *
    exp(-(near+far)) over r on [0, r_max] with a grid clustered near 0;
    r_max = 5/sqrt(pi lambda_m) leaves empty-space CDF mass ~1e-11 behind.
    """
    kinds = [BoundKind(kind) for kind in kinds]
    quad = quad or QuadConfig()
    beta_db = threshold_grid(beta_db)
    beta_lin = beta_db_to_linear(beta_db)
    lam_m = mhc_density(params)
    r_max = 5.0 / math.sqrt(math.pi * lam_m)
    # r_max^alpha (noise) and (r_max + 2d)^2 + r_max^2 (exponents) are finite when
    # (r_max + 2d)^(alpha + 1) is; in logs, as a float ** overflows with an error
    if not (ch.alpha + 1.0) * math.log(r_max + 2.0 * params.d) < math.log(sys.float_info.max):
        raise ParameterError(f"retained density {lam_m:g} is too small or alpha {ch.alpha:g} "
                             f"too large: serving distances up to {r_max:g} km overflow the bound")
    # the noise exponent's factor before r^alpha must be a float, or r = 0 gives 0 * inf
    if not ch.gamma * float(beta_lin[-1]) * ch.sigma2 < math.inf:
        raise ParameterError(f"the noise scale beta * sigma2 / p_t at {beta_db[-1]:g} dB is "
                             "not a finite float: raise p_t or lower sigma2")

    r_grid = r_max * (np.arange(quad.n_r) / (quad.n_r - 1)) ** 2

    weight = empty_space_pdf(r_grid, lam_m)
    noise = np.exp(-ch.gamma * beta_lin[:, None] * ch.sigma2 * r_grid[None, :] ** ch.alpha)
    curves = []
    for kind, exponents in zip(kinds, _exponents(kinds, r_grid[1:], beta_lin, ch, params, quad)):
        # r_grid[0] = 0 keeps exponent 0: empty_space_pdf(0) = 0
        mu = np.zeros((beta_lin.size, quad.n_r))
        mu[:, 1:] = np.add(*exponents)
        values = np.trapezoid(weight[None, :] * noise * np.exp(-mu), x=r_grid, axis=1)
        curves.append(CoverageCurve(beta_db, np.clip(values, 0.0, 1.0), None, kind.value))
    return curves


class PgflCheck(NamedTuple):
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float


@np.errstate(over="ignore")  # see the kernel's geometry below
def pgfl_bound_check(params: MhcParams, ch: ChannelParams, beta_linear: float,
                     r: float, n_realizations: int, seed: int) -> PgflCheck:
    """Empirical check of the PGFL-style inequality behind the tighter bound.

    Estimates lhs = E[prod over interferers of (1 - K_x)] and
    rhs = exp(-E[sum of K_x]) under the hardcore process seen from one of its
    own points, with the ratio kernel K_x = x/(1+x), x = beta*(r/R_x)^alpha,
    and the user at distance r from that point. The typical point is a
    uniformly random retained point of each realization (exact Palm sampling
    on the torus sized for r); the process equals a Poisson one in the
    d -> 0 limit, where lhs and rhs agree in expectation.
    """
    _check_count(n_realizations, 100, "n_realizations")
    if not 0 <= beta_linear < math.inf:
        raise ParameterError("beta_linear must be finite and >= 0")
    if not r > 0:
        raise ParameterError("r must be > 0")
    seed = _check_seed(seed)
    window = default_torus(params, extent=r)

    prods = np.empty(n_realizations)
    sums = np.empty(n_realizations)
    for i, (rng, pts) in enumerate(_realizations(MhcSource(params, window), n_realizations, seed)):
        if len(pts) == 0:
            raise DataError("empty realization; raise lambda_p")
        idx = int(rng.integers(len(pts)))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        user = np.remainder(pts[idx] + r * np.array([math.cos(angle), math.sin(angle)]),
                            (window.width, window.height))
        dist = window.distances(user, pts)
        dist = np.delete(dist, idx)
        # (r/R)^alpha past the floats is held at the largest float: no finite value
        # moves, beta = 0 still gives x = 0, and x = inf only where the kernel is 1
        geom = np.minimum((r / np.maximum(dist, R_MIN_KM)) ** ch.alpha, sys.float_info.max)
        kernel = _kernel_from_geometry(BoundKind.PROPOSITION1, geom, beta_linear)
        prods[i] = np.prod(1.0 - kernel)
        sums[i] = kernel.sum()

    lhs = float(prods.mean())
    lhs_se = float(prods.std(ddof=1) / math.sqrt(n_realizations))
    mean_sum = float(sums.mean())
    sum_se = float(sums.std(ddof=1) / math.sqrt(n_realizations))
    rhs = math.exp(-mean_sum)
    return PgflCheck(lhs, rhs, lhs_se, rhs * sum_se)
