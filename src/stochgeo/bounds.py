"""Analytical lower bounds on Matern hardcore coverage, by quadrature.

Both bounds share the same structure: an outer integral of the empty-space
density times a noise factor times exp(-(near + far)), where near/far are
reduced Campbell integrals of a per-interferer kernel against the hardcore
pair density. They differ only in the kernel:

  theorem1:      log(1 + x)        (Jensen route)
  proposition1:  x / (1 + x)       (PGFL-inequality route, the tighter one)

with x = beta * (r^2 / R_x^2)^(alpha/2) and R_x the user-to-interferer
distance. Beyond 2d the pair density is flat (lambda_m^2), so the far term is
lambda_m times the Poisson integral over {R_x >= r}, which has a closed form
(Andrews-Baccelli-Ganti), minus the same integral over the compact part
{R_x >= r, upsilon < 2d}. The near shell and that compact part are evaluated
with composite trapezoidal rules on polar grids around the serving station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import hyp2f1

from .analytics import (
    SecondOrderDensity,
    _realizations,
    default_torus,
    empty_space_pdf,
    mhc_density,
)
from .coverage import ChannelParams, CoverageCurve, beta_db_to_linear
from .errors import DataError, ParameterError
from .pointprocess import MhcParams, Window, _check_seed

# Floor applied to squared user-to-interferer distances (degenerate collinear
# geometry); activations are counted and reported.
R2_EPS = 1e-12


class BoundKind(str, Enum):
    THEOREM1 = "theorem1"
    PROPOSITION1 = "proposition1"


@dataclass(frozen=True)
class QuadConfig:
    """Grid resolutions for the bound integrals.

    n_r points for the serving distance (clustered near 0), n_theta for the
    interferer angle, n_upsilon per angle on each upsilon grid (the near
    shell and the compact part of the far term). r_max of None truncates the
    serving-distance integral where the empty-space CDF mass left behind is
    ~1e-11.
    """

    n_r: int = 128
    n_theta: int = 256
    n_upsilon: int = 256
    r_max: float | None = None

    def __post_init__(self):
        for name in ("n_r", "n_theta", "n_upsilon"):
            if getattr(self, name) < 16:
                raise ParameterError(f"{name} must be >= 16")
        if self.r_max is not None and not self.r_max > 0:
            raise ParameterError("r_max must be > 0")

    def scaled(self, factor: float) -> "QuadConfig":
        """Copy with all grid counts multiplied by `factor`."""
        return replace(self, n_r=int(round(self.n_r * factor)),
                       n_theta=int(round(self.n_theta * factor)),
                       n_upsilon=int(round(self.n_upsilon * factor)))


def _pow_alpha_half(base: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 4.0:
        return base * base
    return base ** (alpha / 2.0)


def _geometry(r: float, upsilon: np.ndarray, cos_angle: np.ndarray,
              alpha: float) -> tuple[np.ndarray, int]:
    """(r^2/R_x^2)^(alpha/2) for interferers at (upsilon, angle) from the
    serving station, with R_x^2 floored at R2_EPS, and the count of floored
    entries."""
    R2 = upsilon * upsilon + r * r - 2.0 * r * upsilon * cos_angle
    n_clamped = int(np.count_nonzero(R2 < R2_EPS))
    return _pow_alpha_half(r * r / np.maximum(R2, R2_EPS), alpha), n_clamped


def interference_kernel(kind: BoundKind, r: float, upsilon, angle, beta_linear: float,
                        alpha: float):
    """Per-interferer kernel at serving distance r, interferer polar
    coordinates (upsilon, angle) relative to the serving station, where
    `angle` is measured from the user's direction.

    Returns log(1+x) for theorem1 and x/(1+x) for proposition1, with
    x = beta * (r/R_x)^alpha; the ratio kernel never exceeds the log kernel.
    """
    kind = BoundKind(kind)
    if beta_linear < 0:
        raise ParameterError("beta_linear must be >= 0")
    geom, _ = _geometry(r, np.asarray(upsilon, dtype=float),
                        np.cos(np.asarray(angle, dtype=float)), alpha)
    out = _kernel_from_geometry(kind, geom, beta_linear)
    return float(out) if out.ndim == 0 else out


class ExponentResult(NamedTuple):
    near: float
    far: float
    upsilon_max: float
    tail_estimate: float
    n_clamped: int


def _kernel_from_geometry(kind: BoundKind, geom: np.ndarray, beta_linear: float) -> np.ndarray:
    x = beta_linear * geom
    if kind is BoundKind.THEOREM1:
        return np.log1p(x)
    return x / (1.0 + x)


def _outside_disk_integral(kind: BoundKind, r: float, beta_lin, alpha: float):
    """Integral of the kernel over {R_x >= r} at unit density, in closed form.

    Ratio kernel: pi r^2 * 2 beta/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -beta);
    log kernel, by parts in t = R_x^2/r^2: (alpha/2) * ratio - pi r^2 log(1+beta).
    """
    beta = np.asarray(beta_lin, dtype=float)
    delta = 2.0 / alpha
    ratio = (math.pi * r * r * 2.0 * beta / (alpha - 2.0)
             * hyp2f1(1.0, 1.0 - delta, 2.0 - delta, -beta))
    if kind is BoundKind.PROPOSITION1:
        return ratio
    return 0.5 * alpha * ratio - math.pi * r * r * np.log1p(beta)


class _ExponentGrids:
    """Reusable geometry for the interference exponents at one (r, phi).

    The kernel factorizes as K(beta * geom) with geom = (r^2/R_x^2)^(alpha/2)
    independent of beta, so the expensive trigonometric grids are built once
    and swept over every threshold.
    """

    def __init__(self, r: float, phi: float, ch: ChannelParams, params: MhcParams,
                 quad: QuadConfig):
        if not r > 0:
            raise ParameterError("r must be > 0")
        if not ch.alpha > 2:
            raise ParameterError("alpha must be > 2 (far integral diverges)")
        self.r = r
        self.alpha = ch.alpha
        self.lam_m = mhc_density(params)
        self.n_clamped = 0

        d = params.d
        theta = np.linspace(0.0, 2.0 * math.pi, quad.n_theta + 1)
        self.theta = theta
        psi = theta - phi
        # interferers must be farther from the user than the serving station;
        # in these polar coordinates that excludes upsilon < 2 r cos(psi) on
        # the user-facing half-plane only
        cutoff = np.maximum(2.0 * r * np.cos(psi), 0.0)
        self.cos_psi = np.cos(psi)
        s = np.linspace(0.0, 1.0, quad.n_upsilon)

        def segment(lo):  # upsilon grid from lo(theta) out to 2d
            return lo[:, None] + (2.0 * d - lo)[:, None] * s[None, :]

        # near segment: partial pair correlation between d and 2d
        self.near = None
        if d > 0:
            ups = segment(np.minimum(np.maximum(d, cutoff), 2.0 * d))
            rho2 = SecondOrderDensity(params)(ups.ravel()).reshape(ups.shape)
            self.near = (ups, self._geom(ups), rho2 * ups / self.lam_m)

        # compact part {R_x >= r, upsilon < 2d} of the closed-form far integral
        ups = segment(np.minimum(cutoff, 2.0 * d))
        self.compact = (ups, self._geom(ups), ups)

    def _geom(self, ups: np.ndarray) -> np.ndarray:
        geom, n_clamped = _geometry(self.r, ups, self.cos_psi[:, None], self.alpha)
        self.n_clamped += n_clamped
        return geom

    def _sweep(self, kind: BoundKind, beta_lin: np.ndarray, grid) -> np.ndarray:
        """Trapezoid integral of kernel * weight over one polar grid, per beta."""
        ups, geom, weight = grid
        out = np.zeros(beta_lin.shape)
        for i, b in enumerate(beta_lin):
            if b == 0.0:
                continue
            inner = np.trapezoid(_kernel_from_geometry(kind, geom, b) * weight, x=ups, axis=1)
            out[i] = np.trapezoid(inner, x=self.theta)
        return out

    def evaluate(self, kind: BoundKind, beta_lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(near, far) arrays over beta_lin."""
        kind = BoundKind(kind)
        beta_lin = np.asarray(beta_lin, dtype=float)
        near = (np.zeros(beta_lin.shape) if self.near is None
                else self._sweep(kind, beta_lin, self.near))
        far = self.lam_m * (_outside_disk_integral(kind, self.r, beta_lin, self.alpha)
                            - self._sweep(kind, beta_lin, self.compact))
        return near, far


def interference_exponent(kind: BoundKind, r: float, phi: float, beta_linear: float,
                          ch: ChannelParams, params: MhcParams,
                          quad: QuadConfig | None = None) -> ExponentResult:
    """Near/far interference exponents at serving distance r and user angle phi.

    near: integral over the partial-correlation shell [max(d, cutoff),
    max(2d, cutoff)]; far: integral over upsilon >= max(2d, cutoff), taken as
    lambda_m times the closed form over {R_x >= r} minus the trapezoid
    integral over [min(cutoff, 2d), 2d]. cutoff = 2 r cos(theta - phi) where
    positive (the no-closer-interferer region), so the shell can be empty.

    upsilon_max is 2d, the outer edge of both grids, and tail_estimate is 0.0
    since nothing is truncated; both stay because perfbench/probes.py reads
    them.
    """
    quad = quad or QuadConfig()
    if beta_linear < 0:
        raise ParameterError("beta_linear must be >= 0")
    grids = _ExponentGrids(r, phi, ch, params, quad)
    near, far = grids.evaluate(kind, np.asarray([beta_linear]))
    return ExponentResult(float(near[0]), float(far[0]), 2.0 * params.d, 0.0,
                          grids.n_clamped)


def coverage_bound(kind: BoundKind, ch: ChannelParams, params: MhcParams,
                   beta_db: Sequence[float], quad: QuadConfig | None = None,
                   label: str | None = None) -> CoverageCurve:
    """Lower bound on Matern hardcore coverage over a threshold grid.

    Integrates empty_space_pdf(r) * exp(-gamma*beta*sigma2*r^alpha) *
    exp(-(near+far)) over r on [0, r_max] with a grid clustered near 0. The
    integrand depends on the user angle only through theta - phi, so the
    angular average is taken once at phi = 0.
    """
    kind = BoundKind(kind)
    quad = quad or QuadConfig()
    beta_db = np.asarray(list(beta_db), dtype=float)
    if beta_db.size == 0:
        raise ParameterError("beta_db grid must be nonempty")
    beta_lin = beta_db_to_linear(beta_db)
    lam_m = mhc_density(params)
    r_max = quad.r_max if quad.r_max is not None else 5.0 / math.sqrt(math.pi * lam_m)

    k = np.arange(quad.n_r)
    r_grid = r_max * (k / (quad.n_r - 1)) ** 2

    mu = np.zeros((beta_lin.size, quad.n_r))
    for j, r in enumerate(r_grid):
        if r == 0.0:
            continue  # zero weight: empty_space_pdf(0) = 0
        grids = _ExponentGrids(float(r), 0.0, ch, params, quad)
        near, far = grids.evaluate(kind, beta_lin)
        mu[:, j] = near + far

    weight = empty_space_pdf(r_grid, lam_m)
    noise = np.exp(-ch.gamma * beta_lin[:, None] * ch.sigma2 * r_grid[None, :] ** ch.alpha)
    integrand = weight[None, :] * noise * np.exp(-mu)
    values = np.trapezoid(integrand, x=r_grid, axis=1)
    return CoverageCurve(beta_db, np.clip(values, 0.0, 1.0), None, label or kind.value)


class PgflCheck(NamedTuple):
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float


def pgfl_bound_check(params: MhcParams, ch: ChannelParams, beta_linear: float,
                     r: float, n_realizations: int, seed: int,
                     window: Window | None = None) -> PgflCheck:
    """Empirical check of the PGFL-style inequality behind the tighter bound.

    Estimates lhs = E[prod over interferers of (1 - K_x)] and
    rhs = exp(-E[sum of K_x]) under the hardcore process seen from one of its
    own points, with the ratio kernel K_x = x/(1+x), x = beta*(r/R_x)^alpha,
    and the user at distance r from that point. The typical point is a
    uniformly random retained point of each realization (exact Palm sampling
    on a torus); the process equals a Poisson one in the d -> 0 limit, where
    lhs and rhs agree in expectation.
    """
    if n_realizations < 100:
        raise ParameterError("n_realizations must be >= 100")
    if beta_linear < 0:
        raise ParameterError("beta_linear must be >= 0")
    if not r > 0:
        raise ParameterError("r must be > 0")
    seed = _check_seed(seed)
    if window is None:
        window = default_torus(params, extent=r)
    if not window.toroidal:
        raise ParameterError("Palm sampling requires a toroidal window")

    prods = np.empty(n_realizations)
    sums = np.empty(n_realizations)
    alpha = ch.alpha
    for i, (rng, pts) in enumerate(_realizations(params, window, n_realizations, seed)):
        if len(pts) == 0:
            raise DataError("empty realization; enlarge the window or density")
        idx = int(rng.integers(len(pts)))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        user = np.remainder(pts[idx] + r * np.array([math.cos(angle), math.sin(angle)]),
                            (window.width, window.height))
        dist = window.distances(user, pts)
        dist = np.delete(dist, idx)
        x = beta_linear * (r / np.maximum(dist, 1e-9)) ** alpha
        kernel = x / (1.0 + x)
        prods[i] = np.prod(1.0 - kernel)
        sums[i] = kernel.sum()

    lhs = float(prods.mean())
    lhs_se = float(prods.std(ddof=1) / math.sqrt(n_realizations))
    mean_sum = float(sums.mean())
    sum_se = float(sums.std(ddof=1) / math.sqrt(n_realizations))
    rhs = math.exp(-mean_sum)
    return PgflCheck(lhs, rhs, lhs_se, rhs * sum_se)
