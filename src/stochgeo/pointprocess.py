"""Spatial point processes for base-station deployments.

Samplers for the homogeneous Poisson process, the Matern hardcore process
(type II dependent thinning) and centered square lattices, plus a CSV loader
for fixed deployments. All realizations live inside a rectangular Window
whose edge policy (toroidal wrap or guard band) defines the distance metric
used for thinning and for nearest-station queries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError

EDGE_TOROIDAL = "toroidal"
EDGE_GUARD = "guard"

# Clamp on user-to-station distances; avoids the r**-alpha singularity.
R_MIN_KM = 1e-6

# Cap on the expected point count of one Poisson draw (about 320 MB of
# coordinates at the cap); larger requests are rejected before any draw.
MAX_EXPECTED_POINTS = 1e7


@dataclass(frozen=True)
class Window:
    """Rectangular study region, dimensions in km.

    edge selects how the finite boundary is treated:
      - "toroidal": opposite edges identified; distances wrap (default).
        Preserves stationarity of sampled processes on the finite region.
      - "guard": plain Euclidean distances; `margin` km along each edge are
        treated as a buffer (samplers extend the parent process into it,
        coverage simulations drop users only in the interior).
    """

    width: float
    height: float
    edge: str = EDGE_TOROIDAL
    margin: float = 0.0

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ParameterError("window width and height must be finite and > 0")
        if self.edge not in (EDGE_TOROIDAL, EDGE_GUARD):
            raise ParameterError(f"unknown edge policy {self.edge!r}")
        if not 0 <= self.margin < math.inf:
            raise ParameterError("guard margin must be finite and >= 0")
        if self.edge == EDGE_GUARD and 2 * self.margin >= min(self.width, self.height):
            raise ParameterError("guard margin leaves no interior")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def toroidal(self) -> bool:
        return self.edge == EDGE_TOROIDAL

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside [0, width] x [0, height]."""
        points = np.atleast_2d(points)
        return (
            (points[:, 0] >= 0.0)
            & (points[:, 0] <= self.width)
            & (points[:, 1] >= 0.0)
            & (points[:, 1] <= self.height)
        )

    def distances(self, origin, points: np.ndarray) -> np.ndarray:
        """Distances from `origin` to each row of `points` under the window's
        metric (wrapped for toroidal, Euclidean for guard). `origin` is one
        location for every row, or one row of locations per point."""
        points = np.atleast_2d(points)
        origin = np.asarray(origin, dtype=float)
        dx = np.abs(points[:, 0] - origin[..., 0])
        dy = np.abs(points[:, 1] - origin[..., 1])
        if self.toroidal:
            dx = np.minimum(dx, self.width - dx)
            dy = np.minimum(dy, self.height - dy)
        return np.hypot(dx, dy)

    def min_pair_distance(self, points: np.ndarray) -> float:
        """Smallest pairwise distance under the window metric (inf if < 2 points)."""
        if len(points) < 2:
            return math.inf
        d, _ = self.tree(points).query(points, k=2)
        return float(d[:, 1].min())

    def tree(self, points: np.ndarray) -> cKDTree:
        """k-d tree over `points` under the window metric. On a torus the
        points are wrapped into [0, width) x [0, height) first; the wrap is
        the identity there and maps a point on the far edge to 0."""
        if self.toroidal:
            boxed = np.remainder(points, (self.width, self.height))
            return cKDTree(boxed, boxsize=(self.width, self.height))
        return cKDTree(points)

    def interior_bounds(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) of the region where test locations are
        dropped: the full window when toroidal, the guard-band interior otherwise."""
        if self.toroidal or self.margin == 0.0:
            return 0.0, self.width, 0.0, self.height
        m = self.margin
        return m, self.width - m, m, self.height - m


@dataclass(frozen=True)
class MhcParams:
    """Matern hardcore parameters: parent density lambda_p (km^-2) and
    hardcore distance d (km)."""

    lambda_p: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_p) and self.lambda_p > 0):
            raise ParameterError("lambda_p must be finite and > 0")
        if not (math.isfinite(self.d) and self.d >= 0):
            raise ParameterError("d must be finite and >= 0")


@dataclass(frozen=True)
class PointSet:
    """A realization of station locations inside a window.

    `label` records provenance (process type and parameters, or source file);
    `seed` is the integer that reproduces a sampled realization, None for
    deterministic or file-based sets.
    """

    points: np.ndarray
    window: Window
    label: str
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) and not self.window.contains(pts).all():
            raise ParameterError("points fall outside the window")

    def __len__(self) -> int:
        return len(self.points)


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError("seed must be a non-negative integer")
    return int(seed)


def _rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    # spawn_key makes substreams independent of each other and of the root
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def ppp_points(rng: np.random.Generator, lambda_p: float, xmin: float, xmax: float,
               ymin: float, ymax: float) -> np.ndarray:
    """Homogeneous Poisson realization on a rectangle: Poisson count, uniform
    coordinates. Draw order (count, x block, y block) is part of the
    reproducibility contract."""
    mean = lambda_p * (xmax - xmin) * (ymax - ymin)
    if not mean <= MAX_EXPECTED_POINTS:
        raise ParameterError(f"expected {mean:.3g} points per realization exceeds the cap "
                             f"of {MAX_EXPECTED_POINTS:g}; lower the density or the window")
    n = rng.poisson(mean)
    x = rng.uniform(xmin, xmax, n)
    y = rng.uniform(ymin, ymax, n)
    return np.column_stack([x, y])


def _sample(source, seed: int) -> PointSet:
    """One seeded realization of a random source, as a PointSet."""
    seed = _check_seed(seed)
    return PointSet(source.points_for_trial(_rng_for(seed)), source.window, source.label,
                    seed)


def sample_ppp(lambda_p: float, window: Window, seed: int) -> PointSet:
    """Sample a Poisson point process of density lambda_p on the window."""
    return _sample(PppSource(lambda_p, window), seed)


def _min_mark_thinning(points: np.ndarray, marks: np.ndarray, d: float,
                       tree: cKDTree) -> np.ndarray:
    """Keep-mask for Matern type II: a point survives iff its mark is the
    strict minimum among all parent points within distance d (ties broken by
    index; lower index wins)."""
    keep = np.ones(len(points), dtype=bool)
    if d <= 0 or len(points) < 2:
        return keep
    pairs = tree.query_pairs(d, output_type="ndarray")
    if len(pairs):
        first, second = pairs[:, 0], pairs[:, 1]
        # query_pairs yields i < j, so on equal marks the second index loses
        second_loses = marks[second] >= marks[first]
        keep[second[second_loses]] = False
        keep[first[~second_loses]] = False
    return keep


def mhc_realization(rng: np.random.Generator, params: MhcParams,
                    window: Window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Matern hardcore realization: (parents, marks, keep mask).

    Parents are a PPP(lambda_p) on the window (toroidal) or on the window
    extended by the hardcore distance on every side (guard), so that points
    near the boundary compete against the parents that would exist beyond it.
    """
    d = params.d
    if window.toroidal and d >= min(window.width, window.height) / 2:
        raise ParameterError("hardcore distance d must be < half the window size "
                             "for toroidal thinning")
    ext = 0.0 if window.toroidal else d
    parents = ppp_points(rng, params.lambda_p, -ext, window.width + ext,
                         -ext, window.height + ext)
    marks = rng.random(len(parents))
    return parents, marks, _min_mark_thinning(parents, marks, d, window.tree(parents))


def sample_mhc(params: MhcParams, window: Window, seed: int) -> PointSet:
    """Sample a Matern hardcore (type II) process: dependent thinning of a
    parent PPP where each point carries an independent U[0,1] mark and
    survives only if it holds the lowest mark within distance d.

    Retained points have pairwise distance >= d under the window metric;
    their mean density is lambda_p * (1 - exp(-lambda_p*pi*d^2)) / (lambda_p*pi*d^2).
    """
    return _sample(MhcSource(params, window), seed)


def _grid_shape(n_points: int, window: Window) -> tuple[int, int]:
    """Lattice shape whose point count is closest to the request, preferring
    the aspect ratio implied by an ideal spacing of sqrt(area / n)."""
    spacing = math.sqrt(window.area / n_points)
    nx0 = window.width / spacing
    ny0 = window.height / spacing
    candidates = []
    for nx in {max(1, math.floor(nx0)), max(1, math.ceil(nx0))}:
        for ny in {max(1, math.floor(ny0)), max(1, math.ceil(ny0))}:
            mismatch = abs(math.log((window.width / nx) / (window.height / ny)))
            candidates.append((abs(nx * ny - n_points), mismatch, nx, ny))
    _, _, nx, ny = min(candidates)
    return nx, ny


def generate_grid(n_points: int, window: Window) -> PointSet:
    """Centered square-lattice deployment.

    Points sit at ((i+1/2)*width/nx, (j+1/2)*height/ny): boundary margins are
    half a spacing. When no lattice shape realizes exactly n_points, the
    closest realizable count is produced and reported via a warning.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 1:
        raise ParameterError("n_points must be a positive integer")
    nx, ny = _grid_shape(int(n_points), window)
    realized = nx * ny
    if realized != n_points:
        warnings.warn(f"grid of {n_points} points is not realizable in a "
                      f"{window.width:g}x{window.height:g} window; "
                      f"using {nx}x{ny} = {realized} points", stacklevel=2)
    sx = window.width / nx
    sy = window.height / ny
    xs = (np.arange(nx) + 0.5) * sx
    ys = (np.arange(ny) + 0.5) * sy
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return PointSet(pts, window, f"grid(n={realized})", None)


def _parse_affine_comment(line: str) -> dict | None:
    """Parse '# offset_x=<v> offset_y=<v> scale=<v>' headers; None if the
    comment carries no affine tokens."""
    body = line.lstrip("#").strip()
    out = {}
    for token in body.split():
        if "=" not in token:
            continue
        key, _, value = token.partition("=")
        if key in ("offset_x", "offset_y", "scale"):
            try:
                out[key] = float(value)
            except ValueError:
                raise DataError(f"bad affine value in header comment: {token!r}")
    return out or None


def load_deployment(path, window: Window) -> PointSet:
    """Load fixed station coordinates from a CSV with header `x_km,y_km`.

    A leading comment line `# offset_x=<v> offset_y=<v> scale=<v>` declares an
    affine applied before windowing as (x + offset) * scale. Points landing
    outside the window are dropped, with the count reported via a warning.
    """
    affine = {"offset_x": 0.0, "offset_y": 0.0, "scale": 1.0}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parsed = _parse_affine_comment(line)
                if parsed and not header_seen:
                    affine.update(parsed)
                continue
            if not header_seen:
                cols = [c.strip() for c in line.split(",")]
                if cols[:2] != ["x_km", "y_km"]:
                    raise DataError(f"line {lineno}: expected header 'x_km,y_km', "
                                    f"got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"line {lineno}: expected two comma-separated values")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise DataError(f"line {lineno}: could not parse coordinates {line!r}")
    if not rows:
        raise DataError(f"{path}: no coordinate rows found")
    pts = np.asarray(rows, dtype=float)
    pts[:, 0] = (pts[:, 0] + affine["offset_x"]) * affine["scale"]
    pts[:, 1] = (pts[:, 1] + affine["offset_y"]) * affine["scale"]
    inside = window.contains(pts)
    n_rejected = int((~inside).sum())
    if n_rejected:
        warnings.warn(f"{n_rejected} rejected (outside the "
                      f"{window.width:g}x{window.height:g} window)", stacklevel=2)
    pts = pts[inside]
    if not len(pts):
        raise DataError(f"{path}: no points inside the window")
    return PointSet(pts, window, f"file({path})", None)


# ---------------------------------------------------------------------------
# Deployment sources: what a coverage simulation draws its stations from.

@dataclass(frozen=True)
class PppSource:
    """Fresh PPP realization per trial."""

    lambda_p: float
    window: Window

    def __post_init__(self):
        if not (math.isfinite(self.lambda_p) and self.lambda_p > 0):
            raise ParameterError("lambda_p must be finite and > 0")

    @property
    def label(self) -> str:
        return f"ppp(lambda_p={self.lambda_p:g})"

    @property
    def mean_density(self) -> float:
        return self.lambda_p

    def points_for_trial(self, rng: np.random.Generator) -> np.ndarray:
        return ppp_points(rng, self.lambda_p, 0.0, self.window.width,
                          0.0, self.window.height)


@dataclass(frozen=True)
class MhcSource:
    """Fresh Matern hardcore realization per trial."""

    params: MhcParams
    window: Window

    @property
    def label(self) -> str:
        return f"mhc(lambda_p={self.params.lambda_p:g},d={self.params.d:g})"

    @property
    def mean_density(self) -> float:
        from .analytics import mhc_density  # local import avoids a cycle
        return mhc_density(self.params)

    def points_for_trial(self, rng: np.random.Generator) -> np.ndarray:
        parents, _, keep = mhc_realization(rng, self.params, self.window)
        retained = parents[keep]
        if not self.window.toroidal and len(retained):
            retained = retained[self.window.contains(retained)]
        return retained


@dataclass(frozen=True)
class FixedSource:
    """Same station locations every trial (grid or loaded deployment)."""

    point_set: PointSet

    @property
    def label(self) -> str:
        return self.point_set.label

    @property
    def window(self) -> Window:
        return self.point_set.window

    @property
    def mean_density(self) -> float:
        return len(self.point_set) / self.point_set.window.area

    def points_for_trial(self, rng: np.random.Generator) -> np.ndarray:
        return self.point_set.points
