"""Spatial point processes for base-station deployments.

Samplers for the homogeneous Poisson process, the Matern hardcore process
(type II dependent thinning) and centered square lattices; fixed deployments
are read from CSV by io.load_deployment. All realizations live inside a
rectangular Window whose edge policy (toroidal wrap or guard band) defines
the distance metric used for thinning and for nearest-station queries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

EDGE_TOROIDAL = "toroidal"
EDGE_GUARD = "guard"

# Clamp on user-to-station distances; avoids the r**-alpha singularity.
R_MIN_KM = 1e-6

# Cap on the expected point count of one Poisson draw (about 320 MB of
# coordinates at the cap); larger requests are rejected before any draw.
MAX_EXPECTED_POINTS = 1e7

# Cap on trial and realization counts: every stream index then fits one 32-bit
# SeedSequence word, the only spawn key _stream_states derives.
MAX_TRIALS = 2 ** 32

# Streams derived per vectorised pass of _stream_states; bounds its memory.
STREAM_BLOCK = 4096

# numpy's SeedSequence hash constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        if not self.width * self.height > 0:
            raise ParameterError("window is too small: its area underflows to 0")
        if not self.width * self.width + self.height * self.height < math.inf:
            raise ParameterError("window is too large: its squared diagonal overflows")
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

    def _fold(self, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """In place: |dx|, |dy|, minimum-image on a torus. The one wrap rule."""
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        if self.toroidal:
            np.minimum(dx, self.width - dx, out=dx)
            np.minimum(dy, self.height - dy, out=dy)
        return dx, dy

    def distances(self, origin, points: np.ndarray) -> np.ndarray:
        """Distances from `origin` to each row of `points` under the window's
        metric (wrapped for toroidal, Euclidean for guard). `origin` is one
        location for every row, or one row of locations per point."""
        points = np.atleast_2d(points)
        origin = np.asarray(origin, dtype=float)
        return np.hypot(*self._fold(points[:, 0] - origin[..., 0], points[:, 1] - origin[..., 1]))

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


def _check_count(n: int, minimum: int, name: str) -> int:
    """A trial or realization count, checked to lie in [minimum, MAX_TRIALS]."""
    if n < minimum:
        raise ParameterError(f"{name} must be >= {minimum}")
    if n > MAX_TRIALS:
        raise ParameterError(f"{name} must be <= {MAX_TRIALS} (2**32)")
    return n


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constants init * mult**k mod 2**32 for k in
    [first, first + count], as a uint32 column."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32)
                     for k in range(first, first + count + 1)], dtype=np.uint32)[:, None]


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of row k of uint32 `words` under consts[k], advancing
    to consts[k + 1]. Arrays, not scalars, so products wrap modulo 2**32
    without overflow warnings."""
    value = (words ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _stream_states(seed: int, lo: int, hi: int):
    """Yield, for each stream i in [lo, hi) of `seed`, the four uint64 words
    PCG64 seeds from: numpy's SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(4, np.uint64). The spawn key makes the streams independent
    of each other and of the root.

    SeedSequence mixes the seed's w 32-bit words (padded to the pool size)
    into its pool before the spawn key, so numpy's own SeedSequence(seed).pool
    is every stream's pool up to that point, after 4 max(w, 4) hashes. Only
    the rest is done here, on uint32 arrays over up to STREAM_BLOCK streams at
    once: each pool word mixes in the hashed index word (one word, since
    hi <= MAX_TRIALS), and eight output words are hashed from the pool.
    """
    if not 0 <= lo <= hi <= MAX_TRIALS:
        raise ParameterError(f"stream range [{lo}, {hi}) is outside [0, {MAX_TRIALS}]")
    seed = int(seed)
    pool = np.random.SeedSequence(seed).pool[:, None]
    n_words = (max(seed.bit_length(), 1) + 31) // 32
    mix_consts = _hash_constants(_INIT_A, _MULT_A, 4 * max(n_words, _POOL_SIZE), _POOL_SIZE)
    out_consts = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)
    for start in range(lo, hi, STREAM_BLOCK):
        index = np.arange(start, min(start + STREAM_BLOCK, hi)).astype(np.uint32)
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hash(index, mix_consts)
        mixed ^= mixed >> 16
        # generate_state(4, np.uint64): eight words cycled from the pool, paired
        # little-endian into four uint64
        state = _hash(np.tile(mixed, (2, 1)), out_consts)
        yield from np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _StreamSeed(ISeedSequence):
    """One stream's precomputed PCG64 seed words, behind numpy's seed-sequence
    interface."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a stream seed holds exactly four uint64 words")
        return self.words


def _rng_from_state(words: np.ndarray) -> np.random.Generator:
    """The generator of a stream whose words _stream_states derived: the same
    stream, draw for draw, as numpy's default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,)))."""
    return np.random.Generator(np.random.PCG64(_StreamSeed(words)))


def ppp_points(rng: np.random.Generator, lambda_p: float, xmin: float, xmax: float,
               ymin: float, ymax: float) -> np.ndarray:
    """Homogeneous Poisson realization on a rectangle: Poisson count, uniform
    coordinates. Draw order (count, x block, y block) is part of the
    reproducibility contract; both blocks are one rng.random(2n) call, scaled
    in place as low + span * u like Generator.uniform, returned transposed."""
    mean = lambda_p * (xmax - xmin) * (ymax - ymin)
    if not mean <= MAX_EXPECTED_POINTS:
        raise ParameterError(f"expected {mean:.3g} points per realization exceeds the cap "
                             f"of {MAX_EXPECTED_POINTS:g}; lower the density or the window")
    xy = rng.random(2 * rng.poisson(mean)).reshape(2, -1)
    xy *= [[xmax - xmin], [ymax - ymin]]
    xy += [[xmin], [ymin]]
    return xy.T


def _realizations(source, n: int, seed: int):
    """The seeded realization loop: for each stream i in [0, n) of `seed`, the
    stream's generator after the source's draw, so callers keep drawing from
    it, and source.points_for_trial of that generator."""
    for words in _stream_states(seed, 0, n):
        rng = _rng_from_state(words)
        yield rng, source.points_for_trial(rng)


def _sample(source, seed: int) -> PointSet:
    """One seeded realization of a random source, as a PointSet: the first
    draw of _realizations."""
    seed = _check_seed(seed)
    _, points = next(_realizations(source, 1, seed))
    return PointSet(points, source.window, source.label, seed)


def sample_ppp(lambda_p: float, window: Window, seed: int) -> PointSet:
    """Sample a Poisson point process of density lambda_p on the window."""
    return _sample(PppSource(lambda_p, window), seed)


def _close_pairs(points: np.ndarray, r: float,
                 window: Window) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every unordered pair of rows of `points` at most r apart under the
    window metric, once each: (i, j, squared distance).

    A fixed-radius cell list. Cells are at least r wide, so a close pair lies
    in one cell or in two neighbouring ones; each point is tested against the
    later points of its own cell and every point of the half stencil (0, +1),
    (+1, -1), (+1, 0), (+1, +1). The grid has a border of cells around it, so
    a neighbour is always the cell id plus a constant. On a torus (points in
    [0, width] x [0, height], r below half the side) the cells tile the
    window, the border cells take the start and end of the cells they wrap
    to, an axis with fewer than three cells is one cell, and differences are
    minimum-image. Otherwise the cells cover the points' bounding box and the
    border cells are empty. Cells are widened, if need be, to at most 8 per
    point, so a tiny r costs no more than a table the size of the points.
    """
    n = len(points)
    if n < 2:
        none = np.empty(0, dtype=np.intp)
        return none, none, np.empty(0)
    x, y = points[:, 0], points[:, 1]
    torus = window.toroidal
    if torus:
        x0 = y0 = 0.0
        span_x, span_y = window.width, window.height
    else:
        x0, y0 = x.min(), y.min()
        span_x, span_y = x.max() - x0, y.max() - y0
    # 1e-9 wider than r, so a pair exactly r apart stays in neighbouring cells
    # however its cell indices round
    side = max(r * (1.0 + 1e-9), math.sqrt(span_x * span_y / (8 * n)),
               max(span_x, span_y) / (8 * n))
    nx, ny = int(span_x / side), int(span_y / side)
    if torus:
        nx, ny = (k if k >= 3 else 1 for k in (nx, ny))
    else:
        nx, ny = max(nx, 1), max(ny, 1)
    stride = nx + 1
    cx = ((x - x0) * (nx / span_x if nx > 1 else 0.0)).astype(np.intp)
    cy = ((y - y0) * (ny / span_y if ny > 1 else 0.0)).astype(np.intp)
    np.minimum(cx, nx - 1, out=cx)  # a point on the far edge joins the last cell
    np.minimum(cy, ny - 1, out=cy)
    cell = (cy + 1) * stride + cx  # row 0, row ny + 1 and column nx are the border
    order = np.argsort(cell)
    cell = cell[order]
    counts = np.bincount(cell, minlength=(ny + 2) * stride)
    ends = np.cumsum(counts)
    starts = ends - counts
    if torus:
        for table in (starts, ends):
            grid = table.reshape(ny + 2, stride)
            grid[1:-1, -1] = grid[1:-1, 0]
            grid[0] = grid[-2]
            grid[-1] = grid[1]

    # one candidate range [lo, lo + length) of sorted positions per stencil
    # cell and point; the own cell's starts after the point
    steps = [0] + [dy * stride + dx for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1))
                   if (nx > 1 or dx == 0) and (ny > 1 or dy == 0)]
    nbr = cell + np.array(steps)[:, None]
    lo = starts[nbr]
    lo[0] = np.arange(1, n + 1)
    length = ends[nbr]
    length -= lo
    ranges = np.nonzero(length.ravel() > 0)[0]
    length = length.ravel()[ranges]
    # the k-th candidate overall is position lo + (k - candidates before its range)
    before = np.cumsum(length) - length
    i = np.repeat(ranges % n, length)
    j = np.repeat(lo.ravel()[ranges] - before, length)
    j += np.arange(len(j))

    xs, ys = x[order], y[order]
    dx = xs[i]
    dx -= xs[j]
    dy = ys[i]
    dy -= ys[j]
    window._fold(dx, dy)
    dx *= dx
    dy *= dy
    dx += dy
    close = np.nonzero(dx <= r * r)[0]
    return order[i[close]], order[j[close]], dx[close]


def _min_mark_thinning(points: np.ndarray, marks: np.ndarray, d: float,
                       window: Window) -> np.ndarray:
    """Keep-mask for Matern type II: a point survives iff its mark is the
    strict minimum among all parent points within distance d under the window
    metric (ties broken by index; lower index wins)."""
    keep = np.ones(len(points), dtype=bool)
    if d > 0:
        i, j, _ = _close_pairs(points, d, window)
        first, second = np.minimum(i, j), np.maximum(i, j)
        keep[np.where(marks[second] >= marks[first], second, first)] = False
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
    return parents, marks, _min_mark_thinning(parents, marks, d, window)


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
    if spacing == 0:
        raise ParameterError(f"the spacing of {n_points} grid points underflows to 0")
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
