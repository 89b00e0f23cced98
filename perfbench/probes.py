"""Layer probes: the same small set of traced calls in every traced run.

Every per-layer metric must be reported on every workload, including those
whose pass never calls that layer, so the per-layer numbers come from this
fixed probe set (inputs from the run's input seed) rather than from the
workload's own pass. The workload's own traced pass still gives its
per-layer self times, its pool starts and the tracing overhead.

Which end-to-end figure each probe should move:
  pointprocess.*_us, pointprocess counts -> trial_us.mhc / trial_us.ppp on
      sim-models, candidate_s on fit-pool, realization_us.* on validate-mhc
  coverage.rng_setup_us, coverage.score_us.* -> trial_us.grid, trial_us.ppp
  coverage.parallel_eff -> candidate_s on fit-pool
  bounds.*, analytics.rho2_grid_ms -> threshold_s.* on bound-curve
  analytics.count_neighbors_us -> realization_us.rho2 on validate-mhc
  io.*, cli.parse_ms -> wall_s and setup_s on fit-pool
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.spatial import cKDTree

from stochgeo import analytics, bounds, cli, coverage, io, pointprocess

import workloads as wl
from tracing import median

PROBE_TRIALS = 200  # traced trials per sim-models source
POOL_TRIALS = 2000  # smallest trial count that uses the pool
EXPONENT_R = (0.1, 0.25, 0.5)
EXPONENT_BETA_DB = (10.0, 20.0)
RHO2_REPS = 20
RHO2_REALIZATIONS = 20
IO_REPS = 20
PARSE_REPS = 50

# Metrics derived from what the library returns, by a formula or by the
# benchmark's own count on the returned points, not counted or timed at a
# call boundary; the run output labels them as computed.
COMPUTED = {"bounds.far_panels", "bounds.kernel_evals", "bounds.kernel_ns_per_eval",
            "pointprocess.pairs_per_real"}


def _timed_reps(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def probe_coverage(tracer, seed: int, metrics: dict, checks: list) -> None:
    """simulate_coverage, in process and traced, on the sim-models sources.

    The traced call is the library's own trial loop: the tracer wraps its
    per-trial helpers, and the counts below are read from their returns.
    An empty deployment makes the library raise; it is counted and the call
    recorded as a failed check.
    """
    st = wl.setup_sim_models(seed, None)
    realizations: list[tuple[np.ndarray, int, float, pointprocess.Window]] = []
    totals = {"stations": 0, "clamped": 0, "empty": 0}

    def keep_parents(out, args, kwargs):
        parents, _, keep = out
        params, window = args[1], args[2]
        realizations.append((parents, int(keep.sum()), params.d, window))

    def count_stations(out, args, kwargs):
        totals["stations"] += len(out)
        totals["empty"] += len(out) == 0

    def count_clamped(out, args, kwargs):
        totals["clamped"] += bool(out[1])

    hooks = {"pointprocess.mhc_realization": keep_parents,
             "coverage._eval_trial_sinr": count_clamped}
    hooks.update({f"pointprocess.{cls}.points_for_trial": count_stations
                  for cls in ("PppSource", "MhcSource", "FixedSource")})
    tracer.hooks.update(hooks)
    for key, source in st["sources"].items():
        try:
            coverage.simulate_coverage(source, wl.CH, wl.SIM_BETA_DB, PROBE_TRIALS, seed,
                                       threads=1)
        except Exception as exc:
            checks.append((f"probe.simulate.{key}", False, f"{type(exc).__name__}: {exc}"))
        metrics[f"coverage.score_us.{key}"] = (
            median(tracer.durations_us("coverage._eval_trial_sinr")[-PROBE_TRIALS:]), "us")
    for name in hooks:
        del tracer.hooks[name]

    metrics["coverage.rng_setup_us"] = (median(tracer.durations_us("coverage._trial_rng")), "us")
    metrics["coverage.stations_per_trial"] = (totals["stations"] / (3 * PROBE_TRIALS), "count")
    metrics["coverage.clamped_trials"] = (totals["clamped"], "count")
    metrics["coverage.empty_trials"] = (totals["empty"], "count")

    metrics["pointprocess.ppp_points_us"] = (
        median(tracer.durations_us("pointprocess.ppp_points", "pointprocess.PppSource.points_for_trial")),
        "us")
    mhc_draw = "pointprocess.MhcSource.points_for_trial"
    metrics["pointprocess.mhc_realization_us"] = (
        median(tracer.durations_us("pointprocess.mhc_realization", mhc_draw)), "us")
    # self time of mhc_realization = its time minus its own parent draw (ppp_points)
    metrics["pointprocess.thinning_us"] = (
        median(tracer.self_us_of("pointprocess.mhc_realization", mhc_draw)), "us")

    parents = sum(len(p) for p, _, _, _ in realizations)
    retained = sum(r for _, r, _, _ in realizations)
    pairs = 0
    for pts, _, d, window in realizations:
        tree = cKDTree(pts, boxsize=(window.width, window.height))
        pairs += len(tree.query_pairs(d, output_type="ndarray"))
    n = max(len(realizations), 1)
    metrics["pointprocess.parents_per_real"] = (parents / n, "count")
    metrics["pointprocess.retained_per_real"] = (retained / n, "count")
    metrics["pointprocess.retention_ratio"] = (retained / max(parents, 1), "ratio")
    metrics["pointprocess.pairs_per_real"] = (pairs / n, "count")


def probe_pool(seed: int, metrics: dict, checks: list) -> None:
    """One fit candidate in process and on a two-worker pool."""
    params = pointprocess.MhcParams(2.0, 0.4)
    source = pointprocess.MhcSource(params, analytics.default_torus(params))
    timings, counts = {}, {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        curve = coverage.simulate_coverage(source, wl.CH, wl.SIM_BETA_DB, POOL_TRIALS, seed,
                                           threads=threads)
        timings[threads] = time.perf_counter() - t0
        counts[threads] = wl.counts_of(curve, POOL_TRIALS)
    checks.append(("probe.pool_counts", counts[1] == counts[2],
                   "pooled and in-process counts agree"))
    metrics["coverage.parallel_eff"] = (timings[1] / (2.0 * timings[2]), "ratio")


def probe_bounds(tracer, metrics: dict) -> None:
    """interference_exponent at stated (r, beta) nodes for both kinds, (3, 0.5)."""
    params = pointprocess.MhcParams(3.0, 0.5)
    quad = bounds.QuadConfig()
    lam_m = analytics.mhc_density(params)
    panels = clamped = evals = 0
    tail_rel = 0.0
    calls = 0
    for kind in ("theorem1", "proposition1"):
        for r in EXPONENT_R:
            for beta_db in EXPONENT_BETA_DB:
                beta = float(coverage.beta_db_to_linear(beta_db))
                res = bounds.interference_exponent(kind, r, 0.0, beta, wl.CH, params, quad)
                calls += 1
                # the far integral starts at twice the widest inner edge plus
                # two mean spacings and doubles per panel up to upsilon_max
                far_start = 2.0 * max(2.0 * params.d, 2.0 * r) + 2.0 / math.sqrt(lam_m)
                n_panels = 1 + max(0, round(math.log2(res.upsilon_max / far_start)))
                panels += n_panels
                clamped += res.n_clamped
                evals += (quad.n_theta + 1) * quad.n_upsilon * n_panels
                if res.far > 0:
                    tail_rel = max(tail_rel, res.tail_estimate / res.far)
    times_us = tracer.durations_us("bounds.interference_exponent")
    metrics["bounds.exponent_ms"] = (median(times_us) / 1e3, "ms")
    # self time: geometry set-up, near integral and far panels, without the
    # traced near-shell pair density and other traced calls inside
    own_us = tracer.self_us_of("bounds.interference_exponent")
    metrics["bounds.far_panels"] = (panels / calls, "count")
    metrics["bounds.n_clamped"] = (clamped, "count")
    metrics["bounds.tail_rel"] = (tail_rel, "ratio")
    metrics["bounds.kernel_evals"] = (evals, "count")
    metrics["bounds.kernel_ns_per_eval"] = (sum(own_us) * 1e3 / evals, "ns")


def probe_analytics(tracer, seed: int, metrics: dict) -> None:
    params = pointprocess.MhcParams(3.0, 0.5)
    quad = bounds.QuadConfig()
    # the near-shell grid of the bound exponent: one serving-distance node
    s = np.linspace(0.0, 1.0, quad.n_upsilon)
    lo = np.full(quad.n_theta + 1, params.d)
    ups = lo[:, None] + (2.0 * params.d - lo)[:, None] * s[None, :]
    reps = _timed_reps(lambda: analytics.second_order_density(ups.ravel(), params), RHO2_REPS)
    metrics["analytics.rho2_grid_ms"] = (median(reps) * 1e3, "ms")

    rho2 = pointprocess.MhcParams(1.0, 0.5)
    analytics.pair_density_empirical(rho2, np.linspace(0.5, 1.0, 12)[1:-1],
                                     RHO2_REALIZATIONS, seed)
    # pair_density_empirical's own time per realization: tree build, neighbour
    # counts and binning, without the mhc_realization child spans
    own = tracer.self_us_of("analytics.pair_density_empirical")
    metrics["analytics.count_neighbors_us"] = (own[-1] / RHO2_REALIZATIONS, "us")


def probe_io_cli(workdir, seed: int, metrics: dict) -> None:
    st = wl.setup_sim_models(seed, None)
    curves = [coverage.simulate_coverage(src, wl.CH, wl.SIM_BETA_DB, 50, seed, threads=1)
              for src in st["sources"].values()]
    path = workdir / "probe_curves.csv"
    config = {"scenario": "simulate", "beta_db": "-10:1:20", "trials": "50",
              "seed": str(seed), "alpha": "4.0", "sigma2": "0.1"}
    reps = _timed_reps(lambda: io.write_curves_csv(path, curves, config), IO_REPS)
    metrics["io.write_curves_ms"] = (median(reps) * 1e3, "ms")
    reps = _timed_reps(lambda: io.read_config(path), IO_REPS)
    metrics["io.read_config_ms"] = (median(reps) * 1e3, "ms")
    argv = wl.setup_fit_pool(seed, workdir)["argv"]
    reps = _timed_reps(lambda: cli.build_parser().parse_args(argv), PARSE_REPS)
    metrics["cli.parse_ms"] = (median(reps) * 1e3, "ms")


def run_probes(tracer, seed: int, workdir, checks: list) -> dict:
    """All layer probes under `tracer` (installed and enabled by the caller)."""
    metrics: dict = {}
    probe_coverage(tracer, seed, metrics, checks)
    probe_bounds(tracer, metrics)
    probe_analytics(tracer, seed, metrics)
    tracer.enabled = False
    probe_pool(seed, metrics, checks)
    probe_io_cli(workdir, seed, metrics)
    tracer.enabled = True
    return metrics
