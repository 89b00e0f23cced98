"""Command-line interface.

Subcommands: sample, simulate, bound, validate, fit. Outputs are data-only
CSVs with the full experiment config embedded as `# key=value` comment
lines, so any output file can be rerun bit-identically via --config.

Exit codes: 0 success (for validate: all checks passed), 1 runtime/data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analytics, bounds, coverage, io, pointprocess
from .errors import DataError, ParameterError

DEFAULT_BETA_DB = "-10:1:30"
DEFAULT_TRIALS = 10000
DEFAULT_REALIZATIONS = {"empty-space": 2000, "rho2": 500, "void": 2000, "pgfl-bound": 1000}
# guard-band margin for fixed deployments, as a fraction of the short side
GUARD_FRACTION = 0.2
# most points a grid spec may expand to
MAX_GRID_POINTS = 100_000


def parse_window(spec: str) -> tuple[float, float]:
    try:
        w, _, h = spec.lower().partition("x")
        return float(w), float(h)
    except ValueError:
        raise ParameterError(f"window must look like '20x20', got {spec!r}")


def parse_grid_spec(spec: str) -> np.ndarray:
    """Threshold/parameter grids: 'start:step:stop' (inclusive, at most
    MAX_GRID_POINTS points) or a comma list of values, all finite."""
    spec = spec.strip()
    ranged = ":" in spec
    parts = spec.split(":") if ranged else [p for p in spec.split(",") if p.strip()]
    if ranged and len(parts) != 3:
        raise ParameterError(f"grid spec must be start:step:stop, got {spec!r}")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        raise ParameterError(f"could not parse grid spec {spec!r}")
    if values.size == 0:
        raise ParameterError("grid spec is empty")
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"grid spec values must be finite, got {spec!r}")
    if not ranged:
        return values
    start, step, stop = values.tolist()
    if step <= 0 or stop < start:
        raise ParameterError(f"bad grid spec {spec!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ParameterError(f"grid spec {spec!r} has more points than the cap "
                             f"of {MAX_GRID_POINTS}")
    return start + step * np.arange(math.floor(span) + 1)


def default_seed(args_seed) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("STOCHGEO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"STOCHGEO_SEED must be an integer, got {env!r}")
    return 0


def _pick(flag_value, config: dict, key: str, fallback, cast):
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ParameterError(f"bad {key} value {config[key]!r} in --config")
    return fallback


def _window(spec, edge=None, margin=None, default_edge="toroidal", default_side=None,
            kind=None) -> pointprocess.Window:
    """The window of every command: WxH from `spec` (or a square of
    `default_side`), `edge` or the command's default, and on a guard edge
    `margin` or, by default, GUARD_FRACTION of the short side in total."""
    if spec is not None:
        w, h = parse_window(spec)
    elif default_side is not None:
        w = h = default_side
    else:
        raise ParameterError(f"--window is required for source {kind}")
    edge = edge or default_edge
    if edge == "guard" and margin is None:
        margin = GUARD_FRACTION * min(w, h) / 2.0
    return pointprocess.Window(w, h, edge=edge, margin=margin or 0.0)


def _emit(out, text: str) -> None:
    """Write command output to the -o path, or the same bytes to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args) -> int:
    config = io.read_config(args.config) if args.config else {}
    seed = default_seed(_pick(args.seed, config, "seed", None, int))
    kind = args.process or config.get("source")
    if kind not in ("ppp", "mhc", "grid"):
        raise ParameterError("sample needs a process: ppp, mhc or grid")

    spec = _pick(args.window, config, "window", None, str)
    win = _window(spec, _pick(args.edge, config, "edge", None, str),
                  _pick(args.margin, config, "margin", None, float), kind=kind)
    cfg = io.ExperimentConfig(scenario="sample", source=kind, window=spec,
                              edge=win.edge, margin=win.margin or None)
    if kind == "grid":
        n = _pick(args.n, config, "n_points", None, int)
        if n is None:
            raise ParameterError("--n is required for grid")
        ps = pointprocess.generate_grid(n, win)
        cfg.n_points = len(ps)
    else:
        cfg.lambda_p = _pick(args.lambda_p, config, "lambda_p", None, float)
        if cfg.lambda_p is None:
            raise ParameterError("--lambda-p is required")
        if kind == "mhc":
            cfg.d = _pick(args.d, config, "d", None, float)
            if cfg.d is None:
                raise ParameterError("--d is required for mhc")
            params = pointprocess.MhcParams(cfg.lambda_p, cfg.d)
            ps = pointprocess.sample_mhc(params, win, seed)
        else:
            ps = pointprocess.sample_ppp(cfg.lambda_p, win, seed)
    cfg.seed = ps.seed
    _emit(args.out, io.points_csv_text(ps, cfg.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# simulate

# the parameters each source kind needs, and where a bare source finds each:
# inline key -> (argument attribute, flag, config key, cast)
_SOURCE_NEEDS = {"ppp": ("lambda_p",), "mhc": ("lambda_p", "d"), "grid": ("n",),
                 "file": ("path",)}
_SOURCE_FLAGS = {"lambda_p": ("lambda_p", "--lambda-p", "lambda_p", float),
                 "d": ("d", "--d", "d", float),
                 "n": ("n", "--n", "n_points", int),
                 "path": ("file", "--file", "file", str)}
_INLINE_CASTS = {"lambda_p": float, "d": float, "margin": float, "n": int,
                 "path": str.strip, "window": str.strip, "edge": str.strip}


def _parse_source_spec(spec: str, args, config) -> dict:
    """A source is 'ppp|mhc|grid|file', optionally with inline parameters:
    'mhc:lambda_p=2,d=0.4[,window=18x18][,edge=toroidal][,margin=1]'.
    Bare sources take their parameters from the flags."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _SOURCE_NEEDS:
        raise ParameterError(f"unknown source kind {kind!r}")
    params: dict = {"kind": kind}
    if rest:
        for token in rest.split(","):
            key, _, value = token.partition("=")
            key = key.strip()
            if key not in _INLINE_CASTS:
                raise ParameterError(f"unknown source parameter {key!r} in {spec!r}")
            try:
                params[key] = _INLINE_CASTS[key](value)
            except ValueError:
                raise ParameterError(f"bad value {value!r} for {key} in {spec!r}")
        missing = [key for key in _SOURCE_NEEDS[kind] if key not in params]
        if missing:
            raise ParameterError(f"source {spec!r} needs {', '.join(missing)}")
    else:
        for key in _SOURCE_NEEDS[kind]:
            attr, flag, config_key, cast = _SOURCE_FLAGS[key]
            params[key] = _pick(getattr(args, attr), config, config_key, None, cast)
            if params[key] is None:
                raise ParameterError(f"{flag} is required for source {kind}")
    return params


def _build_source(params: dict, args, config):
    kind = params["kind"]
    spec = params.get("window") or _pick(args.window, config, "window", None, str)
    edge = params.get("edge") or _pick(args.edge, config, "edge", None, str)
    margin = params.get("margin", _pick(args.margin, config, "margin", None, float))
    if kind == "ppp":
        lam = params["lambda_p"]
        # MHC with d = 0 is the PPP
        side = analytics.default_torus(pointprocess.MhcParams(lam, 0.0)).width
        win = _window(spec, edge, margin, default_side=side, kind=kind)
        return pointprocess.PppSource(lam, win)
    if kind == "mhc":
        mp = pointprocess.MhcParams(params["lambda_p"], params["d"])
        win = _window(spec, edge, margin, default_side=analytics.default_torus(mp).width,
                      kind=kind)
        return pointprocess.MhcSource(mp, win)
    win = _window(spec, edge, margin, default_edge="guard", kind=kind)
    if kind == "grid":
        return pointprocess.FixedSource(pointprocess.generate_grid(params["n"], win))
    return pointprocess.FixedSource(pointprocess.load_deployment(params["path"], win))


def _source_to_config(params: dict) -> str:
    kind = params["kind"]
    keys = [k for k in ("lambda_p", "d", "n", "path", "window", "edge", "margin")
            if k in params and params[k] is not None]
    if not keys:
        return kind
    return kind + ":" + ",".join(f"{k}={io.fmt(params[k])}" for k in keys)


def _channel_from(args, config) -> coverage.ChannelParams:
    alpha = _pick(args.alpha, config, "alpha", 4.0, float)
    sigma2 = _pick(args.sigma2, config, "sigma2", 0.1, float)
    p_t = _pick(args.p_t, config, "p_t", 1.0, float)
    return coverage.ChannelParams(alpha=alpha, sigma2=sigma2, p_t=p_t)


def _cmd_simulate(args) -> int:
    config = io.read_config(args.config) if args.config else {}
    seed = default_seed(_pick(args.seed, config, "seed", None, int))
    trials = pointprocess._check_count(
        _pick(args.trials, config, "trials", DEFAULT_TRIALS, int), 1, "--trials")
    beta_spec = _pick(args.beta_db, config, "beta_db", DEFAULT_BETA_DB, str)
    beta_db = parse_grid_spec(beta_spec)
    ch = _channel_from(args, config)

    specs = args.source or (config["source"].split(";") if "source" in config else [])
    if not specs:
        raise ParameterError("--source is required (ppp, mhc, grid or file)")
    if len(specs) > 1 and any(":" not in s for s in specs):
        raise ParameterError("with multiple sources, give each its parameters "
                             "inline, e.g. mhc:lambda_p=2,d=0.4")

    parsed = [_parse_source_spec(s, args, config) for s in specs]
    curves = []
    for p in parsed:
        source = _build_source(p, args, config)
        curves.append(coverage.simulate_coverage(source, ch, beta_db, trials, seed,
                                                 threads=args.threads))
    cfg = io.ExperimentConfig(scenario="simulate",
                              source=";".join(_source_to_config(p) for p in parsed),
                              window=_pick(args.window, config, "window", None, str),
                              edge=_pick(args.edge, config, "edge", None, str),
                              margin=_pick(args.margin, config, "margin", None, float),
                              alpha=ch.alpha, sigma2=ch.sigma2, p_t=ch.p_t,
                              beta_db=beta_spec, trials=trials, seed=seed)
    _emit(args.out, io.curves_csv_text(curves, cfg.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# bound

def _quad_from(args, config) -> bounds.QuadConfig:
    quad = bounds.QuadConfig(
        n_r=_pick(args.n_r, config, "n_r", 128, int),
        n_theta=_pick(args.n_theta, config, "n_theta", 256, int),
        n_upsilon=_pick(args.n_upsilon, config, "n_upsilon", 256, int),
        r_max=_pick(args.r_max, config, "r_max", None, float),
    )
    if args.quad_scale != 1.0:
        quad = quad.scaled(args.quad_scale)
    return quad


def _cmd_bound(args) -> int:
    config = io.read_config(args.config) if args.config else {}
    lambda_p = _pick(args.lambda_p, config, "lambda_p", None, float)
    d = _pick(args.d, config, "d", None, float)
    if lambda_p is None or d is None:
        raise ParameterError("--lambda-p and --d are required")
    params = pointprocess.MhcParams(lambda_p, d)
    ch = _channel_from(args, config)
    beta_spec = _pick(args.beta_db, config, "beta_db", DEFAULT_BETA_DB, str)
    beta_db = parse_grid_spec(beta_spec)
    quad = _quad_from(args, config)
    kind_arg = _pick(args.kind, config, "kind", "both",
                     lambda v: v if v == "both" else bounds.BoundKind(v).value)
    window_spec = _pick(args.window, config, "window", None, str)
    kinds = ([bounds.BoundKind.THEOREM1, bounds.BoundKind.PROPOSITION1]
             if kind_arg == "both" else [bounds.BoundKind(kind_arg)])

    seed = trials = None
    with_sim = args.with_sim or bool(_pick(None, config, "with_sim", 0, int))
    if with_sim:  # check the simulation's inputs before the quadrature runs
        seed = default_seed(_pick(args.seed, config, "seed", None, int))
        trials = _pick(args.trials, config, "trials", DEFAULT_TRIALS, int)
        coverage._check_run(trials, args.threads)

    curves = [bounds.coverage_bound(k, ch, params, beta_db, quad) for k in kinds]

    gaps = None
    if with_sim:
        win = _window(window_spec or None, default_side=analytics.default_torus(params).width)
        sim = coverage.simulate_coverage(pointprocess.MhcSource(params, win), ch,
                                         beta_db, trials, seed, threads=args.threads,
                                         label="simulated")
        gaps = {c.label: sim.p_c - c.p_c for c in curves}
        curves.append(sim)
        for c in curves[:-1]:
            mean_gap = float(np.mean(np.abs(gaps[c.label])))
            print(f"mean |simulated - {c.label}| = {mean_gap:.4f}")

    cfg = io.ExperimentConfig(scenario="bound", lambda_p=lambda_p, d=d, window=window_spec,
                              alpha=ch.alpha, sigma2=ch.sigma2, p_t=ch.p_t,
                              beta_db=beta_spec, kind=kind_arg,
                              n_r=quad.n_r, n_theta=quad.n_theta,
                              n_upsilon=quad.n_upsilon, r_max=quad.r_max,
                              trials=trials, seed=seed,
                              with_sim=1 if with_sim else None)
    _emit(args.out, io.curves_csv_text(curves, cfg.to_dict(), gaps))
    return 0


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args) -> int:
    lambda_p = args.lambda_p
    d = args.d
    if lambda_p is None or d is None:
        raise ParameterError("--lambda-p and --d are required")
    params = pointprocess.MhcParams(lambda_p, d)
    seed = default_seed(args.seed)
    n = (DEFAULT_REALIZATIONS.get(args.check) if args.realizations is None
         else args.realizations)
    failures = 0

    if args.check == "empty-space":
        ks = analytics.empty_space_ks(params, n, seed)
        ok = ks.statistic < args.ks_tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} empty-space: KS={ks.statistic:.4f} "
              f"(n={ks.n_samples}, tol={args.ks_tol:g})")
    elif args.check == "rho2":
        ups = np.linspace(d, 2 * d, 12)[1:-1]
        est = analytics.pair_density_empirical(params, ups, n, seed)
        ref = analytics.second_order_density(est.upsilon, params)
        print("upsilon,analytic,empirical,std_err,z")
        worst = 0.0
        for u, a, e, s in zip(est.upsilon, ref, est.density, est.std_err):
            z = abs(a - e) / s if s > 0 else math.inf
            worst = max(worst, z)
            print(f"{u:.4f},{a:.5f},{e:.5f},{s:.5f},{z:.2f}")
        ok = worst <= 3.0
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} rho2: worst |z| = {worst:.2f} (limit 3)")
    elif args.check == "void":
        if args.r is None:
            raise ParameterError("--r is required for void")
        est = analytics.void_probability_empirical(params, args.r, n, seed)
        lam_m = analytics.mhc_density(params)
        ref = math.exp(-lam_m * math.pi * args.r ** 2)
        z = abs(est.probability - ref) / est.std_error if est.std_error else math.inf
        ok = z <= 3.0
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} void: empirical={est.probability:.4f} "
              f"+-{est.std_error:.4f}, reference={ref:.4f}, z={z:.2f}")
    elif args.check == "pgfl-bound":
        if args.r is None:
            raise ParameterError("--r is required for pgfl-bound")
        ch = coverage.ChannelParams(alpha=args.alpha, sigma2=0.0)
        beta_lin = coverage.beta_db_to_linear(args.beta_db_value)
        check = bounds.pgfl_bound_check(params, ch, float(beta_lin), args.r, n, seed)
        slack = 3.0 * math.hypot(check.lhs_se, check.rhs_se)
        ok = check.lhs >= check.rhs - slack
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} pgfl-bound: lhs={check.lhs:.4f}"
              f"+-{check.lhs_se:.4f} rhs={check.rhs:.4f}+-{check.rhs_se:.4f}")
    else:
        raise ParameterError(f"unknown check {args.check!r}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# fit

def _cmd_fit(args) -> int:
    config = io.read_config(args.config) if args.config else {}
    target_path = _pick(args.target, config, "file", None, str)
    if target_path is None:
        raise ParameterError("--target curve CSV is required")
    curves, _ = io.read_curves_csv(target_path)
    if args.target_label:
        matches = [c for c in curves if c.label == args.target_label]
        if not matches:
            raise DataError(f"no curve labeled {args.target_label!r} in {target_path}")
        target = matches[0]
    else:
        target = curves[0]

    lam_grid = parse_grid_spec(_pick(args.lambda_p_grid, config, "lambda_p", None, str)
                               or _fail("--lambda-p-grid is required"))
    d_grid = parse_grid_spec(_pick(args.d_grid, config, "d", None, str)
                             or _fail("--d-grid is required"))
    candidates = [pointprocess.MhcParams(float(lp), float(dd))
                  for lp in lam_grid for dd in d_grid]
    ch = _channel_from(args, config)
    seed = default_seed(_pick(args.seed, config, "seed", None, int))
    trials = _pick(args.trials, config, "trials", DEFAULT_TRIALS, int)
    window_spec = _pick(args.window, config, "window", None, str)
    window = _window(window_spec) if window_spec else None

    result = coverage.fit_mhc(target, candidates, ch, trials, seed,
                              window=window, threads=args.threads)
    print(f"best lambda_p={result.params.lambda_p:g} d={result.params.d:g} "
          f"mse={result.error:.6g}")
    lines = ["lambda_p,d,mse"]
    for cand, err in result.table:
        lines.append(f"{io.fmt(cand.lambda_p)},{io.fmt(cand.d)},{io.fmt(err)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _fail(message: str):
    raise ParameterError(message)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgeo",
        description="Spatial point-process deployments, SINR coverage simulation, "
                    "and hardcore coverage bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help="key=value file (or a previously emitted "
                                        "CSV) supplying defaults; flags win")
        p.add_argument("-o", "--out", help="output CSV path (default: stdout)")
        if seeded:
            p.add_argument("--seed", type=int, help="RNG seed (default: "
                                                    "$STOCHGEO_SEED or 0)")

    def window_flags(p):
        p.add_argument("--window", help="window as WxH in km, e.g. 20x20")
        p.add_argument("--edge", choices=["toroidal", "guard"],
                       help="edge policy (default: toroidal for point processes, "
                            "guard for fixed deployments)")
        p.add_argument("--margin", type=float,
                       help="guard margin in km (default: 10%% of the short side)")

    def channel_flags(p):
        p.add_argument("--alpha", type=float, help="path-loss exponent (default 4)")
        p.add_argument("--sigma2", type=float, help="noise power (default 0.1)")
        p.add_argument("--p-t", dest="p_t", type=float,
                       help="transmit power (default 1)")

    p = sub.add_parser("sample", help="sample a deployment to CSV")
    p.add_argument("process", nargs="?", choices=["ppp", "mhc", "grid"])
    p.add_argument("--lambda-p", dest="lambda_p", type=float, help="parent density")
    p.add_argument("--d", type=float, help="hardcore distance")
    p.add_argument("--n", type=int, help="grid point count")
    window_flags(p)
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="Monte Carlo coverage curve(s)")
    p.add_argument("--source", action="append",
                   help="ppp | mhc | grid | file, optionally with inline "
                        "parameters 'mhc:lambda_p=2,d=0.4'; repeatable")
    p.add_argument("--lambda-p", dest="lambda_p", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--file", help="deployment CSV for --source file")
    p.add_argument("--beta-db", dest="beta_db",
                   help="threshold grid 'start:step:stop' or comma list "
                        f"(default {DEFAULT_BETA_DB})")
    p.add_argument("--trials", type=int, help=f"Monte Carlo trials (default {DEFAULT_TRIALS})")
    p.add_argument("--threads", type=int, default=0, help="worker cap (0 = auto)")
    window_flags(p)
    channel_flags(p)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="quadrature lower bounds on MHC coverage")
    p.add_argument("--kind", choices=["theorem1", "proposition1", "both"])
    p.add_argument("--lambda-p", dest="lambda_p", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--beta-db", dest="beta_db")
    p.add_argument("--quad-scale", type=float, default=1.0,
                   help="multiply all quadrature grid counts")
    p.add_argument("--n-r", dest="n_r", type=int)
    p.add_argument("--n-theta", dest="n_theta", type=int)
    p.add_argument("--n-upsilon", dest="n_upsilon", type=int)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--with-sim", action="store_true",
                   help="also simulate the process and report the gap")
    p.add_argument("--trials", type=int)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--window", help="window for --with-sim (default: auto torus)")
    channel_flags(p)
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("validate", help="empirical checks of the analytics")
    p.add_argument("check", choices=["empty-space", "rho2", "void", "pgfl-bound"])
    p.add_argument("--lambda-p", dest="lambda_p", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--r", type=float, help="probe radius / user distance")
    p.add_argument("--alpha", type=float, default=4.0, help="path-loss exponent (default 4)")
    p.add_argument("--beta-db", dest="beta_db_value", type=float, default=0.0,
                   help="threshold for pgfl-bound (dB, default 0)")
    p.add_argument("--realizations", type=int)
    p.add_argument("--ks-tol", dest="ks_tol", type=float, default=0.05)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", help="fit hardcore parameters to a coverage curve")
    p.add_argument("--target", help="curve CSV to fit against")
    p.add_argument("--target-label", help="curve label inside the target CSV")
    p.add_argument("--lambda-p-grid", dest="lambda_p_grid",
                   help="candidate parent densities, 'start:step:stop' or list")
    p.add_argument("--d-grid", dest="d_grid",
                   help="candidate hardcore distances")
    p.add_argument("--trials", type=int)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--window", help="common simulation window (default: per-candidate torus)")
    channel_flags(p)
    common(p)
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors / --help
        return int(exc.code or 0)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
