"""Command-line interface.

Subcommands: sample, simulate, bound, validate, fit. Outputs are data-only
CSVs with the full experiment config embedded as `# key=value` comment
lines, so any output file can be rerun bit-identically via --config.
One table, OPTIONS, declares each option once: it builds the parsers,
resolves each value (flag, else --config, else default) and orders the
recorded config lines.

Exit codes: 0 success (for validate: all checks passed), 1 runtime/data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, NamedTuple

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


# ---------------------------------------------------------------------------
# options

class Option(NamedTuple):
    """One option: flag(s) or positional name, the --config key it reads and
    records (None: neither), the cast of a config or inline source value (and
    of an int or float flag), the default, help and extra add_argument keywords."""

    flag: str
    key: str | None = None
    cast: Callable[[str], Any] = str.strip
    default: Any = None
    help: str | None = None
    extra: dict | None = None


# Keyed by dest, the attribute argparse derives from the (last) flag. Rows
# that share a config key sit together, in the order of the recorded
# `# key=value` lines.
OPTIONS = {opt.flag.split()[-1].lstrip("-").replace("-", "_"): opt for opt in [
    Option("process", "source", extra=dict(nargs="?", choices=["ppp", "mhc", "grid"])),
    Option("--source", "source", lambda v: v.split(";"), None, "ppp | mhc | grid | file, "
           "optionally with inline parameters 'mhc:lambda_p=2,d=0.4'; repeatable",
           dict(action="append")),
    Option("--file", "file", help="deployment CSV for --source file"),
    Option("--target", "file", help="curve CSV to fit against"),
    Option("--lambda-p", "lambda_p", float, help="parent density"),
    Option("--lambda-p-grid", "lambda_p",
           help="candidate parent densities, 'start:step:stop' or list"),
    Option("--d", "d", float, help="hardcore distance"),
    Option("--d-grid", "d", help="candidate hardcore distances"),
    Option("--n", "n_points", int, help="grid point count"),
    Option("--window", "window", help="window as WxH in km, e.g. 20x20; point processes "
           "outside sample default to an automatic torus"),
    Option("--edge", "edge", help="edge policy (default: toroidal for point processes, "
           "guard for fixed deployments)", extra=dict(choices=["toroidal", "guard"])),
    Option("--margin", "margin", float, help="guard margin in km (default: 10%% of the "
           "short side)"),
    Option("--alpha", "alpha", float, 4.0, "path-loss exponent (default 4)"),
    Option("--sigma2", "sigma2", float, 0.1, "noise power (default 0.1)"),
    Option("--p-t", "p_t", float, 1.0, "transmit power (default 1)"),
    Option("--beta-db", "beta_db", default=DEFAULT_BETA_DB, help="threshold grid "
           f"'start:step:stop' or comma list (default {DEFAULT_BETA_DB})"),
    Option("--trials", "trials", int, DEFAULT_TRIALS,
           f"Monte Carlo trials (default {DEFAULT_TRIALS})"),
    Option("--seed", "seed", int, help="RNG seed (default: $STOCHGEO_SEED or 0)"),
    Option("--kind", "kind", lambda v: v if v == "both" else bounds.BoundKind(v).value,
           "both", extra=dict(choices=["theorem1", "proposition1", "both"])),
    Option("--n-r", "n_r", int, bounds.QuadConfig.n_r),
    Option("--n-theta", "n_theta", int, bounds.QuadConfig.n_theta),
    Option("--n-upsilon", "n_upsilon", int, bounds.QuadConfig.n_upsilon),
    Option("--with-sim", "with_sim", int, 0, "also simulate the process and report the gap",
           dict(action="store_true")),
    Option("--threads", None, int, 0, "worker cap (0 = auto)"),
    Option("--target-label", help="curve label inside the target CSV"),
    Option("--config", help="key=value file (or a previously emitted CSV) supplying "
           "defaults; flags win"),
    Option("-o --out", help="output CSV path (default: stdout)"),
    Option("check", extra=dict(choices=["empty-space", "rho2", "void", "pgfl-bound"])),
    Option("--r", None, float, help="probe radius / user distance"),
    Option("--realizations", None, int),
    Option("--ks-tol", None, float, 0.05),
]}
_RECORDED = list(dict.fromkeys(opt.key for opt in OPTIONS.values() if opt.key))


class _Values:
    """A run's option values by dest, each resolved once, on first use: the
    flag if given (a store_true flag not given reads False), else the cast
    --config value, else the table's default."""

    def __init__(self, args):
        self.args = args
        self.config = io.read_config(args.config) if getattr(args, "config", None) else {}

    def __getattr__(self, dest: str):
        value = getattr(self.args, dest)
        opt = OPTIONS.get(dest)
        if opt is not None and opt.key and (value is None or value is False):
            try:
                value = opt.cast(self.config[opt.key]) if opt.key in self.config else opt.default
            except ValueError:
                raise ParameterError(f"bad {opt.key} value {self.config[opt.key]!r} in --config")
        setattr(self, dest, value)
        return value


def _record(scenario: str, **values) -> dict[str, str]:
    """A run's config lines: the scenario, then each set value in key order."""
    keys = sorted((k for k, v in values.items() if v is not None and v != ""),
                  key=_RECORDED.index)
    return {"scenario": scenario, **{k: io.fmt(values[k]) for k in keys}}


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


def _channel(args) -> coverage.ChannelParams:
    return coverage.ChannelParams(alpha=args.alpha, sigma2=args.sigma2, p_t=args.p_t)


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args) -> int:
    seed = default_seed(args.seed)
    kind = args.process
    if kind not in ("ppp", "mhc", "grid"):
        raise ParameterError("sample needs a process: ppp, mhc or grid")

    win = _window(args.window, args.edge, args.margin, kind=kind)
    params = _parse_source_spec(kind, args)
    if kind == "grid":
        ps = pointprocess.generate_grid(params["n"], win)
    elif kind == "mhc":
        mp = pointprocess.MhcParams(params["lambda_p"], params["d"])
        ps = pointprocess.sample_mhc(mp, win, seed)
    else:
        ps = pointprocess.sample_ppp(params["lambda_p"], win, seed)
    config = _record("sample", source=kind, lambda_p=params.get("lambda_p"),
                     d=params.get("d"), n_points=len(ps) if kind == "grid" else None,
                     window=args.window, edge=win.edge, margin=win.margin or None,
                     seed=ps.seed)
    _emit(args.out, io.points_csv_text(ps, config))
    return 0


# ---------------------------------------------------------------------------
# simulate

# the parameters each source kind needs, by inline key
_SOURCE_NEEDS = {"ppp": ("lambda_p",), "mhc": ("lambda_p", "d"), "grid": ("n",),
                 "file": ("path",)}
# inline key -> the option a bare source reads instead, whose cast it shares
_INLINE = {"lambda_p": "lambda_p", "d": "d", "n": "n", "path": "file",
           "window": "window", "edge": "edge", "margin": "margin"}


def _parse_source_spec(spec: str, args) -> dict:
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
            if key not in _INLINE:
                raise ParameterError(f"unknown source parameter {key!r} in {spec!r}")
            try:
                params[key] = OPTIONS[_INLINE[key]].cast(value)
            except ValueError:
                raise ParameterError(f"bad value {value!r} for {key} in {spec!r}")
        missing = [key for key in _SOURCE_NEEDS[kind] if key not in params]
        if missing:
            raise ParameterError(f"source {spec!r} needs {', '.join(missing)}")
    else:
        for key in _SOURCE_NEEDS[kind]:
            params[key] = getattr(args, _INLINE[key])
            if params[key] is None:
                raise ParameterError(f"{OPTIONS[_INLINE[key]].flag} is required for source {kind}")
    return params


def _build_source(params: dict, args):
    kind = params["kind"]
    spec = params.get("window") or args.window
    edge = params.get("edge") or args.edge
    margin = params.get("margin", args.margin)
    if kind in ("ppp", "mhc"):
        # the PPP is the MHC with d = 0, and its torus is sized as such
        mp = pointprocess.MhcParams(params["lambda_p"], params["d"] if kind == "mhc" else 0.0)
        win = _window(spec, edge, margin, default_side=analytics.default_torus(mp).width,
                      kind=kind)
        if kind == "ppp":
            return pointprocess.PppSource(params["lambda_p"], win)
        return pointprocess.MhcSource(mp, win)
    win = _window(spec, edge, margin, default_edge="guard", kind=kind)
    if kind == "grid":
        return pointprocess.FixedSource(pointprocess.generate_grid(params["n"], win))
    return pointprocess.FixedSource(io.load_deployment(params["path"], win))


def _source_to_config(params: dict) -> str:
    if any(sep in params.get("path", "") for sep in ",;"):
        raise ParameterError(f"--file path {params['path']!r} must not hold ',' or ';'")
    inline = ",".join(f"{k}={io.fmt(params[k])}" for k in _INLINE
                      if params.get(k) is not None)
    return f"{params['kind']}:{inline}" if inline else params["kind"]


def _cmd_simulate(args) -> int:
    seed = default_seed(args.seed)
    trials = pointprocess._check_count(args.trials, 1, OPTIONS["trials"].flag)
    beta_db = parse_grid_spec(args.beta_db)
    ch = _channel(args)

    if not args.source:
        raise ParameterError("--source is required (ppp, mhc, grid or file)")
    if len(args.source) > 1 and any(":" not in s for s in args.source):
        raise ParameterError("with multiple sources, give each its parameters "
                             "inline, e.g. mhc:lambda_p=2,d=0.4")

    parsed = [_parse_source_spec(s, args) for s in args.source]
    config = _record("simulate", source=";".join(_source_to_config(p) for p in parsed),
                     window=args.window, edge=args.edge, margin=args.margin,
                     alpha=ch.alpha, sigma2=ch.sigma2, p_t=ch.p_t,
                     beta_db=args.beta_db, trials=trials, seed=seed)
    curves = coverage.simulate_curves([_build_source(p, args) for p in parsed], ch, beta_db,
                                      trials, seed, threads=args.threads)
    _emit(args.out, io.curves_csv_text(curves, config))
    return 0


# ---------------------------------------------------------------------------
# bound

def _cmd_bound(args) -> int:
    if args.lambda_p is None or args.d is None:
        raise ParameterError("--lambda-p and --d are required")
    params = pointprocess.MhcParams(args.lambda_p, args.d)
    ch = _channel(args)
    beta_db = parse_grid_spec(args.beta_db)
    quad = bounds.QuadConfig(n_r=args.n_r, n_theta=args.n_theta, n_upsilon=args.n_upsilon)
    kinds = list(bounds.BoundKind) if args.kind == "both" else [bounds.BoundKind(args.kind)]

    seed = trials = None
    with_sim = bool(args.with_sim)
    if with_sim:  # check the simulation's inputs before the quadrature runs
        seed = default_seed(args.seed)
        trials = args.trials
        coverage._check_run(ch, trials, args.threads)

    curves = bounds.coverage_bounds(kinds, ch, params, beta_db, quad)

    gaps = None
    if with_sim:
        win = _window(args.window or None, default_side=analytics.default_torus(params).width)
        sim = coverage.simulate_coverage(pointprocess.MhcSource(params, win), ch,
                                         beta_db, trials, seed, threads=args.threads,
                                         label="simulated")
        gaps = {c.label: sim.p_c - c.p_c for c in curves}
        curves.append(sim)
        for c in curves[:-1]:
            mean_gap = float(np.mean(np.abs(gaps[c.label])))
            print(f"mean |simulated - {c.label}| = {mean_gap:.4f}")

    config = _record("bound", lambda_p=args.lambda_p, d=args.d, window=args.window,
                     alpha=ch.alpha, sigma2=ch.sigma2, p_t=ch.p_t, beta_db=args.beta_db,
                     kind=args.kind, n_r=quad.n_r, n_theta=quad.n_theta,
                     n_upsilon=quad.n_upsilon, trials=trials, seed=seed,
                     with_sim=1 if with_sim else None)
    _emit(args.out, io.curves_csv_text(curves, config, gaps))
    return 0


# ---------------------------------------------------------------------------
# validate

def _cmd_validate(args) -> int:
    params = pointprocess.MhcParams(args.lambda_p, args.d)
    seed = default_seed(args.seed)
    n = DEFAULT_REALIZATIONS[args.check] if args.realizations is None else args.realizations
    if args.check in ("void", "pgfl-bound") and args.r is None:
        raise ParameterError(f"--r is required for {args.check}")

    if args.check == "empty-space":
        if not 0 < args.ks_tol < math.inf:
            raise ParameterError("--ks-tol must be finite and > 0")
        ks = analytics.empty_space_ks(params, n, seed)
        ok = ks.statistic < args.ks_tol
        report = (f"empty-space: KS={ks.statistic:.4f} (n={ks.n_samples}, "
                  f"tol={args.ks_tol:g})")
    elif args.check == "rho2":
        ups = np.linspace(args.d, 2 * args.d, 12)[1:-1]
        est = analytics.pair_density_empirical(params, ups, n, seed)
        ref = analytics.second_order_density(est.upsilon, params)
        print("upsilon,analytic,empirical,std_err,z")
        worst = 0.0
        for u, a, e, s in zip(est.upsilon, ref, est.density, est.std_err):
            z = abs(a - e) / s if s > 0 else math.inf
            worst = max(worst, z)
            print(f"{u:.4f},{a:.5f},{e:.5f},{s:.5f},{z:.2f}")
        ok = worst <= 3.0
        report = f"rho2: worst |z| = {worst:.2f} (limit 3)"
    elif args.check == "void":
        est = analytics.void_probability_empirical(params, args.r, n, seed)
        lam_m = analytics.mhc_density(params)
        ref = math.exp(-lam_m * math.pi * args.r ** 2)
        # a share of 0 or 1 has a binomial SE of 0: score it against the reference's own
        se = est.std_error or math.sqrt(ref) * math.sqrt((1.0 - ref) / n)
        gap = abs(est.probability - ref)
        z = gap / se if se else (0.0 if gap == 0 else math.inf)
        ok = z <= 3.0
        report = (f"void: empirical={est.probability:.4f} +-{est.std_error:.4f}, "
                  f"reference={ref:.4f}, z={z:.2f}")
    else:
        ch = coverage.ChannelParams(alpha=args.alpha, sigma2=0.0)
        beta_lin = coverage.beta_db_to_linear(args.beta_db_value)
        check = bounds.pgfl_bound_check(params, ch, float(beta_lin), args.r, n, seed)
        slack = 3.0 * math.hypot(check.lhs_se, check.rhs_se)
        ok = check.lhs >= check.rhs - slack
        report = (f"pgfl-bound: lhs={check.lhs:.4f}+-{check.lhs_se:.4f} "
                  f"rhs={check.rhs:.4f}+-{check.rhs_se:.4f}")
    print(f"{'PASS' if ok else 'FAIL'} {report}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fit

def _cmd_fit(args) -> int:
    if args.target is None:
        raise ParameterError("--target curve CSV is required")
    curves, _ = io.read_curves_csv(args.target)
    label = args.target_label
    target = next((c for c in curves if not label or c.label == label), None)
    if target is None:
        raise DataError(f"no curve labeled {label!r} in {args.target}")

    lam_grid = parse_grid_spec(args.lambda_p_grid or _fail("--lambda-p-grid is required"))
    d_grid = parse_grid_spec(args.d_grid or _fail("--d-grid is required"))
    candidates = [pointprocess.MhcParams(float(lp), float(dd))
                  for lp in lam_grid for dd in d_grid]
    result = coverage.fit_mhc(target, candidates, _channel(args), args.trials,
                              default_seed(args.seed), threads=args.threads,
                              window=_window(args.window) if args.window else None)
    print(f"best lambda_p={result.params.lambda_p:g} d={result.params.d:g} "
          f"mse={result.error:.6g}")
    _emit(args.out, "lambda_p,d,mse\n" + "".join(
        f"{io.fmt(cand.lambda_p)},{io.fmt(cand.d)},{io.fmt(err)}\n"
        for cand, err in result.table))
    return 0


def _fail(message: str):
    raise ParameterError(message)


# ---------------------------------------------------------------------------

# subcommand -> (help, handler, the dests of its options in parser order,
# add_argument keywords that override a row's for this subcommand)
_COMMANDS = {
    "sample": ("sample a deployment to CSV", _cmd_sample,
               "process lambda_p d n window edge margin config out seed", {}),
    "simulate": ("Monte Carlo coverage curve(s)", _cmd_simulate, "source lambda_p d n file "
                 "beta_db trials threads window edge margin alpha sigma2 p_t config out seed", {}),
    "bound": ("quadrature lower bounds on MHC coverage", _cmd_bound, "kind lambda_p d beta_db "
              "n_r n_theta n_upsilon with_sim trials threads window alpha "
              "sigma2 p_t config out seed", {}),
    "validate": ("empirical checks of the analytics", _cmd_validate,
                 "check lambda_p d r alpha beta_db realizations ks_tol seed",
                 {"lambda_p": dict(required=True), "d": dict(required=True),
                  "alpha": dict(default=4.0),
                  "beta_db": dict(dest="beta_db_value", type=float, default=0.0,
                                  help="threshold for pgfl-bound (dB, default 0)")}),
    "fit": ("fit hardcore parameters to a coverage curve", _cmd_fit, "target target_label "
            "lambda_p_grid d_grid trials threads window alpha sigma2 p_t config out seed", {}),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one `error: ...` line to
    stderr and exit 2, as parameter errors do; its subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stochgeo",
        description="Spatial point-process deployments, SINR coverage simulation, "
                    "and hardcore coverage bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, dests, overrides) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in dests.split():
            opt = OPTIONS[dest]
            kwargs = {"help": opt.help, **(opt.extra or {})}
            if opt.cast in (int, float) and "action" not in kwargs:
                kwargs["type"] = opt.cast
            if opt.key is None:  # a config-backed flag stays None until given
                kwargs["default"] = opt.default
            p.add_argument(*opt.flag.split(), **{**kwargs, **overrides.get(dest, {})})
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_Values(args))
    except SystemExit as exc:  # argparse usage errors / --help
        return int(exc.code or 0)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
