"""The four benchmark workloads: inputs, one timed pass, and output checks.

A workload is built by `setup` (the import of stochgeo and the construction
of windows, sources and configs), optionally completed by `prepare` (untimed
input generation), and then repeated pass by pass. Every pass performs the
same operations on the same inputs, returns its outputs and per-unit
timings, and is checked against the golden captured for its input seed.

Inputs come from the run's seed reduced to one of SEED_SPACE input seeds, so
that every run can be checked bit for bit against a stored golden.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from stochgeo import analytics, bounds, cli, coverage, io, pointprocess

SEED_SPACE = 32
# Golden captured but never used while tuning the benchmark; confirm claims on it.
HELD_OUT_SEED = 31

CH = coverage.ChannelParams(alpha=4.0, sigma2=0.1, p_t=1.0)
SIM_BETA_DB = np.arange(-10.0, 21.0, 1.0)
BOUND_BETA_DB = np.arange(10.0, 21.0, 1.0)

# Trials per source in one sim-models pass, sized so that each source takes
# a similar share of the pass and a slowdown of any one of them moves wall_s.
SIM_TRIALS = {"ppp": 2400, "mhc": 320, "grid": 4000}
FIT_TRIALS = 2000  # at the pool threshold of simulate_coverage
FIT_LAMBDA_GRID = "1.5,2,2.5"
FIT_D_GRID = "0.3,0.4,0.5"
# Realizations per validator in one validate-mhc pass, balanced like SIM_TRIALS.
VALIDATE_N = {"ks": 600, "rho2": 150, "pgfl": 600, "void": 500}

WORKLOADS = ("sim-models", "bound-curve", "fit-pool", "validate-mhc")

WHY = {
    "sim-models": "Monte Carlo coverage of PPP, MHC(2,0.4) and a 24-station grid in "
                  "process: shows whether a sampler or trial-loop change lands on "
                  "pointprocess (MHC) or on RNG setup and scoring (grid, PPP)",
    "bound-curve": "theorem1 and proposition1 at (3,0.5), 10:1:20 dB: pure quadrature "
                   "in bounds and analytics with no Monte Carlo; the far-field work "
                   "shows here and nowhere else",
    "fit-pool": "cli fit over a 3x3 grid with a 2-worker pool: many short simulate "
                "calls, one pool start per candidate, plus cli and io parsing; shows "
                "per-call cost that per-trial speed-ups can hide",
    "validate-mhc": "the four hardcore validators and the PGFL harness: "
                    "mhc_realization without SINR scoring, so a pointprocess change "
                    "tuned only for coverage shows its cost here",
}


def input_seed(seed: int) -> int:
    return seed % SEED_SPACE


def grid_window(lam_m: float) -> pointprocess.Window:
    """The acceptance-05 lattice window: 24 stations at density lam_m, 5:4."""
    area = 24.0 / lam_m
    gw = math.sqrt(area * 1.25)
    return pointprocess.Window(gw, area / gw)


class Step(NamedTuple):
    """One timed call of a pass: `run` returns output entries, and its time
    divided by `n_units` is reported as `metric` (`*_us` in microseconds,
    `*_s` in seconds)."""

    metric: str
    n_units: int
    run: Callable[[], dict]


def run_pass(steps: list[Step]) -> dict:
    """All steps of a pass, untimed; their merged outputs."""
    out: dict = {}
    for step in steps:
        out.update(step.run())
    return out


def counts_of(curve, n_trials: int) -> list[int]:
    return [int(c) for c in np.rint(np.asarray(curve.p_c) * n_trials)]


def floats(values) -> list[str]:
    """Floats as repr strings, so goldens compare bit for bit through JSON."""
    return [repr(float(v)) for v in values]


# ---------------------------------------------------------------------------
# sim-models

def setup_sim_models(seed: int, workdir: Path) -> dict:
    params = pointprocess.MhcParams(2.0, 0.4)
    lam_m = analytics.mhc_density(params)
    torus = analytics.default_torus(params)
    grid = pointprocess.generate_grid(24, grid_window(lam_m))
    sources = {"ppp": pointprocess.PppSource(lam_m, torus),
               "mhc": pointprocess.MhcSource(params, torus),
               "grid": pointprocess.FixedSource(grid)}
    return {"seed": seed, "sources": sources}


def steps_sim_models(st: dict) -> list[Step]:
    def step(key, source):
        n = SIM_TRIALS[key]

        def run():
            curve = coverage.simulate_coverage(source, CH, SIM_BETA_DB, n, st["seed"], threads=1)
            return {key: counts_of(curve, n)}

        return Step(f"trial_us.{key}", n, run)

    return [step(key, source) for key, source in st["sources"].items()]


def check_sim_models(out: dict, golden: dict) -> list[tuple[str, bool, str]]:
    return [(f"counts.{key}", out[key] == golden[key], "bit-identical Monte Carlo counts")
            for key in SIM_TRIALS]


# ---------------------------------------------------------------------------
# bound-curve

def setup_bound_curve(seed: int, workdir: Path) -> dict:
    return {"params": pointprocess.MhcParams(3.0, 0.5), "quad": bounds.QuadConfig()}


def steps_bound_curve(st: dict) -> list[Step]:
    def step(kind):
        def run():
            curve = bounds.coverage_bound(kind, CH, st["params"], BOUND_BETA_DB, st["quad"])
            return {kind: floats(curve.p_c)}

        return Step(f"threshold_s.{kind}", len(BOUND_BETA_DB), run)

    return [step("theorem1"), step("proposition1")]


BOUND_REL_TOL = 5e-3  # acceptance 09's quadrature limit


def check_bound_curve(out: dict, golden: dict) -> list[tuple[str, bool, str]]:
    checks = []
    for kind in ("theorem1", "proposition1"):
        got = np.array(out[kind], dtype=float)
        ref = np.array(golden[kind], dtype=float)
        rel = float(np.max(np.abs(got - ref) / ref))
        checks.append((f"curve.{kind}", rel <= BOUND_REL_TOL,
                       f"max relative change {rel:.2e} (limit {BOUND_REL_TOL:g})"))
    th1 = np.array(out["theorem1"], dtype=float)
    prop1 = np.array(out["proposition1"], dtype=float)
    checks.append(("order", bool(np.all(th1 <= prop1 + 1e-12)), "theorem1 <= proposition1"))
    return checks


# ---------------------------------------------------------------------------
# fit-pool

def setup_fit_pool(seed: int, workdir: Path) -> dict:
    target = pointprocess.MhcParams(2.0, 0.4)
    cfg = workdir / "fit.cfg"
    csv = workdir / "target.csv"
    argv = ["fit", "--config", str(cfg), "--target", str(csv), "--target-label", "target",
            "--lambda-p-grid", FIT_LAMBDA_GRID, "--d-grid", FIT_D_GRID, "--threads", "2"]
    return {"seed": seed, "target": target, "cfg": cfg, "csv": csv, "argv": argv,
            "n_candidates": len(FIT_LAMBDA_GRID.split(",")) * len(FIT_D_GRID.split(","))}


def prepare_fit_pool(st: dict) -> None:
    """Untimed: the MHC(2, 0.4) target curve, same seed and trials as the fit."""
    source = pointprocess.MhcSource(st["target"], analytics.default_torus(st["target"]))
    curve = coverage.simulate_coverage(source, CH, SIM_BETA_DB, FIT_TRIALS, st["seed"],
                                       threads=2, label="target")
    io.write_curves_csv(st["csv"], [curve], {"scenario": "benchmark-target"})
    st["cfg"].write_text(f"trials={FIT_TRIALS}\nseed={st['seed']}\nalpha={CH.alpha!r}\n"
                         f"sigma2={CH.sigma2!r}\n", encoding="utf-8")


def steps_fit_pool(st: dict) -> list[Step]:
    def run():
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(st["argv"])
        lines = buf.getvalue().splitlines()
        return {"rc": rc, "best": lines[0] if lines else "", "table": lines[1:]}

    return [Step("candidate_s", st["n_candidates"], run)]


def check_fit_pool(out: dict, golden: dict) -> list[tuple[str, bool, str]]:
    return [("rc", out["rc"] == 0, "exit code 0"),
            ("best", out["best"] == "best lambda_p=2 d=0.4 mse=0", out["best"]),
            ("table", out["table"] == golden["table"], "identical mse table")]


# ---------------------------------------------------------------------------
# validate-mhc

PGFL_CH = coverage.ChannelParams(alpha=4.0, sigma2=0.0)


def setup_validate_mhc(seed: int, workdir: Path) -> dict:
    rho2_params = pointprocess.MhcParams(1.0, 0.5)
    return {"seed": seed,
            "ks": pointprocess.MhcParams(2.0, 0.3),
            "rho2": rho2_params,
            "rho2_ups": np.linspace(rho2_params.d, 2 * rho2_params.d, 12)[1:-1],
            "pgfl": pointprocess.MhcParams(1.0, 0.3),
            "void": pointprocess.MhcParams(1.0, 0.5)}


def steps_validate_mhc(st: dict) -> list[Step]:
    seed = st["seed"]

    def ks():
        res = analytics.empty_space_ks(st["ks"], VALIDATE_N["ks"], seed)
        return {"ks": floats([res.statistic]) + [res.n_samples]}

    def rho2():
        res = analytics.pair_density_empirical(st["rho2"], st["rho2_ups"], VALIDATE_N["rho2"],
                                               seed)
        return {"rho2": floats(res.density)}

    def pgfl():
        res = bounds.pgfl_bound_check(st["pgfl"], PGFL_CH, 1.0, 0.3, VALIDATE_N["pgfl"], seed)
        return {"pgfl": floats([res.lhs, res.rhs, res.lhs_se, res.rhs_se]),
                "pgfl_margin": repr(float(res.lhs - res.rhs))}

    def void():
        res = analytics.void_probability_empirical(st["void"], 0.5, VALIDATE_N["void"], seed)
        return {"void": floats([res.probability])}

    return [Step(f"realization_us.{fn.__name__}", VALIDATE_N[fn.__name__], fn)
            for fn in (ks, rho2, pgfl, void)]


def check_validate_mhc(out: dict, golden: dict) -> list[tuple[str, bool, str]]:
    margin = f"pgfl lhs-rhs {float(out['pgfl_margin']):+.4f} (golden " \
             f"{float(golden['pgfl_margin']):+.4f}; sign not gated)"
    return [("ks", out["ks"] == golden["ks"], "bit-identical KS statistic"),
            ("rho2", out["rho2"] == golden["rho2"], "bit-identical pair densities"),
            ("pgfl", out["pgfl"] == golden["pgfl"] and out["pgfl_margin"] == golden["pgfl_margin"],
             margin),
            ("void", out["void"] == golden["void"], "bit-identical void probability")]


# ---------------------------------------------------------------------------

SPECS = {
    "sim-models": (setup_sim_models, None, steps_sim_models, check_sim_models),
    "bound-curve": (setup_bound_curve, None, steps_bound_curve, check_bound_curve),
    "fit-pool": (setup_fit_pool, prepare_fit_pool, steps_fit_pool, check_fit_pool),
    "validate-mhc": (setup_validate_mhc, None, steps_validate_mhc, check_validate_mhc),
}

# bound-curve's inputs do not depend on the seed; its golden is stored once.
SEEDLESS = {"bound-curve"}

# Workloads that keep both cores busy with their own pool workers. A
# reference kernel run beside those workers measures their contention as much
# as the machine's: calibrated fit-pool times spread twice as much as raw ones
# (18% against 9% over 20 s windows), so its pass timings are reported raw.
POOLED = {"fit-pool"}


def golden_key(workload: str, seed: int) -> str:
    return "any" if workload in SEEDLESS else str(input_seed(seed))

