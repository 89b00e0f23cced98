"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical criteria run at fixed seeds so the suite is deterministic; trial
counts are sized so tolerances are meaningful (binomial error well under the
asserted slack). Heavy Monte Carlo runs use the process pool.
"""

import math
import warnings

import numpy as np
import pytest

import stochgeo as sg
from stochgeo.cli import main as cli_main
from stochgeo.pointprocess import mhc_realization

from seed_streams import seed_sequence_rng


def report(idx, name, ok, detail):
    print(f"\nACCEPTANCE {idx:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {idx} ({name}): {detail}"


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


CH = sg.ChannelParams(alpha=4.0, sigma2=0.1, p_t=1.0)


def test_criterion_01_hardcore_exactness():
    # 1000 realizations at (3, 0.5) on a 30x30 torus: no pair closer than d
    params = sg.MhcParams(3.0, 0.5)
    win = sg.Window(30.0, 30.0)
    from scipy.spatial import cKDTree
    worst = math.inf
    offenders = 0
    for seed in range(1000):
        parents, _, keep = mhc_realization(seed_sequence_rng(seed), params, win)
        pts = parents[keep]
        tree = cKDTree(pts, boxsize=(30.0, 30.0))
        pairs = tree.query_pairs(params.d * (1.0 - 1e-12))
        offenders += len(pairs)
        d, _ = tree.query(pts, k=2)
        worst = min(worst, float(d[:, 1].min()))
    report(1, "hardcore exactness", offenders == 0,
           f"0 required, found {offenders} close pairs in 1000 realizations; "
           f"min observed spacing {worst:.6f} >= d = {params.d}")


def test_criterion_02_density_law():
    # empirical density within 3 combined SE of the retention formula
    details = []
    ok = True
    for lam_p, d in ((1.0, 0.5), (2.0, 0.4), (3.0, 0.5)):
        params = sg.MhcParams(lam_p, d)
        side = 50.0 * d
        win = sg.Window(side, side)
        dens = np.array([mhc_realization(seed_sequence_rng(seed), params, win)[2].sum()
                         / win.area for seed in range(200)])
        se = dens.std(ddof=1) / math.sqrt(len(dens))
        lam_m = sg.mhc_density(params)
        z = abs(dens.mean() - lam_m) / se
        ok &= z <= 3.0
        details.append(f"({lam_p:g},{d:g}): {dens.mean():.4f} vs {lam_m:.4f} z={z:.2f}")
    report(2, "density law", ok, "; ".join(details))


def test_criterion_03_second_order_density():
    params = sg.MhcParams(1.0, 0.5)
    ups = np.linspace(params.d, 2 * params.d, 12)[1:-1]
    est = quiet(sg.pair_density_empirical, params, ups, 500, seed=2024)
    ref = sg.second_order_density(est.upsilon, params)
    z = np.abs(est.density - ref) / est.std_err
    ok = bool(np.all(z <= 3.0))
    # continuity onto the uncorrelated branch
    cont_ok = True
    for lam_p, d in ((1.0, 0.5), (2.0, 0.4), (3.0, 0.5)):
        p = sg.MhcParams(lam_p, d)
        lam2 = sg.mhc_density(p) ** 2
        gap = abs(sg.second_order_density(2 * d - 1e-8 * d, p) - lam2) / lam2
        cont_ok &= gap < 1e-6
    report(3, "pair density", ok and cont_ok,
           f"max |z| over 10 separations = {z.max():.2f} (limit 3); "
           f"continuity at 2d within 1e-6: {cont_ok}")


def test_criterion_04_empty_space_quality():
    # KS distance small in the near-Poisson regime, nondecreasing with d
    stats = {}
    for d in (0.1, 0.4, 0.5):
        ks = quiet(sg.empty_space_ks, sg.MhcParams(2.0, d), 4000, seed=101)
        stats[d] = ks.statistic
    ok = stats[0.1] < 0.03 and stats[0.1] <= stats[0.4] <= stats[0.5]
    report(4, "empty-space approximation", ok,
           "KS = " + ", ".join(f"{d}: {s:.4f}" for d, s in stats.items())
           + " (d=0.1 limit 0.03, nondecreasing)")


def test_criterion_05_model_ordering():
    # PPP at matched density <= MHC(2, 0.4) <= 24-station lattice, everywhere
    params = sg.MhcParams(2.0, 0.4)
    lam_m = sg.mhc_density(params)
    beta_db = np.arange(-10.0, 21.0, 1.0)
    n = 100_000
    win = sg.default_torus(params)
    area = 24.0 / lam_m
    gw = math.sqrt(area * 1.25)
    grid_win = sg.Window(gw, area / gw)
    grid = sg.generate_grid(24, grid_win)

    ppp = quiet(sg.simulate_coverage, sg.PppSource(lam_m, win), CH, beta_db, n, 11)
    mhc = quiet(sg.simulate_coverage, sg.MhcSource(params, win), CH, beta_db, n, 12)
    gcv = quiet(sg.simulate_coverage, sg.FixedSource(grid), CH, beta_db, n, 13)

    def check(lo, hi):
        v = lo.p_c - hi.p_c
        se = np.hypot(lo.std_err, hi.std_err)
        bad = v > 0
        return int(bad.sum()), bool(np.all(v[bad] < se[bad])) if bad.any() else True

    n1, w1 = check(ppp, mhc)
    n2, w2 = check(mhc, gcv)
    ok = (n1 + n2) <= 2 and w1 and w2
    report(5, "deployment ordering", ok,
           f"ppp<=mhc violations {n1}, mhc<=grid violations {n2} "
           f"(<=2 allowed, each within 1 combined SE) over {len(beta_db)} thresholds, "
           f"{n} trials each")


def test_criterion_06_bound_tightness():
    # ratio-kernel bound within 6 pp of simulation on 10..20 dB, never above
    params = sg.MhcParams(3.0, 0.5)
    beta_db = np.arange(10.0, 21.0, 1.0)
    prop1 = sg.coverage_bound(sg.BoundKind.PROPOSITION1, CH, params, beta_db)
    sim = quiet(sg.simulate_coverage, sg.MhcSource(params, sg.default_torus(params)),
                CH, beta_db, 100_000, 42)
    gap = sim.p_c - prop1.p_c
    mean_gap = float(np.abs(gap).mean())
    below = bool(np.all(prop1.p_c <= sim.p_c + 3 * sim.std_err))
    ok = mean_gap <= 0.06 and below
    report(6, "bound tightness", ok,
           f"mean |sim - proposition1| = {mean_gap:.4f} (limit 0.06); "
           f"bound below sim + 3 SE everywhere: {below}")


def test_criterion_07_bound_ordering():
    beta_db = np.arange(-10.0, 31.0, 2.0)
    ok = True
    details = []
    for lam_p, d in ((1.0, 0.5), (2.0, 0.4), (3.0, 0.5)):
        params = sg.MhcParams(lam_p, d)
        th1, prop1 = sg.coverage_bounds(list(sg.BoundKind), CH, params, beta_db)
        good = bool(np.all(th1.p_c <= prop1.p_c + 1e-12))
        ok &= good
        details.append(f"({lam_p:g},{d:g}): max excess "
                       f"{float((th1.p_c - prop1.p_c).max()):.2e}")
    report(7, "bound ordering", ok,
           f"theorem1 <= proposition1 at {len(beta_db)} thresholds; " + "; ".join(details))


def test_criterion_08_ppp_limit_consistency():
    # vanishing hardcore distance: the tighter bound must agree with a plain
    # Poisson simulation at matched density
    params = sg.MhcParams(1.0, 1e-3)
    lam_m = sg.mhc_density(params)
    beta_db = np.arange(-10.0, 21.0, 2.0)
    prop1 = sg.coverage_bound(sg.BoundKind.PROPOSITION1, CH, params, beta_db)
    sim = quiet(sg.simulate_coverage, sg.PppSource(lam_m, sg.Window(40.0, 40.0)),
                CH, beta_db, 60_000, 77)
    z = np.abs(sim.p_c - prop1.p_c) / sim.std_err
    ok = bool(np.all(z <= 3.0))
    report(8, "Poisson-limit consistency", ok,
           f"max |z| = {z.max():.2f} over {len(beta_db)} thresholds (limit 3)")


def test_criterion_09_quadrature_stability(monkeypatch):
    params = sg.MhcParams(3.0, 0.5)
    beta_db = [10.0, 15.0, 20.0]
    kinds = list(sg.BoundKind)
    base = sg.coverage_bounds(kinds, CH, params, beta_db, sg.QuadConfig())
    # n_r and n_upsilon doubled, n_theta at the converged 512 of the angular-rule tests
    with monkeypatch.context() as m:
        m.setattr(sg.QuadConfig, "n_theta", 512)
        fine = sg.coverage_bounds(kinds, CH, params, beta_db,
                                  sg.QuadConfig(n_r=256, n_upsilon=512))
    worst = 0.0
    for a, b in zip(base, fine):
        worst = max(worst, float(np.max(np.abs(a.p_c - b.p_c) / b.p_c)))
    ok = worst < 0.005
    report(9, "quadrature stability", ok,
           f"max relative change on the finer grids = {worst:.2e} (limit 5e-3)")


def test_criterion_10_pgfl_inequality():
    ch = sg.ChannelParams(alpha=4.0, sigma2=0.0)
    ppp = sg.pgfl_bound_check(sg.MhcParams(1.0, 1e-3), ch, 1.0, 0.3, 2000, seed=11)
    comb = math.hypot(ppp.lhs_se, ppp.rhs_se)
    eq_ok = abs(ppp.lhs - ppp.rhs) <= 3 * comb

    hard = sg.pgfl_bound_check(sg.MhcParams(1.0, 0.3), ch, 1.0, 0.3, 2000, seed=12)
    ineq_ok = hard.lhs >= hard.rhs - 3 * hard.lhs_se
    report(10, "PGFL inequality harness", eq_ok and ineq_ok,
           f"Poisson limit |lhs-rhs| = {abs(ppp.lhs - ppp.rhs):.4f} <= {3*comb:.4f}; "
           f"hardcore margin lhs-rhs = {hard.lhs - hard.rhs:+.4f} >= {-3*hard.lhs_se:.4f}")


def test_criterion_11_cli_determinism(tmp_path):
    def numeric(path):
        with open(path) as fh:
            return [l for l in fh if not l.startswith("#")]

    sim1 = tmp_path / "s1.csv"
    sim2 = tmp_path / "s2.csv"
    rc1 = cli_main(["simulate", "--source", "mhc", "--lambda-p", "2", "--d", "0.4",
                    "--beta-db=-10:5:20", "--trials", "3000", "--seed", "3",
                    "--threads", "1", "-o", str(sim1)])
    rc2 = cli_main(["simulate", "--config", str(sim1), "--threads", "2",
                    "-o", str(sim2)])
    sim_ok = rc1 == 0 and rc2 == 0 and numeric(sim1) == numeric(sim2)

    b1 = tmp_path / "b1.csv"
    b2 = tmp_path / "b2.csv"
    rc3 = cli_main(["bound", "--kind", "both", "--lambda-p", "3", "--d", "0.5",
                    "--beta-db", "10:5:20", "--n-r", "32", "--n-upsilon", "64",
                    "-o", str(b1)])
    rc4 = cli_main(["bound", "--config", str(b1), "-o", str(b2)])
    bound_ok = rc3 == 0 and rc4 == 0 and numeric(b1) == numeric(b2)

    report(11, "CLI determinism", sim_ok and bound_ok,
           f"simulate rerun identical: {sim_ok}; bound rerun identical: {bound_ok} "
           "(config-driven rerun, different worker counts)")
