import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1

from stochgeo import (
    BoundKind,
    ChannelParams,
    MhcParams,
    ParameterError,
    QuadConfig,
    Window,
    coverage_bound,
    coverage_bounds,
    interference_exponent,
    mhc_density,
    pgfl_bound_check,
)
from stochgeo import bounds
from stochgeo.analytics import second_order_density
from stochgeo.bounds import (
    _exponents,
    _hyp2f1,
    _kernel_from_geometry,
    _outside_disk_integral,
    _pair_density_table,
    _read_pair_density,
)
from stochgeo.pointprocess import mhc_realization

from seed_streams import seed_sequence_rng

CH4 = ChannelParams(alpha=4.0, sigma2=0.1)

# r=1, R^2=5 (an interferer 2 from the station at a right angle), alpha=4,
# beta=1: x = 1/25
KERNEL_LOG_REF = 0.0392207131533      # log(1 + 1/25)
KERNEL_RATIO_REF = 0.0384615384615    # (1/25) / (1 + 1/25) = 1/26


def kernel(kind, r, R, beta_linear, alpha):
    """Per-interferer kernel at serving distance r and user distance R."""
    return _kernel_from_geometry(BoundKind(kind), (r / np.asarray(R, dtype=float)) ** alpha,
                                 beta_linear)


def test_quadconfig_validation_and_scaling():
    with pytest.raises(ParameterError):
        QuadConfig(n_r=8)
    with pytest.raises(ParameterError, match="n_upsilon must be >= 16"):
        QuadConfig(n_upsilon=15)
    # the angular rule is fixed: no field sets it
    assert [f.name for f in dataclasses.fields(QuadConfig)] == ["n_r", "n_upsilon"]
    assert QuadConfig().n_theta == 10 and not hasattr(bounds, "MAX_N_THETA")
    with pytest.raises(TypeError):
        QuadConfig(n_theta=16)


def test_angular_rule_is_built_once_and_read_only():
    t, w = bounds._angular_rule(16)
    assert bounds._angular_rule(16)[0] is t
    assert not (t.flags.writeable or w.flags.writeable)
    assert w.sum() == pytest.approx(2.0, rel=1e-14) and 0.0 < t.min() < t.max() < 1.0


@pytest.mark.parametrize("n", [3, 10, 16])
def test_angular_rule_integrates_the_edge_of_the_pair_density(n):
    # rho2 has a (2d - upsilon)^(3/2) edge at t = 1; in s = sqrt(1 - t) it is a
    # polynomial, so every n >= 3 integrates int_0^1 (1 - t)^(3/2) dt = 2/5 to the
    # last bits, where the plain 10-node Gauss-Legendre rule misses by 6.6e-7
    t, w = bounds._angular_rule(n)
    assert abs(w.sum() - 2.0) <= 1e-14
    assert abs(np.sum(w / 2.0 * (1.0 - t) ** 1.5) - 0.4) <= 1e-15


def test_kernel_reference_values():
    log_val = kernel(BoundKind.THEOREM1, 1.0, math.sqrt(5.0), 1.0, 4.0)
    ratio_val = kernel(BoundKind.PROPOSITION1, 1.0, math.sqrt(5.0), 1.0, 4.0)
    assert log_val == pytest.approx(KERNEL_LOG_REF, abs=1e-12)
    assert ratio_val == pytest.approx(KERNEL_RATIO_REF, abs=1e-12)
    assert ratio_val <= log_val


def test_kernel_zero_threshold():
    for kind in BoundKind:
        assert kernel(kind, 1.0, 2.0, 0.0, 4.0) == 0.0


def test_kernel_vanishes_at_infinity():
    for kind in BoundKind:
        assert kernel(kind, 1.0, 1e6, 10.0, 4.0) < 1e-20


def test_kernel_ratio_below_log_everywhere():
    rng = np.random.default_rng(4)
    R = rng.uniform(0.05, 5.0, 300)
    log_vals = kernel(BoundKind.THEOREM1, 0.7, R, 3.0, 4.0)
    ratio_vals = kernel(BoundKind.PROPOSITION1, 0.7, R, 3.0, 4.0)
    assert np.all(ratio_vals <= log_vals + 1e-15)
    assert np.all(log_vals >= 0) and np.all(ratio_vals >= 0)


def test_exponent_zero_threshold():
    res = interference_exponent(BoundKind.THEOREM1, 0.4, 0.0, 0.0, CH4,
                                MhcParams(3.0, 0.5))
    assert res.near == 0.0 and res.far == 0.0


def test_exponent_requires_positive_r():
    # r = 1e200 is finite but its square is not; at r = 1.3e154 the square is
    # finite but (r + 2d)^2 + r^2 is not
    for r in (0.0, -1.0, math.nan, math.inf, 1e200, 1.3e154):
        with pytest.raises(ParameterError):
            interference_exponent(BoundKind.THEOREM1, r, 0.0, 1.0, CH4,
                                  MhcParams(3.0, 0.5))


@pytest.mark.parametrize("kind", list(BoundKind))
@pytest.mark.parametrize("beta_linear", [math.nan, math.inf, -math.inf, -1.0])
def test_exponent_rejects_non_finite_or_negative_threshold(kind, beta_linear):
    with pytest.raises(ParameterError, match="finite"):
        interference_exponent(kind, 0.3, 0.0, beta_linear, CH4, MhcParams(3.0, 0.5))


def test_exponent_ppp_limit_matches_radial_quadrature():
    # d -> 0: the shell term vanishes and the far term reduces to the plain
    # density integral over {R >= r}, evaluated independently in user-centred
    # polar coordinates where the kernel depends on R alone.
    params = MhcParams(1.0, 1e-4)
    lam = mhc_density(params)
    r, beta = 0.5, 10.0
    for kind, kernel in ((BoundKind.THEOREM1, lambda R: np.log1p(beta * (r / R) ** 4)),
                         (BoundKind.PROPOSITION1,
                          lambda R: 1.0 / (1.0 + (R / r) ** 4 / beta))):
        res = interference_exponent(kind, r, 0.0, beta, CH4, params)
        assert res.near < 1e-4
        ref = 2 * math.pi * lam * quad(lambda R: kernel(R) * R, r, np.inf, limit=400)[0]
        assert res.near + res.far == pytest.approx(ref, rel=2e-3)


def test_exponent_matches_hardcore_palm_oracle():
    # reduced Campbell sum estimated directly on realizations: average over
    # every retained point of sum of kernel over other points farther than r
    # from the user, normalized by lambda_m * area.
    params = MhcParams(3.0, 0.5)
    lam_m = mhc_density(params)
    r = math.sqrt(math.log(2.0) / (math.pi * lam_m))  # median serving distance
    beta = 10.0
    res = interference_exponent(BoundKind.THEOREM1, r, 0.0, beta, CH4, params)
    mu_quad = res.near + res.far

    L = 24.0
    win = Window(L, L)
    n_real = 250
    vals = np.empty(n_real)
    for i in range(n_real):
        rng = seed_sequence_rng(12345, stream=i)
        parents, _, keep = mhc_realization(rng, params, win)
        pts = parents[keep]
        angles = rng.uniform(0, 2 * math.pi, len(pts))
        total = 0.0
        for j in range(len(pts)):
            user = np.remainder(pts[j] + r * np.array([math.cos(angles[j]),
                                                       math.sin(angles[j])]), (L, L))
            dist = win.distances(user, pts)
            dist[j] = np.inf
            dist = dist[dist >= r]
            total += np.log1p(beta * (r / dist) ** 4).sum()
        vals[i] = total / (lam_m * L * L)
    mc = vals.mean()
    assert abs(mu_quad - mc) / mc < 0.02


def test_exponent_phi_invariance():
    params = MhcParams(3.0, 0.5)
    for r in (0.2, 0.44, 0.9):
        a = interference_exponent(BoundKind.PROPOSITION1, r, 0.0, 10.0, CH4, params)
        b = interference_exponent(BoundKind.PROPOSITION1, r, math.pi / 3, 10.0,
                                  CH4, params)
        assert (a.near + a.far) == pytest.approx(b.near + b.far, rel=1e-4)


def test_exponent_tail_control():
    # the far term is closed form plus a compact grid: nothing is truncated
    params = MhcParams(3.0, 0.5)
    quad_cfg = QuadConfig()
    for r in (0.2, 0.44):
        for beta in (1.0, 10.0, 100.0):
            res = interference_exponent(BoundKind.PROPOSITION1, r, 0.0, beta,
                                        CH4, params, quad_cfg)
            assert res.tail_estimate == 0.0
            assert res.upsilon_max == 2 * params.d
            assert res.n_clamped == 0  # nondegenerate geometry reports none


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
def test_outside_disk_closed_form_matches_quadrature(alpha, beta):
    r = 0.7
    kernels = {BoundKind.THEOREM1: lambda R: np.log1p(beta * (r / R) ** alpha),
               BoundKind.PROPOSITION1: lambda R: 1.0 / (1.0 + (R / r) ** alpha / beta)}
    for kind, kernel in kernels.items():
        ref = 2 * math.pi * quad(lambda R: kernel(R) * R, r, np.inf, epsabs=0,
                                 epsrel=1e-13, limit=1000)[0]
        assert _outside_disk_integral(kind, r, beta, alpha) == pytest.approx(ref, rel=1e-10)


def test_outside_disk_closed_form_arctan_at_alpha_4():
    r = 0.7
    beta = np.array([1e-3, 0.5, 1.0, 10.0, 1e3])
    sq = np.sqrt(beta)
    ratio = math.pi * r * r * sq * np.arctan(sq)
    log = math.pi * r * r * (2 * sq * np.arctan(sq) - np.log1p(beta))
    assert np.allclose(_outside_disk_integral(BoundKind.PROPOSITION1, r, beta, 4.0), ratio,
                       rtol=1e-12, atol=0)
    assert np.allclose(_outside_disk_integral(BoundKind.THEOREM1, r, beta, 4.0), log,
                       rtol=1e-12, atol=0)


# both branches of _hyp2f1 and the switch between them at beta = 2
HYP2F1_BETA = np.concatenate([[0.0, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)],
                              np.geomspace(1e-12, 1e15, 136)])


@pytest.mark.parametrize("alpha", [2.001, 2.05, 2.5, 3.0, 4.0, 5.5, 8.0, 12.0, 20.0])
def test_hyp2f1_matches_scipy(alpha):
    eps = 2.0 / alpha
    want = hyp2f1(1.0, 1.0 - eps, 2.0 - eps, -HYP2F1_BETA)
    assert np.max(np.abs(_hyp2f1(eps, HYP2F1_BETA) / want - 1.0)) < 1e-13


@pytest.mark.parametrize("alpha", [2.0000001, 2.5, 7.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e12])
def test_hyp2f1_matches_mpmath(alpha):
    # at large alpha the 1/z form's two leading terms, each ~1/eps, nearly
    # cancel; scipy is off there by up to 4e-5 (at alpha = 1e12)
    eps = 2.0 / alpha
    with mpmath.workdps(40):
        b = 1 - 2 / mpmath.mpf(alpha)
        want = np.array([float(mpmath.hyp2f1(1, b, b + 1, -mpmath.mpf(x))) for x in HYP2F1_BETA])
    assert np.max(np.abs(_hyp2f1(eps, HYP2F1_BETA) / want - 1.0)) < 1e-13


def test_exponent_empty_shell_when_cutoff_covers_it():
    # large r: interferers nearer the user than the station can never sit in
    # the station's shell, but those behind it can; the shell contribution is
    # finite and the far term dominates
    params = MhcParams(3.0, 0.5)
    res = interference_exponent(BoundKind.PROPOSITION1, 3.0, 0.0, 10.0, CH4, params)
    assert res.near > 0.0  # back half-plane keeps the shell
    assert res.far > res.near


def test_exponent_node_sweep_far_nonnegative_and_kinds_ordered():
    # default grids, 40 serving distances x 9 thresholds: the far term is an
    # integral of a nonnegative kernel, and the log kernel dominates the ratio
    # kernel pointwise, so theorem1's exponent is never below proposition1's
    params = MhcParams(3.0, 0.5)
    betas = 10.0 ** (np.arange(-10.0, 31.0, 5.0) / 10.0)
    r = np.geomspace(1e-3, 3.0, 40)
    (th1_near, th1_far), (prop1_near, prop1_far) = _exponents(
        list(BoundKind), r * math.sqrt(mhc_density(params)), betas, CH4, params.kappa,
        QuadConfig())
    bad = (th1_far < 0) | (prop1_far < 0) | (th1_near + th1_far < prop1_near + prop1_far)
    assert [(float(r[j]), float(betas[i])) for i, j in zip(*np.nonzero(bad))] == []


@pytest.mark.parametrize("kind", list(BoundKind))
@pytest.mark.parametrize("d", [0.5, 0.0])
def test_exponents_over_r_match_the_single_r_exponent(kind, d):
    # r = 0.1 and 0.3 lie below d = 0.5, on the r0 = d - r branch; _exponents
    # takes r in mean spacings
    params = MhcParams(3.0, d)
    r = np.array([0.1, 0.3, 0.7, 2.0])
    betas = np.array([0.1, 1.0, 100.0])
    [(near, far)] = _exponents([kind], r * math.sqrt(mhc_density(params)), betas, CH4,
                               params.kappa, QuadConfig())
    assert near.shape == far.shape == (betas.size, r.size)
    for i, beta in enumerate(betas):
        for j, rj in enumerate(r):
            res = interference_exponent(kind, float(rj), 0.0, float(beta), CH4, params)
            assert near[i, j] == pytest.approx(res.near, rel=1e-12, abs=0.0)
            assert far[i, j] == pytest.approx(res.far, rel=1e-12, abs=0.0)


def test_exponent_alpha_at_most_2_rejected():
    with pytest.raises(ParameterError):
        ChannelParams(alpha=2.0, sigma2=0.1)
    [(near, far)] = _exponents([BoundKind.THEOREM1], np.array([0.5]), np.array([1.0]), CH4,
                               MhcParams(1.0, 0.1).kappa, QuadConfig())
    assert near[0, 0] > 0 and far[0, 0] > 0


def trapezoid_rule(n):
    """The uniform n-node trapezoid in the (t, w) form of bounds._angular_rule:
    the angular rule of the bound before the Gauss-Legendre one."""
    w = np.full(n, 2.0 / (n - 1))
    w[0] = w[-1] = 1.0 / (n - 1)
    return np.linspace(0.0, 1.0, n), w


ANGULAR_CASES = [(3.0, 0.5), (10.0, 0.5), (1.0, 1e-3), (0.2, 2.0)]
ANGULAR_BETA_DB = np.arange(-10.0, 21.0, 5.0)


@pytest.mark.parametrize("lambda_p,d", ANGULAR_CASES)
def test_bound_angular_rule_is_converged(lambda_p, d, monkeypatch):
    # the 10 fixed nodes against 512 on the same R and r grids: the measured
    # gap is at most 1.2e-9 relative
    params = MhcParams(lambda_p, d)
    worst = 0.0
    for alpha in (2.5, 4.0, 6.0):
        ch = ChannelParams(alpha=alpha, sigma2=0.1)
        got = coverage_bounds(list(BoundKind), ch, params, ANGULAR_BETA_DB)
        with monkeypatch.context() as m:
            m.setattr(QuadConfig, "n_theta", 512)
            ref = coverage_bounds(list(BoundKind), ch, params, ANGULAR_BETA_DB)
        for g, r in zip(got, ref):
            worst = max(worst, float(np.max(np.abs(g.p_c - r.p_c) / r.p_c)))
    assert worst <= 1e-8


@pytest.mark.parametrize("lambda_p,d", ANGULAR_CASES)
def test_bound_angular_rule_matches_the_trapezoid_rule(lambda_p, d, monkeypatch):
    # at the default grids the 256-node trapezoid was off by up to about
    # 1.8e-7 relative; the Gauss-Legendre curves stay that close to it
    params = MhcParams(lambda_p, d)
    alphas = (2.5, 4.0, 6.0)
    new = {alpha: coverage_bounds(list(BoundKind), ChannelParams(alpha=alpha, sigma2=0.1),
                                  params, ANGULAR_BETA_DB) for alpha in alphas}
    monkeypatch.setattr(bounds, "_angular_rule", trapezoid_rule)
    monkeypatch.setattr(QuadConfig, "n_theta", 256)
    for alpha in alphas:
        ref = coverage_bounds(list(BoundKind), ChannelParams(alpha=alpha, sigma2=0.1), params,
                              ANGULAR_BETA_DB)
        for got, want in zip(new[alpha], ref):
            assert np.max(np.abs(got.p_c - want.p_c) / want.p_c) <= 2e-7


@pytest.mark.parametrize("sigma2", [0.0, 0.1])
@pytest.mark.parametrize("lambda_p,d", [(3.0, 0.5), (1.0, 0.0)])
def test_coverage_bounds_equal_one_call_per_kind(lambda_p, d, sigma2):
    # the kinds share their weights and nothing else: bit for bit the same curves
    ch, params = ChannelParams(alpha=4.0, sigma2=sigma2), MhcParams(lambda_p, d)
    beta_db = np.arange(-10.0, 31.0, 5.0)
    curves = coverage_bounds(list(BoundKind), ch, params, beta_db)
    assert [c.label for c in curves] == [kind.value for kind in BoundKind]
    for kind, curve in zip(BoundKind, curves):
        one = coverage_bound(kind, ch, params, beta_db)
        assert np.array_equal(curve.p_c, one.p_c) and np.array_equal(curve.beta_db, one.beta_db)


def test_bound_rejects_bad_grid_before_quadrature(monkeypatch):
    def quadrature(*args):
        raise AssertionError("quadrature ran on a bad grid")

    monkeypatch.setattr(bounds, "_exponents", quadrature)
    for grid in ([], [1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ParameterError):
            coverage_bound(BoundKind.THEOREM1, CH4, MhcParams(3.0, 0.5), grid)


def test_bound_tends_to_one_without_noise():
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    curve = coverage_bound(BoundKind.PROPOSITION1, ch, MhcParams(1.0, 0.3), [-60.0])
    assert curve.p_c[0] == pytest.approx(1.0, abs=1e-3)
    assert curve.std_err is None


def test_bound_kind_ordering():
    beta_db = np.arange(-10.0, 31.0, 5.0)
    params = MhcParams(2.0, 0.4)
    th1 = coverage_bound(BoundKind.THEOREM1, CH4, params, beta_db)
    prop1 = coverage_bound(BoundKind.PROPOSITION1, CH4, params, beta_db)
    assert np.all(th1.p_c <= prop1.p_c + 1e-12)
    assert th1.label == "theorem1" and prop1.label == "proposition1"


def test_bound_monotone_in_threshold():
    curve = coverage_bound(BoundKind.PROPOSITION1, CH4, MhcParams(3.0, 0.5),
                           np.arange(-10.0, 31.0, 5.0))
    assert np.all(np.diff(curve.p_c) < 0)


@pytest.mark.parametrize("alpha", [8.0, 128.0, 600.0])
def test_bound_monotone_in_threshold_at_large_alpha(alpha):
    # the kernel falls by e over about r/alpha in R: 16 radial nodes let coverage
    # rise with the threshold at alpha = 600, the default 256 do not (measured within
    # 4.1e-4 relative of 4096 nodes there)
    ch = ChannelParams(alpha=alpha, sigma2=0.1)
    for curve in coverage_bounds(list(BoundKind), ch, MhcParams(3.0, 0.5),
                                 np.arange(-10.0, 31.0, 10.0)):
        assert np.all(np.diff(curve.p_c) <= 0)


@pytest.mark.parametrize("kind", list(BoundKind))
@pytest.mark.parametrize("lambda_p,d,alpha", [(3.0, 0.5, 4.0), (1.0, 0.3, 2.5), (1.0, 0.0, 6.0)])
def test_bound_without_noise_is_unchanged_when_the_plane_is_rescaled(kind, lambda_p, d, alpha):
    # (lambda_p, d, sigma2) -> (lambda_p s^2, d / s, sigma2 s^alpha) divides every
    # length by s and keeps the noise at the mean spacing: at sigma2 = 0 the map
    # holds from one end of the floats to the other, and with noise it holds too
    beta_db = [-10.0, 0.0, 10.0, 30.0]
    for sigma2, scales in ((0.0, (1e-100, 1e-3, 0.37, 10.0, 1e4, 1e100)),
                           (0.1, (1e-3, 0.37, 10.0, 1e4))):
        want = coverage_bound(kind, ChannelParams(alpha, sigma2), MhcParams(lambda_p, d),
                              beta_db).p_c
        for s in scales:
            ch = ChannelParams(alpha, sigma2 * s ** alpha if sigma2 else 0.0)  # s^alpha overflows
            got = coverage_bound(kind, ch, MhcParams(lambda_p * s * s, d / s), beta_db).p_c
            assert np.max(np.abs(got / want - 1.0)) < 1e-9, (sigma2, s)


def test_bound_ppp_limit_closed_form():
    # d -> 0, sigma2 = 0, alpha = 4: the ratio-kernel bound reproduces the
    # exact Poisson coverage 1 / (1 + sqrt(beta) * arctan(sqrt(beta)))
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    beta_db = np.array([-10.0, -5.0, 0.0, 5.0, 10.0, 20.0])
    curve = coverage_bound(BoundKind.PROPOSITION1, ch, MhcParams(1.0, 1e-3), beta_db)
    beta = 10 ** (beta_db / 10)
    exact = 1.0 / (1.0 + np.sqrt(beta) * np.arctan(np.sqrt(beta)))
    assert np.allclose(curve.p_c, exact, atol=5e-4)


def test_bound_at_zero_hardcore_distance_is_the_poisson_closed_form():
    # d = 0: the pair-density band is empty and the bound is the Poisson one
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    curve = coverage_bound(BoundKind.PROPOSITION1, ch, MhcParams(1.0, 0.0), [0.0, 10.0])
    beta = np.array([1.0, 10.0])
    exact = 1.0 / (1.0 + np.sqrt(beta) * (math.pi / 2 - np.arctan(1.0 / np.sqrt(beta))))
    assert np.allclose(curve.p_c, exact, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("kind", list(BoundKind))
def test_bound_below_float_resolution_of_the_band_is_the_zero_distance_one(kind):
    # 3d^2 = 3e-320 is subnormal: the band cannot hold a table and is empty; at
    # (1.7e308, 1e-170) lambda_p pi overflows, but kappa = 5e-32 does not
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    zero = coverage_bound(kind, ch, MhcParams(1.0, 0.0), [0.0, 10.0])
    for lambda_p, d in ((1.0, 1e-160), (1.7e308, 1e-170)):
        tiny = coverage_bound(kind, ch, MhcParams(lambda_p, d), [0.0, 10.0])
        assert np.all(np.isfinite(tiny.p_c))
        assert np.allclose(tiny.p_c, zero.p_c, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", list(BoundKind))
def test_bound_at_tiny_hardcore_distance_is_finite_and_the_zero_distance_one(kind):
    # d = 1e-60 still resolves the band; the pair density there once read NaN
    tiny = coverage_bound(kind, CH4, MhcParams(1.0, 1e-60), [0.0, 10.0])
    zero = coverage_bound(kind, CH4, MhcParams(1.0, 0.0), [0.0, 10.0])
    assert np.all(np.isfinite(tiny.p_c))
    assert np.allclose(tiny.p_c, zero.p_c, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("lambda_p,d", [(3.0, 0.5), (1.0, 0.3), (2.0, 0.4), (10.0, 0.5),
                                        (1.0, 1e-3)])
def test_pair_density_table_matches_closed_form(lambda_p, d):
    # the table holds rho2 / lambda_m^2
    params = MhcParams(lambda_p, d)
    ups = np.random.default_rng(5).uniform(d, 2.0 * d, 100_000)
    got = ups * ups
    _read_pair_density(_pair_density_table(params.kappa), d, got, np.empty(ups.shape, np.intp))
    exact = second_order_density(ups, params) / mhc_density(params) ** 2
    assert np.max(np.abs(got - exact)) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(lambda_p=st.one_of(st.floats(1e-3, 1e3), st.floats(1e-100, 1e100)),
       d=st.one_of(st.floats(1e-3, 10.0), st.floats(1e-150, 1e50)),
       u=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=64))
@example(lambda_p=10.0, d=0.5, u=[-0.5, 0.0, 1.0 / 4096, 0.5, 1.0 - 1.0 / 4096, 1.0, 1.5])
@example(lambda_p=1.0, d=1.3e-154, u=[-0.5, 0.0, 0.25, 1.0, 1.5])
def test_pair_density_reader_matches_np_interp(lambda_p, d, u):
    # u is the position across the band in units of its width 3d^2; u < 0 and
    # u > 1 lie below d^2 and above 4d^2, where both hold the end values
    # (the table holds rho2 / lambda_m^2)
    table = _pair_density_table(MhcParams(lambda_p, d).kappa)
    ups2 = d * d * (1.0 + 3.0 * np.array(u))
    want = np.interp(ups2, np.linspace(d * d, 4.0 * d * d, bounds.RHO2_TABLE_INTERVALS + 1),
                     table[0])
    _read_pair_density(table, d, ups2, np.empty(ups2.shape, np.intp))
    assert np.max(np.abs(ups2 - want)) <= 1e-15


@pytest.mark.parametrize("lambda_p", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("d", [0.0, 1e-160, 1.3e-154, 1e-153, 1e-150, 1e-60, 1e-3, 0.5])
def test_bound_at_extreme_scales_is_a_coverage_or_a_parameter_error(lambda_p, d):
    # band widths 3d^2 of 0, subnormal and just normal, and serving distances
    # up to 1e50 km: the pair-density table is read without overflow or 0/0
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    for kind in BoundKind:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                p_c = coverage_bound(kind, ch, MhcParams(lambda_p, d), [0.0, 10.0]).p_c
            except ParameterError:
                continue
        assert np.all(np.isfinite(p_c) & (p_c >= 0.0) & (p_c <= 1.0))


def test_pgfl_exact_at_zero_threshold():
    res = pgfl_bound_check(MhcParams(1.0, 0.3), CH4, 0.0, 0.3, 100, 1)
    assert res.lhs == 1.0 and res.rhs == 1.0 and res.gap_se == 0.0


def test_pgfl_equality_in_ppp_limit():
    ch = ChannelParams(alpha=4.0, sigma2=0.0)
    res = pgfl_bound_check(MhcParams(1.0, 1e-3), ch, 1.0, 0.3, 800, seed=11)
    comb = math.hypot(res.lhs_se, res.rhs_se)
    assert abs(res.lhs - res.rhs) <= 3 * comb
    # lhs and rhs move together over shared realizations: pairing narrows the gap's SE
    assert 0.0 < res.gap_se < comb and abs(res.lhs - res.rhs) <= 3 * res.gap_se


def test_pgfl_requires_enough_realizations():
    with pytest.raises(ParameterError):
        pgfl_bound_check(MhcParams(1.0, 0.3), CH4, 1.0, 0.3, 50, 1)


@pytest.mark.parametrize("beta_linear", [math.nan, math.inf, -1.0])
def test_pgfl_rejects_non_finite_or_negative_threshold(beta_linear):
    with pytest.raises(ParameterError):
        pgfl_bound_check(MhcParams(1.0, 0.3), CH4, beta_linear, 0.3, 100, 1)


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_pgfl_rejects_a_radius_that_is_not_finite_and_positive(r):
    with pytest.raises(ParameterError, match="r must be finite and > 0"):
        pgfl_bound_check(MhcParams(1.0, 0.3), CH4, 1.0, r, 100, 1)
