import math

import numpy as np
import pytest
from scipy.integrate import quad

from stochgeo import (
    MhcParams,
    ParameterError,
    SecondOrderDensity,
    Window,
    default_torus,
    disc_union_area,
    empty_space_cdf,
    empty_space_ks,
    empty_space_pdf,
    mhc_density,
    nearest_distance_samples,
    pair_density_empirical,
    retention_probability,
    second_order_density,
    void_probability_empirical,
)

# scalar reference values, evaluated at 30 decimal digits
P_RETAIN_1_05 = 0.6927210905109832        # lambda_p=1, d=0.5
LAM_M_2_04 = 1.2614395845013864
LAM_M_3_05 = 1.1525616144072410
UNION_AREA_1_1 = 5.05481560857083         # two unit discs, centers 1 apart
MEDIAN_R_1_05 = 0.564363072283            # empty-space median at lam_m(1,0.5)
VOID_REF_1_05_R05 = 0.580386004251        # exp(-lam_m*pi*0.25)


def test_retention_limit_d_zero():
    assert retention_probability(MhcParams(1.0, 0.0)) == 1.0


def test_retention_reference_value():
    assert retention_probability(MhcParams(1.0, 0.5)) == pytest.approx(
        P_RETAIN_1_05, abs=1e-12)


def test_retention_vanishes_at_high_density():
    assert retention_probability(MhcParams(1e9, 0.5)) < 1e-8


def test_retention_identity_machine_precision():
    # p * lambda_p * pi * d^2 == 1 - exp(-lambda_p * pi * d^2)
    for lam in (0.1, 1.0, 2.0, 3.0, 17.0):
        for d in (0.01, 0.1, 0.4, 0.5, 2.0):
            t = lam * math.pi * d * d
            p = retention_probability(MhcParams(lam, d))
            assert p * t == pytest.approx(-math.expm1(-t), rel=1e-14)


def test_density_values_and_limits():
    assert mhc_density(MhcParams(1.0, 0.5)) == pytest.approx(P_RETAIN_1_05, abs=1e-12)
    assert mhc_density(MhcParams(2.0, 0.4)) == pytest.approx(LAM_M_2_04, abs=1e-12)
    assert mhc_density(MhcParams(3.0, 0.5)) == pytest.approx(LAM_M_3_05, abs=1e-12)
    assert mhc_density(MhcParams(5.0, 0.0)) == 5.0
    # saturation: lambda_m < 1/(pi d^2), approached as lambda_p grows
    sat = 1.0 / (math.pi * 0.25)
    assert mhc_density(MhcParams(1e9, 0.5)) == pytest.approx(sat, rel=1e-6)
    for lam in (0.5, 1.0, 3.0, 10.0):
        assert mhc_density(MhcParams(lam, 0.5)) < sat


def test_union_area_boundaries():
    for d in (0.3, 1.0, 2.5):
        assert disc_union_area(2 * d, d) == pytest.approx(2 * math.pi * d * d, rel=1e-14)
        assert disc_union_area(5 * d, d) == pytest.approx(2 * math.pi * d * d, rel=1e-14)
        assert disc_union_area(0.0, d) == pytest.approx(math.pi * d * d, rel=1e-14)


def test_union_area_reference_value():
    assert disc_union_area(1.0, 1.0) == pytest.approx(UNION_AREA_1_1, abs=1e-12)


def test_union_area_dart_oracle():
    # direct area estimate: uniform darts over the bounding box of the union
    rng = np.random.default_rng(314159)
    n = 2_000_000
    x = rng.uniform(-1.0, 2.0, n)
    y = rng.uniform(-1.0, 1.0, n)
    inside = (x * x + y * y <= 1.0) | ((x - 1.0) ** 2 + y * y <= 1.0)
    p_hat = inside.mean()
    mc = 6.0 * p_hat
    sigma = 6.0 * math.sqrt(p_hat * (1 - p_hat) / n)
    assert abs(mc - disc_union_area(1.0, 1.0)) < 4 * sigma


def test_union_area_monotone():
    d = 0.7
    u = np.linspace(0, 2 * d, 200)
    v = disc_union_area(u, d)
    assert np.all(np.diff(v) >= -1e-12)
    assert np.all(disc_union_area(np.linspace(2 * d, 10 * d, 50), d)
                  == pytest.approx(2 * math.pi * d * d))


def test_union_area_rejects_negative():
    with pytest.raises(ParameterError):
        disc_union_area(-0.1, 1.0)
    with pytest.raises(ParameterError):
        disc_union_area(1.0, -1.0)


def test_rho2_zero_below_hardcore():
    params = MhcParams(1.0, 0.5)
    assert second_order_density(0.25, params) == 0.0  # 0.5 * d
    assert np.all(second_order_density(np.linspace(0, 0.499, 50), params) == 0.0)


def test_rho2_uncorrelated_beyond_2d():
    params = MhcParams(2.0, 0.4)
    lam2 = mhc_density(params) ** 2
    assert second_order_density(0.8, params) == pytest.approx(lam2, rel=1e-12)
    assert second_order_density(3.0, params) == pytest.approx(lam2, rel=1e-12)


def test_rho2_continuity_at_2d():
    for lam, d in ((1.0, 0.5), (2.0, 0.4), (3.0, 0.5)):
        params = MhcParams(lam, d)
        lam2 = mhc_density(params) ** 2
        eps = 1e-8 * d
        gap = abs(second_order_density(2 * d - eps, params) - lam2)
        assert gap / lam2 < 1e-6


def test_rho2_nonnegative_everywhere():
    params = MhcParams(1.0, 0.5)
    u = np.linspace(0.0, 2.0, 500)
    assert np.all(second_order_density(u, params) >= 0.0)


def test_rho2_matches_pair_counting_oracle():
    # kernel pair-density estimator, 3 sigma gate at a mid-shell separation
    params = MhcParams(1.0, 0.5)
    est = pair_density_empirical(params, [0.6, 0.75, 0.9], 300, seed=5150)
    ref = SecondOrderDensity(params)(est.upsilon)
    z = np.abs(est.density - ref) / est.std_err
    assert np.all(z < 3.0), f"z-scores {z}"


def test_empty_space_pdf_normalizes():
    lam_m = mhc_density(MhcParams(1.0, 0.5))
    total, err = quad(lambda r: empty_space_pdf(r, lam_m), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_empty_space_cdf_shape():
    lam_m = 0.8
    r = np.linspace(0, 5, 200)
    c = empty_space_cdf(r, lam_m)
    assert c[0] == 0.0
    assert np.all(np.diff(c) >= 0)
    assert np.all(np.diff(c[r < 2.0]) > 0)  # strict until float saturation
    assert c[-1] > 1 - 1e-9
    # pdf is the derivative of the cdf (finite-difference check)
    h = 1e-6
    mid = 0.7
    fd = (empty_space_cdf(mid + h, lam_m) - empty_space_cdf(mid - h, lam_m)) / (2 * h)
    assert fd == pytest.approx(empty_space_pdf(mid, lam_m), rel=1e-8)


def test_empty_space_median_closed_form():
    lam_m = mhc_density(MhcParams(1.0, 0.5))
    r_star = math.sqrt(math.log(2.0) / (math.pi * lam_m))
    assert r_star == pytest.approx(MEDIAN_R_1_05, abs=1e-9)
    assert empty_space_cdf(r_star, lam_m) == pytest.approx(0.5, abs=1e-12)


def test_void_probability_small_radius():
    est = void_probability_empirical(MhcParams(1.0, 0.5), 1e-4, 200, seed=9)
    assert est.probability == 1.0


def test_void_probability_large_radius():
    est = void_probability_empirical(MhcParams(1.0, 0.5), 6.0, 200, seed=9)
    assert est.probability == 0.0


def test_void_probability_matches_exponential_form():
    est = void_probability_empirical(MhcParams(1.0, 0.5), 0.5, 800, seed=77)
    assert abs(est.probability - VOID_REF_1_05_R05) < 3 * est.std_error


def test_void_probability_is_share_of_nearest_distances_beyond_r():
    params, r, n = MhcParams(1.0, 0.5), 0.5, 120
    est = void_probability_empirical(params, r, n, seed=77)
    samples = nearest_distance_samples(params, n, 77, default_torus(params, extent=r))
    assert est.probability == np.count_nonzero(samples > r) / n


def test_pair_density_rejects_guard_window():
    with pytest.raises(ParameterError, match="toroidal"):
        pair_density_empirical(MhcParams(1.0, 0.5), [0.6], 2, seed=1,
                               window=Window(20.0, 20.0, edge="guard"))


def test_void_probability_warns_when_underpowered():
    with pytest.warns(UserWarning, match="realizations"):
        void_probability_empirical(MhcParams(1.0, 0.5), 0.5, 10, seed=1)


def test_empty_space_ks_reproducible():
    params = MhcParams(2.0, 0.1)
    a = empty_space_ks(params, 200, seed=3)
    b = empty_space_ks(params, 200, seed=3)
    assert a == b
    assert 0.0 <= a.statistic <= 1.0
    assert a.n_samples == 200
