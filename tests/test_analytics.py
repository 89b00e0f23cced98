import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree

from stochgeo import (
    MhcParams,
    MhcSource,
    ParameterError,
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
from stochgeo.pointprocess import _realizations

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


def rho2_reference(lambda_p, d, u):
    """Closed-form rho2 to 50 digits: the working precision grows by the
    digits that the cancellation at small t = lambda_p pi d^2 costs."""
    lost = max(0, int(-math.log10(lambda_p * math.pi * d * d)))
    with mpmath.workdps(60 + lost):
        lp, d, u = mpmath.mpf(lambda_p), mpmath.mpf(d), mpmath.mpf(u)
        pidd = mpmath.pi * d * d
        t = lp * pidd
        V = 2 * pidd - 2 * d * d * mpmath.acos(u / (2 * d)) + u * mpmath.sqrt(d * d - u * u / 4)
        num = 2 * V * -mpmath.expm1(-t) - 2 * pidd * -mpmath.expm1(-lp * V)
        return float(num / (pidd * V * (V - pidd)))


@pytest.mark.parametrize("lambda_p", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("d", [1e-3, 1e-7, 1e-60, 1e-150, 0.5])
def test_rho2_matches_high_precision_closed_form(lambda_p, d):
    params = MhcParams(lambda_p, d)
    for ratio in (1.01, 1.5, 1.99):
        u = ratio * d
        assert second_order_density(u, params) == pytest.approx(
            rho2_reference(lambda_p, d, u), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("lambda_p,d", [(1e-106, 1e53), (3e-200, 1e100), (1e-300, 1e150),
                                        (1e118, 1e-60), (4e150, 1e-77)])
def test_rho2_matches_high_precision_closed_form_where_d6_leaves_the_floats(lambda_p, d):
    # pi d^2 * V * (V - pi d^2) overflows or underflows here; t = lambda_p pi d^2
    # stays above the series cut-over
    params = MhcParams(lambda_p, d)
    for ratio in (1.01, 1.5, 1.99):
        assert second_order_density(ratio * d, params) == pytest.approx(
            rho2_reference(lambda_p, d, ratio * d), rel=1e-10, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(lambda_p=st.one_of(st.floats(1e-310, 1e300),  # linearly, and by decade
                          st.floats(-310.0, 300.0).map(lambda e: 10.0 ** e)),
       d=st.one_of(st.floats(0.0, 1e300), st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e)),
       ratio=st.floats(0.0, 3.0))
@example(lambda_p=3.0, d=1e200, ratio=1.5)
@example(lambda_p=1e200, d=1e-102, ratio=1.5)
@example(lambda_p=1e300, d=0.0, ratio=1.0)
@example(lambda_p=1e-310, d=1e155, ratio=1.5)
@example(lambda_p=1e-106, d=1e53, ratio=1.5)
@example(lambda_p=1e118, d=1e-60, ratio=1.5)
def test_closed_forms_are_finite_or_reject_the_parameters(lambda_p, d, ratio):
    # no OverflowError, ZeroDivisionError or float warning at any finite
    # (lambda_p, d): a finite value, or a ParameterError that names the cause
    params = MhcParams(lambda_p, d)
    for f in (mhc_density, lambda p: default_torus(p).area,
              lambda p: second_order_density(np.array([0.5, 1.0, 2.0, ratio]) * (d or 1.0), p)):
        try:
            value = f(params)
        except ParameterError:
            continue
        assert np.all(np.isfinite(value))


def test_pair_density_standard_error_survives_densities_whose_squares_underflow():
    # rho2 is about 1e-213 here; the same process in units of d is MHC(1, 1)
    rel = {}
    for params in (MhcParams(1e-106, 1e53), MhcParams(1.0, 1.0)):
        ups = np.linspace(params.d, 2 * params.d, 12)[1:-1]
        est = pair_density_empirical(params, ups, 200, seed=3)
        ref = second_order_density(ups, params)
        assert np.all(est.std_err > 0) and np.all(np.isfinite(est.std_err))
        assert np.all(np.abs(est.density - ref) <= 3 * est.std_err)
        rel[params.d] = est.std_err / ref
    assert np.allclose(rel[1e53], rel[1.0], rtol=1e-9)


def test_rho2_matches_pair_counting_oracle():
    # kernel pair-density estimator, 3 sigma gate at a mid-shell separation
    params = MhcParams(1.0, 0.5)
    est = pair_density_empirical(params, [0.6, 0.75, 0.9], 300, seed=5150)
    ref = second_order_density(est.upsilon, params)
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
    samples = nearest_distance_samples(params, n, 77, extent=r)
    assert est.probability == np.count_nonzero(samples > r) / n


@pytest.mark.parametrize("d,ups", [(5e-324, [1e-323]), (1e-170, [1.5e-170]),
                                   (0.0, [1e-300, 0.5])])
def test_pair_density_rejects_bins_whose_area_underflows(d, ups):
    # h = 0.02 d (0.02 min(u) at d = 0) or area * 2 pi u * 2h rounds to 0
    with pytest.raises(ParameterError, match="underflows"):
        pair_density_empirical(MhcParams(1.0, d), ups, 2, seed=1)


def count_neighbors_density(params, ups, n_realizations, seed):
    """pair_density_empirical's estimate from scipy's count_neighbors, which
    counts ordered pairs (self pairs included) up to each edge, on the same
    default torus and half-width; the standard error is the spread of the
    counts, normalized after."""
    window = default_torus(params, extent=float(ups.max()))
    halfwidth = 0.02 * params.d if params.d > 0 else 0.02 * float(ups.min())
    edges = np.concatenate([ups - halfwidth, ups + halfwidth])
    norm = window.area * 2.0 * math.pi * ups * 2.0 * halfwidth
    box = (window.width, window.height)
    counts = []
    for _, pts in _realizations(MhcSource(params, window), n_realizations, seed):
        tree = cKDTree(np.remainder(pts, box), boxsize=box)
        cum = np.array([tree.count_neighbors(tree, e) for e in edges])
        counts.append(cum[len(ups):] - cum[:len(ups)])
    counts = np.array(counts)
    return ((counts / norm).mean(axis=0),
            counts.std(axis=0, ddof=1) / norm / math.sqrt(n_realizations))


@settings(max_examples=60, deadline=None)
@given(lambda_p=st.floats(0.5, 4.0), d=st.one_of(st.just(0.0), st.floats(1e-300, 0.6)),
       ups=st.lists(st.floats(0.001, 1.2), min_size=1, max_size=6, unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
@example(lambda_p=2.0, d=0.5, ups=[0.005, 0.5, 1.0], seed=7)
@example(lambda_p=1.0, d=0.0, ups=[0.05, 0.3, 1.2], seed=11)
def test_pair_counts_match_count_neighbors(lambda_p, d, ups, seed):
    # edges below 0 (u < h = 0.02 d) included: count_neighbors squares them,
    # as the bins do
    params = MhcParams(lambda_p, d)
    ups = np.sort(ups)
    est = pair_density_empirical(params, ups, 3, seed)
    density, std_err = count_neighbors_density(params, ups, 3, seed)
    assert np.array_equal(est.density, density)
    assert np.array_equal(est.std_err, std_err)


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
