import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kve

from variokrig import (
    CovarianceSpec,
    DomainError,
    FormatError,
    NestedMaternSpec,
    covariance_eval,
    matern_eval,
    matern_spectral_density,
    nested_matern_covariance,
    nested_matern_variogram,
    spec_from_text,
    spec_to_text,
    validity_check,
    variogram_eval,
)
from variokrig._linalg import chol_with_jitter
from variokrig import models, specfun
from variokrig.models import distances, variogram_rows

ALL_KINDS = [
    ("exponential", None),
    ("gaussian", None),
    ("spherical", None),
    ("circular", None),
    ("triangle", None),
    ("cubic", None),
    ("penta", None),
    ("power", 2.5),
    ("stable", 1.3),
    ("wave", None),
    ("cauchy", 1.1),
    ("matern", 1.7),
]


def make_spec(kind, shape, nugget=0.3, sill=2.0, range_=3.0):
    return CovarianceSpec(kind, nugget, sill, range_, shape)


def test_exponential_examples():
    spec = CovarianceSpec("exponential", 0.0, 1.0, 1.0)
    assert covariance_eval(spec, 0.0) == pytest.approx(1.0, abs=0.0)
    assert covariance_eval(spec, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-14)


def test_spherical_vanishes_at_range():
    spec = CovarianceSpec("spherical", 0.0, 1.0, 2.0)
    assert covariance_eval(spec, 2.0) == 0.0
    assert covariance_eval(spec, 5.0) == 0.0


def test_variogram_examples():
    for kind, shape in ALL_KINDS:
        assert variogram_eval(make_spec(kind, shape), 0.0) == 0.0
    gauss = CovarianceSpec("gaussian", 0.0, 1.0, 1.0)
    assert variogram_eval(gauss, 100.0) == pytest.approx(1.0, abs=1e-12)
    expo = CovarianceSpec("exponential", 0.5, 1.0, 1.0)
    assert variogram_eval(expo, 1e-9) == pytest.approx(0.5, abs=1e-6)


def test_covariance_at_zero_is_exact():
    for kind, shape in ALL_KINDS:
        spec = make_spec(kind, shape, nugget=0.25, sill=1.75)
        assert covariance_eval(spec, 0.0) == 2.0


def test_matern_half_nu_is_exponential():
    r = 122.79
    spec_exp = CovarianceSpec("exponential", 0.0, 1.0, r / math.sqrt(2.0))
    h = np.linspace(1e-9, 10.0 * r, 1000)
    diff = matern_eval(0.0, 1.0, r, 0.5, h) - covariance_eval(spec_exp, h)
    assert np.abs(diff).max() < 1e-10


def test_matern_reference_sill():
    assert matern_eval(0.0661, 2.4523, 122.79, 0.5, 0.0) == pytest.approx(2.5184, abs=1e-12)


def test_matern_nu32_closed_form():
    # correlation for nu = 3/2 collapses to exp(-u) (1 + u)
    range_ = 5.0
    a_s = range_ / (2.0 * math.sqrt(1.5))
    for h in [0.01, 0.5, 2.0, 7.0, 30.0]:
        u = h / a_s
        expect = math.exp(-u) * (1.0 + u)
        assert matern_eval(0.0, 1.0, range_, 1.5, h) == pytest.approx(expect, rel=1e-8)


def test_nested_reduces_to_single_when_second_sill_vanishes():
    nested = NestedMaternSpec(0.1, 1.4, 20.0, 0.8, 0.0, 55.0, 2.0)
    h = np.linspace(0.0, 80.0, 97)
    single = matern_eval(0.1, 1.4, 20.0, 0.8, h)
    assert np.allclose(nested_matern_covariance(nested, h), single, rtol=0.0, atol=1e-14)


def test_nested_origin_branches():
    nested = NestedMaternSpec(0.2, 1.0, 10.0, 0.5, 0.7, 30.0, 1.1)
    assert nested_matern_variogram(nested, 0.0) == 0.0
    assert nested_matern_covariance(nested, 0.0) == pytest.approx(1.9, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    nugget=st.floats(0.0, 1.0),
    sill1=st.floats(0.01, 5.0),
    range1=st.floats(0.5, 200.0),
    nu1=st.floats(0.1, 5.0),
    sill2=st.floats(0.01, 5.0),
    range2=st.floats(0.5, 200.0),
    nu2=st.floats(0.1, 5.0),
    h=st.floats(1e-6, 500.0),
)
def test_nested_is_sum_of_singles(nugget, sill1, range1, nu1, sill2, range2, nu2, h):
    nested = NestedMaternSpec(nugget, sill1, range1, nu1, sill2, range2, nu2)
    expect = (
        nugget
        + (matern_eval(0.0, sill1, range1, nu1, 0.0) - matern_eval(0.0, sill1, range1, nu1, h))
        + (matern_eval(0.0, sill2, range2, nu2, 0.0) - matern_eval(0.0, sill2, range2, nu2, h))
    )
    assert nested_matern_variogram(nested, h) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    idx=st.integers(0, len(ALL_KINDS) - 1),
    nugget=st.floats(0.0, 2.0),
    sill=st.floats(0.0, 5.0),
    range_=st.floats(0.1, 50.0),
    h=st.floats(0.0, 500.0),
)
def test_bounded_by_origin_and_complement(idx, nugget, sill, range_, h):
    kind, shape = ALL_KINDS[idx]
    spec = CovarianceSpec(kind, nugget, sill, range_, shape)
    c0 = covariance_eval(spec, 0.0)
    ch = covariance_eval(spec, h)
    assert abs(ch) <= c0 + 1e-12
    if h > 0.0:
        assert variogram_eval(spec, h) == pytest.approx(c0 - ch, abs=1e-12)


def test_variogram_bounded_at_large_lags():
    for kind, shape in ALL_KINDS:
        spec = make_spec(kind, shape)
        g = variogram_eval(spec, np.array([1e3, 1e4, 1e5]))
        assert np.all(g <= spec.total_sill + spec.sill + 1e-9)


def test_spectral_density_examples():
    phi, alpha, nu = 1.7, 1.3, 0.9
    assert matern_spectral_density(phi, alpha, nu, 0.0) == pytest.approx(
        phi * alpha ** (-2.0 * nu - 1.0), rel=1e-14
    )
    w = np.linspace(0.1, 30.0, 23)
    assert np.allclose(
        matern_spectral_density(phi, alpha, nu, w),
        matern_spectral_density(phi, alpha, nu, -w),
    )


def test_spectral_density_fourier_oracle():
    # inverse transform of the nu = 1/2 density matches pi phi e^{-|t|} / alpha
    t = 1.0
    val, _ = quad(
        lambda w: matern_spectral_density(1.0, 1.0, 0.5, w) * math.cos(w * t),
        -200.0,
        200.0,
        limit=400,
    )
    expect = math.pi * math.exp(-1.0)
    assert val == pytest.approx(expect, rel=1e-3)


def test_validity_catalogue():
    spherical = CovarianceSpec("spherical", 0.0, 1.0, 1.0)
    assert validity_check(spherical, 3) and not validity_check(spherical, 4)
    power1 = CovarianceSpec("power", 0.0, 1.0, 1.0, 1.0)
    assert validity_check(power1, 1) and not validity_check(power1, 2)
    gauss = CovarianceSpec("gaussian", 0.0, 1.0, 1.0)
    assert validity_check(gauss, 10)
    circular = CovarianceSpec("circular", 0.0, 1.0, 1.0)
    assert validity_check(circular, 2) and not validity_check(circular, 3)
    triangle = CovarianceSpec("triangle", 0.0, 1.0, 1.0)
    assert validity_check(triangle, 1) and not validity_check(triangle, 2)
    # weak inequality at the power-model boundary
    power2 = CovarianceSpec("power", 0.0, 1.0, 1.0, 1.5)
    assert validity_check(power2, 2)


def test_gram_matrices_factor_with_at_most_first_jitter():
    rng = np.random.default_rng(7)
    for kind, shape in ALL_KINDS:
        spec = CovarianceSpec(kind, 0.1, 1.5, 2.0, shape)
        dim = int(min(spec.valid_dims, 3))
        for _ in range(50):
            n = int(rng.integers(2, 21))
            pts = rng.uniform(0.0, 10.0, size=(n, dim))
            D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
            K = covariance_eval(spec, D)
            _, delta = chol_with_jitter(K)
            assert delta <= 1e-10 * np.trace(K) / n + 1e-30


def test_invalid_specs_rejected_at_construction():
    with pytest.raises(DomainError):
        CovarianceSpec("exponential", -0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        CovarianceSpec("exponential", 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        CovarianceSpec("matern", 0.0, 1.0, 1.0, 41.0)
    with pytest.raises(DomainError):
        CovarianceSpec("matern", 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        CovarianceSpec("stable", 0.0, 1.0, 1.0, 2.5)
    with pytest.raises(DomainError):
        CovarianceSpec("gaussian", 0.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        NestedMaternSpec(0.1, 1.0, 0.0, 0.5, 1.0, 1.0, 0.5)


def test_wave_at_origin_is_sill():
    spec = CovarianceSpec("wave", 0.0, 2.0, 3.0)
    assert covariance_eval(spec, 0.0) == 2.0
    assert covariance_eval(spec, 1e-12) == pytest.approx(2.0, rel=1e-9)


def test_serialization_round_trip():
    text = "kind=matern nugget=0.0661 sill=2.4523 range=122.79 nu=0.5"
    spec = spec_from_text(text)
    assert spec == CovarianceSpec("matern", 0.0661, 2.4523, 122.79, 0.5)
    assert spec_from_text(spec_to_text(spec)) == spec
    # field order irrelevant
    shuffled = "nu=0.5 range=122.79 kind=matern sill=2.4523 nugget=0.0661"
    assert spec_from_text(shuffled) == spec
    nested = NestedMaternSpec(0.1, 1.0, 10.0, 0.5, 0.5, 50.0, 1.5)
    assert spec_from_text(spec_to_text(nested)) == nested


def test_serialization_requires_decimal_point():
    with pytest.raises(FormatError):
        spec_from_text("kind=matern nugget=0 sill=2.4523 range=122.79 nu=0.5")
    # every serialized value carries a point
    spec = CovarianceSpec("exponential", 0.0, 1.0, 2.0)
    for token in spec_to_text(spec).split()[1:]:
        assert "." in token.partition("=")[2]


def test_serialization_errors():
    with pytest.raises(FormatError):
        spec_from_text("kind=unknown nugget=0.0 sill=1.0 range=1.0")
    with pytest.raises(FormatError):
        spec_from_text("nugget=0.0 sill=1.0 range=1.0")
    with pytest.raises(FormatError):
        spec_from_text("kind=exponential nugget=0.0 sill=1.0 range=1.0 whatever=1.0")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distances_equal_cdist_bitwise(dim):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(dim)
    for scale in (1e-3, 1.0, 150.0, 1e5):
        a = rng.uniform(-1.0, 1.0, size=(40, dim)) * scale
        b = np.vstack([rng.uniform(-1.0, 1.0, size=(25, dim)) * scale, a[:3]])
        assert np.array_equal(distances(a, b), cdist(a, b))
        assert np.array_equal(distances(a, a), cdist(a, a))
    with pytest.raises(DomainError, match="dimension"):
        distances(a, np.ones((2, dim + 1)))


def test_stacked_difference_blocks_evaluate_three_matern_rows_per_block(monkeypatch):
    # a difference block moves one parameter per row; per nested component
    # only the point, its range row and its smoothness row differ
    rng = np.random.default_rng(12)
    h = np.linspace(5.0, 200.0, 11)
    blocks = []
    for _ in range(5):
        x = np.array([0.05, 1.2, rng.uniform(10.0, 60.0), rng.uniform(0.3, 2.0),
                      0.9, rng.uniform(80.0, 300.0), rng.uniform(0.3, 2.0)])
        block = np.tile(x, (8, 1))
        block[1:][np.diag_indices(7)] += 1e-8
        blocks.append(block)
    X = np.vstack(blocks)
    sizes = []
    log_bessel_k = models.log_bessel_k
    monkeypatch.setattr(models, "log_bessel_k",
                        lambda nu, u: sizes.append(u.size) or log_bessel_k(nu, u))
    got = variogram_rows("nested_matern", X, h)
    assert sizes == [2 * 5 * 3 * h.size]  # both components in one call
    expect = np.array([variogram_eval(NestedMaternSpec(*row), h) for row in X])
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_rows_sharing_range_and_nu_evaluate_the_pair_once(monkeypatch):
    # two columns' rows: a pair recurs within a column, across the columns
    # and across the components; the next float up and a moved nu are pairs
    # of their own
    a, b, c = (30.0, 0.8), (120.0, 1.5), (200.0, 2.5)
    X = np.array([
        [0.1, 1.0, *a, 0.5, *b],
        [0.2, 1.1, *a, 0.6, *c],
        [0.0, 0.9, *b, 0.4, *a],
        [0.1, 1.0, *c, 0.5, np.nextafter(120.0, 200.0), 1.5],
        [0.1, 1.0, 30.0, 0.8 + 1e-8, 0.5, *b],
    ])
    h = np.array([0.0, 3.0, 15.0, 40.0, 90.0, 160.0, 300.0])
    sizes = []
    log_bessel_k = models.log_bessel_k
    monkeypatch.setattr(models, "log_bessel_k",
                        lambda nu, u: sizes.append(u.size) or log_bessel_k(nu, u))
    got = variogram_rows("nested_matern", X, h)
    assert sizes == [5 * (h.size - 1)]  # every pair once, at the lags above 0
    for row, values in zip(X, got):
        expect = variogram_eval(NestedMaternSpec(*row), h)
        assert np.array_equal(values.view(np.int64), expect.view(np.int64))


# Relative error of matern_correlation against the 50-digit oracle, measured
# over 3000 log-spaced arguments from 1e-12 to 1e3 for each nu below
# (numpy 2.4, scipy 1.17): at most 1.6e-13 where scipy's kve is finite, and
# 4.6e-12 where the small-argument form of specfun.log_bessel_k takes over
# (nu = 50 just below u = 3e-5; the dropped term u^2 / (4 (nu - 1)) is that
# size there). The tolerances keep about a factor 2.5 over those maxima.
MATERN_RTOL = 4e-13
MATERN_RTOL_SMALL_ARGUMENT = 1e-11


@pytest.mark.parametrize("nu", [0.5, 2.5, 10.0, 40.0, 50.0])
def test_matern_correlation_matches_the_mpmath_oracle(nu):
    # from a tiny lag to past the lag where the correlation underflows to 0,
    # densely where nu >= 40 switches to the small-argument form
    u = np.sort(np.concatenate([np.geomspace(1e-12, 1e3, 160), np.geomspace(1e-6, 1e-4, 40)]))
    got = models.matern_correlation(u, nu)
    want = np.array([oracles.matern_correlation_mp(x, nu) for x in u])
    assert want[-1] == 0.0
    small = ~(np.isfinite(kve(nu, u)) & (kve(nu, u) > 0.0))
    assert small.any() == (nu >= 40.0)
    tiny = np.finfo(float).tiny
    normal = want >= tiny
    err = np.abs(got - want)
    rtol = np.where(small, MATERN_RTOL_SMALL_ARGUMENT, MATERN_RTOL)
    assert np.all(err[normal] <= rtol[normal] * want[normal])
    # below the normal range the float grid is absolute: compare absolutely
    assert np.all(err[~normal] <= MATERN_RTOL * tiny)


# A scalar nu that is not a half-integer takes specfun's Chebyshev table of
# log kve. Measured against the oracle over 200 random lags from 1e-12 to
# 1e3 for each of 59 nu in (0, 50] (numpy 2.4, scipy 1.17): at most 2.3e-13
# relative where a table piece holds, near nu = 25 at u = 3e-11.
@pytest.mark.parametrize("nu", [0.05, 0.3, 0.73, 1.3, 2.7, 10.3, 25.7, 39.9, 49.9])
def test_matern_correlation_from_the_table_matches_the_mpmath_oracle(nu):
    u = np.sort(np.concatenate([np.geomspace(1e-12, 1e3, 160),
                                np.random.default_rng(17).uniform(1e-3, 20.0, 40)]))
    got = models.matern_correlation(u, nu)
    want = np.array([oracles.matern_correlation_mp(x, nu) for x in u])
    small = ~(np.isfinite(kve(nu, u)) & (kve(nu, u) > 0.0))
    assert small.any() == (nu > 25.0)
    tiny = np.finfo(float).tiny
    normal = want >= tiny
    err = np.abs(got - want)
    rtol = np.where(small, MATERN_RTOL_SMALL_ARGUMENT, MATERN_RTOL)
    assert np.all(err[normal] <= rtol[normal] * want[normal])
    assert np.all(err[~normal] <= MATERN_RTOL * tiny)


@pytest.mark.parametrize("nu", [0.3, 1.3, 2.0, 25.7])
def test_matern_correlation_does_not_depend_on_the_batch(nu):
    rng = np.random.default_rng(23)
    u = np.concatenate([[0.0], np.exp(rng.uniform(-28.0, 7.0, 600)), rng.uniform(0.0, 5.0, 300)])
    full = models.matern_correlation(u, nu)
    for lo, hi in [(0, 1), (1, 2), (3, 250), (250, u.size)]:
        assert np.array_equal(models.matern_correlation(u[lo:hi], nu), full[lo:hi])
    singles = np.array([models.matern_correlation(x, nu) for x in u[::11]])
    assert np.array_equal(singles, full[::11])
    grid = models.matern_correlation(u[:900].reshape(30, 30), nu)
    assert np.array_equal(grid.ravel(), full[:900])


def test_variogram_eval_is_the_one_row_of_variogram_rows(monkeypatch):
    # a Matern variogram stays on kve per element whatever its nu: fits
    # compare it with their parameter blocks bit for bit
    def no_table(nu, x):
        raise AssertionError("a variogram read the table")

    monkeypatch.setattr(specfun, "_log_bessel_k_table", no_table)
    h = np.linspace(0.0, 300.0, 41)
    for spec in (CovarianceSpec("matern", 0.1, 1.5, 90.0, 0.8),
                 CovarianceSpec("matern", 0.0, 2.0, 40.0, 2.5),
                 CovarianceSpec("stable", 0.1, 1.5, 90.0, 1.3),
                 NestedMaternSpec(0.05, 1.2, 25.0, 0.6, 0.9, 160.0, 1.3)):
        family, params = models._spec_row(spec)
        rows = variogram_rows(family, np.vstack([params, params * 1.01]), h)
        got = variogram_eval(spec, h)
        assert np.array_equal(got.view(np.int64), rows[0].view(np.int64))
        assert variogram_eval(spec, h[7]) == rows[0, 7]


def test_matern_of_huge_lags_is_zero():
    # kve is NaN there: the small-argument form read 1
    u = np.array([1e9, 1.2e9, 1e10, 1e300])
    for nu, lags in ((2.7, u), (2.5, u), (np.array([[2.7], [0.5]]), np.vstack([u, u]))):
        assert np.array_equal(models.matern_correlation(lags, nu), np.zeros(lags.shape))
    spec = CovarianceSpec("matern", 0.0, 1.0, 1e-3, 1.3)
    assert np.array_equal(covariance_eval(spec, [0.0, 1.0, 1e6]), [1.0, 0.0, 0.0])
    assert variogram_eval(spec, 1e6) == 1.0
