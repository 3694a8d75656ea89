import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, kve

from variokrig import DomainError, NumericError, bessel_k, bessel_k_scaled, gamma_fn, specfun


def test_gamma_identities():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)
    assert gamma_fn(0.5) ** 2 == pytest.approx(math.pi, rel=1e-12)


def test_gamma_recurrence_on_grid():
    # Gamma(x+1) = x Gamma(x) across the supported range
    for x in np.linspace(0.1, 49.0, 197):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_gamma_domain(bad):
    with pytest.raises(DomainError):
        gamma_fn(bad)


def test_bessel_half_integer_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    for x in [1e-6, 0.03, 0.5, 1.0, 7.0, 50.0, 100.0]:
        expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(expect, rel=1e-10)
    assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0) / math.e, rel=1e-12)


def test_bessel_k32_closed_form():
    # K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)
    for x in [0.01, 0.9, 4.0, 60.0]:
        expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        assert bessel_k(1.5, x) == pytest.approx(expect, rel=1e-10)


def quadrature_bessel_k(nu: float, x: float) -> float:
    """Integral representation K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt."""
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t), 0.0, 30.0,
                  limit=200)
    return val


def test_bessel_vs_quadrature_oracle():
    assert bessel_k(1.0, 1.0) == pytest.approx(quadrature_bessel_k(1.0, 1.0), rel=1e-8)
    for nu, x in [(0.0, 0.3), (0.5, 2.0), (2.7, 1.3), (5.0, 8.0), (10.0, 3.0)]:
        assert bessel_k(nu, x) == pytest.approx(quadrature_bessel_k(nu, x), rel=1e-8)


def test_bessel_determinism():
    assert bessel_k(1.7, 2.9) == bessel_k(1.7, 2.9)


def test_bessel_positive_and_decreasing():
    for nu in [0.0, 0.5, 1.0, 3.3, 12.0, 40.0]:
        xs = np.logspace(-6, 2, 60)
        vals = np.array([bessel_k(nu, float(x)) for x in xs])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


def test_scaled_variant_finite_to_700():
    for x in [1.0, 10.0, 100.0, 400.0, 700.0]:
        v = bessel_k_scaled(2.0, x)
        assert math.isfinite(v) and v > 0.0
    # consistency where both forms are representable
    assert bessel_k_scaled(1.0, 5.0) == pytest.approx(math.exp(5.0) * bessel_k(1.0, 5.0), rel=1e-12)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(-0.1, 1.0)
    with pytest.raises(DomainError):
        bessel_k(51.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)


def test_bessel_overflow_signalled():
    # K_40 explodes for tiny arguments; must raise, not return inf
    with pytest.raises(NumericError):
        bessel_k(40.0, 1e-12)


# -- the Chebyshev table of log kve at a scalar nu ------------------------------------

# lags over the whole double range of the table and around every piece edge
LAGS = np.sort(np.concatenate([
    np.geomspace(1e-300, 1e300, 400),
    np.exp(np.arange(-30.0, 8.0)),
    np.nextafter(np.exp(np.arange(-30.0, 8.0)), 0.0),
    np.random.default_rng(3).uniform(1e-3, 10.0, 500),
]))


def per_element_kve(nu, x):
    """log K_nu(x) as log(kve) - x from scipy, element by element."""
    return np.log(kve(nu, x)) - x


@pytest.mark.parametrize("nu", [0.05, 0.73, 1.0, 2.7, 10.3, 39.9, 50.0])
def test_table_value_does_not_depend_on_the_batch(nu):
    full = specfun.log_bessel_k(nu, LAGS)
    assert np.all(np.isfinite(full))
    for lo, hi in [(0, 1), (5, 90), (400, 420), (433, LAGS.size), (0, LAGS.size // 2)]:
        assert np.array_equal(specfun.log_bessel_k(nu, LAGS[lo:hi]), full[lo:hi])
    singles = np.array([specfun.log_bessel_k(nu, x) for x in LAGS[::7]])
    assert np.array_equal(singles, full[::7])
    assert np.array_equal(specfun.log_bessel_k(nu, LAGS[::-1])[::-1], full)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 7.5, 49.5])
def test_half_integer_scalar_nu_takes_kve_per_element(nu):
    x = LAGS[np.isfinite(kve(nu, LAGS)) & (LAGS < 1e6)]
    got = specfun.log_bessel_k(nu, x)
    assert np.array_equal(got.view(np.int64), per_element_kve(nu, x).view(np.int64))


def test_array_nu_takes_kve_per_element():
    x = LAGS[(LAGS > 1e-3) & (LAGS < 1e6)]
    rng = np.random.default_rng(5)
    nus = rng.uniform(0.05, 20.0, x.size)
    got = specfun.log_bessel_k(nus, x)
    assert np.array_equal(got.view(np.int64), per_element_kve(nus, x).view(np.int64))
    # a column of one repeated nu, as a fit's parameter block passes it
    col = np.full((1, x.size), 1.3)
    got = specfun.log_bessel_k(col, x)[0]
    assert np.array_equal(got.view(np.int64), per_element_kve(1.3, x).view(np.int64))


@pytest.mark.parametrize("nu", [40.0, 50.0])
def test_table_keeps_the_small_argument_form_where_kve_overflows(nu):
    x = np.geomspace(1e-14, 1e-3, 300)
    overflow = ~np.isfinite(kve(nu, x))
    assert overflow.any() and not overflow.all()
    got = specfun.log_bessel_k(nu, x)
    small = math.log(0.5) + gammaln(nu) + nu * (math.log(2.0) - np.log(x[overflow]))
    assert np.array_equal(got[overflow], small)
    # the piece holding the first finite kve is still evaluated per element
    edge = (np.floor(np.log(x)) == math.floor(math.log(x[~overflow][0]))) & ~overflow
    assert edge.any()
    assert np.array_equal(got[edge], per_element_kve(nu, x[edge]))
    # the pieces above take the table, within rounding of kve
    table = ~overflow & ~edge
    assert not np.array_equal(got[table], per_element_kve(nu, x[table]))
    assert np.allclose(got[table], per_element_kve(nu, x[table]), rtol=1e-14, atol=0.0)


def test_table_pieces_hold_only_where_kve_is_finite_and_positive():
    # every piece a finite argument can fall in: k = -745, ..., 709
    k = np.arange(-745.0, 710.0)
    coef, holds = specfun._log_kve_pieces(2.7, k[0], k.size)
    with np.errstate(over="ignore"):
        nodes = np.exp(k[:, None] + 0.5 * (specfun._NODES + 1.0))
        f = kve(2.7, nodes)
    assert np.array_equal(holds, (nodes[:, -1] >= np.finfo(float).tiny)
                          & np.all(np.isfinite(f) & (f > 0.0), axis=1))
    # kve overflows below e^-258 at nu = 2.7, and is not finite at the top
    assert np.array_equal(k[holds], np.arange(-258.0, 20.0))
    assert np.all(np.isfinite(coef[:, holds]))
    # non-finite or non-positive arguments fall back to the per-element path
    odd = np.array([0.0, math.inf, math.nan, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = specfun.log_bessel_k(2.7, odd)
        want = specfun._log_bessel_k_each(2.7, odd)
    assert np.array_equal(got[:3], want[:3], equal_nan=True)


# scipy's kve is NaN beyond about x = 1.07e9, at every nu
HUGE = np.array([1e8, 1e9, 1.08e9, 1.2e9, 1e10, 1e15, 1e300])


@pytest.mark.parametrize("nu", [0.5, 2.5, 2.7, 49.9, "array"])
def test_log_bessel_k_takes_the_large_argument_form_where_kve_is_nan(nu):
    nus = np.linspace(0.2, 40.0, HUGE.size) if nu == "array" else nu
    nan = np.isnan(kve(nus, HUGE))
    assert np.array_equal(nan, HUGE > 1.07e9)
    got = specfun.log_bessel_k(nus, HUGE)
    assert np.array_equal(got[nan], 0.5 * np.log(math.pi / (2.0 * HUGE[nan])) - HUGE[nan])
    # the form drops a factor 1 + (4 nu^2 - 1) / (8x) of K: tiny against log K,
    # at the first three lags where kve is NaN
    for x, n, value in list(zip(HUGE, np.broadcast_to(nus, HUGE.shape), got))[2:5]:
        want = float(mpmath.log(mpmath.besselk(float(n), float(x))))
        assert abs(value - want) <= 1e-14 * abs(want)
    # a NaN argument or nu stays NaN
    assert np.isnan(specfun.log_bessel_k(np.array([math.nan, 2.0]), np.array([1.0, math.nan]))).all()
