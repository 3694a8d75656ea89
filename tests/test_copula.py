import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    frank_bivariate_density_direct,
    frank_mixed_partial_fd,
    frank_sample_conditional_inversion,
)
from variokrig import (
    CopulaSpec,
    DomainError,
    copula_cdf,
    fit_copula_mle,
    frank_density,
    generator,
    generator_inverse,
    joint_density,
    marginal_cdf_from_draws,
)
from variokrig import copula as copula_module
from variokrig.copula import (
    DEFAULT_STARTS,
    CopulaFit,
    joint_density_csv,
    theta_code_from_standard,
    theta_standard_from_code,
)

THETAS = {"clayton": 2.0, "frank": 5.0, "gumbel": 2.5, "joe": 3.0}


# -- generators --------------------------------------------------------------------


def test_generator_vanishes_at_one():
    for family, theta in THETAS.items():
        assert generator(family, theta, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_gumbel_theta_one_is_neg_log():
    for t in (0.1, 0.37, 0.8, 1.0):
        assert generator("gumbel", 1.0, t) == pytest.approx(-math.log(t), rel=1e-14)


def test_generator_round_trips():
    grid = np.linspace(0.02, 1.0, 40)
    for family, theta in THETAS.items():
        s = generator(family, theta, grid)
        back = generator_inverse(family, theta, s)
        assert np.abs(back - grid).max() < 1e-10
        t = np.linspace(0.05, 4.0, 30)
        assert np.abs(generator(family, theta, generator_inverse(family, theta, t)) - t).max() < 1e-10


def test_generator_decreasing_and_convex():
    ts = np.linspace(0.05, 0.95, 41)
    h = 1e-4
    for family, theta in THETAS.items():
        vals = generator(family, theta, ts)
        assert np.all(np.diff(vals) < 0.0)
        second = (
            generator(family, theta, ts + h)
            - 2.0 * vals
            + generator(family, theta, ts - h)
        ) / h**2
        assert np.all(second > 0.0)


def test_generator_domain_errors():
    with pytest.raises(DomainError):
        generator("frank", 5.0, 0.0)
    with pytest.raises(DomainError):
        generator("frank", 5.0, 1.2)
    with pytest.raises(DomainError):
        generator("frank", 0.0, 0.5)
    with pytest.raises(DomainError):
        generator("gumbel", 0.5, 0.5)


# -- copula cdf ---------------------------------------------------------------------


def test_boundary_laws():
    rng = np.random.default_rng(0)
    for family, theta in THETAS.items():
        spec = CopulaSpec(family, theta, 2)
        for v in rng.uniform(0.05, 0.95, size=8):
            assert copula_cdf(spec, [1.0, v]) == pytest.approx(v, abs=1e-12)
            assert copula_cdf(spec, [v, 1.0]) == pytest.approx(v, abs=1e-12)
            assert copula_cdf(spec, [0.0, v]) == 0.0
            assert copula_cdf(spec, [v, 0.0]) == 0.0


def test_gumbel_one_is_independence():
    spec = CopulaSpec("gumbel", 1.0, 2)
    rng = np.random.default_rng(1)
    for u, v in rng.uniform(0.05, 0.95, size=(10, 2)):
        assert copula_cdf(spec, [u, v]) == pytest.approx(u * v, rel=1e-12)


def test_frank_cdf_against_direct_form():
    theta = 5.0
    spec = CopulaSpec("frank", theta, 2)
    # independent high-precision evaluation of the closed form
    def direct(u, v):
        return (-1.0 / theta) * math.log(
            1.0 + math.expm1(-theta * u) * math.expm1(-theta * v) / math.expm1(-theta)
        )

    assert copula_cdf(spec, [0.5, 0.5]) == pytest.approx(direct(0.5, 0.5), rel=1e-12)
    rng = np.random.default_rng(2)
    for u, v in rng.uniform(0.01, 0.99, size=(20, 2)):
        assert copula_cdf(spec, [u, v]) == pytest.approx(direct(u, v), rel=1e-11)


def test_seven_dim_boundary_reduction():
    spec = CopulaSpec("frank", -2.0, 7)
    u = np.array([0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert copula_cdf(spec, u) == pytest.approx(0.3, abs=1e-12)


# -- frank density -------------------------------------------------------------------


def test_frank_density_matches_mixed_partial_7d():
    th_code = 12.0
    theta_std = theta_standard_from_code(th_code)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.15, 0.65, size=(20, 7))
    for u in pts:
        closed = frank_density(th_code, u)
        fd = frank_mixed_partial_fd(theta_std, list(u))
        assert closed == pytest.approx(fd, rel=1e-3)


def test_frank_density_matches_mixed_partial_2d():
    for th_code in (12.0, math.exp(-5.0)):
        theta_std = theta_standard_from_code(th_code)
        rng = np.random.default_rng(4)
        for u in rng.uniform(0.1, 0.9, size=(8, 2)):
            closed = frank_density(th_code, u)
            fd = frank_mixed_partial_fd(theta_std, list(u))
            direct = frank_bivariate_density_direct(theta_std, *u)
            assert closed == pytest.approx(fd, rel=1e-3)
            assert closed == pytest.approx(direct, rel=1e-9)


def test_frank_density_nonnegative_at_random_interior_points():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 0.65, size=(100, 7))
    vals = frank_density(12.0, pts)
    assert np.all(vals >= 0.0)


def test_frank_density_exchangeable():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.2, 0.8, size=7)
    base = frank_density(12.0, u)
    for _ in range(5):
        assert frank_density(12.0, rng.permutation(u)) == pytest.approx(base, rel=1e-12)


def test_frank_density_monte_carlo_integral():
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=(1_000_000, 7))
    vals = frank_density(12.0, pts)
    assert abs(vals.mean() - 1.0) < 0.02


def test_frank_density_domain():
    with pytest.raises(DomainError):
        frank_density(-1.0, np.full(7, 0.5))
    with pytest.raises(DomainError):
        frank_density(1.0 + 1e-9, np.full(7, 0.5))
    with pytest.raises(DomainError):
        frank_density(12.0, np.array([0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5]))


def test_parameterization_conversion_round_trip():
    for theta in (-3.0, -0.5, 0.7, 5.0):
        assert theta_standard_from_code(theta_code_from_standard(theta)) == pytest.approx(theta, rel=1e-14)


# -- marginal estimation ---------------------------------------------------------------


def test_marginal_degenerate_flag():
    est = marginal_cdf_from_draws(np.full(25, 3.3))
    assert est.degenerate
    assert est.cdf_at(3.3) == 1.0
    assert np.all(est.cdf == 1.0)


def test_marginal_standard_normal():
    rng = np.random.default_rng(7)
    est = marginal_cdf_from_draws(rng.standard_normal(5000))
    assert abs(est.cdf_at(0.0) - 0.5) < 0.02
    assert abs(est.cdf_at(1.0) - 0.8413) < 0.03
    diffs = np.diff(est.cdf)
    assert np.all(diffs >= -1e-12)
    assert 0.0 <= est.cdf[0] and est.cdf[-1] <= 1.0 + 1e-12
    assert np.trapezoid(est.pdf, est.grid) == pytest.approx(1.0, abs=1e-3)


def test_marginal_needs_enough_samples():
    with pytest.raises(DomainError):
        marginal_cdf_from_draws([1.0, 2.0, 3.0])


# -- maximum likelihood -----------------------------------------------------------------


def test_mle_independence_data():
    rng = np.random.default_rng(8)
    draws = rng.normal(size=(2000, 2))
    fit = fit_copula_mle(draws)
    assert abs(fit.theta) < 0.75
    assert abs(fit.loglik) / 2000.0 < 0.05


def test_mle_recovers_positive_dependence():
    rng = np.random.default_rng(9)
    sample = frank_sample_conditional_inversion(5.0, 5000, rng)
    fit = fit_copula_mle(sample)
    assert 4.25 <= fit.theta <= 5.75


def test_mle_recovers_negative_dependence():
    rng = np.random.default_rng(10)
    sample = frank_sample_conditional_inversion(-2.5, 4000, rng)
    fit = fit_copula_mle(sample)
    assert -3.3 <= fit.theta <= -1.7


def test_mle_row_permutation_invariant():
    rng = np.random.default_rng(11)
    sample = frank_sample_conditional_inversion(4.0, 800, rng)
    a = fit_copula_mle(sample)
    b = fit_copula_mle(sample[::-1].copy())
    assert a.theta == b.theta


def test_mle_needs_nondegenerate_margins():
    rows = np.column_stack([np.full(100, 1.0), np.full(100, 2.0)])
    with pytest.raises(DomainError):
        fit_copula_mle(rows)


# -- joint density -----------------------------------------------------------------------


def _near_independence_fit(margins):
    return CopulaFit("frank", -1e-5, 1.0 + 1e-5, 0.0, True, 0, False, margins)


def test_joint_density_zero_when_marginal_zero():
    rng = np.random.default_rng(12)
    sample = rng.normal(size=(500, 2))
    fit = fit_copula_mle(sample)
    far = np.array([[50.0, 0.0]])  # far outside the first margin's support
    assert joint_density(sample, fit, far)[0] == 0.0


def test_joint_density_independence_is_product_of_marginals():
    rng = np.random.default_rng(13)
    sample = rng.normal(size=(1500, 2))
    margins = tuple(marginal_cdf_from_draws(sample[:, k]) for k in range(2))
    fit = _near_independence_fit(margins)
    rows = rng.normal(size=(50, 2)) * 0.5
    joint = joint_density(sample, fit, rows)
    product = margins[0].pdf_at(rows[:, 0]) * margins[1].pdf_at(rows[:, 1])
    assert np.allclose(joint, product, rtol=1e-3)


def test_joint_density_tracks_histogram():
    rng = np.random.default_rng(14)
    sample = frank_sample_conditional_inversion(5.0, 100_000, rng)
    fit = fit_copula_mle(sample[:5000])
    edges = np.linspace(0.0, 1.0, 11)
    hist, _, _ = np.histogram2d(sample[:, 0], sample[:, 1], bins=[edges, edges], density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    rows = np.array([(x, y) for x in centers for y in centers])
    predicted = joint_density(sample[:5000], fit, rows)
    corr = np.corrcoef(predicted, hist.ravel())[0, 1]
    assert corr > 0.9


def test_joint_density_csv_layout():
    rng = np.random.default_rng(15)
    base = np.array([0.05, 1.2, 20.0, 0.5, 0.8, 150.0, 1.4])
    table = base * rng.uniform(0.8, 1.2, size=(60, 7))
    fit = fit_copula_mle(table)
    text = joint_density_csv(table, fit)
    lines = text.strip().splitlines()
    assert lines[0] == "nugget,sill1,range1,nue1,sill2,range2,nue2,dichte"
    assert len(lines) == 61
    assert all(len(ln.split(",")) == 8 for ln in lines[1:])


def test_mle_optimum_dominates_every_grid_start():
    rng = np.random.default_rng(16)
    sample = frank_sample_conditional_inversion(3.0, 600, rng)
    fit = fit_copula_mle(sample)
    scores = np.clip(
        np.column_stack([m.cdf_at(sample[:, k]) for k, m in enumerate(fit.margins)]),
        1e-12, 1.0,
    )

    def loglik(th_code):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(frank_density(th_code, scores))
        return float(np.sort(logs[np.isfinite(logs)]).sum())

    for start in DEFAULT_STARTS:
        assert fit.loglik >= loglik(start) - 1e-9


# -- scipy oracles: PCHIP margins and the BFGS loop ----------------------------------------


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _scipy_margin_at(ip, grid, v, kind):
    """cdf_at / pdf_at as computed through scipy's PchipInterpolator."""
    inside = ip(np.clip(v, grid[0], grid[-1]))
    if kind == "cdf":
        out = np.where(v < grid[0], 0.0, np.clip(inside, 0.0, 1.0))
        return np.where(v > grid[-1], 1.0, out)
    return np.where((v < grid[0]) | (v > grid[-1]), 0.0, np.maximum(inside, 0.0))


def test_pchip_coefficients_equal_scipy_in_every_branch():
    from scipy.interpolate import PchipInterpolator

    x = np.array([0.0, 0.5, 1.7, 2.0, 3.1, 4.0, 4.2, 6.0])
    cases = [
        [0.0, 0.1, 1.5, 1.6, 1.6, 1.6, 2.0, 2.5],         # both end slopes zeroed; a flat run
        [0.0, 1.0, -30.0, -30.0, 3.0, 2.0, 12.0, -40.0],  # both ends clamped to 3 m0
        [0.0, 1.0, 1.5, 1.7, 1.8, 1.85, 1.86, 1.865],     # left end kept, right end zeroed
        [5.0, 5.0, 5.0, 1.0, 1.0, 0.0, 0.0, 0.0],         # zero secants at both ends
        [2.1, 0.5, 0.1, -0.0, -0.5, -1.2, -1.4, -1.2],    # at x[3] every term is -0.0:
    ]                                                     # PPoly's sum starts from +0.0
    v = np.r_[x, (x[1:] + x[:-1]) / 2, 2.0 + 1e-12, 6.0 - 1e-12]
    for y in map(np.array, cases):
        ip = PchipInterpolator(x, y)
        c = copula_module._pchip_coefficients(x, y)
        assert _bits(c) == _bits(ip.c), y
        assert _bits(copula_module._pchip_eval(x, c, v)) == _bits(ip(v)), y


def test_pchip_margins_equal_scipy_bit_for_bit():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(21)
    # a few draws 1e4 sd from the rest: the bandwidth follows the bulk's
    # spread, so the kernel sum underflows to 0 in the gap, and both the pdf
    # and the cdf have zero-slope stretches
    table = np.column_stack([
        np.r_[rng.normal(size=76), 1e4 + rng.normal(size=4)],
        rng.gamma(2.0, size=80),
        rng.uniform(size=80),
    ])
    for k in range(table.shape[1]):
        m = marginal_cdf_from_draws(table[:, k])
        g = m.grid
        v = np.r_[g, (g[1:] + g[:-1]) / 2, m.sample, g[0] - 1.0, g[0] - 1e-9, g[-1] + 1e-9,
                  g[-1] + 1.0]
        for kind, tab, c, at in (("cdf", m.cdf, m._cdf_c, m.cdf_at),
                                 ("pdf", m.pdf, m._pdf_c, m.pdf_at)):
            ip = PchipInterpolator(g, tab)
            assert _bits(c) == _bits(ip.c), (k, kind)
            assert _bits(at(v)) == _bits(_scipy_margin_at(ip, g, v, kind)), (k, kind)
            assert at(float(v[600])) == float(_scipy_margin_at(ip, g, v[600], kind))
    flat = np.diff(marginal_cdf_from_draws(table[:, 0]).cdf) == 0.0
    assert flat.any() and not flat.all()


def test_forward_difference_equals_scipy_approx_derivative():
    # beyond |x| = 2**27 the absolute step sqrt(eps) no longer moves x
    from scipy.optimize._numdiff import approx_derivative

    def fn(lam):
        return math.sin(lam) + 1e-3 * lam * lam

    for x in (0.3, -2.0, 0.0, 3e8, -3e8):
        got = copula_module._ForwardDifference(fn).grad(np.array([x]))
        want = approx_derivative(lambda v: fn(v[0]), np.array([x]), method="2-point",
                                 abs_step=math.sqrt(np.finfo(float).eps), f0=fn(x))
        assert _bits(got) == _bits(want), x


def _posterior_draws_table():
    from variokrig import CovarianceSpec, PosteriorDraws, fit_family_batch
    from variokrig.fit import fit_results_to_csv
    from variokrig.sim import simulate_variograms

    rng = np.random.default_rng(31)
    locs = rng.uniform(0.0, 200.0, size=(40, 2))
    spec = CovarianceSpec("matern", 0.0661, 2.4523, 122.79, 0.5)
    table = simulate_variograms(locs, spec, np.linspace(0.0, 150.0, 11), 16, seed=31)
    results = fit_family_batch(table, "nested_matern", seed=31)
    return PosteriorDraws.from_csv(fit_results_to_csv(results)).table


def _strongly_dependent_table():
    rng = np.random.default_rng(32)
    z = rng.normal(size=(300, 1))
    return z + 0.01 * rng.normal(size=(300, 4))


@pytest.mark.parametrize("make_table", [_posterior_draws_table, _strongly_dependent_table])
def test_bfgs_loop_equals_minimize_for_every_start(monkeypatch, make_table):
    from scipy.optimize import minimize

    table = make_table()
    runs = []
    loop = copula_module._bfgs

    def recorded(fn, lam0, searches):
        calls = []
        out = loop(lambda lam: calls.append(1) or fn(lam), lam0, searches)
        runs.append((fn, lam0, out, len(calls)))
        return out

    monkeypatch.setattr(copula_module, "_bfgs", recorded)
    fit_copula_mle(table)
    assert [lam0 for _, lam0, _, _ in runs[:-1]] == [math.log(s) for s in DEFAULT_STARTS]
    for fn, lam0, out, n_evals in runs:  # the starts and the refinement
        res = minimize(lambda v: fn(v[0]), np.array([lam0]), method="BFGS",
                       options={"maxiter": 200000})
        assert repr(out) == repr((float(res.x[0]), float(res.fun), bool(res.success))), lam0
        assert n_evals == res.nfev, lam0


def test_fit_takes_minimize_where_the_line_searches_do_not_load(monkeypatch):
    import scipy.optimize

    rng = np.random.default_rng(33)
    sample = frank_sample_conditional_inversion(3.0, 400, rng)
    direct = fit_copula_mle(sample)

    load = copula_module.scipy_extension
    monkeypatch.setattr(copula_module, "scipy_extension",
                        lambda sub, name, needs: None if name == "_linesearch"
                        else load(sub, name, needs))
    assert copula_module._line_searches() is None
    minimize_calls, loop_calls = [], []
    minimize = scipy.optimize.minimize
    monkeypatch.setattr(scipy.optimize, "minimize",
                        lambda *a, **kw: minimize_calls.append(1) or minimize(*a, **kw))
    monkeypatch.setattr(copula_module, "_bfgs", lambda *a: loop_calls.append(1))
    fallback = fit_copula_mle(sample)

    assert len(minimize_calls) == len(DEFAULT_STARTS) + 1 and not loop_calls
    assert dataclasses.replace(fallback, margins=()) == dataclasses.replace(direct, margins=())
    for a, b in zip(fallback.margins, direct.margins):
        assert _bits(a._cdf_c) == _bits(b._cdf_c) and _bits(a._pdf_c) == _bits(b._pdf_c)
