import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from variokrig import fit as fit_module
from variokrig import (
    CovarianceSpec,
    DomainError,
    EmpiricalVariogram,
    FitBounds,
    NestedMaternSpec,
    fit_family_batch,
    fit_nested_matern_batch,
    fit_variogram,
    nested_matern_variogram,
    start_values_nested_matern,
    variogram_eval,
)
from variokrig.empvario import VariogramBin
from variokrig.fit import (
    MAX_EVALS,
    OBJ_RTOL,
    _emp_arrays,
    _forward_difference,
    _objective,
    _column_emp,
    _make_spec,
    _objective_rows,
    _restart_rng,
    _stacked_objectives,
    default_bounds,
    fit_results_to_csv,
    param_names,
    start_values_nested_matern,
    start_values_simple,
)
from variokrig.models import KINDS, valid_rows
from variokrig.sim import make_grid


def emp_from_values(h, g, n=50):
    bins = tuple(
        VariogramBin(float(d), float(d), float(v), int(n)) for d, v in zip(h, g)
    )
    return EmpiricalVariogram(bins, "matheron", float(max(h)))


def canonical_components(params):
    """Order the two Matern components by range so recovery checks are
    invariant to the component swap symmetry."""
    c1, c2 = tuple(params[1:4]), tuple(params[4:7])
    first, second = sorted([c1, c2], key=lambda c: c[1])
    return np.array([params[0], *first, *second])


def test_exponential_recovery_from_exact_values():
    true = CovarianceSpec("exponential", 0.0, 1.0, 2.0)
    h = np.linspace(0.3, 12.0, 20)
    emp = emp_from_values(h, variogram_eval(true, h))
    for method in ("ols", "wls", "gls"):
        res = fit_variogram(emp, "exponential", method=method)
        assert res.converged
        assert res.params[0] == pytest.approx(0.0, abs=0.01)
        assert res.params[1] == pytest.approx(1.0, rel=0.01)
        assert res.params[2] == pytest.approx(2.0, rel=0.01)


def test_fit_from_optimum_is_fixed_point():
    true = CovarianceSpec("exponential", 0.1, 1.5, 3.0)
    h = np.linspace(0.3, 15.0, 18)
    emp = emp_from_values(h, variogram_eval(true, h))
    res = fit_variogram(emp, "exponential", method="ols", start=np.array([0.1, 1.5, 3.0]))
    assert res.converged
    assert res.objective <= 1e-20


def test_wls_and_ols_coincide_on_flat_data():
    # constant empirical values with equal bin counts: both methods drive
    # the objective to zero and produce the same fitted curve
    h = np.linspace(1.0, 10.0, 10)
    emp = emp_from_values(h, np.full(10, 0.7))
    bounds = FitBounds(np.array([0.0, 1e-12, 0.1]), np.array([2.0, 2.0, 50.0]))
    ols = fit_variogram(emp, "exponential", method="ols", bounds=bounds)
    wls = fit_variogram(emp, "exponential", method="wls", bounds=bounds)
    assert ols.objective <= 1e-10 and wls.objective <= 1e-10
    curve_o = variogram_eval(ols.spec(), h)
    curve_w = variogram_eval(wls.spec(), h)
    assert np.allclose(curve_o, curve_w, atol=1e-4)


def test_params_respect_bounds_exactly():
    rng = np.random.default_rng(0)
    h = np.linspace(1.0, 50.0, 12)
    g = variogram_eval(CovarianceSpec("exponential", 0.2, 1.0, 5.0), h)
    g = g * rng.uniform(0.8, 1.2, size=g.size)
    emp = emp_from_values(h, g)
    bounds = FitBounds(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.9, 4.0]))
    res = fit_variogram(emp, "exponential", method="ols", bounds=bounds)
    assert np.all(res.params >= bounds.lower)
    assert np.all(res.params <= bounds.upper)


def test_objective_never_exceeds_start_value():
    rng = np.random.default_rng(1)
    h = np.linspace(1.0, 60.0, 14)
    g = variogram_eval(CovarianceSpec("spherical", 0.1, 2.0, 30.0), h)
    g = g * rng.uniform(0.7, 1.3, size=g.size)
    emp = emp_from_values(h, g)
    start = np.array([0.5, 1.0, 10.0])
    res = fit_variogram(emp, "spherical", method="wls", start=start)
    from variokrig.fit import _objective  # start-value comparison oracle

    f0 = _objective("spherical", h, g, np.full(h.size, 50.0), "wls")(start)
    assert res.objective <= f0 + 1e-12


def test_fit_invariant_to_bin_permutation():
    rng = np.random.default_rng(2)
    h = np.linspace(1.0, 40.0, 12)
    g = variogram_eval(CovarianceSpec("exponential", 0.1, 1.2, 6.0), h)
    bins = [VariogramBin(float(d), float(d), float(v), 30) for d, v in zip(h, g)]
    perm = rng.permutation(len(bins))
    emp1 = EmpiricalVariogram(tuple(bins), "matheron", 40.0)
    emp2 = EmpiricalVariogram(tuple(bins[i] for i in perm), "matheron", 40.0)
    r1 = fit_variogram(emp1, "exponential", method="wls")
    r2 = fit_variogram(emp2, "exponential", method="wls")
    assert np.array_equal(r1.params, r2.params)
    assert r1.objective == r2.objective


def test_wls_scale_consistency():
    # scaling the data by s^2 scales fitted nugget/sill by s^2, leaves range
    s2 = 9.0
    true = CovarianceSpec("exponential", 0.2, 1.0, 4.0)
    h = np.linspace(0.5, 20.0, 16)
    g = variogram_eval(true, h)
    b1 = FitBounds(np.array([0.0, 1e-3, 1e-2]), np.array([5.0, 10.0, 50.0]))
    b2 = FitBounds(b1.lower * np.array([s2, s2, 1.0]), b1.upper * np.array([s2, s2, 1.0]))
    r1 = fit_variogram(emp_from_values(h, g), "exponential", "wls", bounds=b1)
    r2 = fit_variogram(emp_from_values(h, s2 * g), "exponential", "wls", bounds=b2)
    assert r2.params[0] == pytest.approx(s2 * r1.params[0], abs=s2 * 0.02)
    assert r2.params[1] == pytest.approx(s2 * r1.params[1], rel=0.02)
    assert r2.params[2] == pytest.approx(r1.params[2], rel=0.02)


def test_insufficient_bins_rejected():
    emp = emp_from_values([1.0, 2.0], [0.5, 0.8])
    with pytest.raises(DomainError):
        fit_variogram(emp, "matern")


# -- start-value heuristics ----------------------------------------------------


def test_start_nugget_extrapolation_to_zero():
    emp = emp_from_values([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.5, 2.6])
    start = start_values_nested_matern(emp)
    assert start[0] == 0.0
    assert start[3] == 0.5 and start[6] == 0.5


def test_start_negative_extrapolation_clamps():
    emp = emp_from_values([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.2, 3.3])
    start = start_values_nested_matern(emp)
    assert start[0] == 0.01


def test_start_statistics():
    g = np.array([1.0, 4.0, 5.0, 5.2, 5.4])
    h = [1.0, 2.0, 3.0, 4.0, 5.0]
    emp = emp_from_values(h, g)
    start = start_values_nested_matern(emp)
    assert start[1] == pytest.approx(np.var(g, ddof=1))
    assert start[4] == pytest.approx(np.percentile(g, 75))
    # largest distance with ghat below each threshold
    assert start[2] == max(d for d, v in zip(h, g) if v < start[1])
    assert start[5] == max(d for d, v in zip(h, g) if v < start[4])


def test_start_constant_values_degenerate():
    emp = emp_from_values([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0])
    start = start_values_nested_matern(emp)
    assert start[0] == 0.01
    assert start[2] == 4.0 and start[5] == 4.0


# -- batch fitting ---------------------------------------------------------------


def make_table(h, columns, n=50.0):
    cols = [np.arange(1, len(h) + 1), np.asarray(h), np.full(len(h), n)]
    cols += [np.asarray(c) for c in columns]
    return np.column_stack(cols)


def test_batch_recovers_generating_parameters():
    true = NestedMaternSpec(0.05, 1.5, 20.0, 0.5, 1.0, 200.0, 2.0)
    h = np.concatenate([np.linspace(1.0, 40.0, 10), np.linspace(60.0, 320.0, 10)])
    g = nested_matern_variogram(true, h)
    results = fit_nested_matern_batch(make_table(h, [g]), method="ols")
    assert len(results) == 1 and results[0].converged
    got = canonical_components(results[0].params)
    expect = canonical_components(true.as_vector())
    for idx in (1, 2, 4, 5):  # sills and ranges within 5%
        assert got[idx] == pytest.approx(expect[idx], rel=0.05)


def test_batch_empty_table():
    h = np.linspace(1.0, 10.0, 6)
    results = fit_nested_matern_batch(make_table(h, []))
    assert results == []


def test_batch_smoke_convergence_rate():
    # small-scale version of the simulated-variogram success-rate check
    from variokrig import CovarianceSpec, simulate_variograms
    from variokrig.sim import make_grid

    spec = CovarianceSpec("matern", 0.0661, 2.4523, 122.79, 0.5)
    grid = make_grid(0.0, 300.0, 0.0, 220.0, 7, 7)
    table = simulate_variograms(grid, spec, np.linspace(0.0, 200.0, 13), 10, seed=11)
    results = fit_nested_matern_batch(table, method="ols", seed=11)
    assert sum(r.converged for r in results) >= 8


@pytest.mark.parametrize("n_bins", [3, 5])
def test_batch_with_too_few_bins_is_one_domain_error_before_any_fit(count_calls, n_bins):
    # 3 non-empty bins fall short of the nested start heuristic as well as
    # of the 7 parameters, 5 only of the parameters: either way the problem
    # of the short column raises before anything is fitted (the 5-bin case
    # pins a rule that already held)
    h = np.linspace(10.0, 200.0, 8)
    full = nested_matern_variogram(NestedMaternSpec(0.05, 1.5, 20.0, 0.5, 1.0, 150.0, 2.0), h)
    short = full.copy()
    short[n_bins:] = np.nan  # a NaN estimate leaves its bin empty
    waves = count_calls("variokrig.fit", "_minimize")
    with pytest.raises(DomainError, match=f"7 parameters but only {n_bins} non-empty bins"):
        fit_nested_matern_batch(make_table(h, [full, short, full]))
    assert waves == []


def test_batch_csv_round_trip_and_sentinel():
    from variokrig.fit import FitResult

    ok = FitResult(np.arange(1.0, 8.0), 0.5, True, 10, "ols", "nested_matern")
    bad = FitResult(np.arange(1.0, 8.0), 2.0, False, 99, "ols", "nested_matern")
    text = fit_results_to_csv([ok, bad])
    lines = text.strip().splitlines()
    assert lines[0] == "nugget,sill1,range1,nu1,sill2,range2,nu2,objective,converged"
    assert lines[1].startswith("1.0,2.0,3.0,4.0,5.0,6.0,7.0")
    assert lines[1].endswith("true")
    assert lines[2].startswith("0.0,0.0,0.0,0.0,0.0,0.0,0.0")  # sentinel row
    assert lines[2].endswith("false")


def test_default_bounds_are_reference_vectors():
    b = default_bounds("nested_matern")
    assert np.allclose(b.lower, 0.001)
    assert np.allclose(b.upper, [10.0, 18.0, 400.0, 40.0, 18.0, 400.0, 40.0])


def test_batch_rejects_seed_outside_philox_range():
    # a converging column never reaches the restart stream; the seed is still checked
    true = NestedMaternSpec(0.05, 1.5, 20.0, 0.5, 1.0, 200.0, 2.0)
    h = np.linspace(5.0, 300.0, 12)
    table = make_table(h, [nested_matern_variogram(true, h)])
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(DomainError, match="seed"):
            fit_nested_matern_batch(table, seed=seed)


@pytest.mark.parametrize("seed, column", [(0, 0), (11, 3), (2**63 + 5, 9), (2**64 - 2, 1)])
def test_restart_stream_below_2_64_is_the_uint64_keyed_stream(seed, column):
    uint64_keyed = np.random.Generator(np.random.Philox(key=np.uint64(seed + column)))
    assert np.array_equal(_restart_rng(np.uint64(seed), column).uniform(size=8),
                          uint64_keyed.uniform(size=8))


def test_restart_stream_does_not_wrap_past_2_64():
    # with a 64-bit sum, seed 2**64 - 1 column 1 wrapped to seed 0 column 0
    wrapped = _restart_rng(2**64 - 1, 1).uniform(size=8)
    assert not np.array_equal(wrapped, _restart_rng(0, 0).uniform(size=8))
    assert not np.array_equal(_restart_rng(np.uint64(2**64 - 1), 1).uniform(size=8),
                              _restart_rng(0, 0).uniform(size=8))


# -- batched objective and gradient ------------------------------------------------

SHAPE_BOX = {"matern": (0.05, 40.0), "stable": (0.05, 2.0), "cauchy": (0.05, 20.0),
             "power": (1.0, 10.0)}
# exponents numpy evaluates by a fast path when they are scalars
SPECIAL_SHAPES = (0.5, 1.0, 2.0)


def random_params(family, rng):
    if family == "nested_matern":
        return np.array([rng.uniform(0.0, 0.5), rng.uniform(0.1, 3.0), rng.uniform(1.0, 300.0),
                         np.exp(rng.uniform(np.log(0.05), np.log(40.0))),
                         rng.uniform(0.1, 3.0), rng.uniform(1.0, 300.0),
                         np.exp(rng.uniform(np.log(0.05), np.log(40.0)))])
    x = [rng.uniform(0.0, 0.5), rng.uniform(0.1, 3.0), rng.uniform(1.0, 300.0)]
    if family in SHAPE_BOX:
        lo, hi = SHAPE_BOX[family]
        shape = rng.choice(SPECIAL_SHAPES) if rng.random() < 0.3 else rng.uniform(lo, hi)
        x.append(float(np.clip(shape, lo, hi)))
    return np.array(x)


def forward_block(x, rng):
    """x and its k copies each moved in one coordinate, as a gradient step makes them."""
    block = np.tile(x, (x.size + 1, 1))
    steps = rng.choice([-1.0, 1.0], x.size) * 10.0 ** rng.uniform(-9.0, -1.0, x.size)
    block[1:][np.diag_indices(x.size)] += steps
    return block


def invalid_rows(x):
    """A row with a subnormal range (the Matern evaluations raise NumericError
    on it), then rows every spec rejects (DomainError)."""
    rows = []
    for col, value in ((2, 1e-320), (0, -0.1), (1, np.nan), (2, 0.0), (2, np.inf)):
        row = x.copy()
        row[col] = value
        rows.append(row)
    if x.size > 3:  # a shape outside every family's box
        row = x.copy()
        row[3] = -1.0
        rows.append(row)
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(("nested_matern",) + KINDS),
    method=st.sampled_from(("ols", "wls", "gls")),
    seed=st.integers(0, 2**32 - 1),
    n_lags=st.integers(4, 15),
    with_invalid=st.booleans(),
)
def test_objective_rows_equal_scalar_objective_bitwise(family, method, seed, n_lags,
                                                       with_invalid):
    rng = np.random.default_rng(seed)
    h = np.sort(rng.uniform(0.5, 250.0, n_lags))
    if rng.random() < 0.3:
        h[0] = 0.0
    g = rng.uniform(0.05, 3.0, n_lags)
    n = rng.integers(1, 200, n_lags).astype(float)
    x = random_params(family, rng)
    block = [forward_block(x, rng), random_params(family, rng)[None, :]]
    if with_invalid:
        bad = invalid_rows(x)
        block.append(np.array(bad)[rng.permutation(len(bad))])
    block = np.vstack(block)
    batched = _objective_rows(family, h, g, n, method)(block)
    fun = _objective(family, h, g, n, method)
    scalar = np.array([fun(row) for row in block])
    assert batched.dtype == scalar.dtype == np.float64
    assert np.array_equal(batched.view(np.int64), scalar.view(np.int64))
    if with_invalid:
        assert np.sum(scalar == fit_module._PENALTY) >= len(invalid_rows(x)) - 1


@pytest.mark.parametrize("where", ["interior", "lower", "upper", "narrow", "huge"])
def test_forward_difference_matches_scipy_two_point_gradient(where):
    rng = np.random.default_rng(3)
    h = np.linspace(5.0, 250.0, 12)
    g = rng.uniform(0.3, 2.5, 12)
    n = np.full(12, 40.0)
    lower = np.full(7, 0.001)
    upper = np.array([10.0, 18.0, 400.0, 40.0, 18.0, 400.0, 40.0])
    x = np.array([0.05, 1.2, 30.0, 0.7, 1.0, 150.0, 1.3])
    if where == "lower":
        x[[0, 3]] = lower[[0, 3]]
    elif where == "upper":
        x[[2, 6]] = upper[[2, 6]]
    elif where == "narrow":  # a box narrower than the step: the step is shortened
        lower[1], upper[1] = x[1] - 3e-9, x[1] + 2e-9
    elif where == "huge":  # x + 1e-8 == x: the relative step takes over
        upper[2] = 1e12
        x[2] = 1e9
    bounds = FitBounds(lower, upper)
    f, grad = _forward_difference(_objective_rows("nested_matern", h, g, n, "ols"), bounds)(x)
    fun = _objective("nested_matern", h, g, n, "ols")
    expect = approx_derivative(fun, x, method="2-point", abs_step=1e-8, f0=fun(x),
                               bounds=(lower, upper))
    assert f == fun(x)
    assert np.array_equal(grad, expect)


def test_forward_difference_relative_step_keeps_the_sign_of_x():
    w = np.array([1.0, -2.0, 3.0])

    def fun(x):
        return float(x @ w + 1e-9 * (x @ x))

    x = np.array([-3e9, 2e9, 0.5])  # x + 1e-8 == x in the first two coordinates
    lower, upper = np.full(3, -1e12), np.full(3, 1e12)
    rows = lambda block: np.array([fun(row) for row in block])  # noqa: E731
    f, grad = _forward_difference(rows, FitBounds(lower, upper))(x)
    expect = approx_derivative(fun, x, method="2-point", abs_step=1e-8, f0=fun(x),
                               bounds=(lower, upper))
    assert f == fun(x)
    assert np.array_equal(grad, expect)


def oracle_fit(emp, family, method, bounds, max_evals=MAX_EVALS, start=None):
    """fit_variogram with scipy's own forward-difference gradient."""
    h, g, n = _emp_arrays(emp)
    if start is None and family == "nested_matern":
        start = start_values_nested_matern(emp)
    elif start is None:
        start = start_values_simple(emp, family)
    start = bounds.clip(start)
    fun = _objective(family, h, g, n, method)
    f0 = fun(start)
    res = minimize(fun, start, method="L-BFGS-B", bounds=bounds.pairs(),
                   options={"maxfun": max_evals, "maxiter": MAX_EVALS, "ftol": OBJ_RTOL})
    params = bounds.clip(res.x)
    objective = fun(params)
    if objective > f0:
        params, objective = start, f0
    return params, objective, res


def noisy_emp(family, seed):
    rng = np.random.default_rng(seed)
    h = np.linspace(4.0, 240.0, 13)
    if family == "nested_matern":
        gamma = nested_matern_variogram(NestedMaternSpec(0.05, 1.2, 25.0, 0.6, 0.9, 160.0, 1.3), h)
    else:
        shape = {"matern": 0.8, "stable": 1.4}.get(family)
        gamma = variogram_eval(CovarianceSpec(family, 0.1, 1.5, 90.0, shape), h)
    return emp_from_values(h, gamma * rng.uniform(0.8, 1.2, h.size), n=40)


@pytest.mark.parametrize("family,method", [
    ("nested_matern", "ols"), ("nested_matern", "wls"), ("exponential", "ols"),
    ("spherical", "wls"), ("matern", "gls"), ("stable", "ols"),
])
def test_fit_equals_scipy_finite_difference_oracle_bitwise(family, method):
    emp = noisy_emp(family, seed=len(family))
    bounds = default_bounds(family, emp)
    params, objective, res = oracle_fit(emp, family, method, bounds)
    got = fit_variogram(emp, family, method, bounds)
    assert np.array_equal(got.params, params)
    assert got.objective == objective
    assert got.converged == bool(res.success)
    assert got.n_evals == res.nfev


def test_n_evals_counts_point_evaluations(monkeypatch):
    emp = noisy_emp("nested_matern", seed=7)
    rows_seen = []
    stacked = fit_module._stacked_objectives

    def counting_rows(family, X, *args):
        rows_seen.append(len(X))
        return stacked(family, X, *args)

    monkeypatch.setattr(fit_module, "_stacked_objectives", counting_rows)
    res = fit_variogram(emp, "nested_matern", "ols")
    assert res.n_evals == sum(rows_seen) > 0
    assert set(rows_seen) == {len(param_names("nested_matern")) + 1}


def test_evaluation_budget_stops_at_the_same_iteration(monkeypatch):
    emp = noisy_emp("nested_matern", seed=8)
    bounds = default_bounds("nested_matern")
    params, objective, res = oracle_fit(emp, "nested_matern", "ols", bounds, max_evals=80)
    monkeypatch.setattr(fit_module, "MAX_EVALS", 80)
    got = fit_variogram(emp, "nested_matern", "ols", bounds)
    assert not res.success and not got.converged
    assert got.n_evals == res.nfev == 88  # 11 points of 8 evaluations: 88 > 80 stops it
    assert np.array_equal(got.params, params) and got.objective == objective


# -- lockstep batch fits -------------------------------------------------------------


def builds_spec(family, x):
    try:
        _make_spec(family, x)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("family", ("nested_matern",) + KINDS)
def test_valid_rows_equal_spec_construction(family):
    rng = np.random.default_rng(len(family))
    rows = []
    for _ in range(40):
        x = random_params(family, rng)
        rows += [x] + invalid_rows(x)
        edge = x.copy()  # the closed ends of every box, and a signed zero
        edge[0] = -0.0
        rows.append(edge)
        for value in (0.0, 1.0, 2.0, 40.0, 40.00000000000001, -1e-300):
            edge = x.copy()
            edge[rng.integers(x.size)] = value
            rows.append(edge)
    X = np.array(rows)
    assert np.array_equal(valid_rows(family, X), [builds_spec(family, x) for x in X])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", ("nested_matern", "matern", "spherical", "stable"))
def test_stacked_blocks_equal_each_block_alone_bitwise(family):
    # several columns' difference blocks in one evaluation, one of them
    # starting with a row that builds no spec
    rng = np.random.default_rng(5)
    h = np.sort(rng.uniform(0.5, 250.0, 12))
    gs, ns, blocks = [], [], []
    for c in range(4):
        gs.append(rng.uniform(0.05, 3.0, h.size))
        ns.append(rng.integers(1, 200, h.size).astype(float))
        block = forward_block(random_params(family, rng), rng)
        if c == 2:
            block[0, 0] = -1.0
        blocks.append(block)
    X = np.vstack(blocks)
    ids = np.repeat(np.arange(4), len(blocks[0]))
    for method in ("ols", "wls"):
        stacked = _stacked_objectives(family, X, ids, h, np.array(gs), np.array(ns), method)
        alone = np.concatenate([_objective_rows(family, h, g, n, method)(block)
                                for g, n, block in zip(gs, ns, blocks)])
        assert np.array_equal(stacked.view(np.int64), alone.view(np.int64))


def seed_905_table(n_sims):
    """Criterion 05's simulated-variogram table (its first n_sims columns)."""
    from variokrig import simulate_variograms

    spec = CovarianceSpec("matern", 0.0661, 2.4523, 122.79, 0.5)
    grid = make_grid(0.0, 300.0, 0.0, 220.0, 10, 10)
    table = simulate_variograms(grid, spec, np.linspace(0.0, 200.0, 13), n_sims, seed=905)
    return table.as_matrix()


def assert_same_fits(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert np.array_equal(a.params, b.params)
        assert a.objective == b.objective
        assert a.converged == b.converged and a.n_evals == b.n_evals


def oracle_column(table, j, seed):
    """Column j of a nested-Matern batch through `oracle_fit`, with the
    batch's restarts: (params, objective, converged, n_evals, restarts)."""
    emp = _column_emp(table[:, 1], table[:, 2], table[:, 3 + j])
    bounds = default_bounds("nested_matern")
    start = start_values_nested_matern(emp)
    rng = _restart_rng(seed, j)
    best, restarts = None, 0
    while best is None or (not best[2] and restarts < fit_module._N_RESTARTS):
        if best is None:
            x0 = start
        else:
            x0 = bounds.clip(start * rng.uniform(0.8, 1.2, size=start.size))
            restarts += 1
        params, objective, res = oracle_fit(emp, "nested_matern", "ols", bounds, start=x0)
        fit = (params, objective, bool(res.success) and objective < fit_module._PENALTY, res.nfev)
        if best is None or fit[1] < best[1] or (fit[2] and not best[2]):
            best = fit
    return best + (restarts,)


def test_lockstep_batch_equals_per_column_minimize_oracle():
    # columns 0-24 of criterion 05's table; column 20 converges only after a restart
    table = seed_905_table(25)
    results = fit_nested_matern_batch(table, method="ols", seed=905)
    restarts = []
    for j, got in enumerate(results):
        params, objective, converged, n_evals, n_restarts = oracle_column(table, j, 905)
        assert np.array_equal(got.params, params), j
        assert got.objective == objective and got.converged == converged, j
        assert got.n_evals == n_evals, j
        restarts.append(n_restarts)
    assert restarts[20] > 0


def test_batch_column_permutation_permutes_fits_bitwise(monkeypatch):
    # no restarts: their streams are keyed on the column index, not on its data
    monkeypatch.setattr(fit_module, "_N_RESTARTS", 0)
    table = seed_905_table(12)
    perm = np.random.default_rng(1).permutation(12)
    permuted = np.column_stack([table[:, :3], table[:, 3:][:, perm]])
    results = fit_nested_matern_batch(table, method="ols")
    assert_same_fits(fit_nested_matern_batch(permuted, method="ols"), [results[j] for j in perm])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_error_in_merged_block_stays_in_its_column(count_calls):
    # a subnormal range: the Matern evaluation of the last column raises
    # NumericError from its start on, so every merged block does
    table = seed_905_table(5)
    bounds = default_bounds("nested_matern")
    emps = [_column_emp(table[:, 1], table[:, 2], table[:, 3 + j]) for j in range(5)]
    lower = bounds.lower.copy()
    lower[2] = 1e-320
    boxes = [bounds] * 4 + [FitBounds(lower, bounds.upper)]
    starts = [start_values_nested_matern(emp) for emp in emps[:4]]
    starts.append(np.array([0.05, 1.0, 1e-320, 0.5, 1.0, 100.0, 0.5]))
    problems = [fit_module._Problem(emp, "nested_matern", "ols", box)
                for emp, box in zip(emps, boxes)]
    scalar_evals = count_calls("variokrig.models", "variogram_eval")
    runs = fit_module._minimize(problems, starts)
    assert not scalar_evals  # the failing rows take the penalty in the shared call
    together = [p.finish(x0, run) for p, x0, run in zip(problems, starts, runs)]
    alone = [fit_variogram(emp, "nested_matern", "ols", box, x0)
             for emp, box, x0 in zip(emps, boxes, starts)]
    assert_same_fits(together, alone)


def test_fallback_to_minimize_gives_the_same_fits(monkeypatch, count_calls):
    # criterion 05's column 20 as column 2: seed 905 + 18 keeps its restart stream
    table = seed_905_table(21)[:, [0, 1, 2, 3, 4, 3 + 20]]
    waves = count_calls("variokrig.fit", "_minimize")
    lockstep = fit_nested_matern_batch(table, method="ols", seed=905 + 18)
    assert len(waves) > 1 and all(r.converged for r in lockstep)
    monkeypatch.setattr(fit_module, "_setulb", lambda: None)
    assert_same_fits(fit_nested_matern_batch(table, method="ols", seed=905 + 18), lockstep)


def test_advance_serves_a_request_for_the_cached_point_from_the_cache():
    # setulb's requests as minimize's cache sees them (np.array_equal):
    # 0.0 is the point cached at -0.0; a NaN is never the cached point
    def scripted(requests):
        seen = []

        def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, *state):
            seen.append((float(f), g.copy()))
            x[:] = requests[len(seen) - 1]
            task[0] = fit_module._TASK_FG

        return setulb, seen

    bounds = FitBounds(np.full(2, -1.0), np.full(2, 1.0))
    setulb, seen = scripted([[0.0, 0.5], [0.0, 0.5], [0.25, 0.5]])
    run = fit_module._LbfgsbRun(setulb, np.array([-0.0, 0.5]), bounds)
    run.record(1.5, np.array([2.0, 3.0]))
    assert run.advance() and run.nfev == 1
    # setulb's first call starts the run and reads no f; the next two get the cache's
    assert [f for f, _ in seen] == [0.0, 1.5, 1.5]
    assert np.array_equal(seen[2][1], [2.0, 3.0])
    assert run.x.tolist() == [0.25, 0.5]
    setulb, seen = scripted([[math.nan, 0.5]])
    run = fit_module._LbfgsbRun(setulb, np.array([0.0, 0.5]), bounds)
    run.x[0] = math.nan
    run.record(1.5, np.array([2.0, 3.0]))
    assert run.advance() and len(seen) == 1


@pytest.mark.parametrize("x0", [[-0.0, 0.9, -0.0], [0.0, -0.0, 0.4]])
def test_lockstep_run_counts_evaluations_as_minimize_does(x0):
    setulb = fit_module._setulb()
    if setulb is None:
        pytest.skip("scipy's setulb is not the routine the lockstep drives")
    target = np.array([0.3, -0.0, -0.7])

    def fun(x):
        return float(((x - target) ** 2).sum()), 2.0 * (x - target)

    bounds = FitBounds(np.full(3, -0.5), np.full(3, 1.0))
    run = fit_module._LbfgsbRun(setulb, np.array(x0), bounds)
    while True:
        run.record(*fun(run.x))
        if not run.advance():
            break
    res = minimize(fun, np.array(x0), jac=True, method="L-BFGS-B", bounds=bounds.pairs(),
                   options={"maxfun": MAX_EVALS // 4, "maxiter": MAX_EVALS, "ftol": OBJ_RTOL})
    assert run.nfev == res.nfev and run.success == res.success
    assert np.array_equal(run.x, res.x)


def test_lockstep_runs_where_setulb_is_the_c_routine():
    import scipy
    from scipy.optimize import _lbfgsb

    version = tuple(int(v) for v in scipy.__version__.split(".")[:2])
    if version >= (1, 17):
        assert fit_module._setulb() is _lbfgsb.setulb
    if version < (1, 15):  # the Fortran routine, with other arguments
        assert fit_module._setulb() is None


SETULB_PROBE = """
import sys
import numpy as np
from variokrig import fit
setulb = fit._setulb()
assert "scipy.optimize" not in sys.modules
from scipy.optimize import _lbfgsb, minimize
from scipy.optimize import _lbfgsb_py
assert _lbfgsb is sys.modules["scipy.optimize._lbfgsb"] is _lbfgsb_py._lbfgsb
assert setulb is None or setulb is _lbfgsb.setulb
run = minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(3), method="L-BFGS-B",
               bounds=[(-2.0, 2.0)] * 3)
assert run.success and np.allclose(run.x, 1.0)
print(setulb is not None)
"""


def test_scipy_optimize_reuses_the_directly_loaded_routine():
    # a fresh interpreter: this one imported scipy.optimize long ago
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(fit_module.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SETULB_PROBE], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() in ("True", "False")


@pytest.fixture
def fresh_setulb():
    fit_module._setulb.cache_clear()
    yield
    fit_module._setulb.cache_clear()


def test_setulb_is_none_without_the_compiled_module(monkeypatch, fresh_setulb):
    import importlib.machinery
    import sys

    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    assert fit_module._setulb() is None


def test_setulb_is_none_for_another_signature(monkeypatch, fresh_setulb):
    import sys
    import types

    def setulb():
        """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave)"""

    monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb",
                        types.SimpleNamespace(setulb=setulb))
    assert fit_module._setulb() is None


def test_single_family_batch_equals_solo_fits(monkeypatch):
    monkeypatch.setattr(fit_module, "_N_RESTARTS", 0)  # a solo fit does not restart
    rng = np.random.default_rng(4)
    h = np.linspace(4.0, 240.0, 13)
    gamma = variogram_eval(CovarianceSpec("matern", 0.1, 1.5, 90.0, 0.8), h)
    table = make_table(h, [gamma * rng.uniform(0.8, 1.2, h.size) for _ in range(4)], n=40.0)
    results = fit_family_batch(table, "matern", "wls")
    alone = [fit_variogram(_column_emp(table[:, 1], table[:, 2], table[:, 3 + j]), "matern", "wls")
             for j in range(4)]
    assert_same_fits(results, alone)
