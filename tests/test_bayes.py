import math

import numpy as np
import pytest

from variokrig import (
    BayesPrior,
    CovarianceSpec,
    DensityGrid,
    DomainError,
    PosteriorDraws,
    SpatialDataset,
    TrendBasis,
    bayes_kriging,
    beta_posterior,
    density_map,
    gls_beta,
    predictive_density_at,
)
from variokrig.bayes import _moment_runs, _moment_table, density_map_csv
from variokrig.exceptions import NumericError
from variokrig.models import covariance_eval
from variokrig.fit import FitResult


def log_dataset(rng, n=12, spread=10.0):
    locs = rng.uniform(0.0, spread, size=(n, 2))
    vals = rng.normal(0.5, 0.8, size=n)
    return SpatialDataset(locs, vals)


def one_draw(nugget=0.05, sill=1.2, range_=6.0, nu=0.5):
    return PosteriorDraws(np.array([[nugget, sill, range_, nu]]))


def one_block(points, data, draws, prior_mean, prior_var, radius):
    """The one block of a density map over `points` and the means and
    variances of its points under every draw, (2, T, P)."""
    [(block, moments)] = _moment_runs(np.asarray(points, dtype=float), data, draws,
                                      prior_mean, prior_var, radius)
    return block, moments


def several_draws(rng, t=8):
    base = np.array([0.05, 1.2, 6.0, 0.5])
    rows = base * rng.uniform(0.7, 1.3, size=(t, 4))
    return PosteriorDraws(rows)


# -- posterior draws ---------------------------------------------------------------


def test_draws_from_fit_results_filters_failures():
    ok = FitResult(np.array([0.1, 1.0, 5.0, 0.5, 1.0, 9.0, 1.5]), 0.1, True, 5, "ols", "nested_matern")
    bad = FitResult(np.zeros(7), math.inf, False, 5, "ols", "nested_matern")
    draws = PosteriorDraws.from_fit_results([ok, bad, ok])
    assert len(draws) == 2


def test_draws_validation():
    with pytest.raises(DomainError):
        PosteriorDraws(np.array([[0.1, -1.0, 5.0, 0.5]]))
    with pytest.raises(DomainError):
        PosteriorDraws(np.empty((0, 4)))
    with pytest.raises(DomainError):
        PosteriorDraws(np.array([[0.1, 1.0, 5.0]]))  # wrong width


def test_draws_from_csv_layouts():
    nested = (
        "nugget,sill1,range1,nu1,sill2,range2,nu2,objective,converged\n"
        "0.1,1.0,5.0,0.5,0.7,20.0,1.5,0.3,true\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,0.0,inf,false\n"
    )
    draws = PosteriorDraws.from_csv(nested)
    assert len(draws) == 1 and draws.table.shape[1] == 7
    plain = "nugget,sill,range,shape\n0.1,1.0,5.0,0.5\n0.2,2.0,7.0,1.0\n"
    draws4 = PosteriorDraws.from_csv(plain)
    assert len(draws4) == 2 and draws4.table.shape[1] == 4


# -- single-point predictive density --------------------------------------------------


def test_unnormalized_integral_close_to_one():
    rng = np.random.default_rng(0)
    data = log_dataset(rng)
    pd = predictive_density_at([5.0, 5.0], data, several_draws(rng), 0.0, 100.0, 1e9)
    unnorm = np.trapezoid(pd.density, pd.values)
    assert abs(unnorm - 1.0) < 1e-3
    assert pd.cdf[-1] == pytest.approx(1.0, abs=1e-9)


def test_single_draw_matches_closed_form_lognormal():
    rng = np.random.default_rng(1)
    data = log_dataset(rng)
    draws = one_draw()
    mu, phi = 0.3, 5.0
    pd = predictive_density_at([4.0, 6.0], data, draws, mu, phi, 1e9)
    bk = bayes_kriging([4.0, 6.0], data, draws.spec(0), TrendBasis.constant(),
                       BayesPrior.scalar(mu, phi))
    m, s = bk.prediction, bk.sd
    interior = (pd.cdf > 1e-3) & (pd.cdf < 1.0 - 1e-3)
    y = pd.values[interior]
    expect = np.exp(-((np.log(y) - m) ** 2) / (2.0 * s**2)) / (y * s * math.sqrt(2.0 * math.pi))
    assert np.abs(pd.density[interior] / expect - 1.0).max() < 1e-6


def test_quantile_ordering_and_grid_membership():
    rng = np.random.default_rng(2)
    data = log_dataset(rng)
    pd = predictive_density_at([5.0, 5.0], data, several_draws(rng), 0.0, 10.0, 1e9)
    s = pd.summary
    assert s["q001"] <= s["q005"] <= s["q025"] <= s["median"] <= s["q075"] <= s["q095"] <= s["q099"]
    grid_values = set(pd.values.tolist())
    for key in ("q001", "q005", "q025", "median", "q075", "q095", "q099", "modal"):
        assert s[key] in grid_values
    assert s["approx_sd"] == (s["q075"] - s["q025"]) / 1.45


def test_density_row_permutation_invariance():
    rng = np.random.default_rng(3)
    data = log_dataset(rng)
    draws = several_draws(rng)
    permuted = PosteriorDraws(draws.table[::-1].copy())
    a = predictive_density_at([5.0, 5.0], data, draws, 0.0, 10.0, 1e9)
    b = predictive_density_at([5.0, 5.0], data, permuted, 0.0, 10.0, 1e9)
    assert np.array_equal(a.density, b.density)


def test_too_few_neighbors_gives_missing():
    rng = np.random.default_rng(4)
    data = log_dataset(rng, n=6)
    assert predictive_density_at([500.0, 500.0], data, one_draw(), 0.0, 10.0, 1.0) is None
    # exactly 4 points within reach is still too few
    close = SpatialDataset(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.1, 0.2, 0.3, 0.4]
    )
    assert predictive_density_at([0.5, 0.5], close, one_draw(), 0.0, 10.0, 100.0) is None


def test_conditional_moments_match_bayes_kriging_and_are_monotone_in_phi():
    rng = np.random.default_rng(5)
    data = log_dataset(rng)
    spec = one_draw().spec(0)
    x0 = [5.0, 5.0]
    prev = 0.0
    for phi in (0.0, 0.5, 2.0, 10.0, 100.0):
        [(m, s2)] = _moment_table(*one_block([x0], data, one_draw(), 0.4, phi, math.inf), 0)
        bk = bayes_kriging(x0, data, spec, TrendBasis.constant(), BayesPrior.scalar(0.4, phi))
        assert m == pytest.approx(bk.prediction, abs=1e-10)
        assert math.sqrt(s2) == pytest.approx(bk.sd, abs=1e-10)
        assert s2 >= prev - 1e-12
        prev = s2


def test_shared_moments_equal_bayes_kriging_on_each_draws_own_system():
    # bit for bit: the block's one lag vector, the stacked factorisations
    # of its size groups and the stacked terms must not move the last bit
    # of any moment
    from oracles import kriging_point_reference

    rng = np.random.default_rng(33)
    data = log_dataset(rng, n=40)
    draws = PosteriorDraws(np.vstack([several_draws(rng, 6).table,
                                      [[0.1, 0.9, 4.0, 1.7], [0.0, 1.1, 5.0, 2.5]]]))
    points = rng.uniform(0.0, 10.0, size=(12, 2))
    block, moments = one_block(points, data, draws, 0.3, 7.0, 4.0)
    served = 0
    for i, x0 in enumerate(points):
        got = _moment_table(block, moments, i)
        idx = np.flatnonzero(np.hypot(*(data.locations - x0).T) <= 4.0)
        if got is None:
            assert idx.size <= 4
            continue
        served += 1
        F = np.ones((idx.size, 1))
        mu, phi = np.array([0.3]), np.array([[7.0]])
        expect = []
        for spec in draws.specs():
            m, s2 = kriging_point_reference("bayes", x0, data.locations[idx], data.values[idx],
                                            spec, 0.0, np.ones(1), F, mu, phi, covariance_eval)
            expect.append([float(m), float(s2)])
        assert got.tolist() == expect
    assert served > 6


def test_density_drops_duplicates_as_the_bayes_map_does():
    # a density is the constant-trend Bayes kriging predictor under each
    # draw, so with a duplicated station its per-draw moments equal the
    # Bayes map's bit for bit; each map warns once about the duplicate
    import warnings

    from variokrig import krige_map

    rng = np.random.default_rng(34)
    data = log_dataset(rng, n=30)
    locs, values = data.locations.copy(), data.values.copy()
    locs[7], values[7] = locs[3], values[3] + 0.5
    data = SpatialDataset(locs, values)
    draws = several_draws(rng, 5)
    points = np.vstack([rng.uniform(0.0, 10.0, size=(15, 2)), locs[[3]] + 0.1])
    prior = BayesPrior.scalar(0.3, 7.0)

    def caught_messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [str(w.message) for w in caught]

    maps = []
    for spec in draws.specs():
        assert caught_messages(lambda: maps.append(krige_map(
            points, "bayes", data, spec, 4.0, basis=TrendBasis.constant(), prior=prior))) == [
            "dropped 1 duplicate locations from the kriging neighborhoods of the map"]
    block, moments = one_block(points, data, draws, 0.3, 7.0, 4.0)
    for i in range(len(points)):
        rows = [rows[i] for rows in maps]
        got = _moment_table(block, moments, i)
        if got is None:
            assert {r.status for r in rows} == {"too_few_neighbors"}
            continue
        mine = np.array([[m, math.sqrt(s2)] for m, s2 in got])
        theirs = np.array([[r.result.prediction, r.result.sd] for r in rows])
        assert np.array_equal(mine.view(np.int64), theirs.view(np.int64))
    assert np.flatnonzero(block.dropped).tolist() == [7]
    assert caught_messages(lambda: density_map(points, data, draws, 0.3, 7.0, 4.0)) == [
        "dropped 1 duplicate locations from the neighborhoods of the density map"]
    assert caught_messages(
            lambda: predictive_density_at(points[-1], data, draws, 0.3, 7.0, 4.0)) == [
        "dropped 1 duplicate locations from the neighborhood of the density"]


def test_density_map_across_blocks_equals_each_points_density(count_calls):
    # a block is a run of MAP_BYTES // (8 n + 16 T) points: per point its
    # distances (8 n bytes) and its moments under T draws (16 T bytes). Its
    # sets, none carried from the run before, are prepared in chunks, sorted
    # by size, whose factors and gather indices (16 m^2 bytes per set of m
    # locations) stay within MAP_BYTES; each row has the bits of the point's
    # own density, and every run drops the duplicated station, which is
    # warned about once
    import warnings

    from oracles import map_chunks, neighbour_sets
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(35)
    data = log_dataset(rng, n=400)
    locs, values = data.locations.copy(), data.values.copy()
    locs[9], values[9] = locs[2], values[2] - 0.25
    data = SpatialDataset(locs, values)
    draws = several_draws(rng, 10)
    points = rng.uniform(-1.0, 11.0, size=(1000, 2))
    grid = DensityGrid(step=0.25)
    run = MAP_BYTES // (8 * len(locs) + 16 * len(draws))
    expect = map_chunks(neighbour_sets(points, locs, 2.0, 4), len(locs), run, MAP_BYTES,
                        carry=False)
    prepares = count_calls("variokrig.bayes", "_prepare")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = density_map(points, data, draws, 0.3, 7.0, 2.0, grid)
    assert [str(w.message) for w in caught] == [
        "dropped 1 duplicate locations from the neighborhoods of the density map"]
    runs = []
    for _, _, block, new, reused, *_ in prepares:
        assert reused == {}
        if not runs or runs[-1][0] is not block:
            runs.append((block, []))
        runs[-1][1].append([tuple(block.sets[j].tolist()) for j in new])
    assert [(len(block.points), chunks) for block, chunks in runs] == \
        [(len(pts), chunks) for pts, _, chunks in expect]
    assert len(runs) == 2 and len(runs[0][1]) >= 2
    for block, _ in runs:
        assert np.flatnonzero(block.dropped).tolist() == [9]
    statuses = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row, x0 in zip(rows, points):
            assert np.array_equal(row.location, x0)
            try:
                pd = predictive_density_at(x0, data, draws, 0.3, 7.0, 2.0, grid)
            except NumericError:
                status, summary = "numeric_failure", None
            else:
                status = "ok" if pd is not None else "too_few_neighbors"
                summary = None if pd is None else pd.summary
            assert row.status == status
            if summary is None:
                assert row.summary is None
            else:
                assert list(row.summary) == list(summary)
                got, expect = (np.array(list(s.values())) for s in (row.summary, summary))
                assert np.array_equal(got.view(np.int64), expect.view(np.int64))
            statuses.append(status)
    assert statuses.count("ok") > len(points) // 2
    assert statuses.count("too_few_neighbors") > 0


def test_density_map_factors_each_neighbour_set_once(count_calls):
    # points of one neighbour set share its factor: each distinct served set
    # is one matrix per draw, and each set size is one stacked
    # chol_with_jitter call under all six draws (draw-major: item d G + g is
    # set g under draw d), here fewer matrices than served points and draws
    from oracles import neighbour_sets

    rng = np.random.default_rng(36)
    data = log_dataset(rng, n=30)
    draws = several_draws(rng, 6)
    centres = rng.uniform(2.0, 8.0, size=(6, 2))
    points = np.vstack([centres + rng.uniform(-0.05, 0.05, size=(6, 2)) for _ in range(4)])
    served = [s for s in neighbour_sets(points, data.locations, 3.0, 4) if s is not None]
    assert len(set(served)) < len(served)
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = density_map(points, data, draws, 0.3, 7.0, 3.0, DensityGrid(step=0.25))
    stacks = sorted((np.shape(mat) for mat, in factors if np.ndim(mat) == 3), key=lambda s: s[1])
    sizes = sorted({len(s) for s in served})
    assert stacks == [(len(draws) * sum(len(s) == n for s in set(served)), n, n) for n in sizes]
    assert sum(r.status != "too_few_neighbors" for r in rows) == len(served)


def test_density_map_factors_the_global_set_once_per_draw(count_calls):
    # 100 draws of the pair lags of 100 stations would take more than
    # MAP_BYTES. The three points are one block of one chunk, with
    # L = 100 * 101 / 2 + 3 * 101 lags (the pairs of the set, each with
    # itself, and each point's C(0) and cross lags): a draw slice holds the
    # values of MAP_BYTES // (16 L) = 36 draws (half the budget), and a
    # stack the factors and gathered matrices of MAP_BYTES // (32 * 100^2)
    # = 9 draws (the other half). Each draw evaluates its lags once and
    # factors the one global set once
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(40)
    data = log_dataset(rng, n=100)
    draws = several_draws(rng, 100)
    points = rng.uniform(0.0, 10.0, size=(3, 2))
    grid = DensityGrid(step=0.25)
    lags = 100 * 101 // 2 + 3 * 101
    assert 8 * lags * len(draws) > MAP_BYTES
    assert (MAP_BYTES // (16 * lags), MAP_BYTES // (32 * 100**2)) == (36, 9)
    blocks = count_calls("variokrig.bayes", "_prepare")
    slices = count_calls("variokrig.bayes", "_conditional_moments")
    evals = count_calls("variokrig.models", "covariance_eval")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = density_map(points, data, draws, 0.3, 7.0, math.inf, grid)
    assert [len(block.points) for _, _, block, *_ in blocks] == [3]
    assert [p.lags.size for p, *_ in slices] == [lags] * 3
    assert [len(specs) for _, specs, *_ in slices] == [36, 36, 28]
    assert [np.shape(mat) for mat, in factors if np.ndim(mat) == 3] == \
        [(d, 100, 100) for d in [9] * 8 + [9, 9, 9, 1]]
    assert len(evals) == len(draws)
    for row, x0 in zip(rows, points):
        summary = predictive_density_at(x0, data, draws, 0.3, 7.0, math.inf, grid).summary
        got, expect = (np.array(list(s.values())) for s in (row.summary, summary))
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_density_map_peak_memory_is_bounded_by_the_budget():
    # 150 draws over 300 points, then 40 draws of 200 stations that every
    # point holds in its set (as a radius of 200 does over the stations of
    # the benchmark): a block holds its moments (16 T bytes per point) and
    # one draw's lags and factors at a time, so the map holds a few
    # MAP_BYTES at once, not the values of the whole map or the 12.8 MB of
    # one set's factors under all 40 draws
    import tracemalloc

    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(38)
    cases = [(log_dataset(rng, n=40), several_draws(rng, 150),
              rng.uniform(0.0, 10.0, size=(300, 2)), 4.0),
             (log_dataset(rng, n=200), several_draws(rng, 40),
              rng.uniform(0.0, 10.0, size=(12, 2)), 200.0)]
    grid = DensityGrid(step=0.25)
    for data, draws, points, radius in cases:
        tracemalloc.start()
        try:
            rows = density_map(points, data, draws, 0.3, 7.0, radius, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "ok" in {r.status for r in rows}
        assert peak < 3 * MAP_BYTES


def test_forward_rule_reproduces_reference_weighting():
    rng = np.random.default_rng(6)
    data = log_dataset(rng)
    draws = one_draw()
    fwd = predictive_density_at([5.0, 5.0], data, draws, 0.0, 10.0, 1e9,
                                DensityGrid(rule="forward"))
    trap = predictive_density_at([5.0, 5.0], data, draws, 0.0, 10.0, 1e9)
    assert np.array_equal(fwd.density, trap.density)  # same density values
    assert fwd.cdf[0] > 0.0 and trap.cdf[0] == 0.0  # inclusive vs exclusive cumsum
    # the forward rectangle rule overshoots by (e^step - 1)/step
    g = trap.log_grid
    total_fwd = float((fwd.density * (np.exp(g + 0.01) - np.exp(g))).sum())
    total_trap = float(np.trapezoid(trap.density, trap.values))
    assert total_fwd / total_trap == pytest.approx((math.exp(0.01) - 1.0) / 0.01, abs=2e-4)


def test_density_grid_point_cap():
    cap = DensityGrid.MAX_POINTS
    assert DensityGrid(0.0, cap - 1.0, 1.0).log_grid.size == cap
    with pytest.raises(DomainError, match=f"{cap + 1} points"):
        DensityGrid(0.0, float(cap), 1.0)
    # rejected by the count alone: the grid would need 85.7 GiB
    with pytest.raises(DomainError, match="11500000001 points"):
        DensityGrid(step=1e-9)
    for hi, step in ((math.inf, 0.01), (math.nan, 0.01), (6.5, 5e-324)):
        with pytest.raises(DomainError):
            DensityGrid(hi=hi, step=step)


def test_density_concentrates_on_constant_cluster():
    z_star = 1.2
    locs = [[0.0, 0.0], [0.4, 0.0], [0.0, 0.4], [0.4, 0.4], [0.2, 0.6], [0.6, 0.2]]
    data = SpatialDataset(locs, np.full(6, z_star))
    draws = one_draw(nugget=1e-3, sill=0.01, range_=5.0, nu=0.5)
    pd = predictive_density_at([0.2, 0.2], data, draws, z_star, 1e-6, 50.0)
    assert abs(math.log(pd.summary["median"]) - z_star) <= 2 * 0.01 + 1e-12


# -- maps ------------------------------------------------------------------------------


def test_density_map_empty_grid():
    rng = np.random.default_rng(7)
    assert density_map(np.empty((0, 2)), log_dataset(rng), one_draw(), 0.0, 10.0, 5.0) == []


def test_density_map_rows_and_csv():
    rng = np.random.default_rng(8)
    data = log_dataset(rng)
    rows = density_map([[5.0, 5.0], [900.0, 900.0]], data, several_draws(rng),
                       0.0, 10.0, 50.0)
    assert rows[0].status == "ok"
    assert rows[1].status == "too_few_neighbors" and rows[1].summary is None
    ok = rows[0].summary
    assert ok["approx_sd"] == (ok["q075"] - ok["q025"]) / 1.45
    text = density_map_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,Modal,Median,Mean,qq001,qq005,qq025,qq075,qq095,qq099,approxVar,status"
    assert lines[1].endswith("ok")
    assert lines[2].endswith("too_few_neighbors")
    # a -0.0 coordinate and a subnormal value print as `fmt_float` prints
    # each cell
    from variokrig.bayes import _SUMMARY_KEYS, MAP_COLUMNS, DensityMapRow
    from variokrig.util import fmt_float

    rows = density_map([[5.0, -0.0], [-0.0, 900.0]], data, several_draws(rng), 0.0, 10.0, 50.0)
    assert [r.status for r in rows] == ["ok", "too_few_neighbors"]
    rows.append(DensityMapRow(np.array([-0.0, 5e-324]), dict.fromkeys(_SUMMARY_KEYS, 1e-310),
                              "ok"))
    expect = [lines[0]]
    for row in rows:
        cells = [fmt_float(row.location[0]), fmt_float(row.location[1])]
        if row.summary is None:
            cells += [""] * len(MAP_COLUMNS)
        else:
            cells += [fmt_float(row.summary[k]) for k in _SUMMARY_KEYS]
        expect.append(",".join(cells + [row.status]))
    text = density_map_csv(rows)
    assert text == "\n".join(expect) + "\n"
    assert text.splitlines()[3].startswith("-0.0,5e-324,1e-310,")


# -- trend posterior --------------------------------------------------------------------


def test_beta_posterior_flat_prior_limit():
    rng = np.random.default_rng(9)
    data = log_dataset(rng)
    spec = CovarianceSpec("exponential", 0.1, 1.0, 4.0)
    basis = TrendBasis.linear(2)
    mean, W = beta_posterior(data, spec, basis, np.zeros(3), 1e12, np.eye(3))
    target = gls_beta(data, spec, basis)
    assert np.abs(mean - target).max() < 1e-6
    # covariance approaches (F' K^-1 F)^-1
    from scipy.spatial.distance import cdist

    from variokrig import covariance_eval

    K = covariance_eval(spec, cdist(data.locations, data.locations))
    F = basis.design(data.locations)
    target_cov = np.linalg.inv(F.T @ np.linalg.solve(K, F))
    assert np.abs(W - target_cov).max() < 1e-6


def test_beta_posterior_tight_prior_limit():
    rng = np.random.default_rng(10)
    data = log_dataset(rng)
    spec = CovarianceSpec("exponential", 0.1, 1.0, 4.0)
    basis = TrendBasis.constant()
    mu = np.array([2.5])
    mean, W = beta_posterior(data, spec, basis, mu, 1e-12, np.eye(1))
    assert mean[0] == pytest.approx(2.5, abs=1e-6)
    assert W[0, 0] < 1e-10


def test_beta_posterior_conjugate_oracle():
    # K = I via far-apart points and unit white covariance; V = I, constant
    # basis: the scalar conjugate-normal update is the oracle
    locs = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    vals = np.array([1.0, 3.0, 2.0, 4.0])
    data = SpatialDataset(locs, vals)
    spec = CovarianceSpec("spherical", 0.0, 1.0, 1.0)  # K = I at these distances
    sigma2, mu = 2.0, 1.5
    n = 4
    w_expect = 1.0 / (n + 1.0 / sigma2)
    mean_expect = w_expect * (vals.sum() + mu / sigma2)
    mean, W = beta_posterior(data, spec, TrendBasis.constant(), [mu], sigma2, np.eye(1))
    assert W[0, 0] == pytest.approx(w_expect, rel=1e-10)
    assert mean[0] == pytest.approx(mean_expect, rel=1e-10)


@pytest.mark.parametrize("prior_mean, prior_var", [
    (math.nan, 10.0), (math.inf, 10.0), (0.0, math.nan), (0.0, math.inf), (0.0, -1.0)])
def test_non_finite_or_negative_prior_moments_are_domain_errors(prior_mean, prior_var):
    # rejected where they enter: a NaN prior variance passes a `< 0` test,
    # and would fail every point of a map
    rng = np.random.default_rng(6)
    data, draws = log_dataset(rng), several_draws(rng, 3)
    with pytest.raises(DomainError, match="prior"):
        predictive_density_at([5.0, 5.0], data, draws, prior_mean, prior_var, 1e9)
    with pytest.raises(DomainError, match="prior"):
        density_map(np.array([[5.0, 5.0]]), data, draws, prior_mean, prior_var, 1e9)


def test_zero_draws_precondition():
    with pytest.raises(DomainError):
        PosteriorDraws(np.empty((0, 7)))


# -- maps share one covariance evaluation per draw --------------------------------


def clustered_dataset(rng):
    """Eight stations in a 5 x 5 square at the origin and six spread up to
    24 apart around (100, 0)."""
    near = rng.uniform(0.0, 5.0, size=(8, 2))
    far = np.array([[100.0, 0.0], [88.0, 0.0], [112.0, 0.0], [100.0, 12.0],
                    [100.0, -12.0], [95.0, 5.0]])
    return SpatialDataset(np.vstack([near, far]), rng.normal(0.5, 0.8, size=14))


# C(h) of this draw is not finite beyond h ~ 18: h / range overflows to inf
FAILING_DRAW = [0.05, 1.0, 1e-307, 0.5]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_density_map_rows_equal_single_point_densities():
    rng = np.random.default_rng(30)
    data = clustered_dataset(rng)
    draws = PosteriorDraws(np.vstack([several_draws(rng, 5).table, FAILING_DRAW]))
    g = np.linspace(0.5, 4.5, 4)
    grid = np.vstack([[(x, y) for x in g for y in g], [[100.0, 0.0], [300.0, 300.0]]])
    rows = density_map(grid, data, draws, 0.2, 10.0, 15.0)
    for row, x0 in zip(rows, grid):
        try:
            pd = predictive_density_at(x0, data, draws, 0.2, 10.0, 15.0)
        except NumericError:
            assert (row.status, row.summary) == ("numeric_failure", None)
            continue
        if pd is None:
            assert (row.status, row.summary) == ("too_few_neighbors", None)
        else:
            assert (row.status, row.summary) == ("ok", pd.summary)
    # the failing draw takes down only the point whose lags reach past 18
    assert [r.status for r in rows] == ["ok"] * 16 + ["numeric_failure", "too_few_neighbors"]
    # and the shared evaluation of the map is what it failed
    with pytest.raises(NumericError):
        covariance_eval(draws.spec(5), np.array([24.0]))


def test_density_point_with_overflowing_cross_lags_fails_alone():
    # six stations at easting -1e308: from easting 8e307 on, the lags are inf
    data = SpatialDataset(np.column_stack([np.full(6, -1e308), [0.0, 5.0, 9.0, 2.0, 7.0, 1.0]]),
                          np.log([1.0, 2.0, 1.5, 0.5, 1.2, 0.9]))
    draws = PosteriorDraws(np.array([[0.05, 1.2, 60.0, 0.5], [0.1, 1.0, 10.0, 1.5]]))
    grid = np.array([[-1e308, 3.0], [8e307, 3.0], [1.6e308, 10.0]])
    rows = density_map(grid, data, draws, 0.0, 10.0, math.inf)
    assert [r.status for r in rows] == ["ok", "numeric_failure", "numeric_failure"]
    assert rows[0].summary == predictive_density_at(grid[0], data, draws, 0.0, 10.0,
                                                    math.inf).summary
    with pytest.raises(NumericError):
        predictive_density_at(grid[1], data, draws, 0.0, 10.0, math.inf)


def test_density_map_evaluates_each_draw_once(count_calls):
    from oracles import neighbour_sets

    rng = np.random.default_rng(31)
    data = log_dataset(rng, n=30)
    draws = several_draws(rng, 6)
    g = np.linspace(0.5, 9.5, 5)
    grid = np.array([(x, y) for x in g for y in g])
    evals = count_calls("variokrig.models", "covariance_eval")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = density_map(grid, data, draws, 0.0, 10.0, 4.0)
    sets = {s for s in neighbour_sets(grid, data.locations, 4.0, 4) if s is not None}
    assert len(evals) == len(draws)
    assert sum(r.status != "too_few_neighbors" for r in rows) > 1
    # each set is one matrix per draw, and each set size one stacked
    # factorisation under all the draws
    stacks = [np.shape(mat) for mat, in factors if np.ndim(mat) == 3]
    assert sum(shape[0] for shape in stacks) == len(draws) * len(sets)
    assert sorted(shape[1] for shape in stacks) == sorted({len(s) for s in sets})


def test_failing_draw_fails_only_its_point(monkeypatch):
    # next to a station, draw 3 sees the covariance 1.001 C(0) at that
    # station (a lag in (0, 1e-6)): the point's weights under that draw are
    # 1.001 e_j, and its conditional variance about -2e-3 C(0), not positive
    from variokrig import bayes, models

    rng = np.random.default_rng(37)
    data = log_dataset(rng, n=30)
    draws = several_draws(rng, 6)
    g = np.linspace(0.5, 9.5, 5)
    grid = np.vstack([[(x, y) for x in g for y in g], data.locations[[4]] + [1e-7, 0.0]])
    tilted_range = draws.table[3, 2]
    evaluate = models.covariance_eval

    def tilted(spec, h):
        c = evaluate(spec, h)
        h = np.asarray(h, dtype=float)
        if spec.range_ != tilted_range:
            return c
        return np.where((h > 0.0) & (h < 1e-6), 1.001 * (spec.nugget + spec.sill), c)

    monkeypatch.setattr(models, "covariance_eval", tilted)
    solved = []
    conditional_moments = bayes._conditional_moments
    monkeypatch.setattr(bayes, "_conditional_moments",
                        lambda *args: solved.append(1) or conditional_moments(*args))
    rows = density_map(grid, data, draws, 0.3, 7.0, 4.0)
    served = [i for i, r in enumerate(rows) if r.status != "too_few_neighbors"]
    # the moments of one slice of all six draws over the block's one chunk,
    # solved once: the failing draw fails its point inside the slice
    assert len(solved) == 1 and len(served) > 10
    assert [r.status for r in rows[:-1]].count("numeric_failure") == 0
    assert rows[-1].status == "numeric_failure" and rows[-1].summary is None
    for x0, row in zip(grid[:-1], rows):
        pd = predictive_density_at(x0, data, draws, 0.3, 7.0, 4.0)
        assert row.summary == (None if pd is None else pd.summary)
    with pytest.raises(NumericError, match="not positive"):
        predictive_density_at(grid[-1], data, draws, 0.3, 7.0, 4.0)
    # under the other draws the point is served
    others = PosteriorDraws(np.delete(draws.table, 3, axis=0))
    assert predictive_density_at(grid[-1], data, others, 0.3, 7.0, 4.0) is not None


def test_density_map_under_draw_slices_and_stacks_keeps_every_bit(monkeypatch, count_calls):
    # under a budget of 32 KiB the first chunk is solved in four slices of
    # three draws, and a size group of a slice is factored in stacks of
    # fewer draws where its factors pass half the budget; draw 5 fails the
    # point next to station 4 (as in the test above) from inside a slice
    # of three. The rows are the default budget's, text for text, and each
    # is the point's own density, bit for bit
    from variokrig import krige, models

    rng = np.random.default_rng(37)
    data = log_dataset(rng, n=30)
    draws = several_draws(rng, 12)
    g = np.linspace(0.5, 9.5, 5)
    grid = np.vstack([[(x, y) for x in g for y in g], data.locations[[4]] + [1e-7, 0.0]])
    tilted_range = draws.table[5, 2]
    evaluate = models.covariance_eval

    def tilted(spec, h):
        c = evaluate(spec, h)
        h = np.asarray(h, dtype=float)
        if spec.range_ != tilted_range:
            return c
        return np.where((h > 0.0) & (h < 1e-6), 1.001 * (spec.nugget + spec.sill), c)

    monkeypatch.setattr(models, "covariance_eval", tilted)
    expect = density_map_csv(density_map(grid, data, draws, 0.3, 7.0, 4.0))
    monkeypatch.setattr(krige, "MAP_BYTES", 2**15)
    slices = count_calls("variokrig.bayes", "_conditional_moments")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = density_map(grid, data, draws, 0.3, 7.0, 4.0)
    assert density_map_csv(rows) == expect
    first = [len(specs) for prepared, specs, *_ in slices if prepared is slices[0][0]]
    assert first == [3, 3, 3, 3]
    stacks = [mat for mat, in factors if np.ndim(mat) == 3]
    assert len(stacks) > sum(len(prepared.groups) for prepared, *_ in slices)
    assert [r.status for r in rows].count("numeric_failure") == 1
    assert rows[-1].status == "numeric_failure"
    for x0, row in zip(grid[:-1], rows):
        pd = predictive_density_at(x0, data, draws, 0.3, 7.0, 4.0)
        if pd is None:
            assert row.summary is None and row.status == "too_few_neighbors"
        else:
            got, want = (np.array(list(s.values())) for s in (row.summary, pd.summary))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(NumericError, match="not positive"):
        predictive_density_at(grid[-1], data, draws, 0.3, 7.0, 4.0)


def test_beta_posterior_rank_deficient_prior():
    # V = 1 1' is positive semi-definite of rank 1: the jitter ladder makes
    # V^-1 workable, and the posterior keeps the prior's constraint that
    # the three coefficients are equal
    rng = np.random.default_rng(11)
    data = log_dataset(rng)
    spec = CovarianceSpec("exponential", 0.1, 1.0, 4.0)
    mean, W = beta_posterior(data, spec, TrendBasis.linear(2), np.zeros(3), 1.0, np.ones((3, 3)))
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(W))
    assert np.ptp(mean) < 1e-6 * np.abs(mean).max()
    assert np.abs(W - W[0, 0]).max() < 1e-6 * W[0, 0]
    assert W[0, 0] > 0.0


# -- densities the grid cannot resolve ------------------------------------------------


def test_density_with_no_mass_on_the_grid_is_a_numeric_failure(recwarn):
    # without a nugget, the conditional variance 1e-6 from a station is so
    # small that every draw's lognormal vanishes at every grid node
    rng = np.random.default_rng(41)
    data = log_dataset(rng, n=40)
    draws = PosteriorDraws(np.array([[0.0, 0.8, 6.0, 1.3, 1.2, 30.0, 0.9],
                                     [0.0, 0.7, 5.0, 1.7, 1.1, 35.0, 1.1]]))
    near = data.locations[0] + [1e-6, 0.0]
    with pytest.raises(NumericError, match="mass"):
        predictive_density_at(near, data, draws, 0.0, 10.0, 4.0)
    rows = density_map(np.vstack([near, [5.0, 5.0]]), data, draws, 0.0, 10.0, 4.0)
    assert [r.status for r in rows] == ["numeric_failure", "ok"]
    assert "nan" not in density_map_csv(rows)
    assert not recwarn.list


def test_density_grid_is_built_once_and_read_only():
    grid = DensityGrid()
    assert grid.log_grid is grid.log_grid
    with pytest.raises(ValueError):
        grid.log_grid[0] = 0.0
    n = int(round((grid.hi - grid.lo) / grid.step)) + 1
    assert np.array_equal(grid.log_grid, np.linspace(grid.lo, grid.lo + (n - 1) * grid.step, n))



@pytest.mark.parametrize("rule", ["trapezoid", "forward"])
def test_density_keeps_the_bits_of_its_per_call_terms(rule):
    # exp(g), exp(-g) and diff(exp g) are built once per grid, each
    # lognormal term divides by -2 s2 instead of negating, then dividing,
    # and the terms are summed by one reduction instead of a loop
    from variokrig.bayes import _density

    grid = DensityGrid(rule=rule)
    g = grid.log_grid
    for name, expect in (("values", np.exp(g)), ("jacobian", np.exp(-g)),
                         ("widths", np.diff(np.exp(g)))):
        cached = getattr(grid, name)
        assert cached is getattr(grid, name)
        assert cached.view(np.int64).tolist() == expect.view(np.int64).tolist()
        with pytest.raises(ValueError):
            cached[0] = 0.0
    rng = np.random.default_rng(35)
    moments = list(zip(rng.normal(0.5, 0.4, size=40).tolist(),
                       rng.uniform(0.05, 0.6, size=40).tolist()))
    m, s2 = np.array(sorted(moments)).T[:, :, None]
    terms = np.exp(-np.square(g - m) / (2.0 * s2)) / np.sqrt(2.0 * math.pi * s2)
    dens = np.zeros_like(g)
    for term in terms:
        dens += term
    dens /= len(moments)
    dens = dens * np.exp(-g)
    pd = _density(moments, grid)
    assert pd.density.view(np.int64).tolist() == dens.view(np.int64).tolist()
    assert pd.values.view(np.int64).tolist() == np.exp(g).view(np.int64).tolist()

# -- the bound on what the Matern table changes in a density map ----------------------


def test_density_map_from_the_table_stays_within_its_bound_of_kve(monkeypatch):
    # Matern covariances at a scalar nu that is not a half-integer come from
    # specfun's Chebyshev table of log kve. Against the same map from kve
    # per element, status and quantile cells stay equal (the quantiles are
    # grid nodes) and every other cell moves by at most 1e-11 relative.
    from variokrig import specfun

    rng = np.random.default_rng(51)
    data = log_dataset(rng, n=60, spread=30.0)
    base = np.array([0.05, 0.6, 8.0, 0.8, 0.9, 30.0, 1.4])
    draws = PosteriorDraws(base * rng.uniform(0.6, 1.4, size=(10, 7)))
    g = np.linspace(0.0, 30.0, 12)
    grid = np.array([(x, y) for x in g for y in g])
    table_calls = []
    table = specfun._log_bessel_k_table
    monkeypatch.setattr(specfun, "_log_bessel_k_table",
                        lambda nu, x: table_calls.append(nu) or table(nu, x))
    with_table = density_map_csv(density_map(grid, data, draws, 0.3, 10.0, 9.0))
    assert len(table_calls) == 2 * len(draws)
    monkeypatch.setattr(specfun, "_log_bessel_k_table", specfun._log_bessel_k_each)
    with_kve = density_map_csv(density_map(grid, data, draws, 0.3, 10.0, 9.0))

    header, *rows = with_table.splitlines()
    assert header == with_kve.splitlines()[0]
    names = header.split(",")
    exact = {"status", "Median", "qq001", "qq005", "qq025", "qq075", "qq095", "qq099"}
    served = 0
    for row, ref in zip(rows, with_kve.splitlines()[1:], strict=True):
        for name, a, b in zip(names, row.split(","), ref.split(","), strict=True):
            if name in exact or not b:
                assert a == b, name
            else:
                assert float(a) == pytest.approx(float(b), rel=1e-11, abs=0.0), name
        served += row.endswith(",ok")
    assert served > 100
