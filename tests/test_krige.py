import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from variokrig import (
    BayesPrior,
    CovarianceSpec,
    DomainError,
    SpatialDataset,
    TrendBasis,
    bayes_kriging,
    covariance_eval,
    gls_beta,
    krige_map,
    neighborhood,
    ordinary_kriging,
    ordinary_weights,
    simple_kriging,
    simple_weights,
    universal_kriging,
)
from variokrig.exceptions import NumericError
from variokrig.krige import _predict, krige_map_csv


def expo(nugget=0.0, sill=2.0, range_=3.0):
    return CovarianceSpec("exponential", nugget, sill, range_)


def random_instance(rng, n, nugget=0.0):
    locs = rng.uniform(0.0, 10.0, size=(n, 2))
    vals = rng.normal(size=n)
    return SpatialDataset(locs, vals), expo(nugget=nugget)


def gram(spec, locs):
    from scipy.spatial.distance import cdist

    return covariance_eval(spec, cdist(locs, locs))


def cross(spec, locs, x0):
    from scipy.spatial.distance import cdist

    return np.asarray(covariance_eval(spec, cdist(locs, np.atleast_2d(x0)).ravel()))


# -- neighborhood ---------------------------------------------------------------


def test_neighborhood_full_and_empty():
    data = SpatialDataset([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [1.0, 2.0, 3.0])
    assert len(neighborhood(data, [0.0, 0.0], 100.0)) == 3
    assert neighborhood(data, [50.0, 50.0], 1.0) is None


def test_neighborhood_boundary_included():
    data = SpatialDataset([[0.0, 0.0], [5.0, 0.0]], [1.0, 2.0])
    sub = neighborhood(data, [0.0, 0.0], 5.0)
    assert len(sub) == 2


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_neighborhood_rejects_nonpositive_or_nan_radius(radius):
    data = SpatialDataset([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        neighborhood(data, [0.0, 0.0], radius)


def test_neighborhood_preserves_order():
    rng = np.random.default_rng(0)
    data, _ = random_instance(rng, 12)
    sub = neighborhood(data, [5.0, 5.0], 4.0)
    idx = [np.flatnonzero((data.locations == loc).all(axis=1))[0] for loc in sub.locations]
    assert idx == sorted(idx)


def test_neighbour_sets_number_each_distinct_set_once():
    from variokrig.krige import _first_occurrences, _map_runs, _neighbour_sets

    # station 5 repeats station 1; stations 4 and 6 lie exactly at the radius
    # of the origin; the four stations near (10.5, 10.5) are exactly `least`
    locations = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0],
                          [1.0, 0.0], [0.0, 2.0], [10.0, 10.0], [11.0, 10.0], [10.0, 11.0],
                          [11.0, 11.0]])
    points = np.array([[0.0, 0.0], [10.5, 10.5], [0.5, 0.5], [2.0, 1.0], [50.0, 50.0],
                       [0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    assert _first_occurrences(locations).tolist() == [0, 1, 2, 3, 4, 1, 6, 7, 8, 9, 10]
    first = _first_occurrences(locations) == np.arange(len(locations))
    radius, least = 2.0, 4
    member, set_of, sets, cross, starts = _neighbour_sets(points, locations, first, radius,
                                                          least)
    reach = [np.hypot(*(locations - x0).T) <= radius for x0 in points]
    oracle = [np.flatnonzero(within & first) for within in reach]
    served = [np.count_nonzero(within) > least for within in reach]
    assert served == [True, False, True, True, False, True, True, True]
    assert oracle[0].tolist() == [0, 1, 2, 3, 4, 6]  # the boundary kept, the duplicate not
    assert oracle[3].tolist() == [1, 2, 3, 4]  # served by counting the duplicate
    assert set_of.tolist().count(-1) == 2
    for i in range(len(points)):
        assert (set_of[i] >= 0) == served[i]
        assert np.array_equal(member[i], np.isin(np.arange(len(locations)), oracle[i])
                              & served[i])
        lags = cross[starts[i]:starts[i + 1]]
        if served[i]:
            # one np.nonzero over the distinct rows: the values and dtype of
            # np.flatnonzero, so the same bytes
            assert sets[set_of[i]].dtype == oracle[i].dtype
            assert sets[set_of[i]].tobytes() == oracle[i].tobytes()
            assert lags.tolist() == [0.0, *np.hypot(*(locations[oracle[i]] - points[i]).T)]
        else:
            assert lags.size == 0
        for k in range(len(points)):
            if served[i] and served[k]:
                same = np.array_equal(oracle[i], oracle[k])
                assert (set_of[i] == set_of[k]) == same
    assert len({idx.tobytes() for idx in sets}) == len(sets) == 2
    assert sorted(set(set_of.tolist()) - {-1}) == list(range(len(sets)))
    # a run drops the duplicate where a served point reaches it, and keeps
    # the numbering of its one search
    [block] = _map_runs(points, locations, radius, least, 0)
    assert np.array_equal(block.set_of, set_of)
    assert [idx.tobytes() for idx in block.sets] == [idx.tobytes() for idx in sets]
    assert np.flatnonzero(block.dropped).tolist() == [5]

    member, set_of, sets, cross, starts = _neighbour_sets(points[[1, 4]], locations, first,
                                                          radius, least)
    assert set_of.tolist() == [-1, -1] and sets == []
    assert not member.any() and cross.size == 0 and starts.tolist() == [0, 0, 0]
    [block] = _map_runs(points[[1, 4]], locations, radius, least, 0)
    assert not block.dropped.any() and block.cross.size == 0


# -- simple kriging --------------------------------------------------------------


def test_simple_exact_at_datum_without_nugget():
    rng = np.random.default_rng(1)
    data, spec = random_instance(rng, 8)
    res = simple_kriging(data.locations[3], data, spec, mean=0.4)
    assert res.prediction == pytest.approx(data.values[3], abs=1e-8)
    assert res.sd < 1e-6


def test_simple_uncorrelated_returns_mean():
    spec = CovarianceSpec("spherical", 0.0, 2.0, 1.0)
    data = SpatialDataset([[0.0, 0.0], [0.5, 0.0]], [5.0, 7.0])
    res = simple_kriging([10.0, 10.0], data, spec, mean=1.25)
    assert res.prediction == pytest.approx(1.25)
    assert res.sd == pytest.approx(math.sqrt(2.0))


def test_simple_weights_match_numeric_minimizer():
    rng = np.random.default_rng(2)
    data, spec = random_instance(rng, 3, nugget=0.3)
    x0 = rng.uniform(0.0, 10.0, size=2)
    K = gram(spec, data.locations)
    c0 = cross(spec, data.locations, x0)

    def mse(lam):
        return float(spec.total_sill - 2.0 * lam @ c0 + lam @ K @ lam)

    oracle = minimize(mse, np.zeros(3), method="BFGS", options={"gtol": 1e-14})
    lam = simple_weights(x0, data, spec)
    assert np.abs(lam - oracle.x).max() < 1e-6


def test_blp_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        data, spec = random_instance(rng, int(rng.integers(3, 15)), nugget=0.1)
        x0 = rng.uniform(0.0, 10.0, size=2)
        lam = simple_weights(x0, data, spec)
        K = gram(spec, data.locations)
        c0 = cross(spec, data.locations, x0)
        assert np.abs(K @ lam - c0).max() < 1e-10


# -- ordinary kriging -------------------------------------------------------------


def test_ordinary_symmetric_pair():
    data = SpatialDataset([[-1.0, 0.0], [1.0, 0.0]], [2.0, 6.0])
    res = ordinary_kriging([0.0, 0.0], data, expo())
    assert res.prediction == pytest.approx(4.0, abs=1e-12)
    w, _ = ordinary_weights([0.0, 0.0], data, expo())
    assert np.allclose(w, 0.5, atol=1e-12)


def test_ordinary_exactness():
    rng = np.random.default_rng(4)
    data, spec = random_instance(rng, 9)
    res = ordinary_kriging(data.locations[5], data, spec)
    assert res.prediction == pytest.approx(data.values[5], abs=1e-8)
    assert res.sd < 1e-6


def penalty_ok_weights(K, c0, c00):
    n = K.shape[0]

    def obj(w, P):
        return float(w @ K @ w - 2.0 * c0 @ w + P * (w.sum() - 1.0) ** 2) + c00

    first = minimize(lambda w: obj(w, 1e7), np.full(n, 1.0 / n), method="BFGS",
                     options={"gtol": 1e-14, "maxiter": 5000})
    second = minimize(lambda w: obj(w, 1e9), first.x, method="BFGS",
                      options={"gtol": 1e-14, "maxiter": 5000})
    return second.x


def test_ordinary_weights_match_penalty_oracle():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        data, spec = random_instance(rng, n, nugget=0.2)
        x0 = rng.uniform(0.0, 10.0, size=2)
        w, _ = ordinary_weights(x0, data, spec)
        assert abs(w.sum() - 1.0) < 1e-12
        oracle = penalty_ok_weights(gram(spec, data.locations),
                                    cross(spec, data.locations, x0), spec.total_sill)
        assert np.abs(w - oracle).max() < 1e-6


def test_translation_equivariance():
    rng = np.random.default_rng(6)
    data, spec = random_instance(rng, 10, nugget=0.1)
    shifted = SpatialDataset(data.locations, data.values + 11.5)
    x0 = [4.0, 4.0]
    for func in (
        lambda d: ordinary_kriging(x0, d, spec),
        lambda d: universal_kriging(x0, d, spec, TrendBasis.linear(2)),
    ):
        a, b = func(data), func(shifted)
        assert b.prediction == pytest.approx(a.prediction + 11.5, abs=1e-9)
        assert b.sd == pytest.approx(a.sd, abs=1e-12)


# -- universal kriging -------------------------------------------------------------


def test_universal_with_constant_basis_is_ordinary():
    rng = np.random.default_rng(7)
    for _ in range(5):
        data, spec = random_instance(rng, 8, nugget=0.2)
        x0 = rng.uniform(0.0, 10.0, size=2)
        ok = ordinary_kriging(x0, data, spec)
        uk = universal_kriging(x0, data, spec, TrendBasis.constant())
        assert uk.prediction == pytest.approx(ok.prediction, abs=1e-10)
        assert uk.sd**2 == pytest.approx(ok.sd**2, abs=1e-10)


def test_universal_exactness():
    rng = np.random.default_rng(8)
    data, spec = random_instance(rng, 9)
    res = universal_kriging(data.locations[2], data, spec, TrendBasis.linear(2))
    assert res.prediction == pytest.approx(data.values[2], abs=1e-8)
    assert res.sd < 1e-6


def test_universal_unbiasedness_constraint():
    rng = np.random.default_rng(9)
    basis = TrendBasis.linear(2)
    for _ in range(5):
        data, spec = random_instance(rng, 10, nugget=0.15)
        x0 = rng.uniform(0.0, 10.0, size=2)
        K = gram(spec, data.locations)
        c0 = cross(spec, data.locations, x0)
        F = basis.design(data.locations)
        f0 = basis.at(x0)
        Kic0 = np.linalg.solve(K, c0)
        KiF = np.linalg.solve(K, F)
        lam = Kic0 + KiF @ np.linalg.solve(F.T @ KiF, f0 - F.T @ Kic0)
        assert np.abs(F.T @ lam - f0).max() < 1e-10
        # the implied weights reproduce the predictor
        res = universal_kriging(x0, data, spec, basis)
        assert lam @ data.values == pytest.approx(res.prediction, abs=1e-9)


def test_sd_ordering_simple_ordinary_universal():
    rng = np.random.default_rng(10)
    for _ in range(10):
        data, spec = random_instance(rng, 12, nugget=0.1)
        x0 = rng.uniform(0.0, 10.0, size=2)
        sk = simple_kriging(x0, data, spec, mean=0.0)
        ok = ordinary_kriging(x0, data, spec)
        uk = universal_kriging(x0, data, spec, TrendBasis.linear(2))
        assert sk.sd <= ok.sd + 1e-10
        assert ok.sd <= uk.sd + 1e-10


def test_rank_deficient_basis_rejected():
    data = SpatialDataset([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1.0, 2.0, 3.0])
    dup = TrendBasis(
        [lambda l: np.ones(l.shape[0]), lambda l: 2.0 * np.ones(l.shape[0])],
        names=["1", "two"],
    )
    with pytest.raises(DomainError, match="two"):
        universal_kriging([0.5, 0.0], data, expo(nugget=0.1), dup)


def incremental_rank_check(basis, locs):
    """The name of the first basis function whose design prefix loses rank
    under np.linalg.matrix_rank, or None."""
    F = np.column_stack([np.asarray(f(locs), dtype=float) for f in basis.functions])
    for k in range(1, F.shape[1] + 1):
        if np.linalg.matrix_rank(F[:, :k]) < k:
            return basis.names[k - 1]
    return None


@pytest.mark.parametrize("functions, names", [
    ([lambda l: np.ones(len(l))], ["1"]),
    ([lambda l: np.zeros(len(l))], ["zero"]),
    ([lambda l: np.zeros(len(l)), lambda l: l[:, 0]], ["zero", "x"]),
    ([lambda l: np.ones(len(l)), lambda l: l[:, 0], lambda l: 2.0 * l[:, 0] - 1.0],
     ["1", "x", "line"]),
    ([lambda l: np.ones(len(l)), lambda l: 0.0 * l[:, 0], lambda l: l[:, 1]], ["1", "none", "y"]),
    ([lambda l: np.ones(len(l)), lambda l: l[:, 0], lambda l: l[:, 1]], ["1", "x", "y"]),
    ([lambda l: np.ones(len(l)), lambda l: l[:, 0], lambda l: l[:, 0] ** 2], ["1", "x", "x2"]),
])
def test_design_rank_check_names_the_first_dependent_function(functions, names):
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    basis = TrendBasis(functions, names=names)
    expected = incremental_rank_check(basis, locs)
    if expected is None:
        assert basis.design(locs).shape == (4, len(names))
    else:
        with pytest.raises(DomainError, match=f"trend basis '{expected}' is linearly dependent"):
            basis.design(locs)


# -- gls trend estimation -----------------------------------------------------------


def test_gls_beta_identity_covariance_is_mean():
    locs = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    vals = np.array([1.0, 2.0, 3.0, 6.0])
    # far-apart points under a short range make K proportional to I
    spec = CovarianceSpec("spherical", 0.0, 1.0, 1.0)
    beta = gls_beta(SpatialDataset(locs, vals), spec, TrendBasis.constant())
    assert beta[0] == pytest.approx(vals.mean(), rel=1e-12)


def test_gls_beta_recovers_exact_trend():
    rng = np.random.default_rng(11)
    locs = rng.uniform(0.0, 10.0, size=(15, 2))
    beta_true = np.array([2.0, -0.3, 0.7])
    basis = TrendBasis.linear(2)
    vals = basis.design(locs) @ beta_true
    # near-zero noise limit: tiny white covariance
    spec = CovarianceSpec("spherical", 0.0, 1e-8, 0.1)
    beta = gls_beta(SpatialDataset(locs, vals), spec, basis)
    assert np.abs(beta - beta_true).max() < 1e-8


def test_gls_beta_scale_invariance():
    rng = np.random.default_rng(12)
    data, _ = random_instance(rng, 10)
    basis = TrendBasis.linear(2)
    b1 = gls_beta(data, expo(nugget=0.1, sill=1.0), basis)
    b2 = gls_beta(data, expo(nugget=0.5, sill=5.0), basis)  # K scaled by 5
    assert np.abs(b1 - b2).max() < 1e-9


# -- bayes kriging ---------------------------------------------------------------


def test_bayes_zero_prior_variance_is_simple():
    rng = np.random.default_rng(13)
    basis = TrendBasis.constant()
    for _ in range(5):
        data, spec = random_instance(rng, 8, nugget=0.2)
        x0 = rng.uniform(0.0, 10.0, size=2)
        mu = 0.7
        bk = bayes_kriging(x0, data, spec, basis, BayesPrior.scalar(mu, 0.0))
        sk = simple_kriging(x0, data, spec, mean=mu)
        assert bk.prediction == pytest.approx(sk.prediction, rel=1e-10, abs=1e-12)
        assert bk.sd == pytest.approx(sk.sd, rel=1e-10, abs=1e-12)


def test_bayes_flat_prior_is_universal():
    rng = np.random.default_rng(14)
    basis = TrendBasis.constant()
    for _ in range(5):
        data, spec = random_instance(rng, 8, nugget=0.2)
        x0 = rng.uniform(0.0, 10.0, size=2)
        bk = bayes_kriging(x0, data, spec, basis, BayesPrior.scalar(0.0, 1e8))
        uk = universal_kriging(x0, data, spec, basis)
        assert bk.prediction == pytest.approx(uk.prediction, rel=1e-4, abs=1e-6)
        assert bk.sd == pytest.approx(uk.sd, rel=1e-4)


def schur_route(x0, data, spec, mu, phi):
    """Reference path: augmented covariance with the prior variance added to
    every entry; sd from the inverse's leading entry, prediction from the
    first row."""
    from scipy.spatial.distance import cdist

    pts = np.vstack([np.atleast_2d(x0), data.locations])
    M = covariance_eval(spec, cdist(pts, pts)) + phi
    Minv = np.linalg.inv(M)
    sd = math.sqrt(1.0 / Minv[0, 0])
    pred = mu + M[0, 1:] @ np.linalg.solve(M[1:, 1:], data.values - mu)
    return pred, sd


def test_bayes_matches_schur_route():
    rng = np.random.default_rng(15)
    basis = TrendBasis.constant()
    for _ in range(8):
        data, spec = random_instance(rng, 7, nugget=0.2)
        x0 = rng.uniform(0.0, 10.0, size=2)
        mu, phi = 0.4, 3.7
        bk = bayes_kriging(x0, data, spec, basis, BayesPrior.scalar(mu, phi))
        pred, sd = schur_route(x0, data, spec, mu, phi)
        assert bk.prediction == pytest.approx(pred, abs=1e-10)
        assert bk.sd == pytest.approx(sd, abs=1e-10)


# -- maps -------------------------------------------------------------------------


def test_map_exact_at_data_locations():
    rng = np.random.default_rng(16)
    data, spec = random_instance(rng, 12)
    rows = krige_map(data.locations, "ordinary", data, spec, radius=math.inf,
                     min_neighbors=4)
    for row, expect in zip(rows, data.values):
        assert row.status == "ok"
        assert row.result.prediction == pytest.approx(expect, abs=1e-8)


def test_map_isolated_point_missing():
    data = SpatialDataset(
        np.random.default_rng(17).uniform(0.0, 1.0, size=(6, 2)),
        np.arange(6.0),
    )
    rows = krige_map([[100.0, 100.0]], "ordinary", data, expo(nugget=0.1), radius=2.0)
    assert rows[0].status == "too_few_neighbors"
    assert rows[0].result is None


def test_map_min_neighbors_rule():
    # exactly min_neighbors points -> missing, one more -> predicted
    locs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    data4 = SpatialDataset(locs, [1.0, 2.0, 3.0, 4.0])
    rows = krige_map([[0.5, 0.5]], "ordinary", data4, expo(nugget=0.1), radius=10.0)
    assert rows[0].status == "too_few_neighbors"
    data5 = SpatialDataset(locs + [[0.5, 0.4]], [1.0, 2.0, 3.0, 4.0, 5.0])
    rows = krige_map([[0.5, 0.5]], "ordinary", data5, expo(nugget=0.1), radius=10.0)
    assert rows[0].status == "ok"


def test_map_rejects_a_negative_neighbour_minimum():
    data = SpatialDataset([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(DomainError):
        krige_map([[5.0, 5.0]], "ordinary", data, expo(), radius=1.0, min_neighbors=-1)


def test_map_locality_under_radius_change():
    rng = np.random.default_rng(18)
    data, spec = random_instance(rng, 20, nugget=0.1)
    grid = rng.uniform(0.0, 10.0, size=(5, 2))
    wide = krige_map(grid, "ordinary", data, spec, radius=50.0)
    narrow = krige_map(grid, "ordinary", data, spec, radius=20.0)
    # every neighborhood is unchanged (all points within 15 of everything)
    for a, b in zip(wide, narrow):
        assert a.result.prediction == b.result.prediction
        assert a.result.sd == b.result.sd


def test_map_csv_layout():
    rng = np.random.default_rng(19)
    data, spec = random_instance(rng, 8, nugget=0.1)
    rows = krige_map([[5.0, 5.0], [500.0, 500.0]], "ordinary", data, spec, radius=20.0)
    text = krige_map_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,prediction,sd,n_neighbors,status"
    assert lines[1].endswith("ok")
    assert lines[2].endswith(",,,0,too_few_neighbors".replace(",,,", ",,,")) or "too_few_neighbors" in lines[2]
    # a -0.0 coordinate and subnormal predictions print as `fmt_float` prints
    # each cell
    from variokrig.util import fmt_float

    tiny = SpatialDataset(data.locations, data.values * 1e-310)
    rows = krige_map([[-0.0, 5.0], [5.0, -0.0], [500.0, 500.0]], "ordinary", tiny, spec, 20.0)
    assert [r.status for r in rows] == ["ok", "ok", "too_few_neighbors"]
    assert 0.0 < abs(rows[0].result.prediction) < np.finfo(float).tiny
    expect = ["x,y,prediction,sd,n_neighbors,status"]
    for row in rows:
        cells = [fmt_float(row.location[0]), fmt_float(row.location[1])]
        if row.result is None:
            cells += ["", "", "0"]
        else:
            r = row.result
            cells += [fmt_float(r.prediction), fmt_float(r.sd), str(r.n_neighbors)]
        expect.append(",".join(cells + [row.status]))
    assert krige_map_csv(rows) == "\n".join(expect) + "\n"
    assert krige_map_csv(rows).splitlines()[1].startswith("-0.0,5.0,")


def test_duplicate_locations_dropped_with_warning():
    locs = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [1.5, 2.0]]
    data = SpatialDataset(locs, [1.0, 9.0, 2.0, 3.0, 4.0])
    with pytest.warns(UserWarning, match="duplicate"):
        res = ordinary_kriging([0.5, 0.5], data, expo(nugget=0.1))
    assert res.n_neighbors == 4


@pytest.mark.parametrize("method", ["simple", "ordinary", "universal", "bayes", "gls"])
def test_each_predictor_builds_and_factors_its_system_once(count_calls, method):
    rng = np.random.default_rng(20)
    data, spec = random_instance(rng, 12, nugget=0.1)
    x0 = [5.0, 5.0]
    basis = TrendBasis.linear(2)
    prior = BayesPrior(np.zeros(3), np.eye(3))  # its PSD check factors phi
    run = {
        "simple": lambda: simple_kriging(x0, data, spec, 0.0),
        "ordinary": lambda: ordinary_kriging(x0, data, spec),
        "universal": lambda: universal_kriging(x0, data, spec, basis),
        "bayes": lambda: bayes_kriging(x0, data, spec, basis, prior),
        "gls": lambda: gls_beta(data, spec, basis),
    }[method]
    evals = count_calls("variokrig.models", "covariance_eval")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    run()
    assert (len(evals), len(factors)) == (1, 1)


# -- maps share their factorisations ------------------------------------------------

METHODS = ("simple", "ordinary", "universal", "bayes")
LINEAR = TrendBasis.linear(2)
PRIOR = BayesPrior(np.zeros(3), np.eye(3))


def map_instance(rng, spec):
    """30 stations with a duplicated location and two 1e-9 apart, a 7x7
    grid over them, two of the stations and a point far from all of them."""
    locs = rng.uniform(0.0, 10.0, size=(30, 2))
    locs[7] = locs[3]
    locs[8] = locs[5] + [1e-9, 0.0]
    data = SpatialDataset(locs, rng.normal(size=30))
    g = np.linspace(0.5, 9.5, 7)
    grid = np.vstack([np.array([(x, y) for x in g for y in g]), locs[[0, 3]], [[300.0, 300.0]]])
    return data, spec, grid


def point_rows(grid, method, data, spec, radius):
    """krige_map's rows computed one point at a time."""
    out = []
    for x0 in grid:
        subset = neighborhood(data, x0, radius)
        if subset is None or len(subset) <= 4:
            out.append(("too_few_neighbors", None))
            continue
        try:
            res = _predict(method, x0, subset, spec, 0.3, LINEAR, PRIOR)
        except (NumericError, DomainError):
            out.append(("numeric_failure", None))
            continue
        out.append(("ok", res))
    return out


MAP_SPECS = {
    "exponential": expo(nugget=0.1),
    # without a nugget the gaussian model makes the two stations 1e-9 apart
    # one station to the last bit, so their neighbour sets need jitter
    "gaussian": CovarianceSpec("gaussian", 0.0, 2.0, 3.0),
    # C(h) is not finite beyond h ~ 127 (h / range overflows), so the far
    # point fails the block's shared cross-covariance evaluation
    "overflowing": CovarianceSpec("matern", 0.05, 1.0, 1e-306, 0.5),
}


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("radius", [math.inf, 3.0])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", [*MAP_SPECS, "triangle"])
def test_map_rows_equal_single_point_predictions(method, radius, kind):
    if kind == "triangle":
        # real ladder exhaustion: a map row fails exactly where `_predict`
        # raises. Locally some sets of a size are past the ladder and others
        # are served; the one global set of all 450 stations is past it
        data, spec, grid, _ = bits_instance(kind)
        if radius == math.inf:
            grid = grid[:12]  # each point's own system holds every station
        rows = krige_map(grid, method, data, spec, radius, mean=0.3, basis=LINEAR,
                         prior=PRIOR)
        expect = point_rows(grid, method, data, spec, radius)
        assert [(r.status, r.result) for r in rows] == expect
        statuses = {status for status, _ in expect}
        assert statuses == ({"numeric_failure"} if radius == math.inf
                            else {"ok", "numeric_failure"})
        return
    data, spec, grid = map_instance(np.random.default_rng(21), MAP_SPECS[kind])
    if kind == "gaussian":
        from variokrig._linalg import chol_with_jitter

        assert chol_with_jitter(gram(spec, np.unique(data.locations, axis=0)))[1] > 0.0
    if kind == "overflowing":
        with pytest.raises(NumericError):
            covariance_eval(spec, np.array([300.0]))
    rows = krige_map(grid, method, data, spec, radius, mean=0.3, basis=LINEAR, prior=PRIOR)
    expect = point_rows(grid, method, data, spec, radius)
    assert [(r.status, r.result) for r in rows] == expect
    assert sum(status == "ok" for status, _ in expect) > len(grid) // 2
    far = "numeric_failure" if kind == "overflowing" else "ok"
    assert expect[-1][0] == (far if radius == math.inf else "too_few_neighbors")


@pytest.mark.parametrize("method", METHODS)
def test_global_map_factors_one_matrix(count_calls, method):
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(22)
    data, spec, grid = map_instance(rng, expo(nugget=0.1))
    # a run holds as many points as fill the budget with distances alone:
    # the second run solves the first run's one set on its factor
    most = MAP_BYTES // (8 * len(data))
    grid = np.vstack([grid, rng.uniform(0.0, 10.0, size=(most, 2))])
    runs = count_calls("variokrig.krige", "_run_rows")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    with pytest.warns(UserWarning, match="duplicate"):
        rows = krige_map(grid, method, data, spec, math.inf, mean=0.3, basis=LINEAR,
                         prior=PRIOR)
    assert len(runs) == 2
    assert len(factors) == 1
    assert sum(r.status == "ok" for r in rows) == len(grid)


@pytest.mark.parametrize("method", METHODS)
def test_local_map_factors_each_distinct_neighbour_set_once(count_calls, method):
    rng = np.random.default_rng(23)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(25, 2)), rng.normal(size=25))
    g = np.linspace(0.25, 9.75, 10)
    grid = np.array([(x, y) for x in g for y in g])
    sets = [neighborhood(data, x0, 3.0) for x0 in grid]  # one run and chunk of the map
    served = [s.locations.tobytes() for s in sets if s is not None and len(s) > 4]
    sizes = {len(s) for s in sets if s is not None and len(s) > 4}
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    krige_map(grid, method, data, expo(nugget=0.1), 3.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    # each distinct set is one matrix of one stack, one stack per set size
    assert sum(np.shape(mat)[0] for mat, in factors) == len(set(served)) < len(served)
    assert len(factors) <= len(sizes) < len(set(served))


@pytest.mark.parametrize("method", METHODS)
def test_local_map_evaluates_covariances_at_most_twice_per_block(count_calls, method):
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(24)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(40, 2)), rng.normal(size=40))
    grid = rng.uniform(0.0, 10.0, size=(MAP_BYTES // (8 * 40) + 5, 2))
    runs = count_calls("variokrig.krige", "_run_rows")
    chunks = count_calls("variokrig.krige", "_prepare")
    evals = count_calls("variokrig.models", "covariance_eval")
    searches = count_calls("variokrig.krige", "neighborhood")
    rows = krige_map(grid, method, data, expo(nugget=0.1), 2.5, mean=0.3, basis=LINEAR,
                     prior=PRIOR)
    statuses = [r.status for r in rows]
    assert "numeric_failure" not in statuses
    assert statuses.count("ok") > len(grid) // 2
    assert len(runs) == 2
    # one evaluation per chunk, of the pair lags of its new sets and its
    # points' cross lags: the first run's sets fit one chunk, and the second
    # run solves the sets carried from it, then its own
    assert [len(block.points) for _, _, block, *_ in chunks] == [len(grid) - 5, 5]
    assert len(evals) == len(chunks)
    assert searches == []  # one search per run, no per-point neighborhood


def test_map_warns_once_about_duplicates():
    data, spec, grid = map_instance(np.random.default_rng(21), expo(nugget=0.1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        krige_map(grid, "ordinary", data, spec, 3.0)
    duplicates = [str(w.message) for w in caught if "duplicate" in str(w.message)]
    assert duplicates == ["dropped 1 duplicate locations from the kriging neighborhoods of the map"]
    # each set holding the duplicate warned before; the single-point predictor still does
    with pytest.warns(UserWarning, match="duplicate"):
        ordinary_kriging(data.locations[3], data, spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prior_with_non_finite_moments_is_a_domain_error(bad):
    # a mean or covariance that is not finite would make every Bayes
    # prediction NaN: it is rejected where it enters
    with pytest.raises(DomainError, match="finite"):
        BayesPrior(np.array([0.0, bad]), np.eye(2))
    with pytest.raises(DomainError, match="finite"):
        BayesPrior(np.zeros(2), np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(DomainError, match="finite"):
        BayesPrior.scalar(bad, 1.0)


def test_map_with_a_prior_of_another_dimension_is_a_domain_error():
    # one DomainError at the map's entry, as bayes_kriging raises for the
    # same inputs
    data, spec, grid = map_instance(np.random.default_rng(21), expo(nugget=0.1))
    for basis in (TrendBasis.constant(), TrendBasis.linear(2)):
        prior = BayesPrior.scalar(0.0, 1.0) if len(basis) == 3 else PRIOR
        with pytest.raises(DomainError, match="prior dimension"):
            krige_map(grid, "bayes", data, spec, 3.0, basis=basis, prior=prior)
        with pytest.raises(DomainError, match="prior dimension"):
            bayes_kriging(grid[0], data, spec, basis, prior)


def test_clamped_variances_warn_once_per_map_and_per_call():
    # kriging at the stations without a nugget: C(0) - c0'w cancels to a
    # tiny negative variance at many of them
    from variokrig.krige import clamped_variance_count

    data, spec = random_instance(np.random.default_rng(16), 40)
    before = clamped_variance_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = krige_map(data.locations, "ordinary", data, spec, math.inf)
    clamped = clamped_variance_count() - before
    assert clamped > 1 and all(r.status == "ok" for r in rows)
    assert [str(w.message) for w in caught] == [
        f"ordinary kriging: {clamped} negative variances clamped to 0"]
    x0 = next(x for x, r in zip(data.locations, rows) if r.result.sd == 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simple_kriging(x0, data, spec, 0.0)
    assert len(caught) <= 1 and clamped_variance_count() - before - clamped == len(caught)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("method", METHODS)
def test_map_set_whose_gram_fails_fails_alone(count_calls, method):
    # two tight clusters 200 apart and a set spanning 140: C(h) of this spec
    # is not finite beyond h ~ 127, so the block's pair lags hold NaN and
    # the set that gathers one fails alone
    spec = MAP_SPECS["overflowing"]
    rng = np.random.default_rng(25)
    cluster = rng.uniform(0.0, 2.0, size=(6, 2))
    locs = np.vstack([cluster, cluster + [200.0, 0.0], cluster[:3] + [400.0, 0.0],
                      cluster[3:] + [400.0, 140.0]])
    data = SpatialDataset(locs, rng.normal(size=18))
    grid = np.array([[1.0, 1.0], [201.0, 1.0], [401.0, 71.0], [0.5, 1.5]])
    with pytest.raises(NumericError):
        covariance_eval(spec, np.array([138.0]))
    evals = count_calls("variokrig.models", "covariance_eval")
    rows = krige_map(grid, method, data, spec, 71.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    assert len(evals) == 1  # the pair lags and the cross lags, at once
    expect = point_rows(grid, method, data, spec, 71.0)
    assert [(r.status, r.result) for r in rows] == expect
    assert [status for status, _ in expect] == ["ok", "ok", "numeric_failure", "ok"]


# six stations at easting -1e308: a grid point at easting 8e307 or beyond
# lies farther from them than the largest float, so its cross lags are inf
FAR_STATIONS = SpatialDataset(
    np.column_stack([np.full(6, -1e308), [0.0, 5.0, 9.0, 2.0, 7.0, 1.0]]),
    np.array([1.0, 2.0, 1.5, 0.5, 1.2, 0.9]))


@pytest.mark.parametrize("method", METHODS)
def test_map_point_with_overflowing_cross_lags_fails_alone(method):
    spec = CovarianceSpec("exponential", 0.1, 1.0, 10.0)
    grid = np.array([[-1e308, 3.0], [8e307, 3.0], [1.6e308, 10.0]])
    rows = krige_map(grid, method, FAR_STATIONS, spec, math.inf, mean=0.3,
                     basis=TrendBasis.constant(), prior=BayesPrior.scalar(0.0, 1.0))
    assert [r.status for r in rows] == ["ok", "numeric_failure", "numeric_failure"]
    assert rows[1].result is rows[2].result is None
    assert math.isfinite(rows[0].result.prediction)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("predict", [simple_kriging, ordinary_kriging])
def test_wave_covariance_that_is_not_finite_fails_a_prediction(predict):
    # sin(u) / u of the overflowed lag from (300, 0) is NaN
    spec = CovarianceSpec("wave", 0.1, 1.0, 1e-306)
    data = SpatialDataset(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0],
                                    [5.0, 5.0]]), np.array([1.0, 2.0, 1.5, 0.5, 1.2]))
    args = (0.0,) if predict is simple_kriging else ()
    with pytest.raises(NumericError):
        predict([300.0, 0.0], data, spec, *args)


def cluster_instance(rng, collinear=None):
    """Four clusters of six stations 100 apart, each one neighbour set of
    size 6 for the two grid points near its centre (radius 3): one group
    of one size. Cluster `collinear` lies on a line."""
    offsets = rng.uniform(-1.5, 1.5, size=(4, 6, 2))
    if collinear is not None:
        t = np.linspace(-1.5, 1.5, 6)
        offsets[collinear] = np.column_stack([t, 0.5 * t + 0.2])
    centres = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    data = SpatialDataset((centres[:, None, :] + offsets).reshape(-1, 2), rng.normal(size=24))
    grid = np.repeat(centres, 2, axis=0) + np.tile([[0.1, -0.2], [-0.3, 0.25]], (4, 1))
    return data, grid


@pytest.mark.parametrize("method", ["universal", "bayes"])
def test_collinear_set_in_a_size_group_fails_alone(count_calls, method):
    data, grid = cluster_instance(np.random.default_rng(26), collinear=2)
    spec = expo(nugget=0.1)
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    assert [np.shape(mat) for mat, in factors] == [(3, 6, 6)]  # the rank check took it out
    expect = point_rows(grid, method, data, spec, 3.0)
    assert [(r.status, r.result) for r in rows] == expect
    assert [status for status, _ in expect] == ["ok"] * 4 + ["numeric_failure"] * 2 + ["ok"] * 2


@pytest.mark.parametrize("method", METHODS)
def test_set_whose_factorisation_fails_fails_alone_in_its_group(monkeypatch, method):
    # the jitter ladder is made to fail on the system of cluster 1 alone: in
    # the group's one stacked call its factor is NaN, and its points alone
    # fail, as a single-point prediction on that set raises
    import variokrig.krige as krige_module
    from variokrig._linalg import chol_with_jitter

    data, grid = cluster_instance(np.random.default_rng(27))
    spec = expo(nugget=0.1)
    bad = data.locations[6:12]
    target = gram(spec, bad)
    if method == "bayes":
        F = LINEAR.design(bad)
        target = target + F @ PRIOR.phi @ F.T
    sizes = []

    def failing(mat):
        stack = np.asarray(mat).reshape(-1, 6, 6)
        sizes.append(len(stack))
        L, delta = chol_with_jitter(mat)
        for t, m in enumerate(stack):
            if np.allclose(m, target, rtol=1e-12, atol=0.0):
                L[t] = np.nan
        return L, delta

    monkeypatch.setattr(krige_module, "chol_with_jitter", failing)
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    assert sizes == [4]
    expect = point_rows(grid, method, data, spec, 3.0)
    assert [(r.status, r.result) for r in rows] == expect
    assert [status for status, _ in expect] == ["ok"] * 2 + ["numeric_failure"] * 2 + ["ok"] * 4


# a grid point at one of the offsets below from station j sees at that station
# the covariance t C(0) (`tilted`): its simple kriging weights are t e_j, and
# its variance is -2 (t - 1) C(0) to first order (Bayes kriging too, since its
# cb changes by (t - 1) times the column of the station). t - 1 = 2.5e-11
# clamps a variance of about -5e-11, inside the tolerance 1e-10 for C(0) = 1;
# t - 1 = 1e-3 fails.
CLAMPED_OFFSET, CLAMPED_T = 8e-7, 1.0 + 2.5e-11
FAILING_OFFSET, FAILING_T = 1e-7, 1.0 + 1e-3


def tilted(covariance_eval, c0):
    """`covariance_eval`, except that a lag in (0, 1e-6) sees t c0."""

    def evaluate(spec, h):
        c = covariance_eval(spec, h)
        h = np.asarray(h, dtype=float)
        near = (h > 0.0) & (h < 1e-6)
        if not np.any(near):
            return c
        t = np.where(h < 5e-7, FAILING_T, CLAMPED_T)
        return np.where(near, t * c0, c)

    return evaluate


@pytest.mark.parametrize("method", ["simple", "bayes"])
def test_clamp_rule_and_solves_inside_a_stacked_size_group(monkeypatch, count_calls, method):
    # four clusters of six stations, one set each: one size group, factored
    # in one call, whose points are predicted as one stack; next to two
    # stations of cluster 0 a clamped and a failing variance
    from oracles import kriging_point_reference
    from variokrig import _linalg, models
    from variokrig.krige import clamped_variance_count

    data, grid = cluster_instance(np.random.default_rng(36))
    stations = data.locations[[0, 1]]
    grid = np.vstack([grid, stations + [[CLAMPED_OFFSET, 0.0], [0.0, FAILING_OFFSET]]])
    spec = expo(nugget=0.1, sill=0.9)
    basis, prior = TrendBasis.constant(), BayesPrior.scalar(0.3, 2.0)
    evaluate = tilted(models.covariance_eval, spec.nugget + spec.sill)
    monkeypatch.setattr(models, "covariance_eval", evaluate)
    _linalg.chol_solve(np.eye(1), np.ones(1))  # the first call binds LAPACK's dtrtrs
    solves = count_calls("variokrig._linalg", "_dtrtrs")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    before = clamped_variance_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = krige_map(grid, method, data, spec, 5.0, mean=0.3, basis=basis, prior=prior)
    assert [np.shape(mat) for mat, in factors] == [(4, 6, 6)]
    assert len(solves) == 2 * len(grid)
    assert [r.status for r in rows] == ["ok"] * 9 + ["numeric_failure"]
    assert clamped_variance_count() - before == 1
    assert [str(w.message) for w in caught] == [
        f"{method} kriging: 1 negative variances clamped to 0"]
    tol = 1e-10 * max(1.0, spec.nugget + spec.sill)
    variances = []
    for x0, row in zip(grid, rows):
        idx = np.flatnonzero(np.hypot(*(data.locations - x0).T) <= 5.0)
        F = np.ones((idx.size, 1))
        pred, var = kriging_point_reference(method, x0, data.locations[idx], data.values[idx],
                                            spec, 0.3, np.ones(1), F, prior.mu, prior.phi,
                                            evaluate)
        variances.append(var)
        if row.status == "ok":
            assert _bits([row.result.prediction, row.result.sd]).tolist() == \
                _bits([pred, math.sqrt(max(var, 0.0))]).tolist()
    assert min(variances[:8]) > 0.01
    assert -tol < variances[8] < -0.1 * tol and rows[8].result.sd == 0.0
    assert variances[9] < -1e3 * tol


# -- map blocks and the bits of their rows ------------------------------------------


def rule_instance(n=200):
    """n stations over [0, 10]^2, station 9 repeating station 4, and 2,500
    grid points over [-1, 11]^2."""
    rng = np.random.default_rng(27)
    locs = rng.uniform(0.0, 10.0, size=(n, 2))
    locs[9] = locs[4]
    return locs, rng.uniform(-1.0, 11.0, size=(2500, 2))


def observed_chunks(prepares):
    """Per run of a map, from the calls of `_prepare` in it: (its points'
    sets, the sets carried into it, its chunks of new sets), each set a
    tuple of location indices, as `oracles.map_chunks` gives them."""
    runs = []
    for _, _, block, new, reused, *_ in prepares:
        if not runs or runs[-1][0] is not block:
            runs.append((block, set(), []))
        sets = [tuple(idx.tolist()) for idx in block.sets]
        runs[-1][1].update(sets[j] for j in reused)
        if new:
            runs[-1][2].append([sets[j] for j in new])
    return [([None if j < 0 else tuple(block.sets[j].tolist()) for j in block.set_of.tolist()],
             kept, chunks) for block, kept, chunks in runs]


def test_map_block_rule(count_calls):
    # a map's blocks are fixed runs of MAP_BYTES // (8 n) consecutive points,
    # as many as fill the budget with their distances, one neighbour search
    # each. A run's sets that the last chunk of the run before factored are
    # solved first, on those factors; the others are factored in chunks,
    # sorted by size, whose factors and gather indices (16 m^2 bytes per set
    # of m locations) stay within MAP_BYTES. Every run drops the duplicate
    # that it reaches
    from oracles import map_chunks, neighbour_sets
    from variokrig.krige import MAP_BYTES

    assert MAP_BYTES == 3 * 2**20
    locs, grid = rule_instance()
    data = SpatialDataset(locs, np.random.default_rng(28).normal(size=len(locs)))
    prepares = count_calls("variokrig.krige", "_prepare")
    for radius in (1.0, 2.5, 4.0, math.inf):
        prepares.clear()
        with pytest.warns(UserWarning, match="duplicate"):
            rows = krige_map(grid, "ordinary", data, expo(nugget=0.1), radius)
        expect = map_chunks(neighbour_sets(grid, locs, radius, 4), len(locs),
                            MAP_BYTES // (8 * len(locs)), MAP_BYTES, carry=True)
        assert observed_chunks(prepares) == expect
        assert len(expect) == 2
        assert any(kept for _, kept, _ in expect)
        if 1.0 < radius < math.inf:
            assert min(len(chunks) for *_, chunks in expect) >= 2
        for _, _, block, *_ in prepares:
            assert np.flatnonzero(block.dropped).tolist() == [9]
        assert np.array_equal(np.vstack([r.location for r in rows]), grid)


@pytest.mark.parametrize("radius", [1.0, 4.0, math.inf])
def test_map_factors_each_distinct_set_of_a_run_once_but_the_carried(count_calls, radius):
    # each distinct set of a run is factored once, as one matrix of a
    # stacked call, except those carried from the run before, which are not
    # factored again
    from oracles import map_chunks, neighbour_sets
    from variokrig.krige import MAP_BYTES

    locs, grid = rule_instance()
    data = SpatialDataset(locs, np.random.default_rng(28).normal(size=len(locs)))
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    with pytest.warns(UserWarning, match="duplicate"):
        krige_map(grid, "bayes", data, expo(nugget=0.1), radius,
                  basis=TrendBasis.constant(), prior=BayesPrior.scalar(0.0, 4.0))
    runs = map_chunks(neighbour_sets(grid, locs, radius, 4), len(locs),
                      MAP_BYTES // (8 * len(locs)), MAP_BYTES, carry=True)
    distinct = [{s for s in points if s is not None} for points, *_ in runs]
    carried = [kept for _, kept, _ in runs]
    assert sum(np.shape(mat)[0] for mat, in factors if np.ndim(mat) == 3) == \
        sum(len(d) - len(kept) for d, kept in zip(distinct, carried))
    assert all(kept <= d for d, kept in zip(distinct, carried))
    assert any(carried)


def test_map_chunk_holds_one_set_past_the_budget(count_calls):
    # one set of 700 locations takes 7.8 MB of factor and gather index, more
    # than MAP_BYTES: its chunk holds it alone, and the next run solves it on
    # the carried factor
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(26)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(700, 2)), rng.normal(size=700))
    most = MAP_BYTES // (8 * 700)
    grid = rng.uniform(0.0, 10.0, size=(most + 3, 2))
    assert 16 * 700**2 > MAP_BYTES
    prepares = count_calls("variokrig.krige", "_prepare")
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    rows = krige_map(grid, "simple", data, expo(nugget=0.1), math.inf, mean=0.3)
    assert [(len(block.points), list(new), list(reused))
            for _, _, block, new, reused, *_ in prepares] == [(most, [0], []), (3, [], [0])]
    assert [r.status for r in rows] == ["ok"] * len(grid)
    assert [np.shape(mat) for mat, in factors] == [(1, 700, 700)]


@pytest.mark.parametrize("method", [*METHODS, "density"])
def test_maps_do_not_depend_on_the_byte_budget(monkeypatch, count_calls, method):
    # under a budget of 64 KiB a run holds 40 points (39 of a density under
    # two draws), and most chunks hold one set, of about 60 locations: every
    # row keeps its bits. A density factors each size group under both
    # draws in one stack where the stack fits half the budget, as every
    # group does under the default budget, and draw by draw where it does
    # not, as a set of 60 locations (2 * 16 * 60^2 bytes per draw) does not
    from variokrig import DensityGrid, PosteriorDraws, density_map, krige
    from variokrig.bayes import density_map_csv

    rng = np.random.default_rng(41)
    locs = rng.uniform(0.0, 10.0, size=(200, 2))
    locs[9] = locs[4]
    data = SpatialDataset(locs, rng.normal(size=len(locs)))
    grid = np.vstack([rng.uniform(-1.0, 11.0, size=(150, 2)), [[50.0, 50.0]]])
    if method == "density":
        draws = PosteriorDraws(np.array([[0.05, 1.2, 6.0, 0.5], [0.1, 0.9, 4.0, 1.7]]))
        run = lambda: density_map_csv(density_map(grid, data, draws, 0.3, 7.0, 3.0,
                                                  DensityGrid(step=0.25)))
    else:
        run = lambda: krige_map_csv(krige_map(grid, method, data, expo(nugget=0.1), 3.0,
                                              mean=0.3, basis=LINEAR, prior=PRIOR))
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expect = run()
        stacks = [np.shape(mat) for mat, in factors if np.ndim(mat) == 3]
        factors.clear()
        monkeypatch.setattr(krige, "MAP_BYTES", 2**16)
        prepares = count_calls("variokrig.krige", "_prepare")
        got = run()
    assert got == expect
    assert "ok" in got and "too_few_neighbors" in got
    assert len({id(block) for _, _, block, *_ in prepares}) >= 4
    chunks = [len(new) for _, _, _, new, *_ in prepares if len(new)]
    assert chunks.count(1) > len(chunks) // 2
    if method == "density":
        assert all(shape[0] % 2 == 0 for shape in stacks)
        small = [np.shape(mat) for mat, in factors if np.ndim(mat) == 3]
        assert (1, 60, 60) in small


def test_large_radius_bayes_map_peak_memory_is_bounded_by_the_budget():
    # about 100 of the 300 stations in each set: the factors new to a block
    # take at most MAP_BYTES, so the map holds those of a block and their
    # gather indices, the ones it reuses from the block before, a size
    # group's gathered Gram matrices while it is factored, the search ahead
    # and the rows: less than 4 MAP_BYTES at once, where blocks sized by
    # their distances alone held 40 MB
    import tracemalloc

    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(39)
    data = SpatialDataset(rng.uniform(0.0, 100.0, size=(300, 2)), rng.normal(size=300))
    g = np.linspace(0.5, 99.5, 30)
    grid = np.array([(x, y) for y in g for x in g])
    tracemalloc.start()
    try:
        rows = krige_map(grid, "bayes", data, CovarianceSpec("exponential", 0.1, 1.0, 20.0),
                         32.0, basis=TrendBasis.constant(), prior=BayesPrior.scalar(0.0, 100.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in rows] == ["ok"] * len(grid)
    assert peak < 4 * MAP_BYTES


@pytest.mark.parametrize("points", [1, 1965, 1966, 1967, 2500])
def test_map_searches_ahead_in_runs_of_the_budget(count_calls, points):
    # a search covers the MAP_BYTES // (8 n) next points, as many as fill the
    # budget with distances alone, and its run is those points
    from variokrig.krige import MAP_BYTES

    locs, grid = rule_instance()
    data = SpatialDataset(locs, np.random.default_rng(28).normal(size=len(locs)))
    grid = grid[:points]
    most = MAP_BYTES // (8 * len(locs))
    assert most == 1966
    searches = count_calls("variokrig.krige", "_neighbour_sets")
    runs = count_calls("variokrig.krige", "_run_rows")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = krige_map(grid, "ordinary", data, expo(nugget=0.1), 1.5)
    starts = range(0, points, most)
    assert [block.tolist() for block, *_ in searches] == \
        [grid[s:s + most].tolist() for s in starts]
    assert [block.points.tolist() for _, block, *_ in runs] == \
        [grid[s:s + most].tolist() for s in starts]
    assert len(rows) == points


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


def reference_rows(grid, method, data, spec, radius, basis, prior, mean=0.3):
    """(status, prediction, sd, set size) of each grid point, each from its
    own neighbour set by `oracles.kriging_point_reference`: duplicates
    dropped (first kept), more than 4 locations in reach to be served, a
    full-rank design for the trend methods, and variances within
    -1e-10 max(1, C(0)) clamped to 0."""
    from scipy.spatial.distance import cdist

    from oracles import kriging_point_reference

    _, first = np.unique(data.locations, axis=0, return_index=True)
    keep = np.zeros(len(data), dtype=bool)
    keep[first] = True
    c00 = covariance_eval(spec, np.zeros(1))[0]
    rows = []
    for x0, dist in zip(grid, cdist(grid, data.locations)):
        within = dist <= radius
        idx = np.flatnonzero(within & keep)
        if np.count_nonzero(within) <= 4:
            rows.append(("too_few_neighbors", None, None, idx.size))
            continue
        locs, values = data.locations[idx], data.values[idx]
        F = f0 = None
        if method in ("universal", "bayes"):
            F, f0 = basis.evaluate(locs), basis.evaluate(x0[None])[0]
            if np.linalg.matrix_rank(F) < F.shape[1]:
                rows.append(("numeric_failure", None, None, idx.size))
                continue
        got = kriging_point_reference(method, x0, locs, values, spec, mean, f0, F, prior.mu,
                                      prior.phi, covariance_eval)
        if got is None or got[1] < -1e-10 * max(1.0, c00):
            rows.append(("numeric_failure", None, None, idx.size))
            continue
        pred, sd = float(got[0]), math.sqrt(max(float(got[1]), 0.0))
        if not (math.isfinite(pred) and math.isfinite(sd)):
            rows.append(("numeric_failure", None, None, idx.size))
            continue
        rows.append(("ok", pred, sd, idx.size))
    return rows


def bits_instance(kind):
    """Data, spec, grid and radius of a local map of at least two blocks.
    "exponential": 600 random stations, one of them duplicated. "triangle":
    a 30 x 15 lattice of stations under the triangle model, which is not
    positive definite in two dimensions: some neighbour sets of a size
    cannot be factored even with jitter, while others of that size can."""
    from variokrig.krige import MAP_BYTES

    rng = np.random.default_rng(29)
    if kind == "exponential":
        locs = rng.uniform(0.0, 30.0, size=(600, 2))
        locs[11] = locs[4]
        spec, radius, hi = expo(nugget=0.05), 2.5, [30.0, 30.0]
    else:
        locs = np.array([(x, y) for x in range(30) for y in range(15)], dtype=float)
        spec, radius, hi = CovarianceSpec("triangle", 0.0, 1.0, 1.4), 3.0, [29.0, 14.0]
    data = SpatialDataset(locs, rng.normal(size=len(locs)))
    # more points than fill the budget with their distances alone
    grid = rng.uniform(0.0, hi, size=(MAP_BYTES // (8 * len(data)) + 40, 2))
    return data, spec, grid, radius


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("basis", ["constant", "linear"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind", ["exponential", "triangle"])
def test_map_rows_equal_the_per_point_reference_bit_for_bit(count_calls, method, basis, kind):
    # the per-block terms, the stacked residuals and the block rule must not
    # move the last bit of any row
    data, spec, grid, radius = bits_instance(kind)
    basis = TrendBasis.constant() if basis == "constant" else LINEAR
    k = len(basis)
    prior = BayesPrior(np.linspace(-0.5, 0.5, k), np.eye(k) + 0.3)
    runs = count_calls("variokrig.krige", "_run_rows")
    rows = krige_map(grid, method, data, spec, radius, mean=0.3, basis=basis, prior=prior)
    assert len(runs) >= 2
    expect = reference_rows(grid, method, data, spec, radius, basis, prior)
    assert [r.status for r in rows] == [status for status, *_ in expect]
    served = [(r, e) for r, e in zip(rows, expect) if r.status == "ok"]
    assert _bits([(r.result.prediction, r.result.sd) for r, _ in served]).tolist() == \
        _bits([e[1:3] for _, e in served]).tolist()
    assert [r.result.n_neighbors for r, _ in served] == [e[3] for _, e in served]
    assert len(served) > len(grid) // 4
    if kind == "triangle":
        # a size group whose stacked factorisation failed: some of its sets
        # failed alone, the others were served
        status_by_size = {}
        for status, *_, size in expect:
            status_by_size.setdefault(size, set()).add(status)
        assert any(s >= {"ok", "numeric_failure"} for s in status_by_size.values())


@pytest.mark.parametrize("entry", [*METHODS, "gls_beta", "ordinary_weights", "simple_weights"])
def test_single_item_entry_points_raise_on_a_set_past_the_ladder(entry):
    # the 32 lattice stations within 3 of the point: under the triangle model
    # their Gram matrix has an eigenvalue below -0.01, far past the ladder
    from variokrig import SingularMatrixError

    data, spec, _, radius = bits_instance("triangle")
    x0 = [15.5, 7.5]
    subset = neighborhood(data, x0, radius)
    assert len(subset) == 32
    assert np.linalg.eigvalsh(gram(spec, subset.locations)).min() < -0.01
    run = {
        "simple": lambda: simple_kriging(x0, subset, spec, 0.3),
        "ordinary": lambda: ordinary_kriging(x0, subset, spec),
        "universal": lambda: universal_kriging(x0, subset, spec, LINEAR),
        "bayes": lambda: bayes_kriging(x0, subset, spec, LINEAR, PRIOR),
        "gls_beta": lambda: gls_beta(subset, spec, LINEAR),
        "ordinary_weights": lambda: ordinary_weights(x0, subset, spec),
        "simple_weights": lambda: simple_weights(x0, subset, spec),
    }[entry]
    with pytest.raises(SingularMatrixError):
        run()


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_trend_terms_equal_per_point_products(k):
    # the Bayes terms of a block and the residuals of a size group are
    # stacked per-item products; each item must keep the bits of its own
    # products (2-D products such as f0s @ phi.T do not)
    from variokrig.krige import _bayes_terms, _factor

    rng = np.random.default_rng(30 + k)
    f0s = rng.normal(size=(500, k)) * 37.0
    a = rng.normal(size=(k, k))
    mu, phi = rng.normal(size=k), a @ a.T + 0.1 * np.eye(k)
    phif0, mean0, quad = _bayes_terms(f0s, mu, phi)
    assert _bits(phif0).tolist() == _bits([phi @ f0 for f0 in f0s]).tolist()
    assert _bits(mean0).tolist() == _bits([f0 @ mu for f0 in f0s]).tolist()
    assert _bits(quad).tolist() == _bits([f0 @ phi @ f0 for f0 in f0s]).tolist()
    G, n = 40, 17
    F = rng.normal(size=(G, n, k))
    values = rng.normal(size=(G, n))
    K = np.stack([np.eye(n) + 0.1 for _ in range(G)])
    fac = _factor("bayes", values, F, K, prior=BayesPrior(mu, phi))
    assert _bits(fac.resid).tolist() == _bits([values[g] - F[g] @ mu for g in range(G)]).tolist()


# -- map invariances ------------------------------------------------------------------


INVARIANCE_CASES = [("simple", TrendBasis.constant()), ("ordinary", TrendBasis.constant()),
                    ("universal", LINEAR), ("bayes", TrendBasis.constant())]


def invariance_instance():
    rng = np.random.default_rng(31)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(60, 2)), rng.normal(size=60))
    grid = np.vstack([rng.uniform(0.0, 10.0, size=(80, 2)), [[50.0, 50.0]]])
    return data, grid


def assert_same_map(rows, other):
    assert [r.status for r in rows] == [r.status for r in other]
    assert sum(r.status == "ok" for r in rows) > len(rows) // 2
    for r, o in zip(rows, other):
        if r.result is not None:
            assert r.result.n_neighbors == o.result.n_neighbors
            assert o.result.prediction == pytest.approx(r.result.prediction, rel=1e-9, abs=1e-12)
            assert o.result.sd == pytest.approx(r.result.sd, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("method,basis", INVARIANCE_CASES)
def test_map_is_translation_invariant(method, basis):
    # a trend of constant and linear terms spans the same space after a shift
    data, grid = invariance_instance()
    spec, prior = expo(nugget=0.1), BayesPrior.scalar(0.3, 4.0)
    shift = np.array([37.25, -81.5])
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=basis, prior=prior)
    moved = krige_map(grid + shift, method, SpatialDataset(data.locations + shift, data.values),
                      spec, 3.0, mean=0.3, basis=basis, prior=prior)
    assert_same_map(rows, moved)
    assert [r.location.tolist() for r in moved] == (grid + shift).tolist()


@pytest.mark.parametrize("method,basis", INVARIANCE_CASES)
def test_map_is_rotation_invariant(method, basis):
    data, grid = invariance_instance()
    spec, prior = expo(nugget=0.1), BayesPrior.scalar(0.3, 4.0)
    angle = 0.7
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=basis, prior=prior)
    turned = krige_map(grid @ rot.T, method, SpatialDataset(data.locations @ rot.T, data.values),
                       spec, 3.0, mean=0.3, basis=basis, prior=prior)
    assert_same_map(rows, turned)


@pytest.mark.parametrize("method,basis", INVARIANCE_CASES)
def test_map_is_invariant_under_row_permutation(method, basis):
    # a permutation reorders each Gram matrix, so only the bits may move
    data, grid = invariance_instance()
    spec, prior = expo(nugget=0.1), BayesPrior.scalar(0.3, 4.0)
    perm = np.random.default_rng(32).permutation(len(data))
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=basis, prior=prior)
    permuted = krige_map(grid, method, SpatialDataset(data.locations[perm], data.values[perm]),
                         spec, 3.0, mean=0.3, basis=basis, prior=prior)
    assert_same_map(rows, permuted)
