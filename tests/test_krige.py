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
@pytest.mark.parametrize("kind", list(MAP_SPECS))
def test_map_rows_equal_single_point_predictions(method, radius, kind):
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
    from variokrig.krige import MAP_BLOCK

    rng = np.random.default_rng(22)
    data, spec, grid = map_instance(rng, expo(nugget=0.1))
    grid = np.vstack([grid, rng.uniform(0.0, 10.0, size=(2 * MAP_BLOCK, 2))])  # three blocks
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    with pytest.warns(UserWarning, match="duplicate"):
        rows = krige_map(grid, method, data, spec, math.inf, mean=0.3, basis=LINEAR,
                         prior=PRIOR)
    assert len(factors) == 1
    assert sum(r.status == "ok" for r in rows) == len(grid)


@pytest.mark.parametrize("method", METHODS)
def test_local_map_factors_each_distinct_neighbour_set_once(count_calls, method):
    rng = np.random.default_rng(23)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(25, 2)), rng.normal(size=25))
    g = np.linspace(0.25, 9.75, 10)
    grid = np.array([(x, y) for x in g for y in g])
    sets = [neighborhood(data, x0, 3.0) for x0 in grid]  # one block of the map
    served = [s.locations.tobytes() for s in sets if s is not None and len(s) > 4]
    sizes = {len(s) for s in sets if s is not None and len(s) > 4}
    factors = count_calls("variokrig._linalg", "chol_with_jitter")
    krige_map(grid, method, data, expo(nugget=0.1), 3.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    # each distinct set is one matrix of one stack, one stack per set size
    assert sum(np.shape(mat)[0] for mat, in factors) == len(set(served)) < len(served)
    assert len(factors) <= len(sizes) < len(set(served))


@pytest.mark.parametrize("method", METHODS)
def test_local_map_evaluates_covariances_at_most_twice_per_block(count_calls, method):
    from variokrig.krige import MAP_BLOCK

    rng = np.random.default_rng(24)
    data = SpatialDataset(rng.uniform(0.0, 10.0, size=(40, 2)), rng.normal(size=40))
    grid = rng.uniform(0.0, 10.0, size=(3 * MAP_BLOCK + 5, 2))  # four blocks
    evals = count_calls("variokrig.models", "covariance_eval")
    searches = count_calls("variokrig.krige", "neighborhood")
    rows = krige_map(grid, method, data, expo(nugget=0.1), 2.5, mean=0.3, basis=LINEAR,
                     prior=PRIOR)
    statuses = [r.status for r in rows]
    assert "numeric_failure" not in statuses
    assert statuses.count("ok") > len(grid) // 2
    assert len(evals) <= 2 * 4  # one Gram over the block's new sets, one cross row
    assert searches == []  # one block search, no per-point neighborhood


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
    # is not finite beyond h ~ 127, so the block's union Gram fails and the
    # sets are evaluated one by one
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
    assert len(evals) == 1 + 3 + 1  # the failed union, each of the 3 sets, the cross rows
    expect = point_rows(grid, method, data, spec, 71.0)
    assert [(r.status, r.result) for r in rows] == expect
    assert [status for status, _ in expect] == ["ok", "ok", "numeric_failure", "ok"]


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
    # the jitter ladder is made to fail on the system of cluster 1 alone: the
    # group's stacked call fails, and each set is factored again on its own
    import variokrig.krige as krige_module
    from variokrig._linalg import chol_with_jitter
    from variokrig.exceptions import SingularMatrixError

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
        if any(np.allclose(m, target, rtol=1e-12, atol=0.0) for m in stack):
            raise SingularMatrixError("ladder exhausted")
        return chol_with_jitter(mat)

    monkeypatch.setattr(krige_module, "chol_with_jitter", failing)
    rows = krige_map(grid, method, data, spec, 3.0, mean=0.3, basis=LINEAR, prior=PRIOR)
    assert sizes == [4, 1, 1, 1, 1]
    expect = point_rows(grid, method, data, spec, 3.0)
    assert [(r.status, r.result) for r in rows] == expect
    assert [status for status, _ in expect] == ["ok"] * 2 + ["numeric_failure"] * 2 + ["ok"] * 4
