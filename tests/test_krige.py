import math

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
from variokrig.krige import krige_map_csv


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


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every variokrig namespace bound to it."""
    import sys

    original = getattr(sys.modules[module], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("variokrig") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("method", ["simple", "ordinary", "universal", "bayes", "gls"])
def test_each_predictor_builds_and_factors_its_system_once(monkeypatch, method):
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
    evals = _count_calls(monkeypatch, "variokrig.models", "covariance_eval")
    factors = _count_calls(monkeypatch, "variokrig._linalg", "chol_with_jitter")
    run()
    assert (len(evals), len(factors)) == (1, 1)
