import numpy as np
import pytest
from scipy.spatial.distance import cdist

from variokrig import (
    CovarianceSpec,
    DomainError,
    SpatialDataset,
    covariance_eval,
    kl_simulate,
    make_grid,
    make_grid_inclusive,
    simulate_fields,
    simulate_gaussian_field,
    simulate_variograms,
    variogram_eval,
)
from variokrig._linalg import chol_with_jitter
from variokrig.sim import SimBatch, VariogramTable, kl_eigensystem


def expo(sill=1.0, range_=3.0, nugget=0.0):
    return CovarianceSpec("exponential", nugget, sill, range_)


# -- grids -----------------------------------------------------------------------


def test_make_grid_reference_expansion():
    pts = make_grid(0.0, 2.0, 0.0, 2.0, 2, 2)
    assert pts.tolist() == [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]


def test_make_grid_single_cell():
    pts = make_grid(0.0, 5.0, 0.0, 7.0, 1, 1)
    assert pts.tolist() == [[5.0, 7.0]]


def test_make_grid_count():
    assert make_grid(0.0, 1.0, 0.0, 1.0, 7, 5).shape == (35, 2)


def test_make_grid_inclusive_cov():
    pts = make_grid_inclusive(0.0, 1.0, 0.0, 1.0, 3, 2)
    assert pts[0].tolist() == [0.0, 0.0]
    assert pts[-1].tolist() == [1.0, 1.0]
    assert pts.shape == (6, 2)


def test_make_grid_rejects_bad_spec():
    with pytest.raises(DomainError):
        make_grid(0.0, 1.0, 0.0, 1.0, 0, 2)
    with pytest.raises(DomainError):
        make_grid(1.0, 1.0, 0.0, 1.0, 2, 2)


# -- cholesky with jitter -----------------------------------------------------------


def test_cholesky_identity_no_jitter():
    L, delta = chol_with_jitter(np.eye(6))
    assert delta == 0.0
    assert np.array_equal(L, np.eye(6))


def test_cholesky_rank_one_jitter():
    n = 8
    K = np.ones((n, n))
    L, delta = chol_with_jitter(K)
    assert delta > 0.0
    recon = L @ L.T
    assert np.abs(recon - K).max() <= delta * n + 1e-12


def test_cholesky_gives_up_on_indefinite():
    from variokrig import SingularMatrixError

    M = np.diag([1.0, -5.0])
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(M)


def spd_stack(rng, t=4, n=6):
    A = rng.normal(size=(t, n, n))
    return A @ A.transpose(0, 2, 1) + n * np.eye(n)


@pytest.mark.parametrize("jittered", [False, True])
def test_stacked_cholesky_equals_one_matrix_at_a_time(jittered):
    stack = spd_stack(np.random.default_rng(40))
    if jittered:
        stack[2] = np.ones((6, 6))  # fails the stacked call: every matrix is redone
    L, delta = chol_with_jitter(stack)
    single = [chol_with_jitter(m) for m in stack]
    assert all(np.array_equal(L[t], Lt) for t, (Lt, _) in enumerate(single))
    assert delta == max(d for _, d in single)
    assert (delta > 0.0) == jittered


def test_stacked_cholesky_gives_up_when_one_matrix_is_indefinite():
    # it gives up on that matrix alone: its factor is NaN, and the others
    # are their own factors
    stack = spd_stack(np.random.default_rng(41), n=2)
    stack[1] = np.diag([1.0, -5.0])
    L, delta = chol_with_jitter(stack)
    assert np.isnan(L[1]).all()
    for t in (0, 2, 3):
        assert np.array_equal(L[t], chol_with_jitter(stack[t])[0])
    assert delta == 0.0


def test_chol_solve_matches_scipy_triangular_solves_bitwise():
    from scipy.linalg import solve_triangular

    from variokrig._linalg import chol_solve

    rng = np.random.default_rng(42)
    for L in list(chol_with_jitter(spd_stack(rng, n=9))[0]) + [np.array([[2.0]])]:
        n = L.shape[0]
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            expect = solve_triangular(L.T, solve_triangular(L, rhs, lower=True), lower=False)
            assert np.array_equal(chol_solve(L, rhs), expect)


# -- field simulation ----------------------------------------------------------------


def test_zero_variance_field_is_constant():
    locs = make_grid(0.0, 4.0, 0.0, 4.0, 3, 3)
    batch = simulate_gaussian_field(locs, expo(sill=0.0), mean=3.5, n_sims=4, seed=9)
    # the jitter floor contributes at most ~1e-150
    assert np.allclose(batch.realizations, 3.5, atol=1e-120)


def test_simulation_reproducible_bitwise(monkeypatch):
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 4, 4)
    a = simulate_gaussian_field(locs, expo(), 0.0, 16, seed=42)
    b = simulate_gaussian_field(locs, expo(), 0.0, 16, seed=42)
    assert np.array_equal(a.realizations, b.realizations)
    monkeypatch.setenv("VARIOKRIG_THREADS", "8")
    c = simulate_gaussian_field(locs, expo(), 0.0, 16, seed=42)
    assert np.array_equal(a.realizations, c.realizations)
    d = simulate_gaussian_field(locs, expo(), 0.0, 16, seed=43)
    assert not np.array_equal(a.realizations, d.realizations)


def test_mean_linearity_exact():
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 3, 3)
    zero = simulate_gaussian_field(locs, expo(), 0.0, 5, seed=7)
    shifted = simulate_gaussian_field(locs, expo(), 2.25, 5, seed=7)
    assert np.array_equal(shifted.realizations, zero.realizations + 2.25)


def test_sample_covariance_tracks_model():
    rng = np.random.default_rng(0)
    locs = rng.uniform(0.0, 6.0, size=(30, 2))
    spec = expo(sill=2.0, range_=5.0)
    batch = simulate_gaussian_field(locs, spec, 0.0, 2000, seed=5)
    R = batch.realizations
    D = cdist(locs, locs)
    # five closest pairs (strong correlation, low relative MC noise)
    iu = np.triu_indices(30, k=1)
    order = np.argsort(D[iu])[:5]
    for k in order:
        i, j = iu[0][k], iu[1][k]
        model = covariance_eval(spec, D[i, j])
        sample = np.mean(R[i] * R[j]) - R[i].mean() * R[j].mean()
        assert sample == pytest.approx(model, rel=0.05)


def test_marginal_normality():
    locs = make_grid(0.0, 8.0, 0.0, 8.0, 3, 3)
    batch = simulate_gaussian_field(locs, expo(sill=1.5), 0.0, 2000, seed=21)
    x = batch.realizations[4]
    x = (x - x.mean()) / x.std()
    skew = np.mean(x**3)
    kurt = np.mean(x**4) - 3.0
    assert abs(skew) < 0.15
    assert abs(kurt) < 0.3


def test_invalid_dimension_rejected():
    locs = np.random.default_rng(1).uniform(0.0, 5.0, size=(10, 2))
    spec = CovarianceSpec("triangle", 0.0, 1.0, 2.0)  # valid on the line only
    with pytest.raises(DomainError):
        simulate_gaussian_field(locs, spec, 0.0, 1, seed=0)


# -- Karhunen-Loeve route ---------------------------------------------------------------


def test_mercer_reconstruction():
    rng = np.random.default_rng(2)
    locs = rng.uniform(0.0, 10.0, size=(50, 2))
    spec = expo(sill=1.3, range_=4.0, nugget=0.2)
    lam, psi = kl_eigensystem(spec, locs)
    K = covariance_eval(spec, cdist(locs, locs))
    resid = np.linalg.norm(K - (psi * lam) @ psi.T) / np.linalg.norm(K)
    assert resid < 1e-8


def test_eigenvector_orthonormality():
    rng = np.random.default_rng(3)
    locs = rng.uniform(0.0, 10.0, size=(25, 2))
    _, psi = kl_eigensystem(expo(), locs)
    assert np.abs(psi.T @ psi - np.eye(25)).max() < 1e-10


def test_kl_and_cholesky_routes_agree_in_second_moments():
    rng = np.random.default_rng(4)
    locs = rng.uniform(0.0, 6.0, size=(12, 2))
    spec = expo(sill=2.0, range_=5.0)
    a = simulate_gaussian_field(locs, spec, 0.0, 2000, seed=31).realizations
    b = kl_simulate(locs, spec, 0.0, 2000, seed=77).realizations
    cov_a = np.cov(a)
    cov_b = np.cov(b)
    K = covariance_eval(spec, cdist(locs, locs))
    assert np.abs(cov_a - K).max() < 0.35
    assert np.abs(cov_b - K).max() < 0.35
    assert np.abs(cov_a - cov_b).max() < 0.5


# -- variogram tables --------------------------------------------------------------------


def test_variogram_table_no_sims():
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 4, 4)
    table = simulate_variograms(locs, expo(), np.linspace(0.0, 8.0, 5), 0, seed=0)
    assert table.gammas.shape == (4, 0)
    assert table.as_matrix().shape == (4, 3)
    assert np.all(table.counts >= 0)


def expected_table(locations, fields, edges):
    """The table column by column, one empirical_variogram per field."""
    from variokrig import empirical_variogram

    ests = [empirical_variogram(SpatialDataset(locations, f), edges) for f in fields.T]
    probe = empirical_variogram(SpatialDataset(locations, np.zeros(len(locations))), edges)
    dist = [b.lag_center if b.n_pairs == 0 else b.mean_pair_distance for b in probe.bins]
    gammas = [[np.nan if b.gamma_hat is None else b.gamma_hat for b in e.bins] for e in ests]
    return VariogramTable(np.arange(1.0, len(dist) + 1.0), np.array(dist),
                          np.array([b.n_pairs for b in probe.bins], dtype=float),
                          np.array(gammas).T.reshape(len(dist), len(ests)))


def conditioned_fields(locations, data, spec, n_sims, seed, route=simulate_gaussian_field):
    """z[target] + W'(z_data - z[data]) for each joint simulation z over the
    data locations followed by the targets that are not data locations."""
    from variokrig.sim import _conditioning_weights

    index = {loc.tobytes(): i for i, loc in enumerate(data.locations)}
    for loc in locations:
        index.setdefault(loc.tobytes(), len(index))
    joint = np.array([np.frombuffer(k) for k in index])
    target = [index[loc.tobytes()] for loc in locations]
    Z = route(joint, spec, 0.0, n_sims, seed).realizations
    W = _conditioning_weights(data, spec, locations)
    return np.column_stack([z[target] + W.T @ (data.values - z[: len(data)]) for z in Z.T]
                           ) if n_sims else np.empty((len(locations), 0))


@pytest.mark.parametrize("layout", ["random", "grid"])
@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("n_sims", [0, 5])
def test_variogram_table_equals_one_estimate_per_simulated_field_bitwise(layout, conditional,
                                                                         n_sims):
    rng = np.random.default_rng(8)
    if layout == "grid":  # many pairs at equal distances
        locs = make_grid(0.0, 10.0, 0.0, 10.0, 6, 5)
    else:
        locs = rng.uniform(0.0, 10.0, size=(30, 2))
    spec = expo(sill=1.5, range_=4.0, nugget=0.1)
    edges = np.linspace(0.0, 9.0, 7)
    data = SpatialDataset(np.vstack([locs[::4], rng.uniform(0.0, 10.0, size=(3, 2))]),
                          rng.normal(size=len(locs[::4]) + 3))
    if conditional:
        fields = conditioned_fields(locs, data, spec, n_sims, seed=19)
    else:
        fields = simulate_gaussian_field(locs, spec, 0.0, n_sims, seed=19).realizations
    table = simulate_variograms(locs, spec, edges, n_sims, seed=19,
                                data=data if conditional else None)
    expect = expected_table(locs, fields, edges).as_matrix()
    assert table.as_matrix().shape == expect.shape == (6, 3 + n_sims)
    assert np.array_equal(table.as_matrix().view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("route", [simulate_gaussian_field, kl_simulate])
@pytest.mark.parametrize("conditional", [False, True])
def test_simulate_fields_are_the_route_fields_conditioned_bitwise(route, conditional):
    rng = np.random.default_rng(12)
    locs = np.vstack([make_grid(0.0, 10.0, 0.0, 10.0, 4, 4), rng.uniform(0.0, 10.0, (5, 2))])
    spec = expo(sill=1.5, range_=4.0, nugget=0.1)
    data = SpatialDataset(np.vstack([locs[::3], rng.uniform(0.0, 10.0, size=(2, 2))]),
                          rng.normal(size=len(locs[::3]) + 2))
    batch = simulate_fields(locs, spec, 0.0, 6, 23, data if conditional else None, route)
    if conditional:
        expect = conditioned_fields(locs, data, spec, 6, 23, route)
    else:
        expect = route(locs, spec, 0.0, 6, 23).realizations
    assert np.array_equal(batch.locations, locs)
    assert np.array_equal(batch.realizations.view(np.int64), expect.view(np.int64))


def test_unconditional_column_means_track_model():
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 5, 5)
    spec = expo(sill=1.0, range_=4.0)
    edges = np.linspace(0.0, 9.0, 7)
    table = simulate_variograms(locs, spec, edges, 500, seed=13)
    for k in range(2, 5):  # mid-range lags
        model = variogram_eval(spec, table.distances[k])
        assert np.nanmean(table.gammas[k]) == pytest.approx(model, rel=0.10)


def test_conditional_honors_data_when_nugget_zero():
    # with the data observed at every simulation location and no nugget,
    # conditioning collapses every realization onto the data itself, so all
    # simulated variogram columns equal the data's empirical variogram
    from variokrig import empirical_variogram

    rng = np.random.default_rng(5)
    grid = make_grid(0.0, 10.0, 0.0, 10.0, 4, 4)
    data = SpatialDataset(grid, rng.normal(size=grid.shape[0]))
    spec = expo(sill=1.5, range_=6.0)
    edges = np.linspace(0.0, 9.0, 5)
    table = simulate_variograms(grid, spec, edges, 3, seed=17, data=data)
    expect = np.array([
        b.gamma_hat for b in empirical_variogram(data, edges).bins if b.gamma_hat is not None
    ])
    for j in range(table.n_sims):
        col = table.gammas[~np.isnan(table.gammas[:, j]), j]
        assert np.abs(col - expect).max() < 1e-8


def test_conditional_kriging_weights_pick_out_data_points():
    rng = np.random.default_rng(6)
    grid = make_grid(0.0, 10.0, 0.0, 10.0, 4, 4)
    data_locs = grid[::3].copy()
    data = SpatialDataset(data_locs, rng.normal(size=data_locs.shape[0]))
    from variokrig.sim import _conditioning_weights

    W = _conditioning_weights(data, expo(sill=1.5, range_=6.0), grid)
    col = W[:, ::3]  # weights targeted at the data locations themselves
    assert np.abs(col - np.eye(data_locs.shape[0])).max() < 1e-8


def test_variogram_table_csv_round_trip():
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 4, 4)
    table = simulate_variograms(locs, expo(), np.linspace(0.0, 8.0, 5), 3, seed=23)
    text = table.to_csv()
    assert text.splitlines()[0] == "lag,dist,n,sim1,sim2,sim3"
    back = VariogramTable.from_csv(text)
    assert np.allclose(back.as_matrix(), table.as_matrix(), equal_nan=True)


def test_simbatch_binary_round_trip():
    locs = make_grid(0.0, 10.0, 0.0, 10.0, 3, 3)
    batch = simulate_gaussian_field(locs, expo(), 1.0, 7, seed=3)
    blob = batch.to_binary()
    assert blob[:4] == b"SIMB"
    assert len(blob) == 16 + 8 * 9 * 7
    back = SimBatch.read_binary(blob)
    assert np.array_equal(back, batch.realizations)
