import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from variokrig import (
    Direction,
    DomainError,
    SpatialDataset,
    empirical_variogram,
    huber_correction,
    huber_robust_variogram,
    variogram_cloud,
)
from variokrig.empvario import matheron_columns
from variokrig.sim import VariogramTable, make_grid


def simple_pair():
    return SpatialDataset([[0.0, 0.0], [1.0, 0.0]], [0.0, 4.0])


def random_dataset(rng, n=40):
    return SpatialDataset(rng.uniform(0, 10, size=(n, 2)), rng.normal(size=n))


def test_cloud_two_points():
    cloud = variogram_cloud(simple_pair(), 2.0)
    assert cloud.shape == (1, 2)
    assert cloud[0, 0] == pytest.approx(1.0)
    assert cloud[0, 1] == pytest.approx(8.0)


def test_cloud_constant_field():
    data = SpatialDataset(np.random.default_rng(0).uniform(0, 5, (12, 2)), np.full(12, 3.3))
    cloud = variogram_cloud(data, 100.0)
    assert np.all(cloud[:, 1] == 0.0)


def test_cloud_pair_count():
    rng = np.random.default_rng(1)
    data = random_dataset(rng, n=17)
    cloud = variogram_cloud(data, 1e9)
    assert cloud.shape[0] == 17 * 16 // 2


def test_cloud_empty_when_nothing_qualifies():
    cloud = variogram_cloud(simple_pair(), 0.5)
    assert cloud.shape[0] == 0


@pytest.mark.parametrize("max_dist", [0.0, -1.0, math.nan])
def test_cloud_rejects_a_bad_max_dist(max_dist):
    with pytest.raises(DomainError):
        variogram_cloud(simple_pair(), max_dist)


def test_matheron_single_pair():
    emp = empirical_variogram(simple_pair(), [0.0, 2.0], estimator="matheron")
    assert emp.bins[0].gamma_hat == pytest.approx(8.0)
    assert emp.bins[0].n_pairs == 1


def test_cressie_hawkins_single_pair():
    emp = empirical_variogram(simple_pair(), [0.0, 2.0], estimator="cressie_hawkins")
    assert emp.bins[0].gamma_hat == pytest.approx(16.0 / (2.0 * 0.951), rel=1e-12)


def test_matheron_pooled_bin_equals_cloud_mean():
    rng = np.random.default_rng(2)
    data = random_dataset(rng)
    cloud = variogram_cloud(data, 1e9)
    emp = empirical_variogram(data, [0.0, 1e9], estimator="matheron")
    assert emp.bins[0].gamma_hat == pytest.approx(cloud[:, 1].mean(), rel=1e-12)


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(3)
    data = random_dataset(rng)
    edges = np.linspace(0.0, 12.0, 7)
    perm = rng.permutation(len(data))
    shuffled = SpatialDataset(data.locations[perm], data.values[perm])
    for estimator in ("matheron", "cressie_hawkins"):
        a = empirical_variogram(data, edges, estimator)
        b = empirical_variogram(shuffled, edges, estimator)
        for ba, bb in zip(a.bins, b.bins):
            assert ba == bb
    ha = huber_robust_variogram(data, edges, c=2.0)
    hb = huber_robust_variogram(shuffled, edges, c=2.0)
    for ba, bb in zip(ha.bins, hb.bins):
        assert ba == bb


def test_estimates_nonnegative_and_zero_on_constant():
    locs = np.random.default_rng(4).uniform(0, 8, (25, 2))
    const = SpatialDataset(locs, np.full(25, 1.5))
    edges = np.linspace(0.0, 10.0, 6)
    for estimator in ("matheron", "cressie_hawkins"):
        emp = empirical_variogram(const, edges, estimator)
        for b in emp.nonempty():
            assert b.gamma_hat == 0.0
    hub = huber_robust_variogram(const, edges, c=2.0)
    for b in hub.nonempty():
        assert b.gamma_hat == 0.0


def test_directional_filter():
    data = SpatialDataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 2.0, 5.0])
    east = empirical_variogram(
        data, [0.0, 3.0], direction=Direction(0.0, math.radians(22.5))
    )
    assert east.bins[0].n_pairs == 1
    assert east.bins[0].gamma_hat == pytest.approx(2.0)
    north = empirical_variogram(
        data, [0.0, 3.0], direction=Direction(math.pi / 2.0, math.radians(22.5))
    )
    assert north.bins[0].n_pairs == 1
    assert north.bins[0].gamma_hat == pytest.approx(12.5)


def test_direction_even_in_pi():
    rng = np.random.default_rng(5)
    data = random_dataset(rng)
    edges = np.linspace(0.0, 12.0, 5)
    fwd = empirical_variogram(data, edges, direction=Direction(0.4))
    bwd = empirical_variogram(data, edges, direction=Direction(0.4 + math.pi))
    for ba, bb in zip(fwd.bins, bwd.bins):
        assert ba == bb


def test_zero_distance_pairs_counted_not_binned():
    data = SpatialDataset([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [1.0, 2.0, 3.0])
    emp = empirical_variogram(data, [0.0, 2.0])
    assert emp.n_zero_distance == 1
    assert emp.bins[0].n_pairs == 2  # the two pairs at distance 1


def test_rejects_bad_edges():
    data = simple_pair()
    with pytest.raises(DomainError):
        empirical_variogram(data, [1.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        empirical_variogram(data, [2.0])
    with pytest.raises(DomainError):
        empirical_variogram(data, [0.0, 1.0], estimator="huber")


def test_empty_bins_marked():
    emp = empirical_variogram(simple_pair(), [0.0, 0.5, 2.0])
    assert emp.bins[0].n_pairs == 0
    assert emp.bins[0].gamma_hat is None
    assert emp.bins[0].mean_pair_distance is None


def test_huber_matches_matheron_for_large_threshold():
    rng = np.random.default_rng(6)
    for _ in range(5):
        data = random_dataset(rng)
        edges = np.linspace(0.0, 12.0, 6)
        mat = empirical_variogram(data, edges, "matheron")
        hub = huber_robust_variogram(data, edges, c=10.0)
        for bm, bh in zip(mat.bins, hub.bins):
            if bm.n_pairs > 0 and bm.gamma_hat > 0:
                assert bh.gamma_hat == pytest.approx(bm.gamma_hat, rel=1e-6)


def test_truncated_mean_never_exceeds_raw_mean():
    # at the fixed point, f(c) g_H = mean(min(half_sq_diff, c^2 g_H)) <= matheron
    rng = np.random.default_rng(7)
    c = 1.5
    fc = huber_correction(c)
    for _ in range(10):
        data = random_dataset(rng)
        edges = np.linspace(0.0, 12.0, 6)
        mat = empirical_variogram(data, edges, "matheron")
        hub = huber_robust_variogram(data, edges, c=c)
        for bm, bh in zip(mat.bins, hub.bins):
            if bm.n_pairs > 0:
                assert fc * bh.gamma_hat <= bm.gamma_hat * (1.0 + 1e-12)


def test_huber_correction_closed_form_vs_monte_carlo():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(1_000_000)
    for c in (0.7, 1.5, 2.0, 3.0):
        draws = np.minimum(u**2, c**2)
        mc = draws.mean()
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(huber_correction(c) - mc) < 3.0 * se


def test_huber_correction_limits():
    assert huber_correction(10.0) == pytest.approx(1.0, abs=1e-12)
    assert huber_correction(0.05) == pytest.approx(
        2.0 * norm.cdf(0.05) - 1.0 - 0.1 * norm.pdf(0.05) + 0.005 * (1.0 - norm.cdf(0.05)),
        rel=1e-12,
    )


def test_csv_output():
    emp = empirical_variogram(simple_pair(), [0.0, 0.5, 2.0])
    text = emp.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "lag_center,mean_pair_distance,gamma_hat,n_pairs"
    assert lines[1].endswith(",0")  # empty bin
    assert lines[2].split(",")[3] == "1"


def test_huber_threshold_must_be_a_positive_number():
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            huber_correction(c)
        with pytest.raises(DomainError):
            huber_robust_variogram(simple_pair(), [0.0, 2.0], c=c)


# -- the shared pair geometry -------------------------------------------------------


def layouts():
    """Random stations, a grid (many pairs at equal distances) and stations
    with a repeated location, each with values."""
    rng = np.random.default_rng(11)
    random = rng.uniform(0.0, 10.0, size=(45, 2))
    grid = make_grid(0.0, 10.0, 0.0, 8.0, 7, 6)
    repeated = np.vstack([random[:20], random[3:6]])
    return {name: SpatialDataset(locs, rng.normal(size=len(locs)))
            for name, locs in (("random", random), ("grid", grid), ("repeated", repeated))}


def bins_of(emp):
    return [(b.lag_center, b.mean_pair_distance, b.gamma_hat, b.n_pairs) for b in emp.bins]


@pytest.mark.parametrize("layout", ["random", "grid", "repeated"])
@pytest.mark.parametrize("direction", [None, Direction(0.5, 0.3), Direction(math.pi / 2.0)])
@pytest.mark.parametrize("estimator", ["matheron", "cressie_hawkins", "huber"])
def test_estimates_equal_the_pairwise_oracle_bitwise(layout, direction, estimator):
    data = layouts()[layout]
    edges = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0])
    if estimator == "huber":
        emp = huber_robust_variogram(data, edges, c=1.5, direction=direction)
    else:
        emp = empirical_variogram(data, edges, estimator, direction)
    bins, n_zero = oracles.pairwise_variogram(data.locations, data.values, edges,
                                              estimator, direction, c=1.5)
    assert bins_of(emp) == bins  # float == float: bit for bit, NaN aside
    assert emp.n_zero_distance == n_zero
    assert sum(b[3] for b in bins) > 0


@pytest.mark.parametrize("layout", ["random", "grid", "repeated"])
def test_cloud_equals_the_pairwise_oracle_bitwise(layout):
    data = layouts()[layout]
    cloud = variogram_cloud(data, 5.0)
    iu, ju = np.triu_indices(len(data), k=1)
    dist = np.sqrt(((data.locations[iu] - data.locations[ju]) ** 2).sum(axis=1))
    hsd = 0.5 * (data.values[iu] - data.values[ju]) ** 2
    keep = (dist > 0.0) & (dist <= 5.0)
    order = np.lexsort((hsd[keep], dist[keep]))
    expect = np.column_stack([dist[keep][order], hsd[keep][order]])
    assert np.array_equal(cloud.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("layout", ["random", "grid", "repeated"])
@pytest.mark.parametrize("n_fields", [0, 1, 6])
def test_matheron_columns_equal_one_estimate_per_column_bitwise(layout, n_fields):
    data = layouts()[layout]
    fields = np.random.default_rng(12).normal(size=(len(data), n_fields))
    edges = np.linspace(0.0, 9.0, 10)
    dist, counts, gammas = matheron_columns(data.locations, fields, edges)
    assert gammas.shape == (9, n_fields)
    probe = empirical_variogram(data, edges)
    assert counts.tolist() == [b.n_pairs for b in probe.bins]
    assert dist.tolist() == [b.lag_center if b.n_pairs == 0 else b.mean_pair_distance
                             for b in probe.bins]
    for j in range(n_fields):
        emp = empirical_variogram(SpatialDataset(data.locations, fields[:, j]), edges)
        expect = np.array([np.nan if b.gamma_hat is None else b.gamma_hat for b in emp.bins])
        assert np.array_equal(gammas[:, j].view(np.int64), expect.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_permutation_leaves_estimates_bit_identical(data):
    # ties everywhere: grid distances, a repeated location, and values drawn
    # from a few levels so that equal distances meet equal differences
    base = layouts()[data.draw(st.sampled_from(["random", "grid", "repeated"]), label="layout")]
    n = len(base)
    levels = st.sampled_from([-1.5, 0.0, 0.25, 2.0])
    values = np.array(data.draw(
        st.lists(levels | st.floats(-10.0, 10.0), min_size=n, max_size=n), label="values"))
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    direction = data.draw(st.sampled_from([None, Direction(0.5, 0.3)]), label="direction")
    before = SpatialDataset(base.locations, values)
    after = SpatialDataset(base.locations[perm], values[perm])
    edges = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0])
    for estimate in (lambda d: empirical_variogram(d, edges, "matheron", direction),
                     lambda d: empirical_variogram(d, edges, "cressie_hawkins", direction),
                     lambda d: huber_robust_variogram(d, edges, 1.5, direction)):
        a, b = estimate(before), estimate(after)
        assert bins_of(a) == bins_of(b)  # float == float: bit for bit
        assert a.n_zero_distance == b.n_zero_distance
    fields = np.column_stack([values, values[::-1], np.round(values)])
    a = VariogramTable.of_fields(base.locations, fields, edges).as_matrix()
    b = VariogramTable.of_fields(base.locations[perm], fields[perm], edges).as_matrix()
    assert np.array_equal(a.view(np.int64), b.view(np.int64))
