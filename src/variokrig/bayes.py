"""Simulation-based Bayesian predictive density for lognormal spatial data.

For every posterior draw of the covariance parameters the conditional law
of the log-value at the target is Gaussian; its mean and variance come from
the constant-trend Bayes-kriging system solved through the augmented
covariance matrix (prior variance added to every entry, Schur complement
for the variance). The predictive density on the original scale averages
the resulting lognormal densities over the draws on a fixed log grid and
is summarised by grid-exact quantiles.

A density map runs the kriging maps' block driver (`krige._map_blocks`)
under their one byte budget, MAP_BYTES; a block counts its distances and
its shared covariance values, 8 T bytes per distinct lag under T draws.
Each neighbour set's T systems are factored once, in one call. Per draw,
only the two triangular solves of a point's weights run in Python
(`_conditional_moments`), and the T means, variances and positivity checks
are stacked products with the bits of the Bayes kriging map's
(`krige._bayes_moments`).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar, NamedTuple

import numpy as np

from ._linalg import chol_solve_into, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError
from .krige import TrendBasis, _bayes_moments, _bayes_terms, _map_blocks, _warn_dropped
from .models import PosteriorDraws, covariance_matrix, covariance_values, distances
from .util import MIN_NEIGHBORS, fmt_float, parallel_map

QUANTILE_PS = {
    "q001": 0.01,
    "q005": 0.05,
    "q025": 0.25,
    "median": 0.5,
    "q075": 0.75,
    "q095": 0.95,
    "q099": 0.99,
}

_QUANTILE_P = np.array(list(QUANTILE_PS.values()))

IQR_TO_SD = 1.45  # interquartile range to standard deviation divisor

def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DensityGrid:
    """Log-scale evaluation grid for the predictive density.

    The defaults reproduce the reference constants (they encode the
    original data's scale and are configurable for that reason). The
    integration rule is trapezoidal by default; "forward" switches to the
    reference code's forward differences of exp(grid). A grid may hold at
    most MAX_POINTS points (the default holds 1151), so a too-fine step is
    rejected before anything is allocated.
    """

    lo: float = -5.0
    hi: float = 6.5
    step: float = 0.01
    rule: str = "trapezoid"

    # a few arrays of this length per density: tens of MB at the cap
    MAX_POINTS: ClassVar[int] = 1_000_000

    def __post_init__(self):
        if self.hi <= self.lo or self.step <= 0.0:
            raise DomainError("need hi > lo and step > 0")
        if self.rule not in ("trapezoid", "forward"):
            raise DomainError("rule must be 'trapezoid' or 'forward'")
        intervals = (self.hi - self.lo) / self.step
        points = round(intervals) + 1 if math.isfinite(intervals) else math.inf
        if points > self.MAX_POINTS:
            raise DomainError(f"density grid of {points} points exceeds the cap of "
                              f"{self.MAX_POINTS} (use a coarser step)")

    @cached_property
    def log_grid(self) -> np.ndarray:
        """The grid nodes, built on first use and read-only."""
        n = int(round((self.hi - self.lo) / self.step)) + 1
        return _read_only(np.linspace(self.lo, self.lo + (n - 1) * self.step, n))

    @cached_property
    def values(self) -> np.ndarray:
        """exp of the nodes: the grid on the original scale, read-only."""
        return _read_only(np.exp(self.log_grid))

    @cached_property
    def jacobian(self) -> np.ndarray:
        """exp(-node), the Jacobian of the log transform, read-only."""
        return _read_only(np.exp(-self.log_grid))

    @cached_property
    def widths(self) -> np.ndarray:
        """The differences of `values`, the trapezoid widths, read-only."""
        return _read_only(np.diff(self.values))


@dataclass(frozen=True)
class PredictiveDensity:
    log_grid: np.ndarray
    values: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    summary: dict
    clipped_quantiles: tuple = field(default=())

    def to_csv(self) -> str:
        lines = ["value,density,cdf"]
        for v, d, c in zip(self.values, self.density, self.cdf):
            lines.append(f"{fmt_float(v)},{fmt_float(d)},{fmt_float(c)}")
        return "\n".join(lines) + "\n"


_F0 = np.ones((1, 1))  # the constant trend at the target, one row


def _conditional_moments(L, lam):
    """The weights of the constant-trend Bayes predictor under one
    parameter draw: its two triangular solves through the factor L of
    K + phi, in place of lam, which holds cb = c0 + phi on entry. Called
    once per draw, the span `bayes.draw_moment` of `perfbench/tracing.py`."""
    return chol_solve_into(L, lam)


def _pair_lags(locations, sets):
    """The distances between the locations of the union of the index
    `sets`, which hold each set's pair distances bit for bit, and each
    location's place in that union."""
    member = np.zeros(len(locations), dtype=bool)  # np.unique would import numpy.ma
    member[np.concatenate(sets or [np.zeros(0, dtype=int)])] = True
    union = locations[member]
    return distances(union, union), np.cumsum(member) - 1


def _lag_bytes(locations, draws: int, block):
    """A density map's `held` (see `krige._map_blocks`): 8 T bytes for each
    distinct lag of the block under T draws, counted at the first point
    that holds it, and the distinct lags, sorted, with that point for each.
    A point holds its cross lags, and the first point of a set the pair
    distances of the set; the sets are taken in the order of their first
    points, and each takes only the location pairs no earlier set held."""
    numbers, firsts = np.unique(block.set_of, return_index=True)
    firsts = firsts[numbers >= 0]
    pair_lags, at = _pair_lags(locations, block.sets)
    seen = np.zeros(pair_lags.shape, dtype=bool)
    lags, counts = [block.cross], []
    for j in np.argsort(firsts).tolist():
        pairs = np.ix_(at[block.sets[j]], at[block.sets[j]])
        new = ~seen[pairs]
        seen[pairs] = True
        lags.append(pair_lags[pairs][new])
        counts.append(lags[-1].size)
    held_by = np.concatenate([np.repeat(np.arange(len(block.points)), np.diff(block.starts)),
                              np.repeat(np.sort(firsts), counts)])
    order = np.argsort(held_by, kind="stable")
    lags, where = np.unique(np.concatenate(lags)[order], return_index=True)
    first = held_by[order][where]
    return 8.0 * draws * np.bincount(first, minlength=len(block.points)), (lags, first)


class _SharedCovariances:
    """Covariances of one block of a density map under every draw, and the
    moments of its points.

    The block (`krige._Block`) is a Bayes kriging map's: its numbered
    neighbour sets and its cross lags come from `krige._neighbour_sets`.
    One covariance evaluation per draw covers the block's distinct lags,
    `lags`: the pair distances of its sets and its points' cross lags. The
    values of the lags that the previous block (`previous`) also held are
    taken from it, not evaluated again. A value is NaN where its lag or
    value is not finite (`covariance_values`), and a point fails only when
    one of its own values is.

    A point's moments (`moment_table`) need its set's T systems K + phi
    factored, in one call; the factors of the last set asked for are kept,
    from the previous block too (the same set has the same values), so a
    map that asks for the points of a set one after another factors each
    set once. Then each draw makes only its two triangular solves
    (`_conditional_moments`), and the T means, variances and positivity
    checks are stacked products (`krige._bayes_moments`), with the bits of
    the Bayes kriging map's rows.
    """

    def __init__(self, block, lags, log_data: SpatialDataset, specs, prior_mean: float,
                 prior_var: float, previous=None):
        self.block, self.log_data, self.lags = block, log_data, lags
        self.values = np.empty((len(specs), lags.size))
        fresh = np.ones(lags.size, dtype=bool)
        self.factored = (None, None) if previous is None else previous.factored
        if previous is not None and previous.lags.size:
            known = previous.lags
            at = np.minimum(np.searchsorted(known, lags), known.size - 1)
            fresh = known[at] != lags
            self.values[:, ~fresh] = previous.values[:, at[~fresh]]
        if np.any(fresh):
            for t, spec in enumerate(specs):
                self.values[t, fresh] = covariance_values(spec, lags[fresh])
        self.cross_at = np.searchsorted(lags, block.cross)
        pair_lags, self.at = _pair_lags(log_data.locations, block.sets)
        self.pair_at = np.searchsorted(lags, pair_lags)
        self.mu, self.phi = np.array([prior_mean]), np.array([[prior_var]])
        # the trend terms at the target, which every point shares
        [self.phif0], [self.mean0], [self.quad] = _bayes_terms(_F0, self.mu, self.phi)

    def _factor(self, j: int):
        """The factors of set j's T systems K + phi, and its residuals."""
        idx = self.block.sets[j]
        n, at = idx.size, self.at[idx]
        K = self.values[:, self.pair_at[np.ix_(at, at)].ravel()]
        F = np.ones((n, 1))
        L, _ = chol_with_jitter(K.reshape(-1, n, n) + F @ self.phi @ F.T)
        return L, self.log_data.values[idx] - F @ self.mu

    def moment_table(self, i: int):
        """(mean, variance) under every draw at point i, a (T, 2) array, or
        None when it has too few neighbours; NumericError when a draw's
        variance is not positive or a moment not finite, as it is where a
        covariance of the point's own lags is not finite or a draw's system
        is past the jitter ladder (its factor is NaN). Each draw makes only
        its solves (`_conditional_moments`), and the T moments and checks
        are stacked products."""
        j = self.block.set_of[i]
        if j < 0:
            return None
        key = self.block.sets[j].tobytes()
        if self.factored[0] != key:
            self.factored = key, self._factor(j)
        L, resid = self.factored[1]
        start, n = self.block.starts[i], resid.size
        cross = self.values[:, self.cross_at[start:start + n + 1]]
        c00, c0 = cross[:, 0], cross[:, 1:]
        F = np.ones((n, 1))
        # the gathered values are Fortran-ordered, and cb is made C-ordered
        # so that each draw's products keep the bits of a one-point solve
        cb = np.ascontiguousarray(c0 + F @ self.phif0)
        lam = cb.copy()
        for t in range(len(L)):
            _conditional_moments(L[t], lam[t])
        with np.errstate(all="ignore"):
            m, s2 = _bayes_moments(cb, lam, resid, self.mean0, c00 + self.quad)
        if not np.all((s2 > 0.0) & np.isfinite(s2) & np.isfinite(m)):
            raise NumericError("conditional variance is not positive or a moment not finite")
        return np.column_stack([m, s2])


def _density_blocks(points, log_data: SpatialDataset, draws: PosteriorDraws, prior_mean: float,
                    prior_var: float, radius: float):
    """The blocks of a density map over `points` (`krige._map_blocks`, its
    bytes counted by `_lag_bytes`), each with its `_SharedCovariances`."""
    specs = draws.specs()
    previous = None
    for block, (lags, first) in _map_blocks(points, log_data.locations, radius, MIN_NEIGHBORS,
                                            partial(_lag_bytes, log_data.locations, len(specs))):
        previous = _SharedCovariances(block, lags[first < len(block.points)], log_data, specs,
                                      prior_mean, prior_var, previous)
        yield block, previous


def _summarize(grid: DensityGrid, density: np.ndarray):
    """Values, cdf and summary of a density on the grid. Raises
    NumericError when its mass on the grid is not finite and positive: the
    draws' lognormals then vanish at every node (a conditional variance far
    below the grid step), and no cdf or quantile exists."""
    g, y = grid.log_grid, grid.values
    if grid.rule == "forward":
        mass = density * (np.exp(g + grid.step) - y)
    else:
        mass = 0.5 * (density[:-1] + density[1:]) * grid.widths
    total = float(mass.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise NumericError(f"predictive density has mass {total} on the grid "
                           "(the conditional variance is below the grid's resolution)")
    if grid.rule == "forward":
        cdf = np.cumsum(mass) / total
        mean = float((mass * (np.exp(g + grid.step) + y) / 2.0).sum() / total)
    else:
        cdf = np.concatenate([[0.0], np.cumsum(mass)]) / total
        ymid = 0.5 * (density[:-1] * y[:-1] + density[1:] * y[1:]) * grid.widths
        mean = float(ymid.sum() / total)
    summary = {}
    clipped = []
    counts = np.searchsorted(cdf, _QUANTILE_P, side="right").tolist()
    for name, count in zip(QUANTILE_PS, counts):
        if count == 0:
            summary[name] = float(y[0])
            clipped.append(name)
        else:
            summary[name] = float(y[count - 1])
    summary["modal"] = float(y[int(np.argmax(density))])
    summary["mean"] = mean
    summary["approx_sd"] = (summary["q075"] - summary["q025"]) / IQR_TO_SD
    return y, cdf, summary, tuple(clipped)


def _density(moments, grid: DensityGrid) -> PredictiveDensity:
    """The predictive density averaging the lognormal of every draw, given
    the draws' (mean, variance) pairs, a (T, 2) array or a list."""
    g = grid.log_grid
    # canonical accumulation order, sorted by mean, then variance:
    # bit-identical under row permutation
    pairs = np.asarray(moments, dtype=float)
    m, s2 = pairs[np.lexsort(pairs.T[::-1])].T[:, :, None]
    # the T x grid lognormal terms exp((g - m)^2 / (-2 s2)) / sqrt(2 pi s2),
    # built in place: fresh temporaries of this size cost more than the
    # arithmetic; dividing by -2 s2 gives the bits of negating, then dividing
    # by 2 s2
    terms = g - m
    np.square(terms, out=terms)
    np.divide(terms, -2.0 * s2, out=terms)
    np.exp(terms, out=terms)
    np.divide(terms, np.sqrt(2.0 * math.pi * s2), out=terms)
    # a reduction over the leading axis of a C-ordered array adds the rows
    # one after another, the bits of a loop of `+=` from zero
    dens = terms.sum(axis=0)
    dens /= len(moments)
    dens = dens * grid.jacobian
    y, cdf, summary, clipped = _summarize(grid, dens)
    return PredictiveDensity(g, y, dens, cdf, summary, clipped)


def _check_prior_moments(prior_mean: float, prior_var: float):
    """DomainError unless the prior mean is finite and the prior variance
    finite and >= 0."""
    if not math.isfinite(prior_mean):
        raise DomainError("prior mean must be finite")
    if not (prior_var >= 0.0 and math.isfinite(prior_var)):
        raise DomainError("prior variance must be finite and >= 0")


def predictive_density_at(
    x0,
    log_data: SpatialDataset,
    draws: PosteriorDraws,
    prior_mean: float,
    prior_var: float,
    radius: float,
    grid: DensityGrid = DensityGrid(),
) -> PredictiveDensity | None:
    """Predictive density of the original-scale value at one location.

    `log_data` holds the observations already on the log scale. Returns
    None when the neighborhood has too few points (more than MIN_NEIGHBORS
    are required). Duplicate locations are dropped, with one warning.
    """
    _check_prior_moments(prior_mean, prior_var)
    points = np.asarray(x0, dtype=float).reshape(1, -1)
    [(block, shared)] = _density_blocks(points, log_data, draws, prior_mean, prior_var, radius)
    _warn_dropped(block.dropped, "neighborhood of the density", stacklevel=2)
    moments = shared.moment_table(0)
    return None if moments is None else _density(moments, grid)


MAP_COLUMNS = (
    "Modal", "Median", "Mean", "qq001", "qq005", "qq025",
    "qq075", "qq095", "qq099", "approxVar",
)

_SUMMARY_KEYS = (
    "modal", "median", "mean", "q001", "q005", "q025",
    "q075", "q095", "q099", "approx_sd",
)


class DensityMapRow(NamedTuple):
    location: np.ndarray
    summary: dict | None
    status: str


def density_map(
    grid_points,
    log_data: SpatialDataset,
    draws: PosteriorDraws,
    prior_mean: float,
    prior_var: float,
    radius: float,
    grid: DensityGrid = DensityGrid(),
) -> list[DensityMapRow]:
    """Predictive-density summaries over a grid; sparse neighborhoods give
    missing rows rather than errors.

    The map runs the kriging maps' block driver (`krige._map_blocks`): one
    neighbour search and set numbering over the points ahead. A block ends
    where the bytes it holds at once would pass MAP_BYTES: its distances to
    the n data locations, 8 n per point, and its shared covariance values,
    8 T bytes per distinct lag under T draws (`_lag_bytes`), which one
    covariance evaluation per draw gives (see `_SharedCovariances`). A
    block's points are taken set by set, so each neighbour set's T systems
    are factored once, in one call, and shared by its points. Per draw,
    only a point's two triangular solves run in Python; the draws' moments
    and checks are stacked products, and a draw whose variance is not
    positive fails its point alone. Each point is one `parallel_map` item,
    and the rows come back in grid order. Duplicate locations are dropped
    as a Bayes kriging map drops them, with one warning per map.
    """
    _check_prior_moments(prior_mean, prior_var)
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    dropped = np.zeros(len(log_data), dtype=bool)
    rows = []
    for block, shared in _density_blocks(pts, log_data, draws, prior_mean, prior_var, radius):
        dropped |= block.dropped
        order = np.argsort(block.set_of, kind="stable")  # the points of a set together
        done = parallel_map(partial(_density_row, block.points, shared, grid), order.tolist())
        rows += [done[k] for k in np.argsort(order).tolist()]
    _warn_dropped(dropped, "neighborhoods of the density map", stacklevel=2)
    return rows


def _density_row(points, shared, grid, i: int) -> DensityMapRow:
    try:
        moments = shared.moment_table(i)
        if moments is None:
            return DensityMapRow(points[i], None, "too_few_neighbors")
        return DensityMapRow(points[i], _density(moments, grid).summary, "ok")
    except NumericError:
        return DensityMapRow(points[i], None, "numeric_failure")


def density_map_csv(rows) -> str:
    """`x,y,<MAP_COLUMNS>,status` serialization of a density map. Each
    row's location becomes Python floats in one `tolist`, and every float
    prints as its `repr`, the text of `util.fmt_float`."""
    lines = ["x,y," + ",".join(MAP_COLUMNS) + ",status"]
    empty = "," * (len(MAP_COLUMNS) - 1)
    for location, summary, status in rows:
        x, y = location.tolist()[:2]
        if summary is None:
            lines.append(f"{x!r},{y!r},{empty},{status}")
        else:
            cells = ",".join([repr(summary[k]) for k in _SUMMARY_KEYS])
            lines.append(f"{x!r},{y!r},{cells},{status}")
    return "\n".join(lines) + "\n"


def beta_posterior(
    data: SpatialDataset,
    spec,
    basis: TrendBasis,
    mu_vec,
    sigma2: float,
    V,
):
    """Gaussian posterior of the trend coefficients.

    With prior beta ~ N(mu, sigma2 V):
    covariance W = (F'K^-1 F + V^-1/sigma2)^-1 and
    mean W (F'K^-1 z + V^-1 mu / sigma2).
    Both inverses are jittered Cholesky solves, so a positive semi-definite
    V of deficient rank still gives a finite posterior. Returns (mean, W).
    """
    if sigma2 <= 0.0:
        raise DomainError("prior variance scale sigma2 must be > 0")
    mu_vec = np.atleast_1d(np.asarray(mu_vec, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    F = basis.design(data.locations)
    if F.shape[1] != mu_vec.size or V.shape != (mu_vec.size, mu_vec.size):
        raise DomainError("prior dimensions do not match the trend basis")
    k = F.shape[1]
    sol = spd_solve(covariance_matrix(spec, data.locations), np.column_stack([F, data.values]))
    KiF, Kiz = sol[:, :k], sol[:, k]
    eye = np.eye(k)
    Vi = spd_solve(V, eye)
    W = spd_solve(F.T @ KiF + Vi / sigma2, eye)
    mean = W @ (F.T @ Kiz + Vi @ mu_vec / sigma2)
    return mean, W
