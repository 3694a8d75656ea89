"""Simulation-based Bayesian predictive density for lognormal spatial data.

For every posterior draw of the covariance parameters the conditional law
of the log-value at the target is Gaussian; its mean and variance come from
the constant-trend Bayes-kriging system solved through the augmented
covariance matrix (prior variance added to every entry, Schur complement
for the variance). The predictive density on the original scale averages
the resulting lognormal densities over the draws on a fixed log grid and
is summarised by grid-exact quantiles.

Per draw, only the two triangular solves of its weights run in Python
(`_conditional_moments`); a point's T draws are factored in one call, and
their means, variances and positivity checks are stacked products with the
bits of the Bayes kriging map's (`krige._bayes_moments`).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar, NamedTuple

import numpy as np

from ._linalg import chol_solve_into, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError
from .krige import (TrendBasis, _bayes_moments, _bayes_terms, _cross_lags, _first_occurrences,
                    _neighbour_sets, _warn_dropped)
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

IQR_TO_SD = 1.45  # interquartile range to standard deviation divisor

# Map points whose lags share one neighbour search and one covariance
# evaluation per draw; the shared values take T x (distinct lags of the
# block) floats, so a block is this count, not the kriging maps' budget.
DENSITY_BLOCK = 512


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


class _SharedCovariances:
    """Covariances of a block of target points under every draw.

    The numbered neighbour sets are a Bayes kriging map's
    (`krige._neighbour_sets`; `dropped` masks the duplicate locations left
    out). One covariance evaluation per draw covers the distinct lags of
    the whole block: the pair distances of each distinct set and each
    point's cross lags (`krige._cross_lags`). A value is NaN where its lag
    or value is not finite (`covariance_values`), and a point fails only
    when one of its own values is. Read-only once built.

    A point's moments (`moment_table`) factor its T systems in one call;
    then each draw makes only its two triangular solves
    (`_conditional_moments`), and the T means, variances and positivity
    checks are stacked products (`krige._bayes_moments`), with the bits of
    the Bayes kriging map's rows.
    """

    def __init__(self, points, log_data: SpatialDataset, specs, radius: float):
        dist, member, self.set_of, sets, self.dropped = _neighbour_sets(
            points, log_data.locations, _first_occurrences(log_data.locations), radius,
            MIN_NEIGHBORS)
        self.neighbour_values = [log_data.values[idx] for idx in sets]
        locations = log_data.locations
        pairs = [distances(locations[idx], locations[idx]).ravel() for idx in sets]
        cross, self.cross_starts = _cross_lags(dist, member, self.set_of >= 0)
        self.lags, inverse = np.unique(np.concatenate([*pairs, cross]), return_inverse=True)
        *self.pair_at, self.cross_at = np.split(inverse, np.cumsum([p.size for p in pairs]))
        self.values = np.empty((len(specs), self.lags.size))
        for t, spec in enumerate(specs):
            self.values[t] = covariance_values(spec, self.lags)

    def moment_table(self, i: int, prior_mean: float, prior_var: float):
        """(mean, variance) under every draw at point i, a (T, 2) array, or
        None when it has too few neighbours; NumericError when a draw's
        variance is not positive or a moment not finite, as it is where a
        covariance of the point's own lags is not finite or a draw's system
        is past the jitter ladder (its factor is NaN). The T systems are
        factored in one call; each draw then makes only its solves
        (`_conditional_moments`), and the T moments and checks are stacked
        products."""
        j = self.set_of[i]
        if j < 0:
            return None
        values, start = self.neighbour_values[j], self.cross_starts[i]
        n = values.size
        V = self.values[:, np.concatenate([self.pair_at[j], self.cross_at[start:start + n + 1]])]
        K = V[:, :n * n].reshape(-1, n, n)
        c00, c0 = V[:, n * n], V[:, n * n + 1:]
        F = np.ones((n, 1))
        mu, phi = np.array([prior_mean]), np.array([[prior_var]])
        L, _ = chol_with_jitter(K + F @ phi @ F.T)
        # the draws share the trend terms; V is Fortran-ordered, and cb is
        # made C-ordered so that each draw's products keep the bits of a
        # one-point solve
        [phif0], [mean0], [quad] = _bayes_terms(_F0, mu, phi)
        cb = np.ascontiguousarray(c0 + F @ phif0)
        lam = cb.copy()
        for t in range(len(L)):
            _conditional_moments(L[t], lam[t])
        with np.errstate(all="ignore"):
            m, s2 = _bayes_moments(cb, lam, values - F @ mu, mean0, c00 + quad)
        if not np.all((s2 > 0.0) & np.isfinite(s2) & np.isfinite(m)):
            raise NumericError("conditional variance is not positive or a moment not finite")
        return np.column_stack([m, s2])


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
    for name, p in QUANTILE_PS.items():
        count = int(np.searchsorted(cdf, p, side="right"))
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
    shared = _SharedCovariances(points, log_data, draws.specs(), radius)
    _warn_dropped(shared.dropped, "neighborhood of the density", stacklevel=2)
    moments = shared.moment_table(0, prior_mean, prior_var)
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

    Each block of DENSITY_BLOCK points runs the kriging maps' neighbour
    search and set numbering once and shares one covariance evaluation per
    draw (see _SharedCovariances); a point then gathers its T systems and
    factors them in one call. Per draw, only its two triangular solves run
    in Python; the draws' moments and checks are stacked products, and a
    draw whose variance is not positive fails its point alone. Duplicate
    locations are dropped as a Bayes kriging map drops them, with one
    warning per map.
    """
    _check_prior_moments(prior_mean, prior_var)
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    specs = draws.specs()
    dropped = np.zeros(len(log_data), dtype=bool)
    rows = []
    for start in range(0, pts.shape[0], DENSITY_BLOCK):
        points = pts[start:start + DENSITY_BLOCK]
        shared = _SharedCovariances(points, log_data, specs, radius)
        dropped |= shared.dropped
        rows += parallel_map(partial(_density_row, points, shared, prior_mean, prior_var, grid),
                             range(points.shape[0]))
    _warn_dropped(dropped, "neighborhoods of the density map", stacklevel=2)
    return rows


def _density_row(points, shared, prior_mean, prior_var, grid, i: int) -> DensityMapRow:
    try:
        moments = shared.moment_table(i, prior_mean, prior_var)
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
