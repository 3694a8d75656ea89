"""Simulation-based Bayesian predictive density for lognormal spatial data.

For every posterior draw of the covariance parameters the conditional law
of the log-value at the target is Gaussian; its mean and variance come from
the constant-trend Bayes-kriging system solved through the augmented
covariance matrix (prior variance added to every entry, Schur complement
for the variance). The predictive density on the original scale averages
the resulting lognormal densities over the draws on a fixed log grid and
is summarised by grid-exact quantiles.

Under each draw, these moments are the constant-trend Bayes kriging map's:
a density map runs that map's two steps over runs of grid points and
chunks of neighbour sets (`krige._map_runs` and `krige._chunks`, under
the one byte budget MAP_BYTES). A chunk's spec-independent half
(`krige._prepare`) is built once. The per-spec half (`krige._solve`) runs
once per slice of the draws whose values of the chunk's lags fill half of
MAP_BYTES (`krige._spec_slices`, `_conditional_moments`): one covariance
evaluation per draw, then per size group of neighbour sets one
factorisation of its matrices under the slice's draws, in stacks of as
many draws as the other half holds, and one stacked prediction of each
stack's (draw, point) items. Each moment has the bits of that map's row.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar, NamedTuple

import numpy as np

from ._linalg import spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError
from .krige import (BayesPrior, TrendBasis, _chunks, _map_runs, _point_terms, _prepare, _solve,
                    _spec_slices, _warn_dropped)
from .models import PosteriorDraws, covariance_matrix
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
            raise DomainError(f"density grid of {points:.12g} points exceeds the cap of "
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


def _conditional_moments(prepared, specs, prior, out):
    """The means and variances under a slice of D draws at the points of a
    chunk of a run, written into their places in `out`, two (D, points of
    the run) arrays: the per-spec step of the constant-trend Bayes kriging
    map (`krige._solve`) under each draw of the slice, so each has the bits
    of that map's row. Called once per draw slice and chunk, the span
    `bayes.draw_moment` of `perfbench/tracing.py`."""
    _solve("bayes", prepared, specs, 0.0, prior, out)


def _moment_runs(points, log_data: SpatialDataset, draws: PosteriorDraws, prior_mean: float,
                 prior_var: float, radius: float):
    """The runs of a density map over `points` (`krige._map_runs`, keeping
    16 T bytes per point for the moments under T draws), each with the means
    and variances of its points under the draws, a (2, T, P) array, NaN at a
    point that has none. A run's sets are prepared in chunks
    (`krige._chunks`, `krige._prepare`), and each chunk is solved once per
    slice of the draws whose values of its lags fit half of MAP_BYTES
    (`krige._spec_slices`); no chunk is carried to the next run."""
    specs = draws.specs()
    basis, prior = TrendBasis.constant(), BayesPrior.scalar(prior_mean, prior_var)
    for block in _map_runs(points, log_data.locations, radius, MIN_NEIGHBORS, 16 * len(specs)):
        terms = _point_terms("bayes", block.points, basis, prior)
        moments = np.full((2, len(specs), len(block.points)), np.nan)
        for chunk in _chunks(block.sets, range(len(block.sets))):
            prepared = _prepare("bayes", log_data, block, chunk, {}, basis, terms)
            for draws in _spec_slices(len(specs), 8 * prepared.lags.size):
                _conditional_moments(prepared, specs[draws], prior, moments[:, draws])
        yield block, moments


def _moment_table(block, moments, i: int):
    """(mean, variance) under every draw at point i of a run, a (T, 2)
    array, or None when it has too few neighbours; NumericError when a
    draw's variance is not positive or a moment not finite, as it is where
    a covariance of the point's own lags is not finite or a draw's system
    is past the jitter ladder (its factor is NaN)."""
    if block.set_of[i] < 0:
        return None
    m, s2 = moments[:, :, i]
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
    [(block, moments)] = _moment_runs(points, log_data, draws, prior_mean, prior_var, radius)
    _warn_dropped(block.dropped, "neighborhood of the density", stacklevel=2)
    table = _moment_table(block, moments, 0)
    return None if table is None else _density(table, grid)


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

    Under each draw, the map is the constant-trend Bayes kriging map with
    the prior N(prior_mean, prior_var) (`krige_map`): the same run driver
    (`krige._map_runs`), neighbour search, set numbering and chunks. A run
    holds MAP_BYTES // (8 n + 16 T) consecutive points: per point its
    distances to the n data locations, 8 n bytes, and its moments under T
    draws, 16 T bytes. The run's sets are prepared in chunks whose factors
    and gather indices, 16 m^2 bytes per set of m locations, stay within
    MAP_BYTES (`krige._chunks`, `krige._prepare`). A chunk is solved per
    draw slice (`_conditional_moments`): the D draws whose values of the
    chunk's L lags, 8 D L bytes, fit half of MAP_BYTES, one at least. Each
    draw's lags take one covariance evaluation, and each size group of G
    sets of m locations is factored in stacks of the slice's draws whose
    factors and gathered matrices, 16 m^2 G bytes per draw, fit the other
    half, one draw at least (under one draw a group is within the budget,
    by the chunks). The (draw, point) items of a stack are predicted in
    one stacked step. Nothing is carried from one run to the next, as that
    would hold every draw's factors. A point fails when a draw's
    variance is not positive or a moment not finite. Each point is then one
    `parallel_map` item, which builds its density from its column of
    moments. Duplicate locations are dropped as a Bayes kriging map drops
    them, with one warning per map.
    """
    _check_prior_moments(prior_mean, prior_var)
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    dropped = np.zeros(len(log_data), dtype=bool)
    rows = []
    for block, moments in _moment_runs(pts, log_data, draws, prior_mean, prior_var, radius):
        dropped |= block.dropped
        rows += parallel_map(partial(_density_row, block, moments, grid),
                             range(len(block.points)))
    _warn_dropped(dropped, "neighborhoods of the density map", stacklevel=2)
    return rows


def _density_row(block, moments, grid, i: int) -> DensityMapRow:
    try:
        table = _moment_table(block, moments, i)
        if table is None:
            return DensityMapRow(block.points[i], None, "too_few_neighbors")
        return DensityMapRow(block.points[i], _density(table, grid).summary, "ok")
    except NumericError:
        return DensityMapRow(block.points[i], None, "numeric_failure")


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
