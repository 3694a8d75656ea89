"""Simulation-based Bayesian predictive density for lognormal spatial data.

For every posterior draw of the covariance parameters the conditional law
of the log-value at the target is Gaussian; its mean and variance come from
the constant-trend Bayes-kriging system solved through the augmented
covariance matrix (prior variance added to every entry, Schur complement
for the variance). The predictive density on the original scale averages
the resulting lognormal densities over the draws on a fixed log grid and
is summarised by grid-exact quantiles.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar

import numpy as np

from ._linalg import chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError
from .krige import (TrendBasis, _bayes_solve, _bayes_terms, _first_occurrences,
                    _neighbour_sets, _Trend, _warn_dropped)
from .models import PosteriorDraws, covariance_eval, covariance_matrix, distances
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

# Map points whose lags share one covariance evaluation per draw; the
# shared values take T x (distinct lags of the block) floats.
DENSITY_BLOCK = 512


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
        grid = np.linspace(self.lo, self.lo + (n - 1) * self.step, n)
        grid.flags.writeable = False
        return grid


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


_F0 = np.ones(1)  # the constant trend at the target


def _conditional_moments(L, cb, resid, mean0, var0):
    """Posterior mean / variance of the log-value under one parameter draw:
    the constant-trend Bayes predictor's solve through the factor L of
    K + phi, given the terms of `_bayes_solve`."""
    m, s2 = _bayes_solve(L, cb, resid, mean0, var0)
    if s2 <= 0.0 or not math.isfinite(s2) or not math.isfinite(m):
        raise NumericError("conditional variance is not positive")
    return m, s2


class _SharedCovariances:
    """Covariances of a block of target points under every draw.

    The neighbour sets are a Bayes kriging map's (`krige._neighbour_sets`;
    `dropped` masks the duplicate locations left out). One covariance
    evaluation per draw covers the distinct lags of the whole block: the
    pair distances of each distinct neighbourhood and the distances of each
    target to [x0; neighbours]. A draw whose evaluation raises NumericError
    is evaluated point by point instead, so it fails only the points whose
    own lags fail it. Read-only once built.
    """

    def __init__(self, points, log_data: SpatialDataset, specs, radius: float):
        self.specs = specs
        # per point: None (too few neighbours) or (values of its neighbours,
        # index of its pair lags in `pieces`, index of its cross lags)
        self.targets = []
        pair_pieces, pieces = {}, []
        dist, _, sets, self.dropped = _neighbour_sets(
            points, log_data.locations, _first_occurrences(log_data.locations), radius,
            MIN_NEIGHBORS)
        for row, idx in zip(dist, sets):
            if idx is None:
                self.targets.append(None)
                continue
            key = idx.tobytes()
            if key not in pair_pieces:
                pair_pieces[key] = len(pieces)
                locs = log_data.locations[idx]
                pieces.append(distances(locs, locs).ravel())
            pieces.append(np.concatenate(([0.0], row[idx])))
            self.targets.append((log_data.values[idx], pair_pieces[key], len(pieces) - 1))
        if not pieces:
            return
        self.lags, inverse = np.unique(np.concatenate(pieces), return_inverse=True)
        self.positions = np.split(inverse, np.cumsum([p.size for p in pieces[:-1]]))
        self.values = np.empty((len(specs), self.lags.size))
        self.failed = []
        for t, spec in enumerate(specs):
            try:
                self.values[t] = covariance_eval(spec, self.lags)
            except NumericError:
                self.values[t] = np.nan
                self.failed.append(t)

    def moments(self, i: int, prior_mean: float, prior_var: float):
        """(mean, variance) under every draw at point i, or None when it has
        too few neighbours. The T systems are factored in one call."""
        target = self.targets[i]
        if target is None:
            return None
        values, pairs, cross = target
        own = np.concatenate([self.positions[pairs], self.positions[cross]])
        V = self.values[:, own]
        for t in self.failed:
            V[t] = covariance_eval(self.specs[t], self.lags[own])
        n = values.size
        K = V[:, :n * n].reshape(-1, n, n)
        c00, c0 = V[:, n * n], V[:, n * n + 1:]
        F = np.ones((n, 1))
        mu, phi = np.array([prior_mean]), np.array([[prior_var]])
        trend = _Trend(F, mu, phi, values - F @ mu)
        L, _ = chol_with_jitter(K + F @ phi @ F.T)
        # the draws share the trend terms; V is Fortran-ordered, and cb is
        # made C-ordered so that each draw's cb @ lam keeps the bits of a
        # one-point solve
        Fpf0, mean0, quad = _bayes_terms(trend, _F0)
        cb = np.ascontiguousarray(c0 + Fpf0)
        var0 = c00 + quad
        return [_conditional_moments(L[t], cb[t], trend.resid, mean0, var0[t])
                for t in range(V.shape[0])]


def _summarize(grid: DensityGrid, density: np.ndarray):
    """Values, cdf and summary of a density on the grid. Raises
    NumericError when its mass on the grid is not finite and positive: the
    draws' lognormals then vanish at every node (a conditional variance far
    below the grid step), and no cdf or quantile exists."""
    g = grid.log_grid
    y = np.exp(g)
    if grid.rule == "forward":
        mass = density * (np.exp(g + grid.step) - y)
    else:
        mass = 0.5 * (density[:-1] + density[1:]) * np.diff(y)
    total = float(mass.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise NumericError(f"predictive density has mass {total} on the grid "
                           "(the conditional variance is below the grid's resolution)")
    if grid.rule == "forward":
        cdf = np.cumsum(mass) / total
        mean = float((mass * (np.exp(g + grid.step) + y) / 2.0).sum() / total)
    else:
        cdf = np.concatenate([[0.0], np.cumsum(mass)]) / total
        ymid = 0.5 * (density[:-1] * y[:-1] + density[1:] * y[1:]) * np.diff(y)
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
    """The predictive density averaging the lognormal of every draw."""
    g = grid.log_grid
    # canonical accumulation order: bit-identical under row permutation
    m, s2 = np.array(sorted(moments)).T[:, :, None]
    # the T x grid lognormal terms exp(-(g - m)^2 / (2 s2)) / sqrt(2 pi s2),
    # built in place: fresh temporaries of this size cost more than the arithmetic
    terms = g - m
    np.square(terms, out=terms)
    np.negative(terms, out=terms)
    np.divide(terms, 2.0 * s2, out=terms)
    np.exp(terms, out=terms)
    np.divide(terms, np.sqrt(2.0 * math.pi * s2), out=terms)
    dens = np.zeros_like(g)
    for term in terms:
        dens += term
    dens /= len(moments)
    dens = dens * np.exp(-g)  # Jacobian of the log transform
    y, cdf, summary, clipped = _summarize(grid, dens)
    return PredictiveDensity(g, y, dens, cdf, summary, clipped)


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
    if prior_var < 0.0:
        raise DomainError("prior variance must be >= 0")
    points = np.asarray(x0, dtype=float).reshape(1, -1)
    shared = _SharedCovariances(points, log_data, draws.specs(), radius)
    _warn_dropped(shared.dropped, "neighborhood of the density", stacklevel=2)
    moments = shared.moments(0, prior_mean, prior_var)
    return None if moments is None else _density(moments, grid)


MAP_COLUMNS = (
    "Modal", "Median", "Mean", "qq001", "qq005", "qq025",
    "qq075", "qq095", "qq099", "approxVar",
)

_SUMMARY_KEYS = (
    "modal", "median", "mean", "q001", "q005", "q025",
    "q075", "q095", "q099", "approx_sd",
)


@dataclass(frozen=True)
class DensityMapRow:
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

    Each block of DENSITY_BLOCK points shares one covariance evaluation per
    draw (see _SharedCovariances); a point then gathers its T systems and
    factors them in one call. Duplicate locations are dropped as a Bayes
    kriging map drops them, with one warning per map.
    """
    if prior_var < 0.0:
        raise DomainError("prior variance must be >= 0")
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
        moments = shared.moments(i, prior_mean, prior_var)
        if moments is None:
            return DensityMapRow(points[i], None, "too_few_neighbors")
        return DensityMapRow(points[i], _density(moments, grid).summary, "ok")
    except NumericError:
        return DensityMapRow(points[i], None, "numeric_failure")


def density_map_csv(rows) -> str:
    header = "x,y," + ",".join(MAP_COLUMNS) + ",status"
    lines = [header]
    for row in rows:
        x, y = row.location[0], row.location[1]
        if row.summary is None:
            lines.append(f"{fmt_float(x)},{fmt_float(y)}," + "," * (len(MAP_COLUMNS) - 1) + f",{row.status}")
        else:
            cells = [fmt_float(row.summary[k]) for k in _SUMMARY_KEYS]
            lines.append(f"{fmt_float(x)},{fmt_float(y)}," + ",".join(cells) + f",{row.status}")
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
