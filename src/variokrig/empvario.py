"""Empirical semivariogram estimation.

Provides the variogram cloud, the classical (Matheron) and robust
(Cressie-Hawkins) binned estimators with optional direction filtering, and
the Huber-type fixed-point estimator with its bias-correction constant.

Every estimate bins one pair geometry (`_pairs`, distances from
`models.distances`); `matheron_columns` bins many fields with one. Each
unordered pair contributes once. All per-bin accumulations run over
summands sorted by (distance, value), so the estimates are bit-identical
under any permutation of the input rows.
"""

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, NumericError
from .models import distances
from .specfun import normal_cdf
from .util import fmt_float

ESTIMATORS = ("matheron", "cressie_hawkins", "huber")

DEFAULT_DIRECTION_TOL = math.radians(22.5)


@dataclass(frozen=True)
class SpatialDataset:
    """Point observations of a random field.

    locations: (n, d) array of coordinates; values: (n,) measurements.
    """

    locations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        vals = np.asarray(self.values, dtype=float).ravel()
        if locs.shape[0] != vals.shape[0]:
            raise DomainError(
                f"{locs.shape[0]} locations but {vals.shape[0]} values"
            )
        if locs.shape[0] < 1:
            raise DomainError("dataset needs at least one point")
        if not np.all(np.isfinite(locs)):
            raise DomainError("coordinates must be finite")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def subset(self, index) -> "SpatialDataset":
        return SpatialDataset(self.locations[index], self.values[index])


@dataclass(frozen=True)
class VariogramBin:
    lag_center: float
    mean_pair_distance: float | None
    gamma_hat: float | None
    n_pairs: int


@dataclass(frozen=True)
class Direction:
    """Direction filter: pair angle within `tolerance` of `angle` (mod pi)."""

    angle: float
    tolerance: float = DEFAULT_DIRECTION_TOL


@dataclass(frozen=True)
class EmpiricalVariogram:
    bins: tuple[VariogramBin, ...]
    estimator: str
    max_dist: float
    direction: Direction | None = None
    n_zero_distance: int = 0

    def nonempty(self) -> list[VariogramBin]:
        return [b for b in self.bins if b.n_pairs > 0 and b.gamma_hat is not None]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("lag_center,mean_pair_distance,gamma_hat,n_pairs\n")
        for b in self.bins:
            mpd = "" if b.mean_pair_distance is None else fmt_float(b.mean_pair_distance)
            gh = "" if b.gamma_hat is None else fmt_float(b.gamma_hat)
            out.write(f"{fmt_float(b.lag_center)},{mpd},{gh},{b.n_pairs}\n")
        return out.getvalue()


class _Pairs(NamedTuple):
    """The qualifying unordered pairs (i < j) of a location set, sorted by
    distance; the positions of the pairs that share their distance with a
    neighbour; and the number of pairs at zero distance."""

    i: np.ndarray
    j: np.ndarray
    dist: np.ndarray
    ties: np.ndarray
    n_zero: int


def _pairs(locations: np.ndarray, max_dist: float, direction: Direction | None) -> _Pairs:
    """The pairs with 0 < distance <= max_dist (and an angle within the
    direction's tolerance), stably sorted by distance, so each bin is a
    contiguous slice."""
    i, j = np.triu_indices(locations.shape[0], k=1)
    dist = distances(locations, locations)[i, j]
    n_zero = int(np.count_nonzero(dist == 0.0))
    keep = (dist > 0.0) & (dist <= max_dist)
    if direction is not None:
        if locations.shape[1] != 2:
            raise DomainError("directional variograms require 2-d coordinates")
        ang = np.arctan2(locations[i, 1] - locations[j, 1], locations[i, 0] - locations[j, 0])
        delta = np.mod(ang - direction.angle, math.pi)
        delta = np.minimum(delta, math.pi - delta)
        keep &= delta <= direction.tolerance
    order = np.flatnonzero(keep)[np.argsort(dist[keep], kind="stable")]
    dist = dist[order]
    tied = np.flatnonzero(dist[1:] == dist[:-1])
    return _Pairs(i[order], j[order], dist, np.union1d(tied, tied + 1), n_zero)


def _half_sq_diffs(pairs: _Pairs, values: np.ndarray) -> np.ndarray:
    """Half squared differences of `values` over the pairs, ordered by
    (distance, value); only runs of equal distance need sorting."""
    hsd = 0.5 * (values[pairs.i] - values[pairs.j]) ** 2
    t = pairs.ties
    hsd[t] = hsd[t][np.lexsort((hsd[t], pairs.dist[t]))]
    return hsd


def _bin_slices(pairs: _Pairs, edges: np.ndarray) -> list[slice]:
    """The pairs of each half-open bin [edge_k, edge_{k+1})."""
    bounds = np.searchsorted(pairs.dist, edges)
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def variogram_cloud(data: SpatialDataset, max_dist: float):
    """All pairs with distance <= max_dist as (distance, half_sq_diff) rows."""
    if not max_dist > 0.0:  # also rejects NaN
        raise DomainError("max_dist must be > 0")
    pairs = _pairs(data.locations, max_dist, None)
    return np.column_stack([pairs.dist, _half_sq_diffs(pairs, data.values)])


def _check_edges(bin_edges) -> np.ndarray:
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("need at least two bin edges")
    if not np.all(np.diff(edges) > 0.0):
        raise DomainError("bin edges must be strictly increasing")
    return edges


def huber_correction(c: float) -> float:
    """Bias constant f(c) = E[min(U^2, c^2)] for standard normal U."""
    if not c > 0.0:  # also rejects NaN
        raise DomainError("huber threshold c must be > 0")
    cdf = normal_cdf(c)
    pdf = math.exp(-(c**2) / 2.0) / math.sqrt(2.0 * math.pi)
    return (2.0 * cdf - 1.0) - 2.0 * c * pdf + 2.0 * c**2 * (1.0 - cdf)


def _matheron(hsd: np.ndarray) -> float:
    return float(hsd.mean())


def _cressie_hawkins(hsd: np.ndarray) -> float:
    n = hsd.size
    fourth_root = (2.0 * hsd) ** 0.25  # |z_i - z_j|^(1/2)
    return float(fourth_root.mean() ** 4 / (2.0 * (0.457 + 0.494 / n)))


_HUBER_MAX_ITER = 1000
_HUBER_RTOL = 1e-10


def _huber(hsd: np.ndarray, c: float, fc: float) -> float:
    gamma = _matheron(hsd)
    if gamma == 0.0:
        return 0.0
    for _ in range(_HUBER_MAX_ITER):
        new = float(np.minimum(hsd, c**2 * gamma).mean() / fc)
        if abs(new - gamma) <= _HUBER_RTOL * max(abs(gamma), 1e-300):
            return new
        gamma = new
    raise NumericError(f"Huber fixed point did not converge in {_HUBER_MAX_ITER} iterations")


def _binned(data, bin_edges, direction, estimate, estimator_name):
    edges = _check_edges(bin_edges)
    pairs = _pairs(data.locations, float(edges[-1]), direction)
    hsd = _half_sq_diffs(pairs, data.values)
    bins = []
    for k, sel in enumerate(_bin_slices(pairs, edges)):
        center = 0.5 * (edges[k] + edges[k + 1])
        n_pairs = sel.stop - sel.start
        if n_pairs == 0:
            bins.append(VariogramBin(center, None, None, 0))
            continue
        mean_dist = float(pairs.dist[sel].mean())
        try:
            bins.append(VariogramBin(center, mean_dist, estimate(hsd[sel]), int(n_pairs)))
        except NumericError:
            bins.append(VariogramBin(center, mean_dist, None, 0))
    return EmpiricalVariogram(
        bins=tuple(bins),
        estimator=estimator_name,
        max_dist=float(edges[-1]),
        direction=direction,
        n_zero_distance=pairs.n_zero,
    )


def empirical_variogram(data, bin_edges, estimator="matheron", direction=None):
    """Binned semivariogram estimate.

    estimator: "matheron" (classical) or "cressie_hawkins" (robust).
    direction: optional Direction filter (2-d data only).
    """
    est = {"matheron": _matheron, "cressie_hawkins": _cressie_hawkins}.get(estimator)
    if est is None:
        raise DomainError(f"estimator must be 'matheron' or 'cressie_hawkins', got {estimator!r}")
    return _binned(data, bin_edges, direction, est, estimator)


def huber_robust_variogram(data, bin_edges, c: float = 2.0, direction=None):
    """Huber-type robust estimate: per bin, the fixed point of
    mean(min(half_sq_diff, c^2 * g)) = f(c) * g, seeded at the Matheron value."""
    fc = huber_correction(c)
    return _binned(data, bin_edges, direction, lambda hsd: _huber(hsd, c, fc), "huber")


def matheron_columns(locations, fields, bin_edges):
    """Each bin's mean pair distance (its centre when empty), its pair count
    and the (bins, S) Matheron estimates of the columns of `fields`, (n, S)
    values at the locations, NaN in an empty bin. Column j equals
    `empirical_variogram` of fields[:, j] bit for bit; no pairs x S array
    is held."""
    edges = _check_edges(bin_edges)
    pairs = _pairs(np.atleast_2d(np.asarray(locations, dtype=float)), float(edges[-1]), None)
    slices = _bin_slices(pairs, edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.array([sel.stop - sel.start for sel in slices], dtype=float)
    dist = np.array([pairs.dist[sel].mean() if n else c
                     for sel, n, c in zip(slices, counts, centers)])
    gammas = np.full((len(slices), fields.shape[1]), np.nan)
    for j in range(fields.shape[1]):
        hsd = _half_sq_diffs(pairs, fields[:, j])
        for k, sel in enumerate(slices):
            if counts[k]:
                gammas[k, j] = hsd[sel].mean()
    return dist, counts, gammas
