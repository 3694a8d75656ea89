"""Empirical semivariogram estimation.

Provides the variogram cloud, the classical (Matheron) and robust
(Cressie-Hawkins) binned estimators with optional direction filtering, and
the Huber-type fixed-point estimator with its bias-correction constant.

Pairs are unordered and each contributes once. All per-bin accumulations
run over sorted summands, so the estimates are bit-identical under any
permutation of the input rows.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .exceptions import DomainError, NumericError
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
    label: str | None = None

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
        return SpatialDataset(self.locations[index], self.values[index], self.label)


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
    extra: dict = field(default_factory=dict, compare=False)

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


def _pair_table(data: SpatialDataset, max_dist: float, direction: Direction | None):
    """Distances and half squared differences of qualifying unordered pairs.

    Returns (dist, half_sq_diff, n_zero) with arrays sorted by
    (distance, half_sq_diff) for order-independent accumulation. Pairs at
    exactly zero distance are excluded and counted separately.
    """
    locs, vals = data.locations, data.values
    n = len(data)
    iu, ju = np.triu_indices(n, k=1)
    diff = locs[iu] - locs[ju]
    dist = np.sqrt((diff**2).sum(axis=1))
    keep = dist <= max_dist
    n_zero = int(np.count_nonzero(dist == 0.0))
    keep &= dist > 0.0
    if direction is not None:
        if data.dim != 2:
            raise DomainError("directional variograms require 2-d coordinates")
        ang = np.arctan2(diff[:, 1], diff[:, 0])
        delta = np.mod(ang - direction.angle, math.pi)
        delta = np.minimum(delta, math.pi - delta)
        keep &= delta <= direction.tolerance
    dist = dist[keep]
    hsd = 0.5 * (vals[iu[keep]] - vals[ju[keep]]) ** 2
    order = np.lexsort((hsd, dist))
    return dist[order], hsd[order], n_zero


def variogram_cloud(data: SpatialDataset, max_dist: float):
    """All pairs with distance <= max_dist as (distance, half_sq_diff) rows."""
    if max_dist <= 0.0:
        raise DomainError("max_dist must be > 0")
    dist, hsd, _ = _pair_table(data, max_dist, None)
    return np.column_stack([dist, hsd])


def _check_edges(bin_edges) -> np.ndarray:
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("need at least two bin edges")
    if not np.all(np.diff(edges) > 0.0):
        raise DomainError("bin edges must be strictly increasing")
    return edges


def _bin_pairs(dist, edges):
    """Index of the half-open bin [edge_k, edge_{k+1}) per pair, -1 outside."""
    idx = np.searchsorted(edges, dist, side="right") - 1
    idx[(dist < edges[0]) | (dist >= edges[-1])] = -1
    return idx


def huber_correction(c: float) -> float:
    """Bias constant f(c) = E[min(U^2, c^2)] for standard normal U."""
    if c <= 0.0:
        raise DomainError("huber threshold c must be > 0")
    cdf = ndtr(c)
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


def _huber(hsd: np.ndarray, c: float) -> float:
    fc = huber_correction(c)
    gamma = _matheron(hsd)
    if gamma == 0.0:
        return 0.0
    for _ in range(_HUBER_MAX_ITER):
        new = float(np.minimum(hsd, c**2 * gamma).mean() / fc)
        if abs(new - gamma) <= _HUBER_RTOL * max(abs(gamma), 1e-300):
            return new
        gamma = new
    raise NumericError(f"Huber fixed point did not converge in {_HUBER_MAX_ITER} iterations")


def _binned(data, bin_edges, direction, estimate, estimator_name, extra=None):
    edges = _check_edges(bin_edges)
    dist, hsd, n_zero = _pair_table(data, float(edges[-1]), direction)
    idx = _bin_pairs(dist, edges)
    bins = []
    for k in range(edges.size - 1):
        center = 0.5 * (edges[k] + edges[k + 1])
        sel = idx == k
        n_pairs = int(np.count_nonzero(sel))
        if n_pairs == 0:
            bins.append(VariogramBin(center, None, None, 0))
            continue
        try:
            gh = estimate(hsd[sel])
        except NumericError:
            bins.append(VariogramBin(center, float(dist[sel].mean()), None, 0))
            continue
        bins.append(VariogramBin(center, float(dist[sel].mean()), gh, n_pairs))
    return EmpiricalVariogram(
        bins=tuple(bins),
        estimator=estimator_name,
        max_dist=float(edges[-1]),
        direction=direction,
        n_zero_distance=n_zero,
        extra=extra or {},
    )


def empirical_variogram(data, bin_edges, estimator="matheron", direction=None):
    """Binned semivariogram estimate.

    estimator: "matheron" (classical) or "cressie_hawkins" (robust).
    direction: optional Direction filter (2-d data only).
    """
    if estimator == "matheron":
        est = _matheron
    elif estimator == "cressie_hawkins":
        est = _cressie_hawkins
    else:
        raise DomainError(
            f"estimator must be 'matheron' or 'cressie_hawkins', got {estimator!r}"
        )
    return _binned(data, bin_edges, direction, est, estimator)


def huber_robust_variogram(data, bin_edges, c: float = 2.0, direction=None):
    """Huber-type robust estimate: per bin, the fixed point of
    mean(min(half_sq_diff, c^2 * g)) = f(c) * g, seeded at the Matheron value."""
    if c <= 0.0:
        raise DomainError("huber threshold c must be > 0")
    return _binned(
        data, bin_edges, direction, lambda hsd: _huber(hsd, c), "huber",
        extra={"c": float(c)},
    )
