"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned, never silent).
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._linalg import chol_solve, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError, SingularMatrixError
from .models import covariance_eval, covariance_matrix, distances
from .util import KRIGE_METHODS, MIN_NEIGHBORS, fmt_float, parallel_map

_diagnostics = {"clamped_variances": 0}


def clamped_variance_count() -> int:
    """How many negative prediction variances were clamped to zero."""
    return _diagnostics["clamped_variances"]


def _finish_sd(variance: float, scale: float, method: str) -> float:
    tol = 1e-10 * max(1.0, scale)
    if variance < -tol:
        raise NumericError(
            f"{method} produced variance {variance} below -{tol}"
        )
    if variance < 0.0:
        _diagnostics["clamped_variances"] += 1
        warnings.warn(
            f"{method}: variance {variance:.3e} clamped to 0", stacklevel=3
        )
        variance = 0.0
    return math.sqrt(variance)


@dataclass(frozen=True)
class KrigingResult:
    prediction: float
    sd: float
    n_neighbors: int
    method: str


def _rank(F) -> int:
    """np.linalg.matrix_rank of a design, without its SVD for one column:
    a finite column has rank 1 when it has a nonzero entry, and a column
    with a non-finite entry counts as rank 0."""
    if F.shape[1] == 1:
        return int(bool(np.any(F != 0.0)) and bool(np.all(np.isfinite(F))))
    return int(np.linalg.matrix_rank(F))


class TrendBasis:
    """Finite set of trend basis functions f_1..f_k over locations.

    Each function maps an (n, d) coordinate array to an (n,) vector. The
    design matrix must have full column rank on the active dataset;
    deficiency raises a DomainError naming the offending function.
    """

    def __init__(self, functions, names=None):
        self.functions = tuple(functions)
        if not self.functions:
            raise DomainError("trend basis needs at least one function")
        self.names = tuple(names) if names else tuple(
            f"f{i+1}" for i in range(len(self.functions))
        )
        if len(self.names) != len(self.functions):
            raise DomainError("one name per basis function required")

    def __len__(self) -> int:
        return len(self.functions)

    @classmethod
    def constant(cls) -> "TrendBasis":
        return cls([lambda locs: np.ones(locs.shape[0])], names=["1"])

    @classmethod
    def linear(cls, dim: int = 2) -> "TrendBasis":
        funcs = [lambda locs: np.ones(locs.shape[0])]
        names = ["1"]
        for axis in range(dim):
            funcs.append(lambda locs, a=axis: locs[:, a])
            names.append("xyz"[axis] if axis < 3 else f"x{axis}")
        return cls(funcs, names=names)

    def design(self, locations) -> np.ndarray:
        locs = np.atleast_2d(np.asarray(locations, dtype=float))
        F = np.column_stack([np.asarray(f(locs), dtype=float) for f in self.functions])
        if _rank(F) < F.shape[1]:
            # every prefix of a full-rank design passes matrix_rank's
            # tolerance, so the first prefix that loses rank names the column
            k = next(k for k in range(1, F.shape[1] + 1) if _rank(F[:, :k]) < k)
            raise DomainError(
                f"trend basis {self.names[k-1]!r} is linearly dependent "
                f"on the preceding basis functions over this dataset"
            )
        return F

    def at(self, x0) -> np.ndarray:
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        return np.concatenate([np.asarray(f(x0), dtype=float) for f in self.functions])


@dataclass(frozen=True)
class BayesPrior:
    """First two moments of the trend-coefficient prior."""

    mu: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        if phi.shape != (mu.size, mu.size):
            raise DomainError("prior covariance must be k x k for a k-vector mean")
        if not np.allclose(phi, phi.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(phi).max())):
            raise DomainError("prior covariance must be symmetric")
        chol_with_jitter(phi)  # PSD check; raises SingularMatrixError otherwise
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def scalar(cls, mean: float, variance: float) -> "BayesPrior":
        return cls(np.array([mean]), np.array([[variance]]))


def _search(points, locations, radius: float):
    """The neighbour search of the package: distances (p, n) from every
    point to every location, and the mask of those within `radius`
    (boundary included)."""
    if not radius > 0.0:  # also rejects NaN
        raise DomainError("search radius must be > 0")
    dist = distances(points, locations)
    return dist, dist <= radius


def neighborhood(data: SpatialDataset, x0, radius: float) -> SpatialDataset | None:
    """Points within `radius` of x0 (boundary included), original order.

    Returns None for an empty neighborhood (SpatialDataset cannot be empty).
    """
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    keep = _search(x0, data.locations, radius)[1][0]
    if not np.any(keep):
        return None
    return data.subset(keep)


def _first_occurrences(locations) -> np.ndarray:
    """Mask of the rows of `locations` that repeat no earlier row."""
    _, first = np.unique(locations, axis=0, return_index=True)
    keep = np.zeros(locations.shape[0], dtype=bool)
    keep[first] = True
    return keep


def _dedupe(data: SpatialDataset) -> SpatialDataset:
    """Drop exact duplicate locations, keeping the first occurrence."""
    keep = _first_occurrences(data.locations)
    if np.all(keep):
        return data
    warnings.warn(
        f"dropped {np.count_nonzero(~keep)} duplicate locations from the "
        "kriging neighborhood",
        stacklevel=3,
    )
    return data.subset(keep)


def _system(spec, data: SpatialDataset, x0):
    """K, c0 and C(0) for one prediction, sliced from one covariance
    evaluation over [x0; locations]."""
    pts = np.vstack([np.asarray(x0, dtype=float).reshape(1, -1), data.locations])
    M = covariance_matrix(spec, pts)
    return M[1:, 1:], M[0, 1:], M[0, 0]


# -- one neighbour set: checked, factored once, then solved per point ----------


def _checked(method, locations, basis, prior):
    """Trend design of the locations of one neighbour set free of duplicate
    locations, after the checks that need no covariance."""
    if method not in KRIGE_METHODS:
        raise DomainError(f"unknown kriging method {method!r}")
    if method == "ordinary" and len(locations) < 2:
        raise DomainError("ordinary kriging needs at least 2 data points")
    if method not in ("universal", "bayes"):
        return None
    F = basis.design(locations)
    if method == "universal" and len(locations) < F.shape[1]:
        raise DomainError("need at least as many points as basis functions")
    if method == "bayes" and prior.mu.size != F.shape[1]:
        raise DomainError("prior dimension does not match the trend basis")
    return F


class _Trend(NamedTuple):
    """Bayes trend terms of one data set: design F, prior moments mu and
    phi of the coefficients, and resid = z - F mu."""

    F: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    resid: np.ndarray


@dataclass(frozen=True)
class _Factored:
    """The location-independent half of one predictor on one neighbour set.

    L is the Cholesky factor of K (Bayes: K + F Phi F'). Universal kriging
    adds M = F'K^-1 F, the GLS trend beta and resid = z - F beta; simple
    kriging keeps resid = z - m.
    """

    method: str
    values: np.ndarray
    L: np.ndarray
    mean: float = 0.0
    resid: np.ndarray | None = None
    F: np.ndarray | None = None
    M: np.ndarray | None = None
    beta: np.ndarray | None = None
    trend: _Trend | None = None


def _factor(method, values, F, K, mean=0.0, prior=None) -> _Factored:
    """Factor the system of the checked data values with covariance K, once."""
    if method == "bayes":
        L, _ = chol_with_jitter(K + F @ prior.phi @ F.T)
        trend = _Trend(F, prior.mu, prior.phi, values - F @ prior.mu)
        return _Factored(method, values, L, trend=trend)
    L, _ = chol_with_jitter(K)
    if method == "simple":
        return _Factored(method, values, L, mean=mean, resid=values - mean)
    if method == "universal":
        KiF = chol_solve(L, F)
        M = F.T @ KiF
        beta = np.linalg.solve(M, KiF.T @ values)
        return _Factored(method, values, L, resid=values - F @ beta, F=F, M=M, beta=beta)
    return _Factored(method, values, L)


def _ordinary_weights(L, c0):
    """Weights w and Lagrange multiplier nu from the factor L of K.

    One stacked solve K [a, b] = [c0, 1]; nu = (1'a - 1)/(1'b), w = a - nu b.
    """
    one = np.ones(c0.size)
    ab = chol_solve(L, np.column_stack([c0, one]))
    a, b = ab[:, 0], ab[:, 1]
    denom = one @ b
    if denom == 0.0 or not math.isfinite(denom):
        raise SingularMatrixError("ordinary kriging constraint system is singular")
    nu = (one @ a - 1.0) / denom
    return a - nu * b, float(nu)


def _bayes_at(L, trend: _Trend, f0, c0, c00):
    """Mean and Schur-complement variance of the Bayes predictor at one
    point, with weights lambda solving (K + F Phi F') lambda = c0 + F Phi f0
    through the factor L of K + F Phi F'."""
    F, mu, phi, resid = trend
    cb = c0 + F @ (phi @ f0)
    lam = chol_solve(L, cb)
    return float(f0 @ mu + lam @ resid), float(c00 + f0 @ phi @ f0 - cb @ lam)


def _at(fac: _Factored, x0, c0, c00, basis) -> KrigingResult:
    """The per-point half of a predictor: its solves against the set's
    factor and the dot products, given c0 and C(0) at x0."""
    method = fac.method
    if method == "simple":
        lam = chol_solve(fac.L, c0)
        pred, var = fac.mean + lam @ fac.resid, c00 - lam @ c0
    elif method == "ordinary":
        w, nu = _ordinary_weights(fac.L, c0)
        pred, var = w @ fac.values, c00 - c0 @ w - nu
    elif method == "universal":
        Kic0 = chol_solve(fac.L, c0)
        f0 = basis.at(x0)
        pred = f0 @ fac.beta + Kic0 @ fac.resid
        g = f0 - fac.F.T @ Kic0
        var = c00 - c0 @ Kic0 + g @ np.linalg.solve(fac.M, g)
    else:
        pred, var = _bayes_at(fac.L, fac.trend, basis.at(x0), c0, c00)
    return KrigingResult(float(pred), _finish_sd(float(var), c00, f"{method} kriging"),
                         len(fac.values), method)


def _predict(method, x0, subset, spec, mean, basis, prior) -> KrigingResult:
    """One prediction: the set and point halves over one covariance
    evaluation of [x0; locations]."""
    data = _dedupe(subset)
    F = _checked(method, data.locations, basis, prior)
    K, c0, c00 = _system(spec, data, x0)
    return _at(_factor(method, data.values, F, K, mean, prior), x0, c0, c00, basis)


def simple_weights(x0, data: SpatialDataset, spec) -> np.ndarray:
    """Best-linear-prediction weights, the solution of K lambda = c0."""
    data = _dedupe(data)
    K, c0, _ = _system(spec, data, x0)
    return spd_solve(K, c0)


def simple_kriging(x0, data: SpatialDataset, spec, mean: float) -> KrigingResult:
    """Best linear prediction with known constant mean.

    Weights solve K lambda = c0; prediction m + lambda'(z - m); error
    variance C(0) - lambda'c0.
    """
    return _predict("simple", x0, data, spec, mean, None, None)


def ordinary_weights(x0, data: SpatialDataset, spec) -> tuple[np.ndarray, float]:
    """Sum-to-one kriging weights and the Lagrange multiplier."""
    data = _dedupe(data)
    _checked("ordinary", data.locations, None, None)
    K, c0, _ = _system(spec, data, x0)
    return _ordinary_weights(chol_with_jitter(K)[0], c0)


def ordinary_kriging(x0, data: SpatialDataset, spec) -> KrigingResult:
    """Constant unknown mean; weights constrained to sum to one.

    Error variance C(0) - c0'w - nu with nu the Lagrange multiplier.
    """
    return _predict("ordinary", x0, data, spec, 0.0, None, None)


def gls_beta(data: SpatialDataset, spec, basis: TrendBasis) -> np.ndarray:
    """Generalized least-squares trend estimate (F'K^-1 F)^-1 F'K^-1 z."""
    data = _dedupe(data)
    F = _checked("universal", data.locations, basis, None)
    return _factor("universal", data.values, F, covariance_matrix(spec, data.locations)).beta


def universal_kriging(x0, data: SpatialDataset, spec, basis: TrendBasis) -> KrigingResult:
    """Unknown linear trend over the basis; GLS plug-in predictor.

    Prediction f0' beta_gls + c0' K^-1 (z - F beta_gls); the error variance
    is C(0) - c0' K^-1 c0 + g' (F'K^-1 F)^-1 g with g = f0 - F'K^-1 c0.
    """
    return _predict("universal", x0, data, spec, 0.0, basis, None)


def bayes_kriging(x0, data: SpatialDataset, spec, basis: TrendBasis,
                  prior: BayesPrior) -> KrigingResult:
    """Kriging under a first-two-moments prior on the trend coefficients.

    Prediction f0'mu + (c0 + F Phi f0)' (K + F Phi F')^-1 (z - F mu); the
    total mean squared error of prediction is
    C(0) + f0' Phi f0 - (c0 + F Phi f0)' (K + F Phi F')^-1 (c0 + F Phi f0).
    Phi = 0 reproduces simple kriging with mean f0'mu; an arbitrarily flat
    prior reproduces universal kriging.
    """
    return _predict("bayes", x0, data, spec, 0.0, basis, prior)


# -- gridded prediction maps ---------------------------------------------------

STATUS_OK = "ok"
STATUS_FEW = "too_few_neighbors"
STATUS_NUMERIC = "numeric_failure"

# Grid points searched and factored together. A block's search holds
# MAP_BLOCK x n distances. A map holds the factored sets of one block and the
# previous one at a time; only a set that comes back after a whole block
# without it is factored a second time.
MAP_BLOCK = 128


@dataclass(frozen=True)
class MapRow:
    location: np.ndarray
    result: KrigingResult | None
    status: str


def _factor_sets(method, data: SpatialDataset, sets, spec, mean, basis, prior):
    """The factored system of each index set of `data`, or STATUS_NUMERIC
    when its checks or its factorisation fail.

    The Gram matrices are sliced from one covariance evaluation over the
    union of the sets. When that evaluation fails, each set evaluates its
    own and fails alone if its own lags fail.
    """
    member = np.zeros(len(data.values), dtype=bool)  # np.unique would import numpy.ma
    member[np.concatenate(sets)] = True
    union = np.flatnonzero(member)
    try:
        gram = covariance_matrix(spec, data.locations[union])
    except (NumericError, DomainError):
        gram = None
    systems = []
    for idx in sets:
        locations = data.locations[idx]
        try:
            F = _checked(method, locations, basis, prior)
            if gram is None:
                K = covariance_matrix(spec, locations)
            else:
                pos = np.searchsorted(union, idx)
                K = gram[pos[:, None], pos]
            systems.append(_factor(method, data.values[idx], F, K, mean, prior))
        except (NumericError, DomainError):
            systems.append(STATUS_NUMERIC)
    return systems


def _cross_rows(spec, lags):
    """Row 0 of the covariance over [x0; locations], (C(0), c0), for every
    point with lags, from one covariance evaluation. When that evaluation
    fails, every row is None and each point evaluates its own row, failing
    alone if its own lags fail."""
    served = [lag for lag in lags if lag is not None]
    if not served:
        return lags
    try:
        values = covariance_eval(spec, np.concatenate(served))
    except NumericError:
        return [None] * len(lags)
    rows = iter(np.split(values, np.cumsum([lag.size for lag in served[:-1]])))
    return [None if lag is None else next(rows) for lag in lags]


def _map_row(points, systems, lags, crosses, spec, basis, i: int) -> MapRow:
    x0, fac, row = points[i], systems[i], crosses[i]
    if fac is None:
        return MapRow(x0, None, STATUS_FEW)
    if fac is STATUS_NUMERIC:
        return MapRow(x0, None, STATUS_NUMERIC)
    try:
        if row is None:
            row = covariance_eval(spec, lags[i])
        res = _at(fac, x0, row[1:], row[0], basis)
    except (NumericError, DomainError):
        return MapRow(x0, None, STATUS_NUMERIC)
    if not (math.isfinite(res.prediction) and math.isfinite(res.sd)):
        return MapRow(x0, None, STATUS_NUMERIC)
    return MapRow(x0, res, STATUS_OK)


def krige_map(
    grid,
    method: str,
    data: SpatialDataset,
    spec,
    radius: float,
    min_neighbors: int = MIN_NEIGHBORS,
    mean: float = 0.0,
    basis: TrendBasis | None = None,
    prior: BayesPrior | None = None,
) -> list[MapRow]:
    """Run one predictor over a grid with neighborhood search.

    Grid points whose neighborhood has min_neighbors points or fewer yield
    a missing row, never an error; per-point numeric failures are reported
    with their own status code.

    The map works block by block. One distance matrix from the MAP_BLOCK
    points of a block to all data gives every neighbour set of the block
    and every point's cross lags. Duplicate locations are dropped once per
    map (they lie at the same distance, so they enter and leave a set
    together), with one warning. Points with the same neighbour set share
    one factored system: the sets new to a block (a set of the previous
    block is reused) take their Gram matrices from one covariance
    evaluation over their union and are checked and factored once, the
    cross-covariances of the block take one more evaluation, and each point
    then costs only its solves against its set's factor.
    A global radius gives one set, so the whole map factors one matrix.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise DomainError("grid must not be empty")
    if method not in KRIGE_METHODS:
        raise DomainError(f"unknown kriging method {method!r}")
    if method in ("universal", "bayes") and basis is None:
        raise DomainError(f"{method} kriging needs a trend basis")
    if method == "bayes" and prior is None:
        raise DomainError("bayes kriging needs a prior")
    if not min_neighbors >= 0:
        raise DomainError(f"min_neighbors must be >= 0, got {min_neighbors}")

    first = _first_occurrences(data.locations)
    dropped = np.zeros(len(data), dtype=bool)
    rows, previous = [], {}
    for start in range(0, grid.shape[0], MAP_BLOCK):
        points = grid[start:start + MAP_BLOCK]
        dist, within = _search(points, data.locations, radius)
        served = np.count_nonzero(within, axis=1) > min_neighbors
        dropped |= np.any(within[served] & ~first, axis=0)
        sets = [np.flatnonzero(row) if ok else None for row, ok in zip(within & first, served)]
        keys = [None if idx is None else idx.tobytes() for idx in sets]
        factored = {key: previous[key] for key in keys if key in previous}
        new = {key: idx for key, idx in zip(keys, sets) if key is not None and key not in factored}
        if new:
            factored.update(zip(new, _factor_sets(method, data, list(new.values()), spec,
                                                  mean, basis, prior)))
        previous = factored
        systems = [None if key is None else factored[key] for key in keys]
        lags = [np.concatenate(([0.0], dist[i, idx])) if isinstance(fac, _Factored) else None
                for i, (idx, fac) in enumerate(zip(sets, systems))]
        crosses = _cross_rows(spec, lags)
        rows += parallel_map(partial(_map_row, points, systems, lags, crosses, spec, basis),
                             range(points.shape[0]))
    if np.any(dropped):
        warnings.warn(
            f"dropped {np.count_nonzero(dropped)} duplicate locations from the "
            "kriging neighborhoods of the map",
            stacklevel=2,
        )
    return rows


def krige_map_csv(rows) -> str:
    """`x,y,prediction,sd,n_neighbors,status` serialization of a map."""
    lines = ["x,y,prediction,sd,n_neighbors,status"]
    for row in rows:
        x, y = row.location[0], row.location[1]
        if row.result is None:
            lines.append(f"{fmt_float(x)},{fmt_float(y)},,,0,{row.status}")
        else:
            r = row.result
            lines.append(
                f"{fmt_float(x)},{fmt_float(y)},{fmt_float(r.prediction)},"
                f"{fmt_float(r.sd)},{r.n_neighbors},{row.status}"
            )
    return "\n".join(lines) + "\n"
