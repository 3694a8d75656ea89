"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned once per map or call,
never silent). Maps and `bayes` densities build their neighbour sets in
`_neighbour_sets`, which drops duplicate locations, also warned once.
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
        variance = 0.0
    return math.sqrt(variance)


def _warn_clamped(before: int, method: str, stacklevel: int):
    """One warning for the variances clamped since the count read `before`."""
    count = clamped_variance_count() - before
    if count:
        warnings.warn(f"{method}: {count} negative variances clamped to 0",
                      stacklevel=stacklevel + 1)


def _warn_dropped(dropped, where: str, stacklevel: int):
    """One warning for the duplicate locations of the mask `dropped`."""
    count = np.count_nonzero(dropped)
    if count:
        warnings.warn(f"dropped {count} duplicate locations from the {where}",
                      stacklevel=stacklevel + 1)


@dataclass(frozen=True)
class KrigingResult:
    prediction: float
    sd: float
    n_neighbors: int
    method: str


def _ranks(F) -> np.ndarray:
    """np.linalg.matrix_rank of each design of a (G, n, k) stack, without
    its SVD for one column: a column has rank 1 when it has a nonzero entry.
    A design with a non-finite entry counts as rank 0."""
    finite = np.all(np.isfinite(F), axis=(1, 2))
    if F.shape[2] == 1:
        return (np.any(F != 0.0, axis=(1, 2)) & finite).astype(int)
    ranks = np.zeros(F.shape[0], dtype=int)
    if np.any(finite):
        ranks[finite] = np.linalg.matrix_rank(F[finite])
    return ranks


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

    def evaluate(self, locations) -> np.ndarray:
        """The (n, k) values of the basis functions at n locations, unchecked."""
        locs = np.atleast_2d(np.asarray(locations, dtype=float))
        return np.column_stack([np.asarray(f(locs), dtype=float) for f in self.functions])

    def design(self, locations) -> np.ndarray:
        F = self.evaluate(locations)
        if _ranks(F[None])[0] < F.shape[1]:
            # every prefix of a full-rank design passes matrix_rank's
            # tolerance, so the first prefix that loses rank names the column
            k = next(k for k in range(1, F.shape[1] + 1) if _ranks(F[None, :, :k])[0] < k)
            raise DomainError(
                f"trend basis {self.names[k-1]!r} is linearly dependent "
                f"on the preceding basis functions over this dataset"
            )
        return F

    def at(self, x0) -> np.ndarray:
        return self.evaluate(x0)[0]


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


def neighborhood(data: SpatialDataset, x0, radius: float) -> SpatialDataset | None:
    """Points within `radius` of x0 (boundary included), original order.

    Returns None for an empty neighborhood (SpatialDataset cannot be empty).
    """
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    [idx] = _neighbour_sets(x0, data.locations, np.ones(len(data), dtype=bool), radius, 0)[2]
    return None if idx is None else data.subset(idx)


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
    _warn_dropped(~keep, "kriging neighborhood", stacklevel=3)
    return data.subset(keep)


def _neighbour_sets(points, locations, first, radius: float, least: int):
    """The neighbour search of the package, over a block of points: a point
    with more than `least` locations within `radius` (boundary included) is
    served, its set the indices of those in `first`, the mask of the
    locations that repeat no earlier one. Returns the distances (p, n), the
    member mask (p, n), each point's index set or None, and the mask of the
    duplicate locations dropped from a set."""
    if not radius > 0.0:  # also rejects NaN
        raise DomainError("search radius must be > 0")
    dist = distances(points, locations)
    within = dist <= radius
    served = np.count_nonzero(within, axis=1) > least
    dropped = np.any(within[served] & ~first, axis=0)
    member = within & first & served[:, None]
    cols = np.nonzero(member)[1]
    sets = [cols[a:b] if ok else None for (a, b), ok in zip(_bounds(member), served)]
    return dist, member, sets, dropped


def _system(spec, data: SpatialDataset, x0):
    """K, c0 and C(0) for one prediction, sliced from one covariance
    evaluation over [x0; locations]."""
    pts = np.vstack([np.asarray(x0, dtype=float).reshape(1, -1), data.locations])
    M = covariance_matrix(spec, pts)
    return M[1:, 1:], M[0, 1:], M[0, 0]


# -- neighbour sets: checked, factored once, then solved per point -------------


def _passing(method, n, F):
    """Whether sets of n locations with trend designs F (G, n, k), or None,
    can be solved: ordinary kriging needs at least 2 points, universal and
    Bayes kriging a full-rank design. One bool for all of them, or the mask
    of the rank checks."""
    if method == "ordinary":
        return n >= 2
    return True if F is None else _ranks(F) == F.shape[2]


def _checked(method, locations, basis):
    """Trend design of the locations of one neighbour set free of duplicate
    locations, or None; DomainError where the set fails `_passing` (the
    design's own rank check names the dependent column)."""
    if not _passing(method, len(locations), None):
        raise DomainError("ordinary kriging needs at least 2 data points")
    return basis.design(locations) if method in ("universal", "bayes") else None


def _check_prior(basis: TrendBasis, prior: BayesPrior | None):
    if prior is None:
        raise DomainError("bayes kriging needs a prior")
    if prior.mu.size != len(basis):
        raise DomainError("prior dimension does not match the trend basis")


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


def _factored(method, values, F, L, mean, prior) -> _Factored:
    """One set's factored system from the factor L of its matrix."""
    if method == "bayes":
        return _Factored(method, values, L, trend=_Trend(F, prior.mu, prior.phi,
                                                         values - F @ prior.mu))
    if method == "simple":
        return _Factored(method, values, L, mean=mean, resid=values - mean)
    if method == "universal":
        KiF = chol_solve(L, F)
        M = F.T @ KiF
        beta = np.linalg.solve(M, KiF.T @ values)
        return _Factored(method, values, L, resid=values - F @ beta, F=F, M=M, beta=beta)
    return _Factored(method, values, L)


def _factor(method, values, F, K, mean=0.0, prior=None) -> list[_Factored]:
    """Factor the systems of G checked sets of one size at once: their data
    values (G, n), trend designs F (G, n, k) (universal and Bayes kriging,
    else None) and covariances K (G, n, n). The G matrices, K or Bayes'
    K + F Phi F', take one `chol_with_jitter` call; NumericError when any
    of them fails."""
    if method == "bayes":
        K = K + F @ prior.phi @ F.transpose(0, 2, 1)
    L, _ = chol_with_jitter(K)
    return [_factored(method, values[g], None if F is None else F[g], L[g], mean, prior)
            for g in range(len(L))]


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


def _bayes_terms(trend: _Trend, f0):
    """The terms of the Bayes predictor at a point with trend row f0 that
    need no covariance: F Phi f0, f0'mu and f0' Phi f0."""
    F, mu, phi, _ = trend
    return F @ (phi @ f0), f0 @ mu, f0 @ phi @ f0


def _bayes_solve(L, cb, resid, mean0, var0):
    """Mean f0'mu + lambda'resid and Schur-complement variance
    C(0) + f0'Phi f0 - cb'lambda of the Bayes predictor, with weights lambda
    solving (K + F Phi F') lambda = cb = c0 + F Phi f0 through the factor L
    of K + F Phi F'; mean0 = f0'mu and var0 = C(0) + f0'Phi f0."""
    lam = chol_solve(L, cb)
    return float(mean0 + lam @ resid), float(var0 - cb @ lam)


def _bayes_at(L, trend: _Trend, f0, c0, c00):
    """Mean and variance of the Bayes predictor at one point."""
    Fpf0, mean0, quad = _bayes_terms(trend, f0)
    return _bayes_solve(L, c0 + Fpf0, trend.resid, mean0, c00 + quad)


def _at(fac: _Factored, f0, c0, c00) -> KrigingResult:
    """The per-point half of a predictor: its solves against the set's
    factor and the dot products, given the trend row f0 (universal and
    Bayes kriging), c0 and C(0) at the point."""
    method = fac.method
    if method == "simple":
        lam = chol_solve(fac.L, c0)
        pred, var = fac.mean + lam @ fac.resid, c00 - lam @ c0
    elif method == "ordinary":
        w, nu = _ordinary_weights(fac.L, c0)
        pred, var = w @ fac.values, c00 - c0 @ w - nu
    elif method == "universal":
        Kic0 = chol_solve(fac.L, c0)
        pred = f0 @ fac.beta + Kic0 @ fac.resid
        g = f0 - fac.F.T @ Kic0
        var = c00 - c0 @ Kic0 + g @ np.linalg.solve(fac.M, g)
    else:
        pred, var = _bayes_at(fac.L, fac.trend, f0, c0, c00)
    return KrigingResult(float(pred), _finish_sd(float(var), c00, f"{method} kriging"),
                         len(fac.values), method)


def _predict(method, x0, subset, spec, mean, basis, prior) -> KrigingResult:
    """One prediction: the set and point halves over one covariance
    evaluation of [x0; locations]."""
    data = _dedupe(subset)
    F = _checked(method, data.locations, basis)
    K, c0, c00 = _system(spec, data, x0)
    [fac] = _factor(method, data.values[None], None if F is None else F[None], K[None],
                    mean, prior)
    clamped = clamped_variance_count()
    result = _at(fac, None if F is None else basis.at(x0), c0, c00)
    _warn_clamped(clamped, f"{method} kriging", stacklevel=3)
    return result


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
    _checked("ordinary", data.locations, None)
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
    F = _checked("universal", data.locations, basis)
    K = covariance_matrix(spec, data.locations)
    return _factor("universal", data.values[None], F[None], K[None])[0].beta


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
    _check_prior(basis, prior)
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


def _factor_alone(method, values, F, K, mean, prior):
    """The factored system of one set of `_factor`'s arguments, or STATUS_NUMERIC."""
    try:
        return _factor(method, values, F, K, mean, prior)[0]
    except NumericError:
        return STATUS_NUMERIC


def _factor_sets(method, data: SpatialDataset, sets, spec, mean, basis, prior):
    """The factored system of each index set of `data`, or STATUS_NUMERIC
    when its checks or its factorisation fail.

    Sets of one size form a group. The trend designs of a group are rows of
    one basis evaluation over the union of the sets, checked at once; its
    Gram matrices are gathered with one index from one covariance
    evaluation over that union, and the group is factored in one call. When
    that call fails, each set of the group is factored alone and fails
    alone. When the union's evaluation fails, each set evaluates its own
    and fails alone if its own lags fail.
    """
    member = np.zeros(len(data.values), dtype=bool)  # np.unique would import numpy.ma
    member[np.concatenate(sets)] = True
    union = np.flatnonzero(member)
    try:
        gram = covariance_matrix(spec, data.locations[union])
    except (NumericError, DomainError):
        gram = None
    design = basis.evaluate(data.locations[union]) if method in ("universal", "bayes") else None
    groups = {}
    for j, idx in enumerate(sets):
        groups.setdefault(idx.size, []).append(j)
    systems = [STATUS_NUMERIC] * len(sets)
    for n, members in groups.items():
        idx = np.stack([sets[j] for j in members])
        pos = np.searchsorted(union, idx)
        F = None if design is None else design[pos]
        ok = np.full(len(members), True) & _passing(method, n, F)
        if gram is None:
            K = np.empty((len(members), n, n))
            for g in np.flatnonzero(ok):
                try:
                    K[g] = covariance_matrix(spec, data.locations[idx[g]])
                except (NumericError, DomainError):
                    ok[g] = False
        else:
            K = gram[pos[:, :, None], pos[:, None, :]]
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            continue
        values, F, K = data.values[idx[keep]], None if F is None else F[keep], K[keep]
        try:
            factored = _factor(method, values, F, K, mean, prior)
        except NumericError:
            factored = [_factor_alone(method, values[g:g + 1], None if F is None else F[g:g + 1],
                                      K[g:g + 1], mean, prior) for g in range(keep.size)]
        for g, fac in zip(keep, factored):
            systems[members[g]] = fac
    return systems


def _bounds(mask):
    """Per row of a boolean matrix, the bounds (start, end) of its True
    entries among all of them in row-major order."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    return zip([0] + ends[:-1], ends)


def _cross_rows(spec, lags, bounds):
    """Row 0 of the covariance over [x0; locations], (C(0), c0), of every
    point with bounds into `lags`, from one covariance evaluation. When that
    evaluation fails, every row is None and each point evaluates its own
    row, failing alone if its own lags fail."""
    try:
        values = covariance_eval(spec, lags) if lags.size else lags
    except NumericError:
        return [None] * len(bounds)
    return [None if ab is None else values[ab[0]:ab[1]] for ab in bounds]


def _map_row(points, f0s, systems, lags, crosses, spec, i: int) -> MapRow:
    x0, fac, row = points[i], systems[i], crosses[i]
    if fac is None:
        return MapRow(x0, None, STATUS_FEW)
    if fac is STATUS_NUMERIC:
        return MapRow(x0, None, STATUS_NUMERIC)
    try:
        if row is None:
            row = covariance_eval(spec, lags[i])
        res = _at(fac, None if f0s is None else f0s[i], row[1:], row[0])
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
    one factored system. The sets new to a block (a set of the previous
    block is reused) are grouped by size: a group's designs and Gram
    matrices are sliced from one basis and one covariance evaluation over
    the union of the new sets, checked as one stack and factored in one
    `chol_with_jitter` call, and a group whose call fails is factored set
    by set, so a failing set fails alone. The cross-covariances of the
    block take one more evaluation and its trend rows one basis evaluation,
    and each point then costs only its solves against its set's factor.
    A global radius gives one set, so the whole map factors one matrix.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise DomainError("grid must not be empty")
    if method not in KRIGE_METHODS:
        raise DomainError(f"unknown kriging method {method!r}")
    if method in ("universal", "bayes") and basis is None:
        raise DomainError(f"{method} kriging needs a trend basis")
    if method == "bayes":
        _check_prior(basis, prior)
    if not min_neighbors >= 0:
        raise DomainError(f"min_neighbors must be >= 0, got {min_neighbors}")

    first = _first_occurrences(data.locations)
    dropped = np.zeros(len(data), dtype=bool)
    clamped = clamped_variance_count()
    rows, previous = [], {}
    for start in range(0, grid.shape[0], MAP_BLOCK):
        points = grid[start:start + MAP_BLOCK]
        dist, member, sets, block_dropped = _neighbour_sets(points, data.locations, first,
                                                            radius, min_neighbors)
        dropped |= block_dropped
        keys = [None if idx is None else idx.tobytes() for idx in sets]
        factored = {key: previous[key] for key in keys if key in previous}
        new = {key: idx for key, idx in zip(keys, sets) if key is not None and key not in factored}
        if new:
            factored.update(zip(new, _factor_sets(method, data, list(new.values()), spec,
                                                  mean, basis, prior)))
        previous = factored
        systems = [None if key is None else factored[key] for key in keys]
        # the lags of each point with a factored set, [0, its distances],
        # one point after another
        solved = np.array([isinstance(fac, _Factored) for fac in systems])[:, None]
        at_x0 = np.hstack([solved, member & solved])
        flat = np.hstack([np.zeros((len(points), 1)), dist])[at_x0]
        bounds = [ab if ok else None for ab, ok in zip(_bounds(at_x0), solved[:, 0])]
        lags = [None if ab is None else flat[ab[0]:ab[1]] for ab in bounds]
        crosses = _cross_rows(spec, flat, bounds)
        f0s = basis.evaluate(points) if method in ("universal", "bayes") else None
        rows += parallel_map(partial(_map_row, points, f0s, systems, lags, crosses, spec),
                             range(points.shape[0]))
    _warn_dropped(dropped, "kriging neighborhoods of the map", stacklevel=2)
    _warn_clamped(clamped, f"{method} kriging", stacklevel=2)
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
