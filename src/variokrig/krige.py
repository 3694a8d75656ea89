"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned once per map or call,
never silent). Maps and `bayes` densities build and number a block's
neighbour sets and lay out its cross lags in `_neighbour_sets`, which drops
duplicate locations (warned once).

Kriging maps and density maps run one block driver, `_map_blocks`, under one
byte budget, MAP_BYTES. A block is the longest run of the next grid points
whose bytes stay within it: 8 n per point for its distances to the n data
locations, plus what the map keeps for the block. A kriging map counts the
factors of the neighbour sets new to the block, 8 m^2 bytes for a set of m
locations; a density map counts its shared covariance values, 8 T bytes per
distinct lag of the block under T draws. A block factors its new neighbour
sets in stacks of one size. Per point, only its triangular solves against
its set's factor (`_linalg.chol_solve_each`) and building its row run in
Python; the right-hand sides, the dot products, the variances and the
statuses are stacked numpy steps over the points of one stack of factors
(`_predictions`, `_finish_sd`), whose items keep the bits of the point's
own products. The single-point predictors run the same steps on a stack of
one point."""

import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._linalg import chol_solve, chol_solve_each, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError, SingularMatrixError
from .models import _distinct_rows, covariance_matrix, covariance_values, distances
from .util import KRIGE_METHODS, MIN_NEIGHBORS, parallel_map

_diagnostics = {"clamped_variances": 0}


def clamped_variance_count() -> int:
    """How many negative prediction variances were clamped to zero."""
    return _diagnostics["clamped_variances"]


def _tolerance(scale):
    """How far below zero the variances of points with C(0) = scale may
    fall before they fail: 1e-10 max(1, scale)."""
    return 1e-10 * np.fmax(1.0, scale)


def _finish_sd(variance, scale):
    """Standard deviations of P points from their variances (P,) and C(0)
    (P,): a variance within `_tolerance` below zero is clamped to 0 and
    counted, and one below that, or NaN, gives NaN."""
    clamped = (variance < 0.0) & (variance >= -_tolerance(scale))
    _diagnostics["clamped_variances"] += int(np.count_nonzero(clamped))
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.where(clamped, 0.0, variance))


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


class KrigingResult(NamedTuple):
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
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(phi))):
            raise DomainError("prior mean and covariance must be finite")
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
    _, [j], sets, _, _ = _neighbour_sets(x0, data.locations, np.ones(len(data), dtype=bool),
                                         radius, 0)
    return None if j < 0 else data.subset(sets[j])


def _first_occurrences(locations) -> np.ndarray:
    """The index of the first row of `locations` equal to each row: a row
    that repeats no earlier row is its own first occurrence."""
    _, first, inverse = np.unique(locations, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _dedupe(data: SpatialDataset) -> SpatialDataset:
    """Drop exact duplicate locations, keeping the first occurrence."""
    keep = _first_occurrences(data.locations) == np.arange(len(data))
    if np.all(keep):
        return data
    _warn_dropped(~keep, "kriging neighborhood", stacklevel=3)
    return data.subset(keep)


# The one byte budget of the blocks of kriging and density maps (see
# `_map_blocks`).
MAP_BYTES = 3 * 2**20


def _neighbour_sets(points, locations, first, radius: float, least: int):
    """The neighbour search of the package, over a run of points: a point
    with more than `least` locations within `radius` (boundary included) is
    served, its set the indices of those in `first`, the mask of the
    locations that repeat no earlier one. Returns the member mask (p, n),
    each point's set number (-1 when it is not served), the distinct index
    sets, numbered by `models._distinct_rows` over the member rows and read
    off those rows by one `np.nonzero`, and the cross lags of the served
    points, [0, distances to its set] point after point, with where each
    point's start: point i's lags are `cross[starts[i]:starts[i + 1]]`.

    The distances are formed for MAP_BYTES // (64 n) points at a time, an
    eighth of the points whose distances alone would fill a block's budget,
    so that their differences and masks stay well within it too."""
    if not radius > 0.0:  # also rejects NaN
        raise DomainError("search radius must be > 0")
    p, n = len(points), len(locations)
    member, served, cross = np.empty((p, n), dtype=bool), np.empty(p, dtype=bool), []
    step = max(1, MAP_BYTES // (64 * n))
    for a in range(0, p, step):
        dist = distances(points[a:a + step], locations)
        within = dist <= radius
        served[a:a + step] = ok = np.count_nonzero(within, axis=1) > least
        member[a:a + step] = rows = within & first & ok[:, None]
        at_x0 = np.hstack([ok[:, None], rows])
        cross.append(np.hstack([np.zeros((len(dist), 1)), dist])[at_x0])
    starts = np.zeros(p + 1, dtype=int)
    np.cumsum(served + np.count_nonzero(member, axis=1), out=starts[1:])
    set_of = np.full(p, -1)
    rows = member[served]
    at, set_of[served] = _distinct_rows(rows)
    distinct = rows[at]
    cols = np.nonzero(distinct)[1]
    ends = np.cumsum(np.count_nonzero(distinct, axis=1)).tolist()
    sets = [cols[a:b] for a, b in zip([0] + ends, ends)]
    return member, set_of, sets, np.concatenate(cross) if cross else np.zeros(0), starts


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


@dataclass(frozen=True)
class _Factored:
    """The location-independent half of one predictor on G neighbour sets of
    one size, stacked: their data values (G, n) and the Cholesky factors L
    (G, n, n) of K (Bayes: K + F Phi F'). Simple kriging adds resid = z - m;
    Bayes kriging the designs F (G, n, k) and resid = z - F mu; universal
    kriging the designs, M = F'K^-1 F (G, k, k), the GLS trends beta (G, k)
    and resid = z - F beta. Set g of the stack is `(fac, g)`.
    """

    method: str
    values: np.ndarray
    L: np.ndarray
    mean: float = 0.0
    resid: np.ndarray | None = None
    F: np.ndarray | None = None
    M: np.ndarray | None = None
    beta: np.ndarray | None = None


def _factor(method, values, F, K, mean=0.0, prior=None) -> _Factored:
    """Factor the systems of G checked sets of one size at once: their data
    values (G, n), trend designs F (G, n, k) (universal and Bayes kriging,
    else None) and covariances K (G, n, n). The G matrices, K or Bayes'
    K + F Phi F', take one `chol_with_jitter` call, in which a matrix past
    the jitter ladder gets a NaN factor, and so NaN solves and predictions.
    The residuals take one stacked product, each item the product F mu (or
    F beta) of its set alone."""
    if method == "bayes":
        K = K + F @ prior.phi @ F.transpose(0, 2, 1)
    L, _ = chol_with_jitter(K)
    if method == "bayes":
        return _Factored(method, values, L, F=F,
                         resid=values - np.matmul(F, prior.mu[:, None])[:, :, 0])
    if method == "simple":
        return _Factored(method, values, L, mean=mean, resid=values - mean)
    if method == "universal":
        KiF = [chol_solve(L[g], F[g]) for g in range(len(L))]
        M = np.stack([F[g].T @ KiF[g] for g in range(len(L))])
        beta = np.stack([np.linalg.solve(M[g], KiF[g].T @ values[g]) for g in range(len(L))])
        return _Factored(method, values, L, F=F, M=M, beta=beta,
                         resid=values - np.matmul(F, beta[:, :, None])[:, :, 0])
    return _Factored(method, values, L)


def _dots(a, b):
    """The dot products a[p] @ b[p] of two stacks of P vectors (either may
    be one vector that every item shares): one stacked matmul of (P, 1, n)
    by (P, n, 1), whose items keep the bits of their own 1-D products (a
    2-D product or einsum would not)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _ordinary_weights(L, which, c0):
    """Weights w (P, n) and Lagrange multipliers nu (P,) of P points on the
    sets `which` of the factor stack L with cross-covariances c0 (P, n).
    Per point one solve K [a, b] = [c0, 1]; nu = (1'a - 1)/(1'b) and
    w = a - nu b. Where the solve fails (a and b are NaN), or 1'b is 0 or
    not finite (the constraint system is singular), nu is NaN, and so are w
    and the point's prediction and variance."""
    ab = np.empty((c0.shape[0], 2, c0.shape[1]))
    ab[:, 0], ab[:, 1] = c0, 1.0
    chol_solve_each(L, which, ab.transpose(0, 2, 1))
    a, b = ab[:, 0], ab[:, 1]
    one = np.ones(c0.shape[1])
    denom = _dots(one, b)
    singular = (denom == 0.0) | ~np.isfinite(denom)
    with np.errstate(all="ignore"):
        nu = np.where(singular, np.nan, (_dots(one, a) - 1.0) / denom)
        return a - nu[:, None] * b, nu


def _bayes_terms(f0s, mu, phi):
    """The terms of the Bayes predictor at P points with trend rows f0s
    (P, k) that need no covariance: Phi f0 (P, k), f0'mu (P,) and
    f0' Phi f0 (P,). Stacked per-item products: each point's bits are those
    of its own products phi @ f0, f0 @ mu and f0 @ phi @ f0."""
    rows, cols = f0s[:, None, :], f0s[:, :, None]
    return (np.matmul(phi, cols)[:, :, 0], np.matmul(rows, mu[:, None])[:, 0, 0],
            np.matmul(np.matmul(rows, phi), cols)[:, 0, 0])


def _bayes_moments(cb, lam, resid, mean0, var0):
    """Means f0'mu + lambda'resid and Schur-complement variances
    C(0) + f0'Phi f0 - cb'lambda of the Bayes predictor at P points (or
    under P draws), stacked: weights lambda (P, n) solving
    (K + F Phi F') lambda = cb = c0 + F Phi f0, residuals z - F mu, and
    mean0 = f0'mu and var0 = C(0) + f0'Phi f0."""
    return mean0 + _dots(lam, resid), var0 - _dots(cb, lam)


def _point_terms(method, points, basis, prior) -> tuple:
    """The trend terms of the points for `_predictions`, each stacked over
    the points: the trend rows (f0,) (universal kriging),
    (Phi f0, f0'mu, f0' Phi f0) (Bayes kriging) or none. Like the
    covariances, a term that overflows is not finite, quietly, and fails its
    point's row."""
    with np.errstate(all="ignore"):
        if method == "universal":
            return (basis.evaluate(points),)
        if method == "bayes":
            return _bayes_terms(basis.evaluate(points), prior.mu, prior.phi)
        return ()


def _predictions(fac: _Factored, which, terms, c0, c00):
    """Predictions and variances (P,) of P points on the sets `which` of
    `fac`, given their `_point_terms`, cross-covariances c0 (P, n) and C(0)
    (P,); both are NaN where a point's solve fails or its factor is NaN.
    Per point, only its triangular solves run in Python; the rest are
    stacked per-item products with the bits of the point's own."""
    method, L = fac.method, fac.L
    with np.errstate(all="ignore"):
        if method == "ordinary":
            w, nu = _ordinary_weights(L, which, c0)
            return _dots(w, fac.values[which]), c00 - _dots(c0, w) - nu
        if method == "bayes":
            phif0, mean0, quad = terms
            cb = c0 + np.matmul(fac.F[which], phif0[:, :, None])[:, :, 0]
            lam = cb.copy()
            chol_solve_each(L, which, lam)
            return _bayes_moments(cb, lam, fac.resid[which], mean0, c00 + quad)
        lam = np.array(c0)
        chol_solve_each(L, which, lam)
        if method == "simple":
            return fac.mean + _dots(lam, fac.resid[which]), c00 - _dots(lam, c0)
        [f0] = terms
        gap = f0 - np.matmul(fac.F[which].transpose(0, 2, 1), lam[:, :, None])[:, :, 0]
        spread = _dots(gap, np.linalg.solve(fac.M[which], gap[:, :, None])[:, :, 0])
        return (_dots(f0, fac.beta[which]) + _dots(lam, fac.resid[which]),
                c00 - _dots(c0, lam) + spread)


def _predict(method, x0, subset, spec, mean, basis, prior) -> KrigingResult:
    """One prediction: the set and point halves over one covariance
    evaluation of [x0; locations], on a stack of one point. Raises
    SingularMatrixError where the prediction or its variance is not
    finite, the map's numeric failure."""
    data = _dedupe(subset)
    F = _checked(method, data.locations, basis)
    K, c0, c00 = _system(spec, data, x0)
    fac = _factor(method, data.values[None], None if F is None else F[None], K[None],
                  mean, prior)
    clamped = clamped_variance_count()
    terms = _point_terms(method, np.asarray(x0, dtype=float).reshape(1, -1), basis, prior)
    c00 = np.array([c00])
    pred, var = _predictions(fac, np.zeros(1, dtype=int), terms, c0[None], c00)
    if not (np.isfinite(pred[0]) and np.isfinite(var[0])):
        raise SingularMatrixError(f"{method} kriging system is singular at this point")
    tol = _tolerance(c00[0])
    if var[0] < -tol:
        raise NumericError(f"{method} kriging produced variance {var[0]} below -{tol}")
    sd = _finish_sd(var, c00)
    _warn_clamped(clamped, f"{method} kriging", stacklevel=3)
    return KrigingResult(float(pred[0]), float(sd[0]), data.values.size, method)


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
    L, _ = chol_with_jitter(K)
    [w], [nu] = _ordinary_weights(L[None], np.zeros(1, dtype=int), c0[None])
    if not (np.isfinite(nu) and np.all(np.isfinite(w))):
        raise SingularMatrixError("ordinary kriging constraint system is singular")
    return w, float(nu)


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
    [beta] = _factor("universal", data.values[None], F[None], K[None]).beta
    if not np.all(np.isfinite(beta)):
        raise SingularMatrixError("GLS trend system is singular")
    return beta


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

class _Block(NamedTuple):
    """A run of consecutive grid points of a map and their neighbour search:
    the points, the number of each point's set (-1 when it is not served),
    the distinct index sets, the cross lags of the served points laid out by
    `_neighbour_sets` (point i's at `cross[starts[i]:starts[i + 1]]`), and
    the mask of the duplicate locations dropped from the sets."""

    points: np.ndarray
    set_of: np.ndarray
    sets: list
    cross: np.ndarray
    starts: np.ndarray
    dropped: np.ndarray


def _run_slice(run, a: int, b: int, first) -> _Block:
    """Points a to b of a searched run (points, member mask, set numbers,
    sets, cross lags and their starts) as a `_Block`, their sets numbered
    anew in the run's order. `first` holds the index of each location's
    first occurrence: a duplicate is dropped where its first occurrence is a
    member, as it lies at the same distance."""
    points, member, set_of, sets, cross, starts = run
    set_of = set_of[a:b]
    used = np.zeros(len(sets) + 1, dtype=bool)  # the last entry stands for -1
    used[set_of] = True
    number = np.cumsum(used) - 1
    number[-1] = -1
    reached = np.any(member[a:b], axis=0)
    return _Block(points[a:b], number[set_of], [sets[j] for j in np.flatnonzero(used[:-1])],
                  cross[starts[a]:starts[b]], starts[a:b + 1] - starts[a],
                  reached[first] & (first != np.arange(first.size)))


def _map_blocks(grid, locations, radius: float, least: int, held):
    """The one block driver of kriging and density maps: yields the blocks
    of `grid`, in order, as `(block, found)`, `block` a `_Block` over the
    data `locations` (see `_neighbour_sets` for `radius` and `least`).

    A block is the longest run of the next grid points, at least one, whose
    bytes stay within MAP_BYTES: 8 n per point for its distances to the n
    locations, plus what the map keeps for it. `held(window)` counts the
    latter for a `_Block` of candidate points: it returns the bytes each
    point adds to those of the points before it, and what it found on the
    way, which is yielded with the block (a block is the head of the window
    it was cut from). A window holds twice the last block's points (the
    whole search ahead at first), and twice as many again while it fits
    whole.

    The search runs ahead of the blocks: it covers the MAP_BYTES // (8 n)
    next points at once, whose distances alone would fill the budget, and
    the blocks are cut from it. When the rest of that run fits in one block,
    the search starts again at its first point."""
    n = len(locations)
    first = _first_occurrences(locations)
    keep = first == np.arange(n)
    most = max(1, MAP_BYTES // (8 * n))
    start, size = 0, most
    while start < len(grid):
        points = grid[start:start + most]
        run = (points, *_neighbour_sets(points, locations, keep, radius, least))
        a, end = 0, len(points)
        while a < end:
            b = min(end, a + 2 * size)
            while True:
                window = _run_slice(run, a, b, first)
                extra, found = held(window)
                total = 8 * n * np.arange(1, b - a + 1) + np.cumsum(extra)
                size = max(1, int(np.searchsorted(total, MAP_BYTES, side="right")))
                if size < b - a or b == end:
                    break
                b = min(end, a + 2 * (b - a))
            if 0 < a and a + size == end < len(grid) - start:
                break  # the block may reach past the run
            yield (window if size == b - a else _run_slice(run, a, a + size, first)), found
            a += size
        start += a


def _factor_bytes(previous, block: _Block):
    """A kriging map's `held`: the factor of each of the block's sets that
    is new to it, 8 m^2 bytes for m locations, counted at the first point
    of the set; a set is new unless its key is in `previous`, those of the
    sets of the block before."""
    numbers, firsts = np.unique(block.set_of, return_index=True)
    new = [j for j, idx in enumerate(block.sets) if idx.tobytes() not in previous]
    extra = np.zeros(len(block.points))
    extra[firsts[numbers >= 0][new]] = 8.0 * np.array([block.sets[j].size for j in new]) ** 2
    return extra, None


class MapRow(NamedTuple):
    location: np.ndarray
    result: KrigingResult | None
    status: str


def _factor_sets(method, data: SpatialDataset, sets, spec, mean, basis, prior):
    """The factored system `(fac, g)` of each index set of `data` (set g of
    the stack `fac`), or STATUS_NUMERIC when it fails its checks.

    Sets of one size form a group. The trend designs of a group are rows of
    one basis evaluation over the union of the sets, checked at once; its
    Gram matrices are gathered with one index from one covariance
    evaluation over the location pairs of that union (`covariance_values`),
    and the group is
    factored in one call. A set that fails the rank check leaves its group.
    A set whose gathered Gram matrix is not finite, or past the jitter
    ladder, keeps its place with a NaN factor, so that its points alone
    are numeric failures.
    """
    member = np.zeros(len(data.values), dtype=bool)  # np.unique would import numpy.ma
    member[np.concatenate(sets)] = True
    union = np.flatnonzero(member)
    locations = data.locations[union]
    # the distances are symmetric bit for bit: one covariance evaluation of
    # the upper triangle fills both
    lags = distances(locations, locations)
    upper = np.triu_indices(union.size)
    gram = np.empty_like(lags)
    gram[upper] = gram.T[upper] = covariance_values(spec, lags[upper])
    design = basis.evaluate(locations) if method in ("universal", "bayes") else None
    groups = {}
    for j, idx in enumerate(sets):
        groups.setdefault(idx.size, []).append(j)
    systems = [STATUS_NUMERIC] * len(sets)
    for n, members in groups.items():
        idx = np.stack([sets[j] for j in members])
        pos = np.searchsorted(union, idx)
        F = None if design is None else design[pos]
        keep = np.flatnonzero(np.broadcast_to(_passing(method, n, F), len(members)))
        if keep.size == 0:
            continue
        fac = _factor(method, data.values[idx[keep]], None if F is None else F[keep],
                      gram[pos[keep, :, None], pos[keep, None, :]], mean, prior)
        for g, j in enumerate(keep.tolist()):
            systems[members[j]] = fac, g
    return systems


def _block_rows(method, block: _Block, systems, spec, terms) -> list[MapRow]:
    """The rows of a block's points, given the sets' factored systems
    `(fac, g)` or STATUS_NUMERIC, by the block's set numbers, and the points'
    `_point_terms`.

    The block's cross lags take one covariance evaluation. The points of one
    stack of factors are predicted together (`_predictions`), and a point is
    ok when its prediction and sd are finite: a NaN among its values, a NaN
    factor or a failed solve makes it a numeric failure. Then each point
    only builds its row, one `parallel_map` item per point."""
    stacks = {}  # id of a stack of factors -> (its number, the stack)
    set_stack = np.full(len(systems) + 1, -1)  # the last entry stands for -1
    set_g = np.zeros(len(systems) + 1, dtype=int)
    for j, system in enumerate(systems):
        if system is not STATUS_NUMERIC:
            fac, set_g[j] = system
            set_stack[j] = stacks.setdefault(id(fac), (len(stacks), fac))[0]
    points, set_of, starts = block.points, block.set_of, block.starts
    stack_of, which_of = set_stack[set_of], set_g[set_of]
    P = len(points)
    cross = covariance_values(spec, block.cross) if block.cross.size else block.cross
    code = (set_of >= 0).astype(int)  # 0 too few neighbours, 1 failed, 2 served
    preds, sds, sizes = np.full(P, np.nan), np.full(P, np.nan), np.zeros(P, dtype=int)
    for s, fac in stacks.values():
        pts = np.flatnonzero(stack_of == s)
        n = fac.values.shape[1]
        row = cross[starts[pts, None] + np.arange(n + 1)]
        pred, var = _predictions(fac, which_of[pts], tuple(t[pts] for t in terms),
                                 row[:, 1:], row[:, 0])
        sd = _finish_sd(var, row[:, 0])
        ok = np.isfinite(pred) & np.isfinite(sd)
        preds[pts], sds[pts], sizes[pts] = pred, sd, n
        code[pts[ok]] = 2
    statuses = np.array([STATUS_FEW, STATUS_NUMERIC, STATUS_OK], dtype=object)[code]
    return parallel_map(partial(_map_row, method, points, preds.tolist(), sds.tolist(),
                                sizes.tolist(), statuses.tolist()), range(P))


def _map_row(method, points, preds, sds, sizes, statuses, i: int) -> MapRow:
    """The row of point i of a block, from the block's stacked results."""
    if statuses[i] != STATUS_OK:
        return MapRow(points[i], None, statuses[i])
    return MapRow(points[i], KrigingResult(preds[i], sds[i], sizes[i], method), STATUS_OK)


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

    The map works block by block (`_map_blocks`). A block ends where the
    bytes it holds at once would pass MAP_BYTES: its distances to the n
    data locations, 8 n per point, and the factors of its new neighbour
    sets, 8 m^2 per set of m locations (a set of the block before is reused,
    not factored or counted again). One search of the points ahead gives
    every neighbour set of a block and every point's cross lags. Duplicate
    locations are dropped once per map (they lie at the same distance, so
    they enter and leave a set together), with one warning. The points of
    one numbered set share its factored system. The sets new to a block (a
    set of the previous block is reused) are grouped by size: a group's
    designs and Gram matrices are sliced from one basis and one covariance
    evaluation over the union of the new sets, checked as one stack and
    factored in one `chol_with_jitter` call, and its residuals taken in one
    stacked product. The cross-covariances of the block take one more
    evaluation. Both evaluations follow `covariance_values`, and the
    factorisation its rule: a lag or value that is not finite is NaN, as is
    the factor of a set past the jitter ladder, and fails only the set or
    point that holds it. A row is ok when its prediction and sd are finite.
    The trend terms (f0, or Bayes' Phi f0, f0'mu and f0'Phi f0) take one
    basis evaluation and three stacked products.

    The points of one stack of factors are then predicted together
    (`_block_rows`): per point, only its two triangular solves against a
    view of its set's factor run in Python (`_linalg.chol_solve_each`).
    The right-hand sides, the dot products, the variances with their clamp
    rule (`_finish_sd`) and the statuses are stacked numpy steps whose
    items keep the bits of the point's own products, so a row equals the
    single-point predictor's. Each point then only builds its row.
    A global radius gives one set, so the whole map factors one matrix.

    Memory: besides the block's budget, the map keeps the previous block's
    factors (with the stacks they were factored in) for the sets it reuses,
    and the search ahead keeps the member mask and cross lags of at most
    MAP_BYTES // (8 n) points. While a group is factored, its gathered Gram
    matrices and factors are held together. The stacked steps hold vectors
    of the points (P x m floats), and no factor is copied per point.
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

    dropped = np.zeros(len(data), dtype=bool)
    clamped = clamped_variance_count()
    rows, previous = [], {}
    for block, _ in _map_blocks(grid, data.locations, radius, min_neighbors,
                                lambda block: _factor_bytes(previous, block)):
        dropped |= block.dropped
        keys = [idx.tobytes() for idx in block.sets]
        systems = [previous.get(key) for key in keys]
        new = [j for j, system in enumerate(systems) if system is None]
        if new:
            for j, system in zip(new, _factor_sets(method, data, [block.sets[j] for j in new],
                                                   spec, mean, basis, prior)):
                systems[j] = system
        previous = dict(zip(keys, systems))
        rows += _block_rows(method, block, systems, spec,
                            _point_terms(method, block.points, basis, prior))
    _warn_dropped(dropped, "kriging neighborhoods of the map", stacklevel=2)
    _warn_clamped(clamped, f"{method} kriging", stacklevel=2)
    return rows


def krige_map_csv(rows) -> str:
    """`x,y,prediction,sd,n_neighbors,status` serialization of a map. Each
    row's location becomes Python floats in one `tolist`, and every float
    prints as its `repr`, the text of `util.fmt_float`."""
    lines = ["x,y,prediction,sd,n_neighbors,status"]
    for location, result, status in rows:
        x, y = location.tolist()[:2]
        if result is None:
            lines.append(f"{x!r},{y!r},,,0,{status}")
        else:
            lines.append(f"{x!r},{y!r},{result.prediction!r},{result.sd!r},"
                         f"{result.n_neighbors},{status}")
    return "\n".join(lines) + "\n"
