"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned once per map or call,
never silent). Maps and `bayes` densities build their neighbour sets in
`_neighbour_sets`, which drops duplicate locations, also warned once.

A map works in blocks of grid points sized by a distance budget (see
`_block_size`): at least MAP_BLOCK points, and as many more as keep the
block's distances to the data within MAP_DISTANCES. A block factors its new
neighbour sets in stacks of one size. Per point, only its triangular solves
against its set's factor (`_linalg.chol_solve_each`) and building its row
run in Python; the right-hand sides, the dot products, the variances and
the statuses are stacked numpy steps over the points of one stack of
factors (`_predictions`, `_finish_sd`), whose items keep the bits of the
point's own products. The single-point predictors run the same steps on a
stack of one point."""

import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._linalg import chol_solve, chol_solve_each, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError, SingularMatrixError
from .models import covariance_matrix, covariance_values, distances
from .util import KRIGE_METHODS, MIN_NEIGHBORS, parallel_map

_diagnostics = {"clamped_variances": 0}


def clamped_variance_count() -> int:
    """How many negative prediction variances were clamped to zero."""
    return _diagnostics["clamped_variances"]


def _tolerance(scale):
    """How far below zero the variances of points with C(0) = scale may
    fall before they fail: 1e-10 max(1, scale)."""
    return 1e-10 * np.fmax(1.0, scale)


def _finish_sd(variance, scale, failed):
    """Standard deviations of P points from their variances (P,) and C(0)
    (P,), leaving out the points of the mask `failed`: a variance within
    `_tolerance` below zero is clamped to 0 and counted, and one below
    that gives NaN."""
    clamped = ~failed & (variance < 0.0) & (variance >= -_tolerance(scale))
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
    K + F Phi F', take one `chol_with_jitter` call; NumericError when any
    of them fails. The residuals take one stacked product, each item the
    product F mu (or F beta) of its set alone."""
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
    """Weights w (P, n), Lagrange multipliers nu (P,) and the mask of the
    failed points, for P points on the sets `which` of the factor stack L
    with cross-covariances c0 (P, n). Per point one solve K [a, b] = [c0, 1];
    nu = (1'a - 1)/(1'b) and w = a - nu b. A point fails when its solve
    does, or when 1'b is 0 or not finite (its constraint system is
    singular); its w and nu are then NaN."""
    ab = np.empty((c0.shape[0], 2, c0.shape[1]))
    ab[:, 0], ab[:, 1] = c0, 1.0
    failed = chol_solve_each(L, which, ab.transpose(0, 2, 1))
    a, b = ab[:, 0], ab[:, 1]
    one = np.ones(c0.shape[1])
    denom = _dots(one, b)
    failed |= (denom == 0.0) | ~np.isfinite(denom)
    with np.errstate(all="ignore"):
        nu = np.where(failed, np.nan, (_dots(one, a) - 1.0) / denom)
        return a - nu[:, None] * b, nu, failed


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
    (Phi f0, f0'mu, f0' Phi f0) (Bayes kriging) or none."""
    if method == "universal":
        return (basis.evaluate(points),)
    if method == "bayes":
        return _bayes_terms(basis.evaluate(points), prior.mu, prior.phi)
    return ()


def _predictions(fac: _Factored, which, terms, c0, c00):
    """Predictions and variances (P,) of P points on the sets `which` of
    `fac`, given their `_point_terms`, cross-covariances c0 (P, n) and C(0)
    (P,), and the mask of the points whose solve failed (their values are
    NaN). Per point, only its triangular solves run in Python; the rest
    are stacked per-item products with the bits of the point's own."""
    method, L = fac.method, fac.L
    with np.errstate(all="ignore"):
        if method == "ordinary":
            w, nu, failed = _ordinary_weights(L, which, c0)
            return _dots(w, fac.values[which]), c00 - _dots(c0, w) - nu, failed
        if method == "bayes":
            phif0, mean0, quad = terms
            cb = c0 + np.matmul(fac.F[which], phif0[:, :, None])[:, :, 0]
            lam = cb.copy()
            failed = chol_solve_each(L, which, lam)
            return (*_bayes_moments(cb, lam, fac.resid[which], mean0, c00 + quad), failed)
        lam = np.array(c0)
        failed = chol_solve_each(L, which, lam)
        if method == "simple":
            return fac.mean + _dots(lam, fac.resid[which]), c00 - _dots(lam, c0), failed
        [f0] = terms
        gap = f0 - np.matmul(fac.F[which].transpose(0, 2, 1), lam[:, :, None])[:, :, 0]
        spread = _dots(gap, np.linalg.solve(fac.M[which], gap[:, :, None])[:, :, 0])
        return (_dots(f0, fac.beta[which]) + _dots(lam, fac.resid[which]),
                c00 - _dots(c0, lam) + spread, failed)


def _predict(method, x0, subset, spec, mean, basis, prior) -> KrigingResult:
    """One prediction: the set and point halves over one covariance
    evaluation of [x0; locations], on a stack of one point."""
    data = _dedupe(subset)
    F = _checked(method, data.locations, basis)
    K, c0, c00 = _system(spec, data, x0)
    fac = _factor(method, data.values[None], None if F is None else F[None], K[None],
                  mean, prior)
    clamped = clamped_variance_count()
    terms = _point_terms(method, np.asarray(x0, dtype=float).reshape(1, -1), basis, prior)
    c00 = np.array([c00])
    pred, var, failed = _predictions(fac, np.zeros(1, dtype=int), terms, c0[None], c00)
    if failed[0]:
        raise SingularMatrixError(f"{method} kriging system is singular at this point")
    tol = _tolerance(c00[0])
    if var[0] < -tol:
        raise NumericError(f"{method} kriging produced variance {var[0]} below -{tol}")
    sd = _finish_sd(var, c00, failed)
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
    [w], [nu], [failed] = _ordinary_weights(L[None], np.zeros(1, dtype=int), c0[None])
    if failed:
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
    return _factor("universal", data.values[None], F[None], K[None]).beta[0]


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

# A map searches and factors its grid points block by block. A block holds at
# least MAP_BLOCK points, and more while its distances to the n data
# locations fit in MAP_DISTANCES: 655 points at n = 200, MAP_BLOCK from
# n = 1024 on. So a block's search never holds more than
# max(MAP_BLOCK x n, MAP_DISTANCES) distances (1 MiB of floats below n = 1024).
MAP_BLOCK = 128
MAP_DISTANCES = 2**17


def _block_size(n: int) -> int:
    """Grid points per map block over n data locations."""
    return max(MAP_BLOCK, MAP_DISTANCES // n)


class MapRow(NamedTuple):
    location: np.ndarray
    result: KrigingResult | None
    status: str


def _factor_alone(method, values, F, K, mean, prior):
    """The factored system `(fac, 0)` of one set of `_factor`'s arguments,
    or STATUS_NUMERIC."""
    try:
        return _factor(method, values, F, K, mean, prior), 0
    except NumericError:
        return STATUS_NUMERIC


def _factor_sets(method, data: SpatialDataset, sets, spec, mean, basis, prior):
    """The factored system `(fac, g)` of each index set of `data` (set g of
    the stack `fac`), or STATUS_NUMERIC when its checks or its factorisation
    fail.

    Sets of one size form a group. The trend designs of a group are rows of
    one basis evaluation over the union of the sets, checked at once; its
    Gram matrices are gathered with one index from one covariance
    evaluation over that union (`covariance_values`), and the group is
    factored in one call. A set whose gathered Gram matrix is not finite
    leaves its group, as one that fails the rank check does. When the
    group's call fails, each set of the group is factored alone and fails
    alone.
    """
    member = np.zeros(len(data.values), dtype=bool)  # np.unique would import numpy.ma
    member[np.concatenate(sets)] = True
    union = np.flatnonzero(member)
    locations = data.locations[union]
    gram = covariance_values(spec, distances(locations, locations))
    design = basis.evaluate(locations) if method in ("universal", "bayes") else None
    groups = {}
    for j, idx in enumerate(sets):
        groups.setdefault(idx.size, []).append(j)
    systems = [STATUS_NUMERIC] * len(sets)
    for n, members in groups.items():
        idx = np.stack([sets[j] for j in members])
        pos = np.searchsorted(union, idx)
        F = None if design is None else design[pos]
        K = gram[pos[:, :, None], pos[:, None, :]]
        ok = np.all(np.isfinite(K), axis=(1, 2)) & _passing(method, n, F)
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            continue
        values, F, K = data.values[idx[keep]], None if F is None else F[keep], K[keep]
        try:
            fac = _factor(method, values, F, K, mean, prior)
            factored = [(fac, g) for g in range(keep.size)]
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


def _block_rows(method, points, dist, member, set_of, systems, spec, terms) -> list[MapRow]:
    """The rows of a block's points, given their distances to the data,
    their neighbour masks, the number of each point's set in `systems`
    (-1 for too few neighbours), the sets' factored systems `(fac, g)` or
    STATUS_NUMERIC, and the points' `_point_terms`.

    The cross lags of the points with a system, [0, its distances], take one
    covariance evaluation. A NaN among a point's values makes its
    prediction NaN, and so the point a numeric failure. The points of one
    stack of factors are predicted together (`_predictions`); then each
    point only builds its row, one `parallel_map` item per point."""
    stacks = {}  # id of a stack of factors -> (its number, the stack)
    set_stack = np.full(len(systems) + 1, -1)  # the last entry stands for -1
    set_g = np.zeros(len(systems) + 1, dtype=int)
    for j, system in enumerate(systems):
        if system is not STATUS_NUMERIC:
            fac, set_g[j] = system
            set_stack[j] = stacks.setdefault(id(fac), (len(stacks), fac))[0]
    stack_of, which_of = set_stack[set_of], set_g[set_of]
    P = len(points)
    solved = stack_of >= 0
    at_x0 = np.hstack([solved[:, None], member & solved[:, None]])
    flat = np.hstack([np.zeros((P, 1)), dist])[at_x0]
    cross = covariance_values(spec, flat) if flat.size else flat
    counts = np.count_nonzero(at_x0, axis=1)
    starts = np.cumsum(counts) - counts
    code = (set_of >= 0).astype(int)  # 0 too few neighbours, 1 failed, 2 served
    preds, sds, sizes = np.full(P, np.nan), np.full(P, np.nan), np.zeros(P, dtype=int)
    for s, fac in stacks.values():
        pts = np.flatnonzero(stack_of == s)
        n = fac.values.shape[1]
        row = cross[starts[pts, None] + np.arange(n + 1)]
        pred, var, failed = _predictions(fac, which_of[pts], tuple(t[pts] for t in terms),
                                         row[:, 1:], row[:, 0])
        sd = _finish_sd(var, row[:, 0], failed)
        ok = ~failed & np.isfinite(pred) & np.isfinite(sd)
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

    The map works block by block. A block holds `_block_size(n)` points for
    n data locations: at least MAP_BLOCK, and more while the block's n
    distances per point fit in MAP_DISTANCES (655 points at n = 200,
    MAP_BLOCK from n = 1024 on). One distance matrix from the points of a
    block to all data gives every neighbour set of the block and every
    point's cross lags. Duplicate locations are dropped once per map (they
    lie at the same distance, so they enter and leave a set together), with
    one warning. Points with the same neighbour set share one factored
    system. The sets new to a block (a set of the previous block is reused)
    are grouped by size: a group's designs and Gram matrices are sliced
    from one basis and one covariance evaluation over the union of the new
    sets, checked as one stack and factored in one `chol_with_jitter` call,
    its residuals taken in one stacked product, and a group whose call
    fails is factored set by set, so a failing set fails alone. The
    cross-covariances of the block take one more evaluation. Both
    evaluations follow `covariance_values`: a lag or value that is not
    finite is NaN, and fails only the set or point that holds it. The trend
    terms (f0, or Bayes' Phi f0, f0'mu and f0'Phi f0) take one basis
    evaluation and three stacked products.

    The points of one stack of factors are then predicted together
    (`_block_rows`): per point, only its two triangular solves against a
    view of its set's factor run in Python (`_linalg.chol_solve_each`).
    The right-hand sides, the dot products, the variances with their clamp
    rule (`_finish_sd`) and the statuses are stacked numpy steps whose
    items keep the bits of the point's own products, so a row equals the
    single-point predictor's. Each point then only builds its row.
    A global radius gives one set, so the whole map factors one matrix.

    Memory: a block's distances and its cross lags hold at most
    max(MAP_BLOCK x n, MAP_DISTANCES) floats each. A set of m locations
    takes m x m floats of factor; the map keeps the factors of the current
    block's sets and the previous block's (with the stacks they were
    factored in), so a radius that gives many distinct large sets needs
    memory in proportion to the block's size. The stacked steps hold
    vectors of the points (P x m floats), and no factor is copied per
    point.
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
    block = _block_size(len(data))
    for start in range(0, grid.shape[0], block):
        points = grid[start:start + block]
        dist, member, sets, block_dropped = _neighbour_sets(points, data.locations, first,
                                                            radius, min_neighbors)
        dropped |= block_dropped
        keys = [None if idx is None else idx.tobytes() for idx in sets]
        distinct = dict(zip(keys, sets))
        distinct.pop(None, None)
        factored = {key: previous[key] for key in distinct if key in previous}
        new = {key: idx for key, idx in distinct.items() if key not in factored}
        if new:
            factored.update(zip(new, _factor_sets(method, data, list(new.values()), spec,
                                                  mean, basis, prior)))
        previous = factored
        number = {key: j for j, key in enumerate(factored)}
        set_of = np.array([number.get(key, -1) for key in keys])
        rows += _block_rows(method, points, dist, member, set_of, list(factored.values()),
                            spec, _point_terms(method, points, basis, prior))
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
