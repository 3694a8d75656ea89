"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned once per map or call,
never silent). Maps and `bayes` densities build and number a run's
neighbour sets and lay out its cross lags in `_neighbour_sets`, which drops
duplicate locations (warned once).

Kriging maps and density maps run one run driver, `_map_runs`, under one
byte budget, MAP_BYTES: fixed runs of consecutive grid points, one
neighbour search each, whose sets are factored in chunks sorted by size
(`_chunks`). A chunk's systems are factored and solved one way, in two
steps. `_prepare` builds what no covariance spec changes, once per chunk:
the size groups of its neighbour sets, their trend designs and rank
checks, and one lag vector. `_solve` runs on a sequence of specs: one
covariance evaluation of that vector per spec, one factorisation per size
group under all the specs whose stack fits the budget, and the stacked
predictions. A kriging map runs it once per chunk on its one spec, and
carries the factors of a run's last chunk into the next run. A density
map, which is the constant-trend Bayes kriging map under each posterior
draw, runs it once per chunk and draw slice (`_spec_slices`), so a draw
is a stack axis, not a loop. Per (spec, point) item, only its triangular
solves against its set's factor (`_linalg.chol_solve_each`) run in
Python; the right-hand sides, the dot products, the variances and the
statuses are stacked numpy steps over the items of one stack of factors
(`_predictions`, `_finish_sd`), whose items keep the bits of the point's
own products. The single-point predictors run the same steps on a stack
of one point."""

import warnings
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._linalg import chol_solve, chol_solve_each, chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError, SingularMatrixError
from .models import (_distinct_rows, covariance_matrix, covariance_values, distances,
                     pair_distances)
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


# The one byte budget of kriging and density maps (see `_map_runs` and
# `_chunks`).
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
    eighth of the points whose distances alone would fill the budget, so
    that their differences and masks stay well within it too."""
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
    """The location-independent half of one predictor on a stack of
    neighbour sets of one size: their data values (S, n) and the Cholesky
    factors L (S, n, n) of K (Bayes: K + F Phi F'). Simple kriging adds
    resid = z - m; Bayes kriging the designs F (S, n, k) and
    resid = z - F mu; universal kriging the designs, M = F'K^-1 F (S, k, k),
    the GLS trends beta (S, k) and resid = z - F beta. Item i of the stack is
    `(fac, i)`: a set under one spec, or, for a density, a (draw, set) pair.
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
    """Factor the systems of G checked sets of one size under D specs at
    once: their data values (G, n), trend designs F (G, n, k) (universal and
    Bayes kriging, else None) and covariances K (D G, n, n), whose item
    d G + g is set g under spec d, as is the item of the stack returned.
    The D G matrices, K or Bayes' K + F Phi F' (added to K in place), take
    one `chol_with_jitter` call, in which a matrix past the jitter ladder
    gets a NaN factor, and so NaN solves and predictions. What no spec
    changes is formed once per set and repeated for each spec: F Phi F',
    and Bayes' residuals, each item the product F mu of its set alone."""
    specs, n = len(K) // len(values), values.shape[1]
    if method == "bayes":
        K = K.reshape(specs, -1, n, n)
        K += F @ prior.phi @ F.transpose(0, 2, 1)
        K = K.reshape(-1, n, n)
    L, _ = chol_with_jitter(K)
    resid = values - (np.matmul(F, prior.mu[:, None])[:, :, 0] if method == "bayes" else mean)
    values, F, resid = (a if a is None or specs == 1 else np.concatenate([a] * specs)
                        for a in (values, F, resid))
    if method == "universal":
        KiF = [chol_solve(L[g], F[g]) for g in range(len(L))]
        M = np.stack([F[g].T @ KiF[g] for g in range(len(L))])
        beta = np.stack([np.linalg.solve(M[g], KiF[g].T @ values[g]) for g in range(len(L))])
        return _Factored(method, values, L, F=F, M=M, beta=beta,
                         resid=values - np.matmul(F, beta[:, :, None])[:, :, 0])
    return _Factored(method, values, L, mean=mean, resid=resid, F=F)


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
            # f0'mu + lambda'(z - F mu) and the Schur complement
            # C(0) + f0'Phi f0 - cb'lambda, lambda solving (K + F Phi F') lambda = cb
            return mean0 + _dots(lam, fac.resid[which]), (c00 + quad) - _dots(cb, lam)
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
    """A run of consecutive grid points of a map and their neighbour search
    (`_neighbour_sets`): the points, the number of each point's set (-1 when
    it is not served), the distinct index sets, the cross lags of the served
    points (point i's at `cross[starts[i]:starts[i + 1]]`), and the mask of
    the duplicate locations dropped from the sets."""

    points: np.ndarray
    set_of: np.ndarray
    sets: list
    cross: np.ndarray
    starts: np.ndarray
    dropped: np.ndarray


def _map_runs(grid, locations, radius: float, least: int, extra: int):
    """The one run driver of kriging and density maps: yields `grid` in
    consecutive runs of MAP_BYTES // (8 n + extra) points, at least one, each
    the `_Block` of one neighbour search over the n data `locations` (see
    `_neighbour_sets` for `radius` and `least`). A point's 8 n bytes are its
    distances; `extra` is what the map keeps per point besides: 0 for a
    kriging map, and 16 T for a density map's moments under T draws. A
    duplicate location is dropped where its first occurrence is a member of
    a set of the run, as it lies at the same distance."""
    first = _first_occurrences(locations)
    keep = first == np.arange(len(locations))
    size = max(1, MAP_BYTES // (8 * len(locations) + extra))
    for start in range(0, len(grid), size):
        points = grid[start:start + size]
        member, set_of, sets, cross, starts = _neighbour_sets(points, locations, keep, radius,
                                                              least)
        yield _Block(points, set_of, sets, cross, starts, np.any(member, axis=0)[first] & ~keep)


def _chunks(sets, numbers):
    """The sets `numbers` of a run in chunks to factor together: in the order
    of their sizes (a stable sort), cut so that each chunk's factors and
    their gather indices, 16 m^2 bytes per set of m locations, stay within
    MAP_BYTES. A chunk holds one set at least."""
    chunk, held = [], 0
    for j in sorted(numbers, key=lambda j: sets[j].size):
        size = 16 * sets[j].size ** 2
        if chunk and held + size > MAP_BYTES:
            yield chunk
            chunk, held = [], 0
        chunk.append(j)
        held += size
    if chunk:
        yield chunk


class MapRow(NamedTuple):
    location: np.ndarray
    result: KrigingResult | None
    status: str


class _Prepared(NamedTuple):
    """The half of a chunk's systems that no covariance spec changes
    (`_prepare`), for `_solve`.

    `lags` holds the distances of the location pairs that share a new set of
    the chunk, then the cross lags of the chunk's points. Each size group of
    the new sets that pass their checks is (the index (G, n, n) that gathers
    its matrices from the lags, its data values (G, n), its trend designs
    (G, n, k) or None). `reused` holds the factored stacks (`_Factored`) of
    the reused sets. A stack, the groups' first and then the reused ones, is
    (its points in the run, their items in it, where their cross rows
    [C(0), c0] start in the lags, one row of n + 1 lags after another, their
    trend terms). `set_stack` and `set_item` give each set's stack and item
    (-1 where the set is not in the chunk or fails its checks)."""

    lags: np.ndarray
    groups: list
    reused: list
    stacks: list
    set_stack: np.ndarray
    set_item: np.ndarray


def _prepare(method, data: SpatialDataset, block: _Block, new, reused, basis,
             terms) -> _Prepared:
    """The spec-independent half of the systems of a chunk of a run's sets:
    the sets `new`, to be factored, and the sets of the dict `reused`, each
    with its `(fac, g)`, factored before. `terms` are the run's
    `_point_terms`.

    The new sets form one group per size. Their trend designs are rows of
    one basis evaluation over the union of the new sets, and each group's
    rank checks run on its whole stack (`_passing`); a set that fails them
    leaves its group. The lags take each location pair that shares a new
    set once, a pair and its mirror as one (the distances are symmetric bit
    for bit), not every pair of the union; a group's gather index is read
    off the numbering of those pairs over the union."""
    set_stack = np.full(len(block.sets) + 1, -1)  # the last entry stands for -1
    set_item = np.zeros(len(block.sets) + 1, dtype=int)
    by_size = {}
    for j in new:
        by_size.setdefault(block.sets[j].size, []).append(j)
    groups, pair_lags = [], np.zeros(0)
    if by_size:
        member = np.zeros(len(data.values), dtype=bool)  # np.unique would import numpy.ma
        member[np.concatenate([block.sets[j] for j in new])] = True
        union = np.flatnonzero(member)
        locations = data.locations[union]
        design = basis.evaluate(locations) if method in ("universal", "bayes") else None
        shared = np.zeros((union.size, union.size), dtype=bool)
        for n, js in by_size.items():
            js = np.array(js)
            pos = np.searchsorted(union, np.stack([block.sets[j] for j in js]))
            F = None if design is None else design[pos]
            keep = np.flatnonzero(np.broadcast_to(_passing(method, n, F), len(js)))
            if keep.size == 0:
                continue
            set_stack[js[keep]], set_item[js[keep]] = len(groups), np.arange(keep.size)
            shared[pos[keep, :, None], pos[keep, None, :]] = True
            groups.append((pos[keep], data.values[union[pos[keep]]],
                           None if F is None else F[keep]))
        lo, hi = np.nonzero(np.triu(shared))
        pairs = np.zeros(shared.shape, dtype=int)
        pairs[lo, hi] = pairs[hi, lo] = np.arange(lo.size)
        pair_lags = pair_distances(locations[lo], locations[hi])
        groups = [(pairs[pos[:, :, None], pos[:, None, :]], z, F) for pos, z, F in groups]
    stacked = {}  # id of a reused stack -> its place among them, the stack
    for j, (fac, g) in reused.items():
        set_stack[j] = len(groups) + stacked.setdefault(id(fac), (len(stacked), fac))[0]
        set_item[j] = g
    reused = [fac for _, fac in stacked.values()]
    stack_of, item_of = set_stack[block.set_of], set_item[block.set_of]
    lags, stacks, at = [pair_lags], [], pair_lags.size
    for s, n in enumerate([values.shape[1] for _, values, _ in groups] +
                          [fac.values.shape[1] for fac in reused]):
        pts = np.flatnonzero(stack_of == s)
        lags.append(block.cross[block.starts[pts, None] + np.arange(n + 1)].ravel())
        stacks.append((pts, item_of[pts], at, tuple(t[pts] for t in terms)))
        at += lags[-1].size
    return _Prepared(np.concatenate(lags), groups, reused, stacks, set_stack, set_item)


def _spec_slices(specs: int, each: int):
    """Slices of `specs` covariance specs to take together: as many as keep
    `each` bytes per spec within half of MAP_BYTES, one at least. A
    density's draw slice holds its values of a chunk's lags, 8 bytes per lag
    and draw, in one half; a stack of a size group under the specs of a
    slice, its factors and gathered matrices, 16 n^2 bytes per set of n
    locations and spec, in the other. Under one spec, a chunk's size group
    is one stack, as `_chunks` keeps it within MAP_BYTES."""
    step = max(1, MAP_BYTES // (2 * max(each, 1)))
    return [slice(d, d + step) for d in range(0, specs, step)]


def _solve_stack(fac: _Factored, stack, values, out):
    """Writes the predictions, variances and, where `out` has a third array,
    C(0) of the points of `stack` under each of the D specs of `fac` into
    row d of `out`'s arrays (D, points of the run). Row d of `values` holds
    the lags' values under spec d, and item d G + g of `fac` is the stack's
    set g under it. Each (spec, point) pair is one item of one
    `_predictions` call."""
    pts, which, at, terms = stack
    specs, n = len(values), fac.values.shape[1]
    rows = values[:, at:at + pts.size * (n + 1)].reshape(-1, n + 1)
    if specs > 1:
        which = (np.arange(specs)[:, None] * (len(fac.values) // specs) + which).ravel()
        terms = tuple(np.concatenate([t] * specs) for t in terms)
    for array, result in zip(out, (*_predictions(fac, which, terms, rows[:, 1:], rows[:, 0]),
                                   rows[:, 0])):
        array[:, pts] = result.reshape(specs, -1)


def _solve(method, prepared: _Prepared, specs, mean, prior, out):
    """The per-spec half of a chunk's systems under a sequence of D
    covariance specs: a kriging map passes its one spec, a density map a
    slice of its posterior draws. Writes the predictions, variances and,
    where `out` has a third array, C(0) of the chunk's points under spec d
    into row d of `out`'s arrays (D, points of the run). Under one spec it
    returns the factored stacks, the groups' and then the reused ones, for
    a kriging map's carry; under several it keeps none, so that no stack
    outlives its predictions.

    The lags take one covariance evaluation per spec (`covariance_values`),
    into one (D, lags) array. Each size group is gathered from it and
    factored under the specs of one `_spec_slices` slice in one call
    (`_factor`): under all D where its stack fits, and under one spec in
    one call in any case. The (spec, point) items of each stack are then
    predicted together (`_solve_stack`). A lag or value that is not finite
    is NaN, as is the factor of a system past the jitter ladder, and fails
    only the sets, specs and points that hold it."""
    lags = prepared.lags
    if len(specs) == 1:  # a kriging map: its one evaluation is the array, uncopied
        values = covariance_values(specs[0], lags)[None]
    else:
        values = np.empty((len(specs), lags.size))
        for d, spec in enumerate(specs):
            values[d] = covariance_values(spec, lags)
    facs = []
    for (gather, z, F), stack in zip(prepared.groups, prepared.stacks):
        n = z.shape[1]
        for some in _spec_slices(len(specs), 16 * n * n * len(z)):
            fac = _factor(method, z, F, values[some][:, gather].reshape(-1, n, n), mean, prior)
            _solve_stack(fac, stack, values[some], [array[some] for array in out])
        if len(specs) == 1:
            facs.append(fac)
    for fac, stack in zip(prepared.reused, prepared.stacks[len(prepared.groups):]):
        _solve_stack(fac, stack, values, out)
        facs.append(fac)
    return facs


def _run_rows(method, block: _Block, data: SpatialDataset, carry, spec, mean, basis, prior):
    """The rows of a run's points, and the carry for the run after it.

    `carry` maps the key (index bytes) of each set of the last chunk of the
    run before that passed its checks to its `(fac, g)`. This run's sets
    with those keys are solved first, on those factors; then, if the run
    has sets of its own, the carry is emptied, so that its stacks are let go
    before anything new is factored, and the new sets are prepared, factored
    and solved chunk by chunk (`_chunks`, `_prepare`, `_solve`). Their last
    chunk is the next carry; a run with no new set passes its carry on.
    A point is ok when its prediction and sd are finite (`_finish_sd`): a
    NaN among its values, a NaN factor or a failed solve makes it a numeric
    failure. Then each point only builds its row, one `parallel_map` item
    per point."""
    terms = _point_terms(method, block.points, basis, prior)
    out = np.full((3, 1, len(block.points)), np.nan)
    keys = [idx.tobytes() for idx in block.sets]
    reused = {j: carry[key] for j, key in enumerate(keys) if key in carry}
    if reused:
        _solve(method, _prepare(method, data, block, [], reused, basis, terms), [spec], mean,
               prior, out)
    new = [j for j in range(len(keys)) if j not in reused]
    if new:
        reused = None
        carry.clear()
        for chunk in _chunks(block.sets, new):
            facs = prepared = None  # the chunk before is let go before this one is built
            prepared = _prepare(method, data, block, chunk, {}, basis, terms)
            facs = _solve(method, prepared, [spec], mean, prior, out)
        carry = {keys[j]: (facs[s], g) for j, s, g in
                 zip(chunk, prepared.set_stack[chunk].tolist(), prepared.set_item[chunk].tolist())
                 if s >= 0}
    pred, var, c00 = out[:, 0]
    sd = _finish_sd(var, c00)
    ok = np.isfinite(pred) & np.isfinite(sd)
    code = (block.set_of >= 0).astype(int) + ok  # 0 too few neighbours, 1 failed, 2 ok
    statuses = np.array([STATUS_FEW, STATUS_NUMERIC, STATUS_OK], dtype=object)[code]
    rows = parallel_map(partial(_map_row, method, block.points, pred.tolist(), sd.tolist(),
                                (np.diff(block.starts) - 1).tolist(), statuses.tolist()),
                        range(len(block.points)))
    return rows, carry


def _map_row(method, points, preds, sds, sizes, statuses, i: int) -> MapRow:
    """The row of point i of a run, from the run's stacked results."""
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

    The map works run by run (`_map_runs`): fixed runs of
    MAP_BYTES // (8 n) consecutive grid points, as many as fill the budget
    with their distances to the n data locations. One search per run gives
    every neighbour set of the run, numbered once, and every point's cross
    lags. Duplicate locations are dropped once per map (they lie at the
    same distance, so they enter and leave a set together), with one
    warning. The points of one numbered set share its factored system.

    A run's sets are factored in chunks (`_chunks`): sorted by size, and cut
    so that each chunk's factors and their gather indices, 16 m^2 bytes per
    set of m locations, stay within MAP_BYTES. The factors of the last
    chunk of a run are carried into the next run, which solves the sets it
    shares with them first and lets them go before it factors anything new
    (a run with no set of its own passes them on). So each distinct set of
    a run is factored once, and a global radius gives one set, so the whole
    map factors one matrix.

    Each chunk takes two steps. `_prepare` does what no spec changes: it
    groups the chunk's sets by size, checks their trend designs, rows of
    one basis evaluation over the union of the chunk's sets, as one stack
    per group, and lays out one lag vector, the distances of the location
    pairs that share a set of the chunk and the cross lags of the chunk's
    points. `_solve` evaluates that vector once (`covariance_values`),
    factors each group in one `chol_with_jitter` call and predicts the
    points of one stack of factors together (`_predictions`): per point,
    only its two triangular solves against a view of its set's factor run
    in Python (`_linalg.chol_solve_each`). The right-hand sides, the dot
    products, the variances with their clamp rule (`_finish_sd`) and the
    statuses are stacked numpy steps whose items keep the bits of the
    point's own products, so a row equals the single-point predictor's. A
    lag or value that is not finite is NaN, as is the factor of a set past
    the jitter ladder, and fails only the set or point that holds it; a row
    is ok when its prediction and sd are finite. The trend terms (f0, or
    Bayes' Phi f0, f0'mu and f0'Phi f0) take one basis evaluation per run
    and three stacked products. Each point then only builds its row.

    Memory: a run keeps its distances' member mask and cross lags and its
    points' results; a chunk, its factors and their gather indices, within
    MAP_BYTES, and a size group's gathered Gram matrices while it is
    factored; and the map, the carried factors of one chunk until the next
    run factors its own. A chunk holds one set at least, so a set whose
    factor passes the budget is held alone. The stacked steps hold vectors
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
    rows, carry = [], {}
    for block in _map_runs(grid, data.locations, radius, min_neighbors, 0):
        dropped |= block.dropped
        run_rows, carry = _run_rows(method, block, data, carry, spec, mean, basis, prior)
        rows += run_rows
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
