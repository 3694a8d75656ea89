"""Simple, ordinary, universal and Bayes kriging with exact error variances.

All predictors share the covariance convention that the nugget contributes
only at exactly zero distance, a diagonal-jitter ladder for degenerate
Gram matrices, and a clamp-to-zero policy for small negative variances
produced by floating cancellation (counted, warned, never silent).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_with_jitter, spd_solve
from .empvario import SpatialDataset
from .exceptions import DomainError, NumericError, SingularMatrixError
from .models import covariance_matrix
from .util import fmt_float, parallel_map

MIN_NEIGHBORS = 4  # map points need strictly more than this many neighbors

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
        # incremental rank check pins down the first dependent column
        for k in range(1, F.shape[1] + 1):
            if np.linalg.matrix_rank(F[:, :k]) < k:
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


def neighborhood(data: SpatialDataset, x0, radius: float) -> SpatialDataset | None:
    """Points within `radius` of x0 (boundary included), original order.

    Returns None for an empty neighborhood (SpatialDataset cannot be empty).
    """
    if not radius > 0.0:  # also rejects NaN
        raise DomainError("search radius must be > 0")
    x0 = np.asarray(x0, dtype=float).ravel()
    dist = np.sqrt(((data.locations - x0) ** 2).sum(axis=1))
    keep = dist <= radius
    if not np.any(keep):
        return None
    return data.subset(keep)


def _dedupe(data: SpatialDataset) -> SpatialDataset:
    """Drop exact duplicate locations, keeping the first occurrence."""
    locs = data.locations
    _, first = np.unique(locs, axis=0, return_index=True)
    if first.size == len(data):
        return data
    keep = np.zeros(len(data), dtype=bool)
    keep[first] = True
    warnings.warn(
        f"dropped {len(data) - first.size} duplicate locations from the "
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
    data = _dedupe(data)
    K, c0, c00 = _system(spec, data, x0)
    lam = spd_solve(K, c0)
    pred = mean + lam @ (data.values - mean)
    var = c00 - lam @ c0
    return KrigingResult(float(pred), _finish_sd(float(var), c00, "simple kriging"),
                         len(data), "simple")


def _ordinary(x0, data: SpatialDataset, spec):
    """Deduplicated data, weights w, Lagrange multiplier nu, c0 and C(0).

    One stacked solve K [a, b] = [c0, 1]; nu = (1'a - 1)/(1'b), w = a - nu b.
    """
    data = _dedupe(data)
    if len(data) < 2:
        raise DomainError("ordinary kriging needs at least 2 data points")
    K, c0, c00 = _system(spec, data, x0)
    one = np.ones(len(data))
    ab = spd_solve(K, np.column_stack([c0, one]))
    a, b = ab[:, 0], ab[:, 1]
    denom = one @ b
    if denom == 0.0 or not math.isfinite(denom):
        raise SingularMatrixError("ordinary kriging constraint system is singular")
    nu = (one @ a - 1.0) / denom
    return data, a - nu * b, float(nu), c0, c00


def ordinary_weights(x0, data: SpatialDataset, spec) -> tuple[np.ndarray, float]:
    """Sum-to-one kriging weights and the Lagrange multiplier."""
    _, w, nu, _, _ = _ordinary(x0, data, spec)
    return w, nu


def ordinary_kriging(x0, data: SpatialDataset, spec) -> KrigingResult:
    """Constant unknown mean; weights constrained to sum to one.

    Error variance C(0) - c0'w - nu with nu the Lagrange multiplier.
    """
    data, w, nu, c0, c00 = _ordinary(x0, data, spec)
    pred = w @ data.values
    var = c00 - c0 @ w - nu
    return KrigingResult(float(pred), _finish_sd(float(var), c00, "ordinary kriging"),
                         len(data), "ordinary")


def _gls(data: SpatialDataset, spec, basis: TrendBasis, x0=None):
    """(data, F, M, beta, cross) with M = F'K^-1 F and beta = M^-1 F'K^-1 z
    from one factorisation of K; at x0, cross = (c0, C(0), K^-1 c0)."""
    data = _dedupe(data)
    F = basis.design(data.locations)
    k = F.shape[1]
    if len(data) < k:
        raise DomainError("need at least as many points as basis functions")
    if x0 is None:
        K, rhs = covariance_matrix(spec, data.locations), F
    else:
        K, c0, c00 = _system(spec, data, x0)
        rhs = np.column_stack([F, c0])
    sol = spd_solve(K, rhs)
    KiF = sol[:, :k]
    M = F.T @ KiF
    beta = np.linalg.solve(M, KiF.T @ data.values)
    cross = None if x0 is None else (c0, c00, sol[:, k])
    return data, F, M, beta, cross


def gls_beta(data: SpatialDataset, spec, basis: TrendBasis) -> np.ndarray:
    """Generalized least-squares trend estimate (F'K^-1 F)^-1 F'K^-1 z."""
    return _gls(data, spec, basis)[3]


def universal_kriging(x0, data: SpatialDataset, spec, basis: TrendBasis) -> KrigingResult:
    """Unknown linear trend over the basis; GLS plug-in predictor.

    Prediction f0' beta_gls + c0' K^-1 (z - F beta_gls); the error variance
    is C(0) - c0' K^-1 c0 + g' (F'K^-1 F)^-1 g with g = f0 - F'K^-1 c0.
    """
    data, F, M, beta, (c0, c00, Kic0) = _gls(data, spec, basis, x0)
    f0 = basis.at(x0)
    pred = f0 @ beta + Kic0 @ (data.values - F @ beta)
    g = f0 - F.T @ Kic0
    var = c00 - c0 @ Kic0 + g @ np.linalg.solve(M, g)
    return KrigingResult(float(pred), _finish_sd(float(var), c00, "universal kriging"),
                         len(data), "universal")


def _bayes_moments(x0, data: SpatialDataset, spec, F, f0, mu, phi):
    """Mean, Schur-complement variance and C(0) of the Bayes predictor at
    x0, with weights lambda solving (K + F Phi F') lambda = c0 + F Phi f0."""
    K, c0, c00 = _system(spec, data, x0)
    Kb = K + F @ phi @ F.T
    cb = c0 + F @ (phi @ f0)
    lam = spd_solve(Kb, cb)
    mean = f0 @ mu + lam @ (data.values - F @ mu)
    var = c00 + f0 @ phi @ f0 - cb @ lam
    return float(mean), float(var), c00


def bayes_kriging(x0, data: SpatialDataset, spec, basis: TrendBasis,
                  prior: BayesPrior) -> KrigingResult:
    """Kriging under a first-two-moments prior on the trend coefficients.

    Prediction f0'mu + (c0 + F Phi f0)' (K + F Phi F')^-1 (z - F mu); the
    total mean squared error of prediction is
    C(0) + f0' Phi f0 - (c0 + F Phi f0)' (K + F Phi F')^-1 (c0 + F Phi f0).
    Phi = 0 reproduces simple kriging with mean f0'mu; an arbitrarily flat
    prior reproduces universal kriging.
    """
    data = _dedupe(data)
    F = basis.design(data.locations)
    if prior.mu.size != F.shape[1]:
        raise DomainError("prior dimension does not match the trend basis")
    pred, var, c00 = _bayes_moments(x0, data, spec, F, basis.at(x0), prior.mu, prior.phi)
    return KrigingResult(pred, _finish_sd(var, c00, "bayes kriging"),
                         len(data), "bayes")


# -- gridded prediction maps ---------------------------------------------------

STATUS_OK = "ok"
STATUS_FEW = "too_few_neighbors"
STATUS_NUMERIC = "numeric_failure"


@dataclass(frozen=True)
class MapRow:
    location: np.ndarray
    result: KrigingResult | None
    status: str


def _predict(method, x0, subset, spec, mean, basis, prior):
    if method == "simple":
        return simple_kriging(x0, subset, spec, mean)
    if method == "ordinary":
        return ordinary_kriging(x0, subset, spec)
    if method == "universal":
        return universal_kriging(x0, subset, spec, basis)
    if method == "bayes":
        return bayes_kriging(x0, subset, spec, basis, prior)
    raise DomainError(f"unknown kriging method {method!r}")


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
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise DomainError("grid must not be empty")
    if method in ("universal", "bayes") and basis is None:
        raise DomainError(f"{method} kriging needs a trend basis")
    if method == "bayes" and prior is None:
        raise DomainError("bayes kriging needs a prior")

    def one(i: int) -> MapRow:
        x0 = grid[i]
        subset = neighborhood(data, x0, radius)
        if subset is None or len(subset) <= min_neighbors:
            return MapRow(x0, None, STATUS_FEW)
        try:
            res = _predict(method, x0, subset, spec, mean, basis, prior)
        except (NumericError, DomainError):
            return MapRow(x0, None, STATUS_NUMERIC)
        if not (math.isfinite(res.prediction) and math.isfinite(res.sd)):
            return MapRow(x0, None, STATUS_NUMERIC)
        return MapRow(x0, res, STATUS_OK)

    return parallel_map(one, range(grid.shape[0]))


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
