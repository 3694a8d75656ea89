"""Least-squares fitting of theoretical variograms to empirical ones.

Objectives (b = parameter vector over the non-empty bins i):

  OLS   sum_i (ghat_i - gamma(h_i, b))^2
  WLS   sum_i (ghat_i - gamma(h_i, b))^2 / Var_i,  Var_i = 2 gamma(h_i, b)^2 / n_i
  GLS   r^T V^-1 r with diagonal V_ii = Var_i (numerically identical to WLS)

The variance model is re-evaluated at the current parameters on every
objective evaluation. Minimization is bounded quasi-Newton (L-BFGS-B) with
a relative objective tolerance of 1e-16. Its gradient is the forward
difference L-BFGS-B would take itself, computed from one batched
evaluation of the point and its k forward-perturbed copies (k = number of
parameters), so the search path is the same as with scipy's own
difference. The budget is 40000 point evaluations, k + 1 per step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .empvario import EmpiricalVariogram, VariogramBin
from .exceptions import DomainError, FormatError, NumericError
from .models import (
    EXPONENT_KINDS,
    KINDS,
    CovarianceSpec,
    NestedMaternSpec,
    variogram_eval,
    variogram_rows,
)
from .util import fmt_float, parallel_map

METHODS = ("ols", "wls", "gls")

NESTED_PARAM_NAMES = ("nugget", "sill1", "range1", "nu1", "sill2", "range2", "nu2")

# Bound vectors used by the reference nested-Matern pipeline. They encode
# the Chernobyl-era data scale and are therefore overridable everywhere.
NESTED_LOWER = np.full(7, 0.001)
NESTED_UPPER = np.array([10.0, 18.0, 400.0, 40.0, 18.0, 400.0, 40.0])

MAX_EVALS = 40000
OBJ_RTOL = 1e-16

_PENALTY = 1e100
_N_RESTARTS = 5

# Forward-difference steps of scipy's L-BFGS-B: the absolute step `eps`,
# and the relative step it falls back to where x + eps == x.
_FD_STEP = 1e-8
_FD_REL_STEP = np.finfo(float).eps ** 0.5


@dataclass(frozen=True)
class FitBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("bounds must be equal-length vectors")
        if not np.all(lo < hi):
            raise DomainError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def pairs(self):
        return list(zip(self.lower, self.upper))


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    objective: float
    converged: bool
    n_evals: int
    method: str
    family: str

    def spec(self):
        """Model spec built from the fitted parameters."""
        return _make_spec(self.family, self.params)

    def to_csv_row(self) -> str:
        """`nugget,sill1,...,converged` row; failed fits emit the all-zero
        sentinel params for compatibility with the reference output."""
        params = self.params if self.converged else np.zeros_like(self.params)
        cells = [fmt_float(v) for v in params]
        cells.append(fmt_float(self.objective))
        cells.append("true" if self.converged else "false")
        return ",".join(cells)


def param_names(family: str) -> tuple[str, ...]:
    if family == "nested_matern":
        return NESTED_PARAM_NAMES
    if family not in KINDS:
        raise DomainError(f"unknown model family {family!r}")
    names = ("nugget", "sill", "range")
    if family in ("matern", "stable", "cauchy", "power"):
        names += ("shape",)
    return names


def _make_spec(family: str, params):
    params = [float(v) for v in params]
    if family == "nested_matern":
        return NestedMaternSpec(*params)
    if len(params) == 4:
        return CovarianceSpec(family, params[0], params[1], params[2], params[3])
    return CovarianceSpec(family, params[0], params[1], params[2])


def default_bounds(family: str, emp: EmpiricalVariogram | None = None) -> FitBounds:
    """Reference bound vectors for the nested family; data-driven boxes
    otherwise (requires `emp` for the scale)."""
    if family == "nested_matern":
        return FitBounds(NESTED_LOWER.copy(), NESTED_UPPER.copy())
    names = param_names(family)
    if emp is None:
        raise DomainError(f"default bounds for {family!r} need an empirical variogram")
    bins = emp.nonempty()
    gmax = max(b.gamma_hat for b in bins)
    hmax = max(b.mean_pair_distance for b in bins)
    lo = {"nugget": 0.0, "sill": 1e-3 * gmax, "range": 1e-3 * hmax}
    hi = {"nugget": 2.0 * gmax, "sill": 2.5 * gmax, "range": 4.0 * hmax}
    shape_box = {
        "matern": (0.01, 40.0),
        "stable": (0.01, 2.0),
        "cauchy": (0.01, 20.0),
        "power": (1.0, 10.0),
    }
    lower, upper = [], []
    for name in names:
        if name == "shape":
            a, b = shape_box[family]
        else:
            a, b = lo[name], hi[name]
        lower.append(a)
        upper.append(b)
    return FitBounds(np.array(lower), np.array(upper))


def _emp_arrays(emp: EmpiricalVariogram):
    bins = sorted(emp.nonempty(), key=lambda b: b.mean_pair_distance)
    h = np.array([b.mean_pair_distance for b in bins])
    g = np.array([b.gamma_hat for b in bins])
    n = np.array([b.n_pairs for b in bins], dtype=float)
    return h, g, n


def _row_objectives(model, g, n, method) -> np.ndarray:
    """Objective of every row of a (P, m) block of model values; _PENALTY
    for a row with a non-finite value or a non-positive WLS variance."""
    with np.errstate(all="ignore"):
        ok = np.all(np.isfinite(model), axis=1)
        resid = g - model
        if method == "ols":
            weighted = resid
        else:  # wls and gls share the diagonal variance model
            var = 2.0 * model**2 / n
            ok &= ~np.any(var <= 0.0, axis=1)
            weighted = resid / var
        # one 1-D dot per row: the same reduction for a block and a point
        val = np.array([r @ w for r, w in zip(resid, weighted)])
    return np.where(ok & np.isfinite(val), val, _PENALTY)


def _objective(family, h, g, n, method):
    """Objective at one parameter vector, through the model spec."""

    def fun(params):
        try:
            spec = _make_spec(family, params)
            model = np.asarray(variogram_eval(spec, h), dtype=float)
        except (DomainError, NumericError):
            return _PENALTY
        return float(_row_objectives(model[None, :], g, n, method)[0])

    return fun


def _objective_rows(family, h, g, n, method):
    """Objective at every row of a (P, k) parameter block.

    Row i equals `_objective(...)(X[i])` bit for bit. The rows that build a
    valid spec are evaluated together by `variogram_rows`; the others get
    _PENALTY. Families without a block evaluator, and blocks in which a row
    raises NumericError, are evaluated row by row through `_objective`.
    """
    fun = _objective(family, h, g, n, method)

    def rows(X):
        if family not in EXPONENT_KINDS:
            valid = np.array([_is_valid(family, x) for x in X])
            out = np.full(len(X), _PENALTY)
            try:
                if valid.any():
                    model = variogram_rows(family, X[valid], h)
                    out[valid] = _row_objectives(model, g, n, method)
                return out
            except NumericError:  # row by row, so only the failing rows get _PENALTY
                pass
        return np.array([fun(x) for x in X])

    return rows


def _is_valid(family, params) -> bool:
    try:
        _make_spec(family, params)
    except DomainError:
        return False
    return True


def _forward_difference(rows, bounds: FitBounds):
    """`x -> (f(x), g(x))` from one call of `rows` on [x; x + h_i e_i].

    g is the 2-point forward difference scipy's L-BFGS-B computes when it
    is given no gradient: absolute step 1e-8, or sqrt(machine eps) *
    max(1, |x_i|) where x_i + 1e-8 == x_i; a step that leaves the box is
    reversed when the reversed step fits, else replaced by the distance to
    the farther bound; the denominator is (x_i + h_i) - x_i.
    """
    lower, upper = bounds.lower, bounds.upper

    def fun_and_grad(x):
        sign = (x >= 0.0).astype(float) * 2.0 - 1.0
        h = np.where((x + _FD_STEP) - x == 0.0,
                     _FD_REL_STEP * sign * np.maximum(1.0, np.abs(x)), _FD_STEP)
        lower_dist, upper_dist = x - lower, upper - x
        fits = np.abs(h) <= np.maximum(lower_dist, upper_dist)
        leaves = ((x + h) < lower) | ((x + h) > upper)
        h = np.where(leaves & fits, -h, h)
        h = np.where(fits, h, np.where(upper_dist >= lower_dist, upper_dist, -lower_dist))
        stepped = x + h
        block = np.tile(x, (x.size + 1, 1))
        block[1:][np.diag_indices(x.size)] = stepped
        f = rows(block)
        return float(f[0]), (f[1:] - f[0]) / (stepped - x)

    return fun_and_grad


def start_values_simple(emp: EmpiricalVariogram, family: str) -> np.ndarray:
    """Heuristic start for the single-structure families."""
    h, g, _ = _emp_arrays(emp)
    if h.size >= 2 and h[0] != h[1]:
        nugget = g[0] - (g[0] - g[1]) / (h[0] - h[1]) * h[0]
    else:
        nugget = 0.0
    nugget = max(nugget, 0.0)
    sill = max(float(g.max()) - nugget, 1e-2 * max(float(g.max()), 1e-12))
    range_ = float(h.max()) / 3.0
    start = [nugget, sill, range_]
    shape0 = {"matern": 0.5, "stable": 1.0, "cauchy": 1.0, "power": 1.5}
    if family in shape0:
        start.append(shape0[family])
    return np.array(start)


def start_values_nested_matern(emp: EmpiricalVariogram) -> np.ndarray:
    """Reference start heuristics for the 7-parameter nested Matern.

    nugget: straight-line extrapolation of the first two bins to h = 0,
    reset to 0.01 when negative; sill1: variance of the binned estimates;
    range1: largest bin distance with ghat below sill1; sill2: 75th
    percentile of ghat; range2 analogous; both smoothness values 0.5.
    """
    h, g, _ = _emp_arrays(emp)
    if h.size < 4:
        raise DomainError("nested Matern start values need >= 4 non-empty bins")
    hmax = float(h.max())
    if np.all(g == g[0]):
        # degenerate: flat empirical variogram
        sill2 = float(np.percentile(g, 75))
        return np.array([0.01, float(np.var(g, ddof=1)), hmax, 0.5, sill2, hmax, 0.5])
    nugget = g[0] - (g[0] - g[1]) / (h[0] - h[1]) * h[0]
    if nugget < 0.0:
        nugget = 0.01
    sill1 = float(np.var(g, ddof=1))
    sill2 = float(np.percentile(g, 75))

    def range_below(threshold):
        below = h[g < threshold]
        return float(below.max()) if below.size else hmax

    return np.array(
        [nugget, sill1, range_below(sill1), 0.5, sill2, range_below(sill2), 0.5]
    )


def fit_variogram(
    emp: EmpiricalVariogram,
    family: str,
    method: str = "wls",
    bounds: FitBounds | None = None,
    start=None,
) -> FitResult:
    """Fit one theoretical variogram family to a binned estimate.

    Non-convergence is reported through converged=False with the best
    parameters seen, never by raising.
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    names = param_names(family)
    h, g, n = _emp_arrays(emp)
    if h.size < len(names):
        raise DomainError(
            f"{family} has {len(names)} parameters but only {h.size} non-empty bins"
        )
    if bounds is None:
        bounds = default_bounds(family, emp)
    if len(bounds.lower) != len(names):
        raise DomainError("bounds length does not match the family parameter count")
    if start is None:
        if family == "nested_matern":
            start = start_values_nested_matern(emp)
        else:
            start = start_values_simple(emp, family)
    start = np.asarray(start, dtype=float)
    if np.any(start < bounds.lower) or np.any(start > bounds.upper):
        start = bounds.clip(start)
    from scipy.optimize import minimize  # here, so importing the package skips it

    fun = _objective(family, h, g, n, method)
    f0 = fun(start)
    rows_per_step = start.size + 1
    res = minimize(
        _forward_difference(_objective_rows(family, h, g, n, method), bounds),
        start,
        method="L-BFGS-B",
        jac=True,
        bounds=bounds.pairs(),
        options={"maxfun": MAX_EVALS // rows_per_step, "maxiter": MAX_EVALS,
                 "ftol": OBJ_RTOL},
    )
    params = bounds.clip(res.x)
    objective = fun(params)
    if objective > f0:  # quasi-Newton slipped; keep the better point
        params, objective = start, f0
    converged = bool(res.success) and math.isfinite(objective) and objective < _PENALTY
    return FitResult(
        params=params,
        objective=float(objective),
        converged=converged,
        n_evals=int(res.nfev) * rows_per_step,
        method=method,
        family=family,
    )


def _table_matrix(table) -> np.ndarray:
    mat = np.asarray(getattr(table, "as_matrix", lambda: table)(), dtype=float)
    if mat.ndim != 2 or mat.shape[1] < 3:
        raise FormatError(
            "variogram table needs columns: lag index, distance, n(h), sims..."
        )
    return mat


def _column_emp(dist, counts, ghat) -> EmpiricalVariogram:
    bins = []
    for d, c, g in zip(dist, counts, ghat):
        ok = c > 0 and math.isfinite(g)
        bins.append(
            VariogramBin(float(d), float(d) if ok else None,
                         float(g) if ok else None, int(c) if ok else 0)
        )
    return EmpiricalVariogram(
        bins=tuple(bins), estimator="matheron", max_dist=float(np.max(dist))
    )


def _restart_rng(seed: int, column: int) -> np.random.Generator:
    """The jittered-restart stream of one column: Philox keyed on the
    integer seed + column. The key has 128 bits, so the sum never wraps;
    below 2**64 it fills key word 0 alone."""
    return np.random.Generator(np.random.Philox(key=int(seed) + column))


def fit_family_batch(
    table,
    family: str,
    method: str = "ols",
    bounds: FitBounds | None = None,
    seed: int = 0,
) -> list[FitResult]:
    """Fit one family to every simulated-variogram column of a table.

    The table layout is (lag index, distance, n(h), then one column per
    simulation). Start values are recomputed per column; a failing fit is
    retried from 5 multiplicatively jittered starts (+-20%, stream keyed on
    the column index) before it is reported with converged=False. `seed`
    must be an integer in [0, 2**64) (DomainError otherwise).
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    mat = _table_matrix(table)
    dist, counts = mat[:, 1], mat[:, 2]
    n_sims = mat.shape[1] - 3
    n_par = len(param_names(family))

    def fit_column(j: int) -> FitResult:
        emp = _column_emp(dist, counts, mat[:, 3 + j])
        col_bounds = bounds if bounds is not None else default_bounds(family, emp)
        try:
            if family == "nested_matern":
                start = start_values_nested_matern(emp)
            else:
                start = start_values_simple(emp, family)
        except DomainError:
            return FitResult(np.zeros(n_par), math.inf, False, 0, method, family)
        result = fit_variogram(emp, family, method, col_bounds, start)
        if result.converged:
            return result
        rng = _restart_rng(seed, j)
        best = result
        for _ in range(_N_RESTARTS):
            jittered = col_bounds.clip(start * rng.uniform(0.8, 1.2, size=start.size))
            retry = fit_variogram(emp, family, method, col_bounds, jittered)
            if retry.objective < best.objective or (retry.converged and not best.converged):
                best = retry
            if best.converged:
                break
        return best

    return parallel_map(fit_column, range(n_sims))


def fit_nested_matern_batch(
    table,
    method: str = "ols",
    bounds: FitBounds | None = None,
    seed: int = 0,
) -> list[FitResult]:
    """Nested-Matern batch fit over a simulated-variogram table."""
    if bounds is None:
        bounds = default_bounds("nested_matern")
    return fit_family_batch(table, "nested_matern", method, bounds, seed)


def fit_results_to_csv(results, family: str = "nested_matern") -> str:
    """CSV serialization of a batch of fits (header + one row per fit)."""
    header = ",".join(param_names(family) + ("objective", "converged"))
    lines = [header]
    lines += [r.to_csv_row() for r in results]
    return "\n".join(lines) + "\n"
