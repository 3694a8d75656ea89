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

All fits of a call run in lockstep, in one thread. Each keeps its own
L-BFGS-B state, scipy's `setulb` routine driven through its
reverse-communication loop exactly as `scipy.optimize.minimize` drives it
(the evaluation at the start, the cache of the last point, the evaluation
count and the stopping tests), so every fit equals its own `minimize` run
bit for bit. Each round evaluates the points and difference rows of every
fit that asked for a value in one `variogram_rows` call per group of fits
on the same lags; there each distinct Matern (range, nu) row is evaluated
once (see `models.variogram_rows`). A row whose variogram values are not
finite gets the penalty objective 1e100, alone: the other rows of its
call keep their values, so no call is repeated row by row. The boxes and
the lag groups, with their stacked data, are built once per run, not per
round, and a run tests a request for its cached point on Python lists. A
single fit is a batch of one. `setulb` is private scipy API. It is loaded
from scipy's compiled L-BFGS-B module, `scipy.optimize._lbfgsb`, alone,
so a fit does not import `scipy.optimize`. Where that module is missing,
or its `setulb` is not the 17-argument routine the loop was written for,
each fit runs through `minimize` instead, with the same results; only
that fallback imports `scipy.optimize`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .empvario import EmpiricalVariogram, VariogramBin
from .exceptions import DomainError, FormatError, NumericError
from .models import (
    KINDS,
    CovarianceSpec,
    NestedMaternSpec,
    valid_rows,
    variogram_eval,
    variogram_rows,
)
from .util import FIT_METHODS, fmt_float, parallel_map, percentiles, scipy_extension

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

# The signature of the C `setulb` in scipy's compiled L-BFGS-B module that
# the lockstep loop drives (scipy 1.17); scipy's older Fortran routine takes
# other arguments.
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)
# The settings `minimize` passes to setulb besides ftol, maxfun and maxiter:
# its defaults maxcor, gtol and maxls.
_LBFGSB_M = 10
_LBFGSB_FACTR = OBJ_RTOL / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
# setulb task codes: evaluate f and g at x; a new iterate; converged; stop.
_TASK_FG, _TASK_NEW_X, _TASK_CONVERGENCE, _TASK_STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


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
        """`nugget,sill1,...,objective,converged` row; failed fits emit the
        all-zero sentinel params for compatibility with the reference output.
        The objective is always finite (at worst the penalty 1e100)."""
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
        # one 1-D dot per row, the same reduction for a block and a point:
        # a stack of (1, m) @ (m, 1) products runs numpy's dot of `r @ w`
        # once per row
        val = np.matmul(resid[:, None, :], weighted[:, :, None])[:, 0, 0]
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


def _stacked_objectives(family, X, block, h, g, n, method) -> np.ndarray:
    """Objective at every row of X, a stack of parameter blocks: row i
    belongs to block[i], whose data are g[block[i]] and n[block[i]] at the
    lags h. Rows that build no valid spec get _PENALTY; the others are
    evaluated by one `variogram_rows` call, and a row whose values are not
    finite gets _PENALTY alone."""
    valid = valid_rows(family, X)
    out = np.full(len(X), _PENALTY)
    if valid.any():
        ids = block[valid]
        model = variogram_rows(family, X[valid], h)
        out[valid] = _row_objectives(model, g[ids], n[ids], method)
    return out


def _objective_rows(family, h, g, n, method):
    """Objective at every row of a (P, k) parameter block.

    Row i equals `_objective(...)(X[i])` bit for bit. The rows that build a
    valid spec are evaluated together by `variogram_rows`; the others, and
    the rows whose values are not finite, get _PENALTY.
    """

    def rows(X):
        return _stacked_objectives(family, X, np.zeros(len(X), dtype=np.intp),
                                   h, g[None, :], n[None, :], method)

    return rows


def _difference_blocks(X, lower, upper):
    """The blocks [x; x + h_1 e_1; ...; x + h_k e_k] of the points X (C, k)
    within their boxes, (C, k + 1, k), and the stepped coordinates x + h.

    h is the 2-point forward difference step scipy's L-BFGS-B takes when it
    is given no gradient: absolute step 1e-8, or sqrt(machine eps) *
    max(1, |x_i|) where x_i + 1e-8 == x_i; a step that leaves the box is
    reversed when the reversed step fits, else replaced by the distance to
    the farther bound. Every operation is elementwise, so a point's steps
    do not depend on the other points.
    """
    sign = (X >= 0.0).astype(float) * 2.0 - 1.0
    h = np.where((X + _FD_STEP) - X == 0.0,
                 _FD_REL_STEP * sign * np.maximum(1.0, np.abs(X)), _FD_STEP)
    lower_dist, upper_dist = X - lower, upper - X
    fits = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    leaves = ((X + h) < lower) | ((X + h) > upper)
    h = np.where(leaves & fits, -h, h)
    h = np.where(fits, h, np.where(upper_dist >= lower_dist, upper_dist, -lower_dist))
    stepped = X + h
    k = X.shape[1]
    blocks = np.repeat(X[:, None, :], k + 1, axis=1)
    blocks[:, 1 + np.arange(k), np.arange(k)] = stepped
    return blocks, stepped


def _forward_difference(rows, bounds: FitBounds):
    """`x -> (f(x), g(x))` from one call of `rows` on [x; x + h_i e_i].

    g is the 2-point forward difference scipy's L-BFGS-B computes when it
    is given no gradient (steps as in `_difference_blocks`); the
    denominator is (x_i + h_i) - x_i.
    """

    def fun_and_grad(x):
        blocks, stepped = _difference_blocks(x[None, :], bounds.lower, bounds.upper)
        f = rows(blocks[0])
        return float(f[0]), (f[1:] - f[0]) / (stepped[0] - x)

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
        sill2 = float(percentiles(g, [75])[0])
        return np.array([0.01, float(np.var(g, ddof=1)), hmax, 0.5, sill2, hmax, 0.5])
    nugget = g[0] - (g[0] - g[1]) / (h[0] - h[1]) * h[0]
    if nugget < 0.0:
        nugget = 0.01
    sill1 = float(np.var(g, ddof=1))
    sill2 = float(percentiles(g, [75])[0])

    def range_below(threshold):
        below = h[g < threshold]
        return float(below.max()) if below.size else hmax

    return np.array(
        [nugget, sill1, range_below(sill1), 0.5, sill2, range_below(sill2), 0.5]
    )


def _start_values(emp: EmpiricalVariogram, family: str) -> np.ndarray:
    """The start heuristic of the family."""
    if family == "nested_matern":
        return start_values_nested_matern(emp)
    return start_values_simple(emp, family)


class _Problem:
    """One least-squares fit: the binned data, the box, and the evaluators
    of its objective."""

    def __init__(self, emp: EmpiricalVariogram, family: str, method: str,
                 bounds: FitBounds | None):
        if method not in FIT_METHODS:
            raise DomainError(f"method must be one of {FIT_METHODS}, got {method!r}")
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
        self.family, self.method = family, method
        self.h, self.g, self.n = h, g, n
        self.bounds = bounds
        self.rows = _objective_rows(family, h, g, n, method)

    def start_in_box(self, start) -> np.ndarray:
        start = np.asarray(start, dtype=float)
        if np.any(start < self.bounds.lower) or np.any(start > self.bounds.upper):
            start = self.bounds.clip(start)
        return start

    def finish(self, start, run) -> FitResult:
        """The fit from an L-BFGS-B outcome (x, success, nfev): its point
        clipped to the box, or the start where that is worse."""
        fun = _objective(self.family, self.h, self.g, self.n, self.method)
        params = self.bounds.clip(run.x)
        objective = fun(params)
        f0 = fun(start)
        if objective > f0:  # quasi-Newton slipped; keep the better point
            params, objective = start, f0
        converged = bool(run.success) and math.isfinite(objective) and objective < _PENALTY
        return FitResult(
            params=params,
            objective=float(objective),
            converged=converged,
            n_evals=int(run.nfev) * (start.size + 1),
            method=self.method,
            family=self.family,
        )


@functools.cache
def _setulb():
    """scipy's L-BFGS-B routine when it is the one the lockstep loop
    drives, else None.

    The compiled extension `scipy.optimize._lbfgsb` is loaded by itself
    (`util.scipy_extension`), without running the `scipy.optimize` package,
    which the loop does not use; a later `import scipy.optimize` reuses it.
    A missing file, one that fails to load or one without `setulb` gives
    None.
    """
    module = scipy_extension("optimize", "_lbfgsb", ("setulb",))
    if module is None:
        return None
    doc = module.setulb.__doc__ or ""
    return module.setulb if doc.split("\n", 1)[0] == _SETULB_SIGNATURE else None


class _LbfgsbRun:
    """One L-BFGS-B minimisation through setulb's reverse communication.

    The loop of `scipy.optimize.minimize(method="L-BFGS-B", jac=True)` with
    ftol OBJ_RTOL, maxfun MAX_EVALS // (k + 1) and maxiter MAX_EVALS,
    turned inside out: `advance` runs setulb until it asks for
    f and g at a point not evaluated yet, `record` answers it. Like
    minimize, the run evaluates its start first, answers a request for the
    last point evaluated from a cache, and tests the budgets at each new
    iterate.
    """

    def __init__(self, setulb, x0, bounds: FitBounds):
        n = x0.size
        m = _LBFGSB_M
        self._setulb = setulb
        self.x = np.clip(x0, bounds.lower, bounds.upper)
        finite_lo, finite_hi = np.isfinite(bounds.lower), np.isfinite(bounds.upper)
        self._lower = np.where(finite_lo, bounds.lower, 0.0)
        self._upper = np.where(finite_hi, bounds.upper, 0.0)
        self._nbd = np.where(finite_lo, np.where(finite_hi, 2, 1),
                             np.where(finite_hi, 3, 0)).astype(np.int32)
        self._f = np.array(0.0)
        self._g = np.zeros(n)
        self._wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self._iwa = np.zeros(3 * n, dtype=np.int32)
        self._task = np.zeros(2, dtype=np.int32)
        self._ln_task = np.zeros(2, dtype=np.int32)
        self._lsave = np.zeros(4, dtype=np.int32)
        self._isave = np.zeros(44, dtype=np.int32)
        self._dsave = np.zeros(29)
        self._maxfun = MAX_EVALS // (n + 1)  # k + 1 points per evaluation
        self._maxiter = MAX_EVALS
        self._iterations = 0
        self._cache = None  # (x as a list, f, g) of the last evaluation
        self.nfev = 0

    @property
    def success(self) -> bool:
        return self._task[0] == _TASK_CONVERGENCE

    def record(self, f: float, g: np.ndarray):
        """f and g at the current x."""
        self._cache = (self.x.tolist(), f, g)
        self.nfev += 1

    def advance(self) -> bool:
        """Run until setulb asks for an unevaluated point (True) or stops."""
        task = self._task
        while True:
            if task[0] == _TASK_FG:  # the request just answered or cached
                _, self._f, self._g = self._cache
            self._g = self._g.astype(np.float64)
            self._setulb(_LBFGSB_M, self.x, self._lower, self._upper, self._nbd, self._f,
                         self._g, _LBFGSB_FACTR, _LBFGSB_PGTOL, self._wa,
                         self._iwa, task, self._lsave, self._isave, self._dsave,
                         _LBFGSB_MAXLS, self._ln_task)
            if task[0] == _TASK_FG:
                # minimize's np.array_equal, without a numpy reduction: list
                # == compares float by float, so -0.0 equals 0.0 and NaN
                # nothing
                if self.x.tolist() != self._cache[0]:
                    return True
            elif task[0] == _TASK_NEW_X:
                self._iterations += 1
                if self._iterations >= self._maxiter:
                    task[:] = _TASK_STOP, _STOP_MAXITER
                elif self.nfev > self._maxfun:
                    task[:] = _TASK_STOP, _STOP_MAXFUN
            else:
                return False


def _lag_groups(problems):
    """The problems grouped by their lags, once per lockstep run: each
    problem's group and its slot in the group, and each group's lags and
    the stacks of its problems' g and n."""
    index, members, group_of, slot_of = {}, [], [], []
    for p in problems:
        group = index.setdefault(p.h.tobytes(), len(index))
        if group == len(members):
            members.append([])
        group_of.append(group)
        slot_of.append(len(members[group]))
        members[group].append(p)
    stacks = [(ps[0].h, np.array([p.g for p in ps]), np.array([p.n for p in ps]))
              for ps in members]
    return np.array(group_of), np.array(slot_of), stacks


def _block_objectives(problems, lag_groups, waiting, blocks) -> np.ndarray:
    """Objective at every row of the (C, P, k) blocks, block c of problem
    waiting[c].

    The blocks of problems on the same lags are evaluated together, in one
    `_stacked_objectives` call, and _PENALTY falls on the failing rows
    alone.
    """
    C, P, k = blocks.shape
    family, method = problems[0].family, problems[0].method
    group_of, slot_of, stacks = lag_groups
    groups = group_of[waiting]
    out = np.empty((C, P))
    for gi, (h, g, n) in enumerate(stacks):
        cols = np.flatnonzero(groups == gi)
        out[cols] = _stacked_objectives(
            family, blocks[cols].reshape(-1, k), np.repeat(slot_of[waiting[cols]], P),
            h, g, n, method,
        ).reshape(cols.size, P)
    return out


def _lockstep(setulb, problems, starts) -> list[_LbfgsbRun]:
    """Run L-BFGS-B on every problem from its start, all in lockstep: each
    round evaluates f and the forward-difference gradient of every run
    waiting for them, in one `_block_objectives` call. The boxes and the
    lag groups are built once, before the first round."""
    runs = [_LbfgsbRun(setulb, x0, p.bounds) for p, x0 in zip(problems, starts)]
    lower = np.array([p.bounds.lower for p in problems])
    upper = np.array([p.bounds.upper for p in problems])
    lag_groups = _lag_groups(problems)
    waiting = np.arange(len(runs))
    while waiting.size:
        X = np.array([runs[i].x for i in waiting])
        blocks, stepped = _difference_blocks(X, lower[waiting], upper[waiting])
        F = _block_objectives(problems, lag_groups, waiting, blocks)
        grads = (F[:, 1:] - F[:, :1]) / (stepped - X)
        for i, f, g in zip(waiting.tolist(), F[:, 0].tolist(), grads):
            runs[i].record(f, g)
        waiting = np.array([i for i in waiting.tolist() if runs[i].advance()], dtype=np.intp)
    return runs


def _minimize(problems, starts):
    """L-BFGS-B outcomes (x, success, nfev) of the problems from their
    starts: in lockstep, or one `minimize` call each where setulb is not
    the routine `_LbfgsbRun` drives."""
    setulb = _setulb()
    if setulb is not None:
        return _lockstep(setulb, problems, starts)
    from scipy.optimize import minimize  # here, so importing the package skips it

    return [
        minimize(_forward_difference(p.rows, p.bounds), x0, method="L-BFGS-B", jac=True,
                 bounds=p.bounds.pairs(),
                 options={"maxfun": MAX_EVALS // (x0.size + 1), "maxiter": MAX_EVALS,
                          "ftol": OBJ_RTOL})
        for p, x0 in zip(problems, starts)
    ]


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
    problem = _Problem(emp, family, method, bounds)
    start = problem.start_in_box(_start_values(emp, family) if start is None else start)
    return problem.finish(start, _minimize([problem], [start])[0])


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


def _restart_rng(seed: int, column: int) -> "np.random.Generator":
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
    simulation). Every column's problem is built before any fit, so a
    column with fewer non-empty bins than the family has parameters is one
    DomainError for the whole table. Start values are recomputed per
    column; a failing fit is retried from 5 multiplicatively jittered
    starts (+-20%, stream keyed on the column index) before it is reported
    with converged=False. `seed` must be an integer in [0, 2**64)
    (DomainError otherwise).

    The columns are fitted in lockstep, and the retries of the columns
    still unconverged in waves, each wave in lockstep.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    mat = _table_matrix(table)
    emps = [_column_emp(mat[:, 1], mat[:, 2], column) for column in mat[:, 3:].T]
    problems = [_Problem(emp, family, method, bounds) for emp in emps]
    base = [_start_values(emp, family) for emp in emps]
    starts = [p.start_in_box(b) for p, b in zip(problems, base)]
    runs = _minimize(problems, starts)

    def finish(j: int) -> FitResult:
        return problems[j].finish(starts[j], runs[j])

    results = parallel_map(finish, range(len(problems)))
    wave = list(range(len(problems)))
    rngs = [_restart_rng(seed, j) for j in wave]
    for _ in range(_N_RESTARTS):
        wave = [j for j in wave if not results[j].converged]
        if not wave:
            break
        jittered = [problems[j].bounds.clip(base[j] * rngs[j].uniform(0.8, 1.2, size=base[j].size))
                    for j in wave]
        retries = _minimize([problems[j] for j in wave], jittered)
        for j, start, run in zip(wave, jittered, retries):
            retry, best = problems[j].finish(start, run), results[j]
            if retry.objective < best.objective or (retry.converged and not best.converged):
                results[j] = retry
    return results


def fit_nested_matern_batch(
    table,
    method: str = "ols",
    bounds: FitBounds | None = None,
    seed: int = 0,
) -> list[FitResult]:
    """Nested-Matern batch fit over a simulated-variogram table."""
    return fit_family_batch(table, "nested_matern", method, bounds, seed)


def fit_results_to_csv(results, family: str = "nested_matern") -> str:
    """CSV serialization of a batch of fits (header + one row per fit)."""
    header = ",".join(param_names(family) + ("objective", "converged"))
    lines = [header]
    lines += [r.to_csv_row() for r in results]
    return "\n".join(lines) + "\n"
