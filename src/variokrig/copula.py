"""Archimedean copulas and the copula-based joint density of fitted
covariance parameters.

The generator/cdf layer uses the standard dependence parameter theta. The
closed-form Frank density is kept in the reference code's base-theta
parameterization (theta_code = exp(-theta_standard), so theta_code > 1
means negative dependence); conversion helpers bridge the two. The density
is the d-th mixed partial of the Frank copula, assembled from Stirling
partition counts and evaluated in a ratio form that stays stable for
theta_code near 1.

Fitting loads no scipy package. The margins' monotone cubic interpolants
are scipy's PCHIP (`PchipInterpolator`), computed and evaluated in numpy
in the same order of operations, so they equal scipy's bit for bit. The
maximum-likelihood fit runs the one-variable loop of scipy's BFGS
(`minimize(method="BFGS")`) around scipy's own Wolfe line searches, which
are loaded alone from `scipy.optimize._dcsrch` and
`scipy.optimize._linesearch`; every start ends where its `minimize` run
ends, bit for bit. Where either module is missing or lacks a name the loop
calls, the fit runs through `minimize` instead, with the same results.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, NumericError
from .util import fmt_float, parallel_map, percentiles, scipy_extension

FAMILIES = ("clayton", "frank", "gumbel", "joe")

DROPPED_ROWS_CAP = 0.05  # beyond this fraction the MLE is flagged unreliable


@dataclass(frozen=True)
class CopulaSpec:
    family: str
    theta: float
    dim: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown copula family {self.family!r}")
        if self.dim < 2:
            raise DomainError("copula dimension must be >= 2")
        th = float(self.theta)
        if not math.isfinite(th):
            raise DomainError("theta must be finite")
        if self.family in ("gumbel", "joe") and th < 1.0:
            raise DomainError(f"{self.family} requires theta >= 1")
        if self.family == "frank" and th == 0.0:
            raise DomainError("frank requires theta != 0")
        if self.family == "clayton" and th <= 0.0:
            raise DomainError("clayton requires theta > 0")


def theta_code_from_standard(theta: float) -> float:
    """Map the standard Frank parameter to the reference code's base."""
    return math.exp(-theta)


def theta_standard_from_code(theta_code: float) -> float:
    if theta_code <= 0.0:
        raise DomainError("base-theta parameter must be > 0")
    return -math.log(theta_code)


def _check_unit(t, closed_zero=False):
    t = np.asarray(t, dtype=float)
    lo_ok = t >= 0.0 if closed_zero else t > 0.0
    if not np.all(lo_ok & (t <= 1.0)):
        lo = "[0, 1]" if closed_zero else "(0, 1]"
        raise DomainError(f"argument must lie in {lo}")
    return t


def generator(family: str, theta: float, t):
    """Additive generator phi(t) with phi(1) = 0."""
    CopulaSpec(family, theta)
    t = _check_unit(t)
    if family == "clayton":
        out = (t ** (-theta) - 1.0) / theta
    elif family == "frank":
        out = -np.log(np.expm1(-theta * t) / np.expm1(-theta))
    elif family == "gumbel":
        out = (-np.log(t)) ** theta
    else:  # joe
        out = -np.log1p(-((1.0 - t) ** theta))
    if out.ndim == 0:
        return float(out)
    return out


def generator_inverse(family: str, theta: float, s):
    """Inverse of the generator on s >= 0."""
    CopulaSpec(family, theta)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("generator inverse needs s >= 0")
    if family == "clayton":
        out = (1.0 + theta * s) ** (-1.0 / theta)
    elif family == "frank":
        out = -np.log1p(np.exp(-s) * np.expm1(-theta)) / theta
    elif family == "gumbel":
        out = np.exp(-(s ** (1.0 / theta)))
    else:  # joe
        out = 1.0 - (-np.expm1(-s)) ** (1.0 / theta)
    if out.ndim == 0:
        return float(out)
    return out


def copula_cdf(spec: CopulaSpec, u):
    """Archimedean copula C(u) = phi^-1(sum_i phi(u_i)).

    Accepts a dim-vector or an (m, dim) batch. Any zero coordinate gives 0.
    """
    u = _check_unit(np.asarray(u, dtype=float), closed_zero=True)
    single = u.ndim == 1
    u = np.atleast_2d(u)
    if u.shape[1] != spec.dim:
        raise DomainError(f"expected {spec.dim} coordinates, got {u.shape[1]}")
    zero = np.any(u == 0.0, axis=1)
    safe = np.where(u == 0.0, 0.5, u)
    total = generator(spec.family, spec.theta, safe).sum(axis=1)
    vals = np.asarray(generator_inverse(spec.family, spec.theta, total), dtype=float)
    vals[zero] = 0.0
    if single:
        return float(vals[0])
    return vals


@lru_cache(maxsize=None)
def _frank_coefficients(d: int) -> tuple[float, ...]:
    """(-1)^(m-1) (m-1)! S(d, m) for m = 1..d (S = Stirling second kind)."""
    def stirling2(n, k):
        return sum(
            (-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1)
        ) // math.factorial(k)

    return tuple(
        (-1.0) ** (m - 1) * math.factorial(m - 1) * stirling2(d, m)
        for m in range(1, d + 1)
    )


def frank_density(theta_code: float, u):
    """Closed-form Frank copula density in base-theta parameterization.

    Equals the d-th mixed partial of the Frank cdf with standard parameter
    theta = -log(theta_code). Accepts a d-vector or an (m, d) batch of
    interior points; theta_code must be positive and away from 1.
    """
    th = float(theta_code)
    if not math.isfinite(th) or th <= 0.0:
        raise DomainError("theta_code must be finite and > 0")
    if abs(th - 1.0) < 1e-6:
        raise DomainError("theta_code too close to the independence point 1")
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    u = np.atleast_2d(u)
    d = u.shape[1]
    if d < 2:
        raise DomainError("need at least 2 coordinates")
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise DomainError("coordinates must lie in (0, 1]")
    s = th - 1.0
    l = math.log(th)
    ratio = l / s
    coefs = _frank_coefficients(d)
    # a theta where 1 + q vanishes or overflows gives non-finite values,
    # reported below as one error rather than as numpy warnings
    with np.errstate(all="ignore"):
        # q = prod_k (th^{u_k} - 1) / s^(d-1), assembled factor by factor so
        # no large powers of small numbers ever appear
        factors = np.expm1(u * l)
        q = factors[:, 0].copy()
        for k in range(1, d):
            q *= factors[:, k] / s
        hprod2 = 1.0 + q
        acc = np.zeros(u.shape[0])
        for m in range(d, 0, -1):
            acc = acc / hprod2 * q + coefs[m - 1]
        acc /= hprod2  # sum_m coef_m q^(m-1) / hprod2^m
        dens = ratio ** (d - 1) * th ** u.sum(axis=1) * acc
    if not np.all(np.isfinite(dens)):
        raise NumericError("Frank density evaluation produced non-finite values")
    if single:
        return float(dens[0])
    return dens


@dataclass(frozen=True)
class MarginalEstimate:
    """Kernel-smoothed margin of one parameter column.

    `cdf_at` and `pdf_at` evaluate monotone cubic (PCHIP) interpolants of
    the tabulated cdf and pdf; `_cdf_c` and `_pdf_c` hold their (4, n - 1)
    piecewise-polynomial coefficients over `grid`.
    """

    sample: np.ndarray
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    degenerate: bool
    _cdf_c: np.ndarray = field(default=None, compare=False, repr=False)
    _pdf_c: np.ndarray = field(default=None, compare=False, repr=False)

    def cdf_at(self, v):
        v = np.asarray(v, dtype=float)
        if self.degenerate:
            out = np.ones_like(v)
        else:
            inside = np.clip(v, self.grid[0], self.grid[-1])
            out = np.clip(_pchip_eval(self.grid, self._cdf_c, inside), 0.0, 1.0)
            out = np.where(v < self.grid[0], 0.0, out)
            out = np.where(v > self.grid[-1], 1.0, out)
        return float(out) if out.ndim == 0 else out

    def pdf_at(self, v):
        v = np.asarray(v, dtype=float)
        if self.degenerate:
            out = np.ones_like(v)
        else:
            inside = np.clip(v, self.grid[0], self.grid[-1])
            out = np.maximum(_pchip_eval(self.grid, self._pdf_c, inside), 0.0)
            out = np.where((v < self.grid[0]) | (v > self.grid[-1]), 0.0, out)
        return float(out) if out.ndim == 0 else out


def _pchip_edge(h0, h1, m0, m1):
    """End slope of scipy's PCHIP (`PchipInterpolator._edge_case`): the
    one-sided three-point estimate, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.0 * np.abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y) -> np.ndarray:
    """(4, n - 1) coefficients of scipy's `PchipInterpolator(x, y)`, highest
    power first, for strictly increasing x and finite y (n >= 3).

    The knot slopes are `PchipInterpolator._find_derivatives`' weighted
    harmonic means, zero where the secant slope changes sign or vanishes;
    the coefficients are `CubicHermiteSpline`'s.
    """
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(all="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk = np.zeros_like(y)
        dk[1:-1][~condition] = 1.0 / whmean[~condition]
        dk[0] = _pchip_edge(hk[0], hk[1], mk[0], mk[1])
        dk[-1] = _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])
        t = (dk[:-1] + dk[1:] - 2 * mk) / hk
        return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))


def _pchip_eval(x, c, v):
    """The piecewise cubic with coefficients c over knots x at v, in the
    order of scipy's `PPoly`: the interval x[i] <= v < x[i + 1] (the last one
    closed), then +0.0 + c3 + c2 s + c1 s^2 + c0 s^3 at s = v - x[i], each
    power one more product. Like `PPoly`, it warns of no overflow."""
    i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, x.size - 2)
    s = v - x[i]
    out = 0.0 + c[3, i]
    z = 1.0
    with np.errstate(all="ignore"):
        for k in (2, 1, 0):
            z = z * s
            out = out + c[k, i] * z
    return out


_KDE_GRID = 512


def marginal_cdf_from_draws(samples) -> MarginalEstimate:
    """Gaussian-kernel margin estimate with a monotone cdf interpolant.

    Bandwidth follows the normal reference rule. The pdf and cdf are
    tabulated on a 512-point grid and interpolated by PCHIP, computed in
    numpy and equal to scipy's `PchipInterpolator` bit for bit. Constant
    samples come back flagged degenerate with F identically 1. A column
    whose bandwidth is not finite and positive (its spread under- or
    overflows), whose grid is not finite and strictly increasing, or whose
    tabulated pdf or cdf is not finite raises NumericError.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size < 1 or not np.all(np.isfinite(x)):
        raise DomainError("need finite samples")
    if x.min() == x.max():
        ones = np.ones(_KDE_GRID)
        grid = np.linspace(x.min() - 1.0, x.max() + 1.0, _KDE_GRID)
        return MarginalEstimate(x, grid, ones, ones, True)
    if x.size < 10:
        raise DomainError("need >= 10 samples for a non-degenerate margin")
    with np.errstate(all="ignore"):
        sd = float(np.std(x, ddof=1))
        iqr = float(np.subtract(*percentiles(x, [75, 25])))
        spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
        bw = 0.9 * spread * x.size ** (-0.2)
        if not (math.isfinite(bw) and bw > 0.0):
            raise NumericError(f"margin bandwidth {bw!r} is not finite and positive")
        grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, _KDE_GRID)
        z = (grid[:, None] - x[None, :]) / bw
        pdf = np.exp(-0.5 * z**2).sum(axis=1) / (x.size * bw * math.sqrt(2.0 * math.pi))
        cdf = np.cumsum(pdf)
        cdf /= cdf[-1]
        pdf = pdf / np.trapezoid(pdf, grid)
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise NumericError("margin grid is not finite and strictly increasing")
    if not (np.all(np.isfinite(pdf)) and np.all(np.isfinite(cdf))):
        raise NumericError("margin pdf or cdf is not finite")
    return MarginalEstimate(x, grid, pdf, cdf, False,
                            _pchip_coefficients(grid, cdf), _pchip_coefficients(grid, pdf))


@dataclass(frozen=True)
class CopulaFit:
    family: str
    theta: float          # standard parameterization
    theta_code: float     # base-theta parameterization
    loglik: float
    converged: bool
    n_dropped: int
    unreliable: bool
    margins: tuple


# reference multi-start grid, extended by the reciprocal values so both
# dependence signs are reachable without crossing the singular point 1
_CODE_STARTS = np.arange(10.0, 20.5, 0.5)
DEFAULT_STARTS = tuple(_CODE_STARTS) + tuple(1.0 / _CODE_STARTS)


def _uniform_scores(table: np.ndarray, margins) -> np.ndarray:
    """Each column through its margin's cdf. A cdf interpolant that is not
    finite there (its power form overflows on a column of extreme spread)
    raises NumericError naming the margin, by 1-based column."""
    cols = [m.cdf_at(table[:, k]) for k, m in enumerate(margins)]
    for k, col in enumerate(cols):
        if not np.all(np.isfinite(col)):
            raise NumericError(f"margin {k + 1}: cdf interpolant is not finite")
    return np.column_stack(cols)


# scipy's BFGS settings for the fit: minimize's defaults, maxiter raised
_BFGS_EPS = math.sqrt(np.finfo(float).eps)  # absolute forward-difference step
_BFGS_GTOL = 1e-5
_BFGS_XRTOL = 0
_BFGS_MAXITER = 200000


def _line_searches():
    """scipy's `line_search_wolfe1`, `line_search_wolfe2` and
    `LineSearchWarning`, or None.

    `scipy.optimize._dcsrch` and `scipy.optimize._linesearch` are pure
    Python over numpy. They are loaded alone (`util.scipy_extension`), the
    first before the second, whose relative import of `DCSRCH` then finds
    it without running the `scipy.optimize` package. A missing module, one
    that fails to load or one without a needed name gives None.
    """
    if scipy_extension("optimize", "_dcsrch", ("DCSRCH",)) is None:
        return None
    module = scipy_extension("optimize", "_linesearch",
                             ("line_search_wolfe1", "line_search_wolfe2", "LineSearchWarning"))
    if module is None:
        return None
    return module.line_search_wolfe1, module.line_search_wolfe2, module.LineSearchWarning


class _ForwardDifference:
    """A one-variable objective and its forward difference behind the
    one-point cache of scipy's `ScalarFunction`: asked for the last point
    again, it answers without evaluating; the gradient reuses the value at
    its point. The step is BFGS's absolute `sqrt(eps)`, or, where that does
    not move x, `sqrt(eps) * max(1, |x|)` with the sign of x, as in
    `approx_derivative`."""

    def __init__(self, fn):
        self._fn = fn
        self._lam = None
        self._f = self._g = None

    def _move(self, x):
        if x[0] != self._lam:  # np.array_equal for one element
            self._lam = float(x[0])
            self._f = self._g = None

    def fun(self, x):
        self._move(x)
        if self._f is None:
            self._f = self._fn(self._lam)
        return self._f

    def grad(self, x):
        f0 = self.fun(x)
        if self._g is None:
            x0 = self._lam
            h = _BFGS_EPS
            if (x0 + h) - x0 == 0:
                h = _BFGS_EPS * (1.0 if x0 >= 0 else -1.0) * max(1.0, abs(x0))
            x1 = x0 + h
            self._g = np.array([(self._fn(x1) - f0) / (x1 - x0)])
        return self._g


def _norm2(v):
    return np.sum(np.abs(v) ** 2, axis=0) ** (1.0 / 2)  # scipy's vecnorm


def _bfgs(fn, lam0: float, searches):
    """(x, f, success) of `minimize(lambda v: fn(v[0]), [lam0], method="BFGS",
    options={"maxiter": 200000})`, bit for bit.

    The loop of scipy's `_minimize_bfgs` for one variable: the Wolfe line
    search with `line_search_wolfe2` as the fallback, the gtol, xrtol and
    non-finite tests, and the inverse-Hessian update as 1x1 arrays.
    """
    wolfe1, wolfe2, line_search_warning = searches
    obj = _ForwardDifference(fn)
    xk = np.array([lam0])
    old_fval = obj.fun(xk)
    gfk = obj.grad(xk)
    k = 0
    eye = np.eye(1, dtype=int)
    hk = eye
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2  # a first step of about 1
    failed = False
    gnorm = np.amax(np.abs(gfk))
    while gnorm > _BFGS_GTOL and k < _BFGS_MAXITER:
        pk = -np.dot(hk, gfk)
        ret = wolfe1(obj.fun, obj.grad, xk, pk, gfk, old_fval, old_old_fval,
                     amin=1e-100, amax=1e100, c1=1e-4, c2=0.9)
        if ret[0] is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", line_search_warning)
                ret = wolfe2(obj.fun, obj.grad, xk, pk, gfk, old_fval, old_old_fval,
                             c1=1e-4, c2=0.9, amax=1e100)
        if ret[0] is None:
            failed = True
            break
        alpha_k, _, _, old_fval, old_old_fval, gfkp1 = ret
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = obj.grad(xk)
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        if gnorm <= _BFGS_GTOL:
            break
        if alpha_k * _norm2(pk) <= _BFGS_XRTOL * (_BFGS_XRTOL + _norm2(xk)):
            break
        if not np.isfinite(old_fval):
            failed = True
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0.0 else 1.0 / rhok_inv
        a1 = eye - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        a2 = eye - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        hk = np.dot(a1, np.dot(hk, a2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    success = not (failed or k >= _BFGS_MAXITER
                   or np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any())
    return float(xk[0]), float(old_fval), success


def fit_copula_mle(draws) -> CopulaFit:
    """Maximum-likelihood Frank dependence parameter over the draw margins.

    Margins are estimated per column, the draws mapped through them, and
    the Frank log-likelihood sum_t log c(F_1(v_1t), ..., F_d(v_dt))
    maximized over log(theta_code) by BFGS from each of the DEFAULT_STARTS;
    the best start is then refined. Non-finite log terms are dropped and
    counted. Each run is `_bfgs` over scipy's line searches, or, where
    those do not load, `scipy.optimize.minimize(method="BFGS")`, with the
    same results.
    """
    table = np.atleast_2d(np.asarray(getattr(draws, "table", draws), dtype=float))
    if table.shape[1] < 2:
        raise DomainError("need at least 2 margins")
    margins = tuple(marginal_cdf_from_draws(table[:, k]) for k in range(table.shape[1]))
    if sum(not m.degenerate for m in margins) < 2:
        raise DomainError("need at least 2 non-degenerate margins")
    scores = np.clip(_uniform_scores(table, margins), 1e-12, 1.0)
    n_rows = table.shape[0]
    state = {"dropped": 0}

    def negloglik(lam: float) -> float:
        th = math.exp(lam)
        if not math.isfinite(th) or th <= 0.0 or abs(th - 1.0) < 1e-6:
            return 1e50
        try:
            dens = frank_density(th, scores)
        except (DomainError, NumericError):
            return 1e50
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(dens)
        finite = np.isfinite(logs)
        state["dropped"] = int(n_rows - finite.sum())
        if not np.any(finite):
            return 1e50
        # summing in sorted order keeps the fit exactly row-order invariant
        return -float(np.sort(logs[finite]).sum())

    searches = _line_searches()
    if searches is not None:
        def run(lam0: float):
            return _bfgs(negloglik, lam0, searches)
    else:
        from scipy.optimize import minimize  # here, so importing the package skips it

        def run(lam0: float):
            res = minimize(
                lambda v: negloglik(v[0]),
                np.array([lam0]),
                method="BFGS",
                options={"maxiter": _BFGS_MAXITER},
            )
            return float(res.x[0]), float(res.fun), bool(res.success)

    stage = parallel_map(lambda th0: run(math.log(th0)), DEFAULT_STARTS)
    order = sorted(range(len(stage)), key=lambda i: (stage[i][1], math.log(DEFAULT_STARTS[i])))
    best = stage[order[0]]
    lam_hat, fval, success = run(best[0])
    if fval > best[1]:
        lam_hat, fval, success = best
    negloglik(lam_hat)  # refresh the dropped-row count at the optimum
    dropped = state["dropped"]
    converged = bool(success) and fval < 1e50
    return CopulaFit(
        family="frank",
        theta=-lam_hat,
        theta_code=math.exp(lam_hat),
        loglik=-fval,
        converged=converged,
        n_dropped=dropped,
        unreliable=dropped > DROPPED_ROWS_CAP * n_rows,
        margins=margins,
    )


def joint_density(draws, fit: CopulaFit, rows=None) -> np.ndarray:
    """Copula density at the margin scores times the marginal densities.

    Defaults to evaluating at the draw rows themselves. Negative numerical
    artifacts are floored at zero.
    """
    table = np.atleast_2d(np.asarray(getattr(draws, "table", draws), dtype=float))
    if rows is None:
        rows = table
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(fit.margins):
        raise DomainError("evaluation rows do not match the fitted margins")
    scores = np.clip(_uniform_scores(rows, fit.margins), 1e-12, 1.0)
    cop = frank_density(fit.theta_code, scores)
    dens = cop.copy()
    for k, m in enumerate(fit.margins):
        dens *= m.pdf_at(rows[:, k])
    return np.maximum(dens, 0.0)


_JOINT_HEADERS = {
    7: "nugget,sill1,range1,nue1,sill2,range2,nue2,dichte",
    4: "nugget,sill,range,nue,dichte",
}


def joint_density_csv(draws, fit: CopulaFit) -> str:
    """Joint-density table at the draw rows in the reference column layout."""
    table = np.atleast_2d(np.asarray(getattr(draws, "table", draws), dtype=float))
    dens = joint_density(table, fit)
    header = _JOINT_HEADERS.get(table.shape[1])
    if header is None:
        header = ",".join(f"v{k+1}" for k in range(table.shape[1])) + ",dichte"
    lines = [header]
    for row, dv in zip(table, dens):
        lines.append(",".join(fmt_float(v) for v in row) + f",{fmt_float(dv)}")
    return "\n".join(lines) + "\n"
