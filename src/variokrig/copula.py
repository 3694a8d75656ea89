"""Archimedean copulas and the copula-based joint density of fitted
covariance parameters.

The generator/cdf layer uses the standard dependence parameter theta. The
closed-form Frank density is kept in the reference code's base-theta
parameterization (theta_code = exp(-theta_standard), so theta_code > 1
means negative dependence); conversion helpers bridge the two. The density
is the d-th mixed partial of the Frank copula, assembled from Stirling
partition counts and evaluated in a ratio form that stays stable for
theta_code near 1.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, NumericError
from .util import fmt_float, parallel_map

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
    # q = prod_k (th^{u_k} - 1) / s^(d-1), assembled factor by factor so no
    # large powers of small numbers ever appear
    factors = np.expm1(u * l)
    q = factors[:, 0].copy()
    for k in range(1, d):
        q *= factors[:, k] / s
    hprod2 = 1.0 + q
    coefs = _frank_coefficients(d)
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
    """Kernel-smoothed margin of one parameter column."""

    sample: np.ndarray
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    degenerate: bool
    _cdf_ip: object = field(default=None, compare=False, repr=False)
    _pdf_ip: object = field(default=None, compare=False, repr=False)

    def cdf_at(self, v):
        v = np.asarray(v, dtype=float)
        if self.degenerate:
            out = np.ones_like(v)
        else:
            out = np.clip(self._cdf_ip(np.clip(v, self.grid[0], self.grid[-1])), 0.0, 1.0)
            out = np.where(v < self.grid[0], 0.0, out)
            out = np.where(v > self.grid[-1], 1.0, out)
        return float(out) if out.ndim == 0 else out

    def pdf_at(self, v):
        v = np.asarray(v, dtype=float)
        if self.degenerate:
            out = np.ones_like(v)
        else:
            out = np.maximum(self._pdf_ip(np.clip(v, self.grid[0], self.grid[-1])), 0.0)
            out = np.where((v < self.grid[0]) | (v > self.grid[-1]), 0.0, out)
        return float(out) if out.ndim == 0 else out


_KDE_GRID = 512


def marginal_cdf_from_draws(samples) -> MarginalEstimate:
    """Gaussian-kernel margin estimate with a monotone cdf interpolant.

    Bandwidth follows the normal reference rule. Constant samples come
    back flagged degenerate with F identically 1.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size < 1 or not np.all(np.isfinite(x)):
        raise DomainError("need finite samples")
    if x.min() == np.median(x) == x.max():
        ones = np.ones(_KDE_GRID)
        grid = np.linspace(x.min() - 1.0, x.max() + 1.0, _KDE_GRID)
        return MarginalEstimate(x, grid, ones, ones, True)
    if x.size < 10:
        raise DomainError("need >= 10 samples for a non-degenerate margin")
    sd = float(np.std(x, ddof=1))
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    bw = 0.9 * spread * x.size ** (-0.2)
    grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, _KDE_GRID)
    z = (grid[:, None] - x[None, :]) / bw
    pdf = np.exp(-0.5 * z**2).sum(axis=1) / (x.size * bw * math.sqrt(2.0 * math.pi))
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    pdf = pdf / np.trapezoid(pdf, grid)
    from scipy.interpolate import PchipInterpolator  # here, so importing the package skips it

    cdf_ip = PchipInterpolator(grid, cdf)
    pdf_ip = PchipInterpolator(grid, pdf)
    return MarginalEstimate(x, grid, pdf, cdf, False, cdf_ip, pdf_ip)


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
    cols = [m.cdf_at(table[:, k]) for k, m in enumerate(margins)]
    return np.column_stack(cols)


def fit_copula_mle(draws) -> CopulaFit:
    """Maximum-likelihood Frank dependence parameter over the draw margins.

    Margins are estimated per column, the draws mapped through them, and
    the Frank log-likelihood sum_t log c(F_1(v_1t), ..., F_d(v_dt))
    maximized over log(theta_code) from each of the DEFAULT_STARTS; the best
    start is then refined. Non-finite log terms are dropped and counted.
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

    from scipy.optimize import minimize  # here, so importing the package skips it

    def run(lam0: float):
        res = minimize(
            lambda v: negloglik(v[0]),
            np.array([lam0]),
            method="BFGS",
            options={"maxiter": 200000},
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
