"""Catalogue of stationary covariance / variogram models.

Each model is written as ``C(h) = nugget * 1{h=0} + sill * rho(h / range)``
with ``rho`` the unit-sill correlation of the family; the variogram is the
complement ``gamma(h) = C(0) - C(h)`` (zero exactly at h = 0, so the nugget
appears as the jump at 0+). The Matern family uses the rescaled argument
``u = h / (range / (2 sqrt(nu)))`` so that ``range`` keeps its practical
meaning across smoothness values, and a two-component nested Matern is
provided for flexible fitting.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from .exceptions import DomainError, FormatError, NumericError
from .specfun import log_bessel_k, log_gamma
from .util import fmt_float_point

KINDS = (
    "exponential",
    "gaussian",
    "spherical",
    "circular",
    "triangle",
    "cubic",
    "penta",
    "power",
    "stable",
    "wave",
    "cauchy",
    "matern",
)

_SHAPE_KINDS = {"power", "stable", "cauchy", "matern"}

# Families whose shape is an exponent. numpy takes fast paths for some
# scalar exponents (u**2 squares, u**0.5 takes the square root) but not for
# an array of exponents, so a column of shapes does not reproduce the
# scalar evaluation bit for bit; variogram_rows evaluates them row by row.
EXPONENT_KINDS = frozenset({"power", "stable", "cauchy"})

# Maximum spatial dimension in which each family stays positive definite.
# Families absent here are valid in every dimension; power is handled by
# its shape constraint.
_DIM_LIMIT = {
    "triangle": 1,
    "circular": 2,
    "spherical": 3,
    "cubic": 3,
    "penta": 3,
}

NU_FIT_MAX = 40.0


def matern_correlation(u, nu):
    """Unit-sill Matern correlation  u^nu K_nu(u) / (2^(nu-1) Gamma(nu)).

    Evaluated in log space so the 0 * inf products that plague the naive
    formula for small u / large nu never appear. u <= 0 maps to 1. ``nu``
    is a scalar or an array broadcasting against ``u`` (one smoothness per
    row of a parameter block). The two take different routes to log K_nu
    (see `specfun.log_bessel_k`): an array nu takes scipy's kve per element,
    a scalar nu that is not a half-integer takes the Chebyshev table. So a
    block row equals the evaluation at that row's nu as a one-element
    array, and agrees with the scalar evaluation to about 1e-13 relative.
    Within either route an element's value depends only on its own u and
    nu, not on the other elements of the call: a (P, 1) column nu takes
    (nu - 1) log 2 and log Gamma(nu) once per row, and subtracts each
    from every element of the row, as the elementwise formula does. A huge
    u gives 0 (see `specfun.log_bessel_k` for kve's NaN there). The values
    are unchecked: u = inf gives NaN, for the public evaluators to judge.
    """
    u = np.asarray(u, dtype=float)
    # once per row of a column nu, not per element; each is still subtracted
    # on its own, in the order of the formula
    log_scale = (nu - 1.0) * math.log(2.0)
    log_gamma_nu = log_gamma(nu)
    pos = u > 0.0
    whole = pos.all()
    if not whole:
        out = np.ones_like(u)
        u = u[pos]
        if isinstance(nu, np.ndarray):
            nu, log_scale, log_gamma_nu = (np.broadcast_to(a, pos.shape)[pos]
                                           for a in (nu, log_scale, log_gamma_nu))
    # a scalar nu stays a Python number: scipy's kve is slower on a 0-d array
    logrho = nu * np.log(u)
    logrho += log_bessel_k(nu, u)
    logrho -= log_scale
    logrho -= log_gamma_nu
    rho = np.minimum(np.exp(logrho), 1.0)
    if whole:
        return rho
    out[pos] = rho
    return out


def _unit_correlation(kind: str, shape, u):
    """Correlation rho(u) at the scaled lag u = h / range, unit sill.

    ``shape`` may be a column broadcasting against ``u`` for every family
    except those in EXPONENT_KINDS.
    """
    u = np.asarray(u, dtype=float)
    if kind == "exponential":
        return np.exp(-u)
    if kind == "gaussian":
        return np.exp(-(u**2))
    if kind == "stable":
        return np.exp(-(u**shape))
    if kind == "cauchy":
        return (1.0 + u**2) ** (-shape)
    if kind == "wave":
        return np.sinc(u / math.pi)  # sin(u)/u, equal to 1 at u = 0
    if kind == "matern":
        return matern_correlation(2.0 * np.sqrt(shape) * u, shape)
    # compact-support families below vanish for u >= 1
    uc = np.minimum(u, 1.0)
    if kind == "triangle":
        body = 1.0 - uc
    elif kind == "circular":
        body = (2.0 / math.pi) * (np.arccos(uc) - uc * np.sqrt(1.0 - uc**2))
    elif kind == "spherical":
        body = 1.0 - 1.5 * uc + 0.5 * uc**3
    elif kind == "cubic":
        body = 1.0 - 7.0 * uc**2 + 8.75 * uc**3 - 3.5 * uc**5 + 0.75 * uc**7
    elif kind == "penta":
        body = (
            1.0
            - (22.0 / 3.0) * uc**2
            + 33.0 * uc**4
            - 38.5 * uc**5
            + 16.5 * uc**7
            - 5.5 * uc**9
            + (5.0 / 6.0) * uc**11
        )
    elif kind == "power":
        body = (1.0 - uc) ** shape
    else:
        raise DomainError(f"unknown model kind {kind!r}")
    return np.where(u < 1.0, body, 0.0)


@dataclass(frozen=True)
class CovarianceSpec:
    """A parameterized stationary covariance / variogram model.

    Parameters
    ----------
    kind : str
        One of the catalogue families (see KINDS).
    nugget : float
        Discontinuity at the origin, variance units, >= 0.
    sill : float
        Partial sill (variance units), >= 0.
    range_ : float
        Scale parameter, distance units, > 0.
    shape : float, optional
        Family shape parameter: Matern nu, Cauchy exponent, power / stable
        exponent. Must be omitted for families without one.
    """

    kind: str
    nugget: float
    sill: float
    range_: float
    shape: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        for name in ("nugget", "sill", "range_"):
            v = getattr(self, name)
            if not math.isfinite(float(v)):
                raise DomainError(f"{name} must be finite, got {v}")
        if self.nugget < 0.0 or self.sill < 0.0:
            raise DomainError("nugget and sill must be >= 0")
        if self.range_ <= 0.0:
            raise DomainError("range must be > 0")
        if self.kind in _SHAPE_KINDS:
            if self.shape is None or not math.isfinite(float(self.shape)):
                raise DomainError(f"{self.kind} model requires a finite shape parameter")
            s = float(self.shape)
            if self.kind == "matern" and not (0.0 < s <= NU_FIT_MAX):
                raise DomainError(f"matern nu must lie in (0, {NU_FIT_MAX}], got {s}")
            if self.kind == "stable" and not (0.0 < s <= 2.0):
                raise DomainError(f"stable exponent must lie in (0, 2], got {s}")
            if self.kind == "cauchy" and s <= 0.0:
                raise DomainError(f"cauchy exponent must be > 0, got {s}")
            if self.kind == "power" and s < 1.0:
                raise DomainError(f"power exponent must be >= 1, got {s}")
        elif self.shape is not None:
            raise DomainError(f"{self.kind} model takes no shape parameter")

    @property
    def valid_dims(self) -> float:
        """Largest spatial dimension where the model is positive definite."""
        if self.kind == "power":
            return math.floor(2.0 * float(self.shape) - 1.0)
        return _DIM_LIMIT.get(self.kind, math.inf)

    @property
    def total_sill(self) -> float:
        """C(0) = nugget + sill."""
        return float(self.nugget + self.sill)


@dataclass(frozen=True)
class NestedMaternSpec:
    """Sum of two Matern components plus a nugget.

    All seven parameters strictly positive except the nugget, which may be
    zero. Field order matches the fitting vector
    (nugget, sill1, range1, nu1, sill2, range2, nu2).
    """

    nugget: float
    sill1: float
    range1: float
    nu1: float
    sill2: float
    range2: float
    nu2: float

    def __post_init__(self):
        vals = (self.nugget, self.sill1, self.range1, self.nu1,
                self.sill2, self.range2, self.nu2)
        if not all(math.isfinite(float(v)) for v in vals):
            raise DomainError("nested Matern parameters must be finite")
        if self.nugget < 0.0 or self.sill1 < 0.0 or self.sill2 < 0.0:
            raise DomainError("nugget and sills must be >= 0")
        if min(self.range1, self.nu1, self.range2, self.nu2) <= 0.0:
            raise DomainError("ranges and smoothness must be > 0")

    def as_vector(self) -> np.ndarray:
        return np.array([self.nugget, self.sill1, self.range1, self.nu1,
                         self.sill2, self.range2, self.nu2])

    @property
    def total_sill(self) -> float:
        """C(0) = nugget + sill1 + sill2."""
        return float(self.nugget + self.sill1 + self.sill2)


@dataclass(frozen=True)
class PosteriorDraws:
    """Fitted covariance-parameter vectors, one row per converged fit.

    Seven columns hold the nested-Matern family
    (nugget, sill1, range1, nu1, sill2, range2, nu2); four columns hold the
    single Matern (nugget, sill, range, nu).
    """

    table: np.ndarray

    def __post_init__(self):
        tab = np.atleast_2d(np.asarray(self.table, dtype=float))
        if tab.shape[1] not in (4, 7):
            raise DomainError(
                f"draws must have 4 or 7 columns, got {tab.shape[1]}"
            )
        if tab.shape[0] < 1:
            raise DomainError("need at least one posterior draw")
        if not np.all(np.isfinite(tab)):
            raise DomainError("draws must be finite")
        if np.any(tab[:, 0] < 0.0) or np.any(tab[:, 1:] <= 0.0):
            raise DomainError("draws must be positive (nugget may be zero)")
        object.__setattr__(self, "table", tab)
        for row in tab:  # reject rows outside the model domain right away
            self._row_spec(row)

    @staticmethod
    def _row_spec(row):
        if row.size == 7:
            return NestedMaternSpec(*row)
        return CovarianceSpec("matern", row[0], row[1], row[2], row[3])

    def __len__(self) -> int:
        return self.table.shape[0]

    def spec(self, t: int):
        return self._row_spec(self.table[t])

    def specs(self):
        return [self._row_spec(row) for row in self.table]

    @classmethod
    def from_fit_results(cls, results) -> "PosteriorDraws":
        rows = [r.params for r in results if r.converged]
        if not rows:
            raise DomainError("no converged fits to build posterior draws from")
        return cls(np.array(rows))

    @classmethod
    def from_csv(cls, text: str) -> "PosteriorDraws":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty draws file")
        header = [c.strip().lower() for c in lines[0].split(",")]
        has_meta = header[-1] == "converged"
        n_par = len(header) - (2 if has_meta else 0)
        if n_par not in (4, 7):
            raise FormatError(
                f"draws file must carry 4 or 7 parameter columns, found {n_par}"
            )
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise FormatError(f"bad draws row: {ln!r}")
            if has_meta and cells[-1].strip().lower() != "true":
                continue
            try:
                rows.append([float(c) for c in cells[:n_par]])
            except ValueError:
                raise FormatError(f"non-numeric draws row: {ln!r}") from None
        if not rows:
            raise FormatError("draws file contains no converged rows")
        return cls(np.array(rows))


def _as_lags(h):
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0) or not np.all(np.isfinite(h)):
        raise DomainError("lag distances must be finite and >= 0")
    return h


def _checked_values(out, spec):
    """`out`, a float when 0-d; NumericError when a value is not finite."""
    if not np.all(np.isfinite(out)):
        raise NumericError(f"model {spec_to_text(spec)} is not finite at some lag")
    return float(out) if out.ndim == 0 else out


def _covariance(spec, h) -> np.ndarray:
    """C(h) at lags h >= 0, unchecked: an entry whose lag or value is not
    finite may be anything. numpy's warnings are silenced, as every caller
    tests the values."""
    with np.errstate(all="ignore"):
        if isinstance(spec, NestedMaternSpec):
            at_origin, part = _nested_correlation_parts(astuple(spec), h)
            return np.where(at_origin, spec.total_sill, part)
        rho = _unit_correlation(spec.kind, spec.shape, h / spec.range_)
        return spec.sill * rho + np.where(h == 0.0, spec.nugget, 0.0)


def covariance_eval(spec, h):
    """C(h) for a CovarianceSpec or NestedMaternSpec; h scalar or array.

    DomainError for a lag that is negative or not finite, NumericError
    when a value is not finite."""
    return _checked_values(_covariance(spec, _as_lags(h)), spec)


def covariance_values(spec, h) -> np.ndarray:
    """C(h) at an array of lags >= 0, NaN exactly where a lag or its value
    is not finite, and elsewhere the bits of `covariance_eval`: the failure
    rule of maps and densities, which fail only the sets and points holding
    a NaN. Only a batch that `covariance_eval` fails is evaluated again."""
    try:
        return covariance_eval(spec, h)
    except (DomainError, NumericError):
        pass
    h = np.asarray(h, dtype=float)
    finite = np.isfinite(h)
    out = np.full(h.shape, np.nan)
    out[finite] = _covariance(spec, _as_lags(h[finite]))
    out[~np.isfinite(out)] = np.nan
    return out


def distances(a, b) -> np.ndarray:
    """Euclidean distances |a_i - b_j| between the rows of two coordinate
    arrays, (n, d) and (m, d).

    The squared differences are summed coordinate by coordinate in order,
    the sum scipy's ``cdist`` forms, so the two agree bit for bit in one to
    three dimensions; only (n, m) arrays are allocated. A difference or a
    square beyond the largest float is inf, without a numpy warning: the
    covariance of an inf lag is NaN (`covariance_values`), and the point it
    belongs to reports the failure.
    """
    if a.shape[1] != b.shape[1]:
        raise DomainError(f"points of dimension {a.shape[1]} and {b.shape[1]} have no distance")
    sq = np.zeros((a.shape[0], b.shape[0]))
    with np.errstate(over="ignore"):
        for k in range(a.shape[1]):
            diff = a[:, k, None] - b[None, :, k]
            sq += diff * diff
    return np.sqrt(sq, out=sq)


def covariance_matrix(spec, a, b=None):
    """Covariance matrix C(|a_i - b_j|) between two point sets.

    Without ``b`` this is the Gram matrix of ``a``. Every covariance system
    in the package is built here.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    return np.asarray(covariance_eval(spec, distances(a, b)), dtype=float)


def _single_variogram(kind, nugget, sill, range_, shape, h):
    rho = _unit_correlation(kind, shape, h / range_)
    return np.where(h == 0.0, 0.0, nugget + sill * (1.0 - rho))


def _spec_row(spec):
    """(family, parameter vector in fitting order) of a model spec."""
    if isinstance(spec, NestedMaternSpec):
        return "nested_matern", spec.as_vector()
    shape = () if spec.shape is None else (spec.shape,)
    return spec.kind, np.array([spec.nugget, spec.sill, spec.range_, *shape], dtype=float)


def variogram_eval(spec, h):
    """gamma(h) = C(0) - C(h); exactly 0 at h = 0.

    Evaluated as the one row of `variogram_rows` for the spec's parameters,
    so it equals each row of a fit's parameter block bit for bit (a Matern
    variogram takes scipy's kve per element, not the table of a scalar nu).
    """
    h = _as_lags(h)
    family, params = _spec_row(spec)
    return _checked_values(variogram_rows(family, params[None], h.ravel()).reshape(h.shape),
                           spec)


def variogram_rows(family: str, params, h) -> np.ndarray:
    """gamma(h) for every row of a (P, k) block of parameter vectors.

    Rows are in fitting order: (nugget, sill, range[, shape]) or the seven
    nested-Matern parameters. The parameters broadcast as (P, 1) columns
    through the scalar code, so the Matern rows take scipy's kve per
    element with an array nu, and `variogram_eval` is the one-row case.
    Neither the rows (see `valid_rows`) nor the values are checked: a value
    that is not finite is returned as it is, for the caller to fail its row
    alone.

    Rows share values by value: the nested-Matern components of all rows
    go through one `matern_correlation` call, which evaluates each
    distinct (range, nu) pair once, wherever in the block it occurs. So a
    row's values do not depend on the other rows, and a block may stack
    the finite-difference blocks of several fits.
    """
    h = _as_lags(h)
    params = np.asarray(params, dtype=float)
    with np.errstate(all="ignore"):
        if family in EXPONENT_KINDS:  # Python-float parameters, as a spec holds them
            rows = [_single_variogram(family, *row, h) for row in params.tolist()]
            return np.array(rows, dtype=float).reshape(len(params), h.size)
        cols = [c[:, None] for c in params.T]
        if family == "nested_matern":
            return _nested_variogram(cols, h)
        nugget, sill, range_, *shape = cols
        return _single_variogram(family, nugget, sill, range_, shape[0] if shape else None, h)


def valid_rows(family: str, params) -> np.ndarray:
    """Which rows of a (P, k) block of parameter vectors, in fitting order,
    build a spec of the family: the tests of the CovarianceSpec and
    NestedMaternSpec constructors (the DomainErrors they raise) as array
    predicates, row for row."""
    params = np.asarray(params, dtype=float)
    finite = np.all(np.isfinite(params), axis=1)
    if family == "nested_matern":
        nugget, sill1, range1, nu1, sill2, range2, nu2 = params.T
        return (finite & (nugget >= 0.0) & (sill1 >= 0.0) & (sill2 >= 0.0)
                & (range1 > 0.0) & (nu1 > 0.0) & (range2 > 0.0) & (nu2 > 0.0))
    if family not in KINDS:
        return np.zeros(len(params), dtype=bool)
    ok = finite & (params[:, 0] >= 0.0) & (params[:, 1] >= 0.0) & (params[:, 2] > 0.0)
    if family not in _SHAPE_KINDS:
        return ok
    shape = params[:, 3]
    if family == "matern":
        return ok & (shape > 0.0) & (shape <= NU_FIT_MAX)
    if family == "stable":
        return ok & (shape > 0.0) & (shape <= 2.0)
    if family == "cauchy":
        return ok & (shape > 0.0)
    return ok & (shape >= 1.0)  # power


def matern_eval(nugget: float, sill: float, range_: float, nu: float, h):
    """Single Matern covariance with the rescaled range convention.

    With a_s = range / (2 sqrt(nu)) and u = h / a_s:
    C(0) = nugget + sill and C(h>0) = sill * u^nu K_nu(u) / (2^(nu-1) Gamma(nu)).
    """
    spec = CovarianceSpec("matern", nugget, sill, range_, nu)
    return covariance_eval(spec, h)


# Lags scaled below this count as the origin; the reference fallback for
# non-finite Bessel products is applied only there.
_NESTED_ORIGIN_EPS = 1e-12


def _distinct_rows(rows):
    """(first, inverse) over the rows of a 2-D array, compared bit for bit:
    the index of one row of each distinct value, and for every row the
    position of its value in `first`. One `np.unique` over the rows, each
    viewed as one bytes item (an `axis=0` unique compares column by
    column, far slower); its index outputs keep it from importing numpy.ma."""
    rows = np.ascontiguousarray(rows)
    items = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
    _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
    return first, inverse


def _nested_correlation_parts(p, h):
    """(at_origin, sill1 rho1 + sill2 rho2) for the seven parameters `p`,
    floats or (P, 1) columns, at validated lags `h`.

    With columns, the rows of both components are evaluated in one
    `matern_correlation` call, each distinct (range, nu) pair once: a
    finite-difference block moves one parameter per row, so it holds three
    distinct rows per component. Equal arguments give equal values, so
    every row is the value it would have alone."""
    _, sill1, range1, nu1, sill2, range2, nu2 = p
    if isinstance(nu1, np.ndarray):
        ranges, nus = np.concatenate([range1, range2]), np.concatenate([nu1, nu2])
        first, inverse = _distinct_rows(np.hstack([ranges, nus]))
        ranges, nus = ranges[first], nus[first]
        u = h / (ranges / (2.0 * np.sqrt(nus)))
        near = u < _NESTED_ORIGIN_EPS
        rho = matern_correlation(u, nus)
        one, two = inverse[:len(nu1)], inverse[len(nu1):]
        rho1, rho2 = rho[one], rho[two]
        # False, broadcast over the rows, unless some lag is near the origin
        near = near.any() and near[one] & near[two]
    else:
        u1 = h / (range1 / (2.0 * np.sqrt(nu1)))
        u2 = h / (range2 / (2.0 * np.sqrt(nu2)))
        near = (u1 < _NESTED_ORIGIN_EPS) & (u2 < _NESTED_ORIGIN_EPS)
        rho1 = matern_correlation(u1, nu1)
        rho2 = matern_correlation(u2, nu2)
    return (h == 0.0) | near, sill1 * rho1 + sill2 * rho2


def _nested_variogram(p, h):
    at_origin, part = _nested_correlation_parts(p, h)
    nugget, sill1, _, _, sill2, _, _ = p
    return np.where(at_origin, 0.0, nugget + sill1 + sill2 - part)


def nested_matern_covariance(spec: NestedMaternSpec, h):
    """C(h) of the two-component Matern; nugget + both sills at the origin."""
    return covariance_eval(spec, h)


def nested_matern_variogram(spec: NestedMaternSpec, h):
    """gamma(h) of the two-component Matern; 0 at the origin."""
    return variogram_eval(spec, h)


def matern_spectral_density(phi: float, alpha: float, nu: float, omega):
    """One-dimensional Matern spectral density phi * (alpha^2 + w^2)^(-nu - 1/2)."""
    if phi <= 0.0 or alpha <= 0.0 or nu <= 0.0:
        raise DomainError("matern_spectral_density requires phi, alpha, nu > 0")
    omega = np.asarray(omega, dtype=float)
    out = phi * (alpha**2 + omega**2) ** (-nu - 0.5)
    if out.ndim == 0:
        return float(out)
    return out


def validity_check(spec, dim: int) -> bool:
    """True iff the model is positive definite in the given dimension."""
    if int(dim) < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    if isinstance(spec, NestedMaternSpec):
        return True
    if spec.kind == "power":
        return float(spec.shape) >= (dim + 1) / 2.0
    return dim <= _DIM_LIMIT.get(spec.kind, math.inf)


# -- flat key/value text form ------------------------------------------------

_NESTED_KEYS = ("nugget", "sill1", "range1", "nu1", "sill2", "range2", "nu2")


def spec_to_text(spec) -> str:
    """Serialize a model spec to the flat `key=value` text form."""
    if isinstance(spec, NestedMaternSpec):
        parts = ["kind=nested_matern"]
        parts += [f"{k}={fmt_float_point(getattr(spec, k))}" for k in _NESTED_KEYS]
        return " ".join(parts)
    parts = [
        f"kind={spec.kind}",
        f"nugget={fmt_float_point(spec.nugget)}",
        f"sill={fmt_float_point(spec.sill)}",
        f"range={fmt_float_point(spec.range_)}",
    ]
    if spec.shape is not None:
        parts.append(f"nu={fmt_float_point(spec.shape)}")
    return " ".join(parts)


def _parse_number(key: str, token: str) -> float:
    if "." not in token:
        raise FormatError(f"value for {key!r} must carry a decimal point: {token!r}")
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"cannot parse value for {key!r}: {token!r}") from None


def spec_from_text(text: str):
    """Parse the flat `key=value` form back into a model spec."""
    fields: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise FormatError(f"malformed token {token!r} in model spec")
        key, _, value = token.partition("=")
        if key in fields:
            raise FormatError(f"duplicate key {key!r} in model spec")
        fields[key] = value
    kind = fields.pop("kind", None)
    if kind is None:
        raise FormatError("model spec is missing the kind= field")
    if kind == "nested_matern":
        try:
            vals = [_parse_number(k, fields.pop(k)) for k in _NESTED_KEYS]
        except KeyError as exc:
            raise FormatError(f"nested_matern spec is missing {exc.args[0]}") from None
        if fields:
            raise FormatError(f"unknown keys in model spec: {sorted(fields)}")
        return NestedMaternSpec(*vals)
    if kind not in KINDS:
        raise FormatError(f"unknown model kind {kind!r}")
    if "shape" in fields and "nu" not in fields:
        fields["nu"] = fields.pop("shape")
    try:
        nugget = _parse_number("nugget", fields.pop("nugget"))
        sill = _parse_number("sill", fields.pop("sill"))
        range_ = _parse_number("range", fields.pop("range"))
    except KeyError as exc:
        raise FormatError(f"model spec is missing {exc.args[0]}") from None
    shape = None
    if "nu" in fields:
        shape = _parse_number("nu", fields.pop("nu"))
    if fields:
        raise FormatError(f"unknown keys in model spec: {sorted(fields)}")
    try:
        return CovarianceSpec(kind, nugget, sill, range_, shape)
    except DomainError as exc:
        raise FormatError(str(exc)) from None
