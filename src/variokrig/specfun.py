"""Special functions backing the Matern covariance and the Huber bias: the
gamma function, the modified Bessel function of the second kind and the
standard normal cdf.

Everything here is pure and reentrant. scipy.special's ufuncs evaluate the
gamma function, the normal cdf and the Bessel functions; this module owns
the domain contracts (strict argument checking, explicit overflow
signalling, the exponentially scaled variant). It is the package's only
route to them. The first call that needs one loads the compiled module that
holds them, `scipy.special._special_ufuncs`, by itself, without the
`scipy.special` package; where that module is missing or lacks one of the
five ufuncs (older scipy), it imports `scipy.special`. Either way the same
ufunc objects run. Importing the package loads numpy only.

One evaluation is this module's own: `log_bessel_k` at a scalar nu that is
not a half-integer reads log kve from a piecewise Chebyshev table in
s = log x, built per call from kve at the nodes of the pieces its arguments
fall in (see `_log_kve_pieces`). kve's cost per element at such nu is
several times its cost at a half-integer, and a covariance evaluation holds
thousands of lags at one nu. The path depends only on nu, so an argument's
value never depends on the other arguments of its call.
"""

import functools
import math

import numpy as np

from .exceptions import DomainError, NumericError
from .util import scipy_extension

NU_MAX = 50.0

_UFUNCS = ("kve", "kv", "gammaln", "gamma", "ndtr")


@functools.cache
def _special():
    """The module holding scipy.special's kve, kv, gammaln, gamma and ndtr,
    loaded on first use: `scipy.special._special_ufuncs` alone, else
    `scipy.special`."""
    ufuncs = scipy_extension("special", "_special_ufuncs", _UFUNCS)
    if ufuncs is None:
        from scipy import special as ufuncs

    return ufuncs


def log_gamma(x):
    """log Gamma(x), elementwise: scipy.special.gammaln."""
    return _special().gammaln(x)


def normal_cdf(x):
    """The standard normal cdf, elementwise: scipy.special.ndtr."""
    return _special().ndtr(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for strictly positive real x.

    Raises DomainError for x <= 0 or non-finite x, NumericError when the
    result overflows the double range (x beyond ~171.6).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires finite x > 0, got {x}")
    val = float(_special().gamma(x))
    if not math.isfinite(val):
        raise NumericError(f"gamma_fn({x}) overflows the floating range")
    return val


def _check_bessel_args(nu: float, x: float) -> tuple[float, float]:
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu < 0.0 or nu > NU_MAX:
        raise DomainError(f"bessel_k requires 0 <= nu <= {NU_MAX}, got nu={nu}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"bessel_k requires finite x > 0, got x={x}")
    return nu, x


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x).

    Domain: x > 0 and 0 <= nu <= 50. Overflow (K_nu(x) beyond the double
    range for tiny x and large nu) raises NumericError rather than
    returning inf.
    """
    nu, x = _check_bessel_args(nu, x)
    val = float(_special().kv(nu, x))
    if not math.isfinite(val):
        raise NumericError(
            f"bessel_k(nu={nu}, x={x}) exceeds the floating range"
        )
    return val


def bessel_k_scaled(nu: float, x: float) -> float:
    """Exponentially scaled variant exp(x) * K_nu(x).

    Stays finite for large x where the plain K_nu underflows; same domain
    checks as bessel_k.
    """
    nu, x = _check_bessel_args(nu, x)
    val = float(_special().kve(nu, x))
    if not math.isfinite(val):
        raise NumericError(
            f"bessel_k_scaled(nu={nu}, x={x}) exceeds the floating range"
        )
    return val


def log_bessel_k(nu, x) -> np.ndarray:
    """log K_nu(x), elementwise, stable for tiny x and large nu.

    Where the scaled Bessel itself overflows (x extremely small, nu large)
    the small-argument form K_nu(x) ~ Gamma(nu)/2 * (2/x)^nu takes over.
    Where scipy's kve is NaN at a number x (beyond about 1.07e9, at every
    nu) the large-argument form K_nu(x) ~ sqrt(pi/(2x)) e^-x does; its
    dropped factor 1 + (4 nu^2 - 1)/(8x) is below 1 + 1.2e-6 there for
    nu <= 50. Intended for internal use by the Matern evaluators; accepts
    arrays.

    ``nu`` is a scalar or an array broadcasting against ``x``, every value
    > 0 (every Matern smoothness is; K_0's own small-argument form is not
    implemented). An array nu
    (the fits' parameter blocks) and a half-integer scalar nu (where kve is
    cheap) take scipy's kve element by element, so every element goes
    through the same operations either way. Any other scalar nu reads log
    kve from the Chebyshev table of `_log_kve_pieces` wherever a piece
    covers the argument, and takes the per-element path elsewhere. Against
    a 50-digit oracle, for 0 < nu <= 50 and x from 1e-12 to 1e3, the table
    keeps the Matern correlation within 2.3e-13 relative, kve within
    1.6e-13. Either way an element's value depends only on nu and on that
    element.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(nu, np.ndarray):
        nu = nu.astype(float, copy=False)
    elif float(nu) % 1.0 != 0.5:
        return _log_bessel_k_table(float(nu), x)
    return _log_bessel_k_each(nu, x)


def _log_bessel_k_each(nu, x):
    """log K_nu(x), nu > 0, from one kve call per element. Where kve is not
    finite and positive, an asymptotic form takes over: the small-argument
    form where kve overflows (+inf), the large-argument form
    K_nu(x) ~ sqrt(pi / (2x)) e^-x elsewhere (scipy's kve is NaN beyond
    about x = 1.07e9). A NaN argument or nu gives NaN."""
    kve = _special().kve(nu, x)
    safe = np.isfinite(kve) & (kve > 0.0)
    if safe.all():
        out = np.log(kve)
        out -= x
        return out
    if isinstance(nu, np.ndarray):  # the masks below index both
        nu, x = np.broadcast_arrays(nu, x)
    out = np.full(kve.shape, np.nan)
    out[safe] = np.log(kve[safe]) - x[safe]
    small = kve == np.inf
    if small.any():
        xb = x[small]
        nub = np.broadcast_to(nu[small] if isinstance(nu, np.ndarray) else nu, xb.shape)
        out[small] = math.log(0.5) + log_gamma(nub) + nub * (math.log(2.0) - np.log(xb))
    large = ~(safe | small) & ~np.isnan(nu)
    if large.any():
        xb = x[large]
        out[large] = 0.5 * np.log(math.pi / (2.0 * xb)) - xb
    return out


# The table of log kve(nu, e^s): one piece per unit interval [k, k + 1) of
# s, each the degree-18 Chebyshev interpolant at the 19 Chebyshev extreme
# points t_j = cos(pi j / 18) of t = 2 (s - k) - 1, from 1 down to -1.
_DEGREE = 18
_NODES = np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
# e^(s - k) at each node: a node's argument is e^k times its scale
_NODE_SCALES = np.exp(0.5 * (_NODES + 1.0))
# The type-I cosine transform from node values to the coefficients a_m of
# sum_m a_m T_m(t), the first and last node and coefficient halved.
_COSINES = (2.0 / _DEGREE) * np.cos(np.pi * np.outer(np.arange(_DEGREE + 1),
                                                     np.arange(_DEGREE + 1)) / _DEGREE)
_COSINES[:, [0, -1]] *= 0.5
_COSINES[[0, -1]] *= 0.5


def _log_kve_pieces(nu: float, low: float, count: int):
    """Chebyshev coefficients of log kve(nu, e^s) on the pieces
    [k, k + 1), k = low, ..., low + count - 1, as a (degree + 1, count)
    array of rows per degree, and which pieces hold: those whose node
    arguments are normal floats and whose kve values at every node are
    finite and positive (kve overflows at the small arguments of a large
    nu, and is not finite beyond about 1e9).

    Each piece's node values are centred on its middle node before the
    transform, so that the rounding of the transform scales with the
    variation over the piece, not with the size of log kve. Everything is
    elementwise or a fixed sequence of operations per piece, so a piece's
    coefficients do not depend on the other pieces built with it.
    """
    left = np.exp(low + np.arange(count, dtype=float))
    with np.errstate(over="ignore"):  # the nodes of a piece near the top of the range
        f = _special().kve(nu, left[:, None] * _NODE_SCALES)
    holds = (left >= np.finfo(float).tiny) & np.all(np.isfinite(f) & (f > 0.0), axis=1)
    f = np.log(np.where(holds[:, None], f, 1.0))
    middle = f[:, _DEGREE // 2].copy()
    f -= middle[:, None]
    coef = np.zeros((_DEGREE + 1, count))
    for j in range(_DEGREE + 1):
        coef += _COSINES[:, j, None] * f[:, j]
    coef[0] += middle
    return coef, holds


def _log_bessel_k_table(nu: float, x: np.ndarray) -> np.ndarray:
    """log K_nu(x) at a scalar nu from the table of `_log_kve_pieces`,
    summed by Clenshaw's recurrence, minus x; the per-element path where no
    piece holds (x not finite and positive, or kve overflowing)."""
    shape, x = x.shape, x.ravel()
    s = np.log(x)
    k = np.floor(s)
    on = np.isfinite(k)
    out = np.empty(x.shape)
    if on.any():
        low = k[on].min()
        piece = np.where(on, k - low, 0.0).astype(np.intp)
        coef, holds = _log_kve_pieces(nu, low, int(piece.max()) + 1)
        on &= holds[piece]
        piece, t = piece[on], 2.0 * (s[on] - k[on]) - 1.0
        t2 = 2.0 * t
        b1, b2 = coef[_DEGREE][piece], np.zeros(t.shape)
        a, tmp = np.empty(t.shape), np.empty(t.shape)
        # Clenshaw: b_m = a_m + 2 t b_(m+1) - b_(m+2), and the sum is
        # a_0 + t b_1 - b_2
        for m in range(_DEGREE - 1, -1, -1):
            np.multiply(t if m == 0 else t2, b1, out=tmp)
            tmp -= b2
            tmp += np.take(coef[m], piece, out=a)
            b1, b2, tmp = tmp, b1, b2
        out[on] = b1 - x[on]
    rest = ~on
    if rest.any():
        out[rest] = _log_bessel_k_each(nu, x[rest])
    return out.reshape(shape)
