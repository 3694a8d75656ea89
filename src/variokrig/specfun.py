"""Special functions backing the Matern covariance and the Huber bias: the
gamma function, the modified Bessel function of the second kind and the
standard normal cdf.

Everything here is pure and reentrant. The heavy numerics are delegated to
scipy.special's ufuncs; this module owns the domain contracts (strict
argument checking, explicit overflow signalling, the exponentially scaled
variant). It is the package's only route to them. The first call that needs
one loads the compiled module that holds them, `scipy.special._special_ufuncs`,
by itself, without the `scipy.special` package; where that module is missing
or lacks one of the five ufuncs (older scipy), it imports `scipy.special`.
Either way the same ufunc objects run. Importing the package loads numpy
only.
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
    Intended for internal use by the Matern evaluators; accepts arrays.
    ``nu`` is a scalar or an array broadcasting against ``x``; every element
    goes through the same operations either way.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(nu, np.ndarray):
        nu, x = np.broadcast_arrays(nu.astype(float, copy=False), x)
    kve = _special().kve(nu, x)
    safe = np.isfinite(kve) & (kve > 0.0)
    out = np.empty(kve.shape)
    out[safe] = np.log(kve[safe]) - x[safe]
    if not np.all(safe):
        xb = x[~safe]
        nub = np.broadcast_to(nu[~safe] if isinstance(nu, np.ndarray) else nu, xb.shape)
        k0 = nub <= 0.0
        small = np.empty_like(xb)
        # K_0(x) ~ -log(x/2) - euler_gamma as x -> 0
        small[k0] = np.log(-np.log(xb[k0] / 2.0) - np.euler_gamma)
        knu = ~k0
        small[knu] = (
            math.log(0.5)
            + log_gamma(nub[knu])
            + nub[knu] * (math.log(2.0) - np.log(xb[knu]))
        )
        out[~safe] = small
    return out
