"""Special functions backing the Matern covariance: the gamma function and
the modified Bessel function of the second kind.

Everything here is pure and reentrant. The heavy numerics are delegated to
scipy.special; this module owns the domain contracts (strict argument
checking, explicit overflow signalling, the exponentially scaled variant).
"""

import math

import numpy as np
from scipy import special

from .exceptions import DomainError, NumericError

NU_MAX = 50.0


def gamma_fn(x: float) -> float:
    """Gamma(x) for strictly positive real x.

    Raises DomainError for x <= 0 or non-finite x, NumericError when the
    result overflows the double range (x beyond ~171.6).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires finite x > 0, got {x}")
    val = float(special.gamma(x))
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
    val = float(special.kv(nu, x))
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
    val = float(special.kve(nu, x))
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
    kve = special.kve(nu, x)
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
            + special.gammaln(nub[knu])
            + nub[knu] * (math.log(2.0) - np.log(xb[knu]))
        )
        out[~safe] = small
    return out
