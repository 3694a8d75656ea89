"""Internal dense linear algebra with a diagonal-jitter ladder.

Every covariance system is factored here, so the degenerate-matrix policy
lives in exactly one place: a symmetric matrix that fails Cholesky gets
``delta * I`` added, with delta starting at 1e-10 times the mean diagonal
and doubling up to six times before the attempt is abandoned. ``spd_solve``
is the only solve; callers stack several right-hand sides into one call.
Only field simulation and the Bayes prior check use the factor directly.
"""

import numpy as np
from scipy import linalg as sla

from .exceptions import SingularMatrixError

JITTER_REL = 1e-10
JITTER_DOUBLINGS = 6


def jitter_ladder(scale: float):
    """Yield the jitter magnitudes 0, eps, 2*eps, ..., 2**6 * eps."""
    base = JITTER_REL * max(scale, np.finfo(float).tiny)
    yield 0.0
    for k in range(JITTER_DOUBLINGS + 1):
        yield base * 2.0**k


def chol_with_jitter(mat):
    """Lower Cholesky factor of ``mat + delta*I`` for the smallest workable delta.

    Returns ``(L, delta)``. Raises SingularMatrixError when the ladder is
    exhausted.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    scale = float(np.trace(mat)) / max(n, 1)
    for delta in jitter_ladder(scale):
        try:
            shifted = mat if delta == 0.0 else mat + delta * np.eye(n)
            L = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(L)):
            return L, delta
    raise SingularMatrixError(
        f"matrix of order {n} is not positive definite even after jitter"
    )


def spd_solve(mat, rhs):
    """Solve ``mat @ x = rhs`` for symmetric positive (semi-)definite ``mat``.

    One jittered Cholesky factorisation, then two triangular solves.
    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    """
    L, _ = chol_with_jitter(mat)
    y = sla.solve_triangular(L, rhs, lower=True)
    return sla.solve_triangular(L.T, y, lower=False)
