"""Internal dense linear algebra with a diagonal-jitter ladder.

Every covariance system is factored here, so the degenerate-matrix policy
lives in exactly one place: a symmetric matrix that fails Cholesky gets
``delta * I`` added, with delta starting at 1e-10 times the mean diagonal
and doubling up to six times before the attempt is abandoned. A system is
factored once by ``chol_with_jitter`` and solved with that factor by
``chol_solve``, as often as its callers need; ``spd_solve`` does both for a
one-off system.
"""

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .exceptions import SingularMatrixError

JITTER_REL = 1e-10
JITTER_DOUBLINGS = 6


def jitter_ladder(scale: float):
    """Yield the jitter magnitudes 0, eps, 2*eps, ..., 2**6 * eps."""
    base = JITTER_REL * max(scale, np.finfo(float).tiny)
    yield 0.0
    for k in range(JITTER_DOUBLINGS + 1):
        yield base * 2.0**k


def _chol_one(mat):
    """(L, delta) of one matrix: the jitter ladder of ``chol_with_jitter``."""
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


def chol_with_jitter(mat):
    """Lower Cholesky factor of ``mat + delta*I`` for the smallest workable delta.

    ``mat`` is one (n, n) matrix or a (T, n, n) stack. Returns ``(L, delta)``;
    a stack is factored in one call and, when any of its matrices needs
    jitter, again matrix by matrix, each with its own delta (the largest is
    returned). The factor of each matrix is the same either way. Raises
    SingularMatrixError when the ladder is exhausted.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 2:
        return _chol_one(mat)
    try:
        L = np.linalg.cholesky(mat)
        if np.all(np.isfinite(L)):
            return L, 0.0
    except np.linalg.LinAlgError:
        pass
    factors = [_chol_one(m) for m in mat]
    return np.stack([L for L, _ in factors]), max(delta for _, delta in factors)


def chol_solve(L, rhs):
    """Solve ``L L' x = rhs`` with two triangular solves.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides. Both
    solves run on the Fortran-ordered view L' of the C-ordered factor,
    the LAPACK calls that ``scipy.linalg.solve_triangular`` makes for
    ``L`` and then ``L.T``, without its per-call validation.
    """
    Lt = np.ascontiguousarray(L).T
    y, info = dtrtrs(Lt, rhs, lower=0, trans=1)
    if info == 0:
        x, info = dtrtrs(Lt, y, lower=0, trans=0)
    if info != 0:
        raise SingularMatrixError(f"triangular solve failed (LAPACK info {info})")
    return x


def spd_solve(mat, rhs):
    """Solve ``mat @ x = rhs`` for symmetric positive (semi-)definite ``mat``:
    one jittered Cholesky factorisation, then ``chol_solve``."""
    return chol_solve(chol_with_jitter(mat)[0], rhs)
