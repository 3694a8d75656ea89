"""Internal dense linear algebra with a diagonal-jitter ladder.

Every covariance system is factored here, so the degenerate-matrix policy
lives in exactly one place: a symmetric matrix that fails Cholesky gets
``delta * I`` added, with delta starting at 1e-10 times the mean diagonal
and doubling up to six times before the attempt is abandoned. Past the
ladder, one (n, n) matrix raises SingularMatrixError, as
`models.covariance_eval` raises, and a matrix of a stack gets a NaN factor,
as `models.covariance_values` gives NaN: its solves are NaN, and it fails
its own item (neighbour set, draw or point) alone. A system is factored once by ``chol_with_jitter`` and solved with
that factor by ``chol_solve``, as often as its callers need:
``chol_solve_into`` solves in place (a density's per-draw solves), and
``chol_solve_each`` solves a stack of right-hand sides against views of a
stack of factors (a map's per-point solves). ``spd_solve`` does both for a
one-off system. The module is the package's only route to scipy's LAPACK.
The first triangular solve loads LAPACK's ``dtrtrs`` from the compiled
module `scipy.linalg._flapack` alone, without the `scipy.linalg` package;
where that module is missing, it imports `scipy.linalg.lapack`, whose
``dtrtrs`` is the same routine.
"""

import numpy as np

from .exceptions import SingularMatrixError
from .util import scipy_extension

JITTER_REL = 1e-10
JITTER_DOUBLINGS = 6


def jitter_ladder(scale: float):
    """Yield the jitter magnitudes 0, eps, 2*eps, ..., 2**6 * eps."""
    base = JITTER_REL * max(scale, np.finfo(float).tiny)
    yield 0.0
    for k in range(JITTER_DOUBLINGS + 1):
        yield base * 2.0**k


def _chol_one(mat):
    """(L, delta) of one matrix for the first rung of the jitter ladder that
    factors it, or None when the ladder is exhausted."""
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
    return None


def chol_with_jitter(mat):
    """Lower Cholesky factor of ``mat + delta*I`` for the smallest workable delta.

    ``mat`` is one (n, n) matrix or a (T, n, n) stack: the T draws of one
    density point, or a group of same-size neighbour sets of a kriging map.
    Returns ``(L, delta)``. One matrix past the ladder raises
    SingularMatrixError. A stack is factored in one call and, when any of
    its matrices needs jitter, again matrix by matrix, each with its own
    delta (the largest is returned); a matrix past the ladder then gets a
    NaN factor and adds no delta, and the stack never raises. The factor of
    each matrix is the same either way, and the same as a call on that
    matrix alone.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 2:
        factored = _chol_one(mat)
        if factored is None:
            raise SingularMatrixError(
                f"matrix of order {mat.shape[0]} is not positive definite even after jitter"
            )
        return factored
    try:
        L = np.linalg.cholesky(mat)
        if np.all(np.isfinite(L)):
            return L, 0.0
    except np.linalg.LinAlgError:
        pass
    failed = (np.full(mat.shape[1:], np.nan), 0.0)
    factors = [_chol_one(m) or failed for m in mat]
    return np.stack([L for L, _ in factors]), max(delta for _, delta in factors)


def _load_dtrtrs():
    """LAPACK's dtrtrs: from `scipy.linalg._flapack` alone, else from
    `scipy.linalg.lapack`."""
    flapack = scipy_extension("linalg", "_flapack", ("dtrtrs",))
    if flapack is None:
        from scipy.linalg import lapack as flapack

    return flapack.dtrtrs


def _dtrtrs(*args, **kwargs):
    """LAPACK's dtrtrs. The first call loads it and binds it in place of
    this function, so later solves call it directly."""
    global _dtrtrs
    _dtrtrs = _load_dtrtrs()
    return _dtrtrs(*args, **kwargs)


def chol_solve(L, rhs):
    """Solve ``L L' x = rhs`` with two triangular solves.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides. Both
    solves run on the Fortran-ordered view L' of the C-ordered factor,
    the LAPACK calls that ``scipy.linalg.solve_triangular`` makes for
    ``L`` and then ``L.T``, without its per-call validation.
    """
    return chol_solve_into(L, np.array(rhs, dtype=float, order="F"))


def chol_solve_into(L, b):
    """``chol_solve(L, b)`` in place of ``b``, a float64 vector or a
    Fortran-ordered (n, r) block of right-hand sides, with the same two
    LAPACK calls and so the same bits. Returns ``b``. Any other ``b`` would
    be copied by the LAPACK wrapper and left unsolved, so the callers build
    ``b`` in that layout."""
    Lt = L.T
    info = _dtrtrs(Lt, b, lower=0, trans=1, overwrite_b=1)[1]
    if info == 0:
        info = _dtrtrs(Lt, b, lower=0, trans=0, overwrite_b=1)[1]
    if info != 0:
        raise SingularMatrixError(f"triangular solve failed (LAPACK info {info})")
    return b


def chol_solve_each(L, which, rhs):
    """``chol_solve_into(L[which[p]], rhs[p])`` for every item p, where L
    is a C-ordered (G, n, n) stack of factors and ``rhs`` a stack of P
    items: vectors (P, n) or Fortran-ordered (n, r) blocks, such as the
    transpose (0, 2, 1) of a C-ordered (P, r, n) array. Each item passes a
    view of its factor, so no factor is copied, and only its two LAPACK
    calls run per item. An item whose solve fails is set to NaN, as is one
    solved against a NaN factor. The layout of ``rhs`` is checked, since
    ``chol_solve_into`` cannot see a copy."""
    if len(rhs) and not (rhs.dtype == np.float64 and rhs[0].flags.f_contiguous):
        raise ValueError("right-hand sides must be float64 and Fortran-ordered per item")
    for p, g in enumerate(which.tolist()):
        try:
            chol_solve_into(L[g], rhs[p])
        except SingularMatrixError:
            rhs[p] = np.nan


def spd_solve(mat, rhs):
    """Solve ``mat @ x = rhs`` for symmetric positive (semi-)definite ``mat``:
    one jittered Cholesky factorisation, then ``chol_solve``."""
    return chol_solve(chol_with_jitter(mat)[0], rhs)
