"""The diagonal-jitter ladder of `chol_with_jitter`: rung 0 adds nothing,
rung k >= 1 adds 1e-10 * mean diagonal * 2^(k - 1), and rung 7 is the last.
These tests pin the ladder as it stands."""

import numpy as np
import pytest

from variokrig._linalg import JITTER_DOUBLINGS, chol_with_jitter
from variokrig.exceptions import SingularMatrixError

RUNGS = JITTER_DOUBLINGS + 2  # 0, then one per power of two


def needing(rung: int, n: int = 4) -> np.ndarray:
    """A diagonal matrix that fails Cholesky below `rung` and passes at it:
    its last entry is 0 for rung 1, and for a higher rung -0.75 times that
    rung's delta, between it and the delta of the rung below."""
    diag = np.ones(n)
    if rung >= 1:
        diag[-1] = -0.75 * 1e-10 * (n - 1) / n * 2.0 ** (rung - 1) if rung >= 2 else 0.0
    return np.diag(diag)


def delta_of(rung: int, mat) -> float:
    scale = float(np.trace(mat)) / mat.shape[0]
    return 0.0 if rung == 0 else 1e-10 * scale * 2.0 ** (rung - 1)


@pytest.mark.parametrize("rung", range(RUNGS))
def test_a_matrix_gets_the_first_rung_that_factors_it(rung):
    mat = needing(rung)
    L, delta = chol_with_jitter(mat)
    assert delta == delta_of(rung, mat)
    assert np.array_equal(L, np.linalg.cholesky(mat + delta * np.eye(len(mat))))


def test_a_stack_returns_each_matrix_its_own_factor_and_the_largest_delta():
    rungs = [3, 0, 5, 1]
    mats = [needing(rung) for rung in rungs]
    L, delta = chol_with_jitter(np.stack(mats))
    assert delta == max(delta_of(rung, mat) for rung, mat in zip(rungs, mats))
    for rung, mat, factor in zip(rungs, mats, L):
        assert np.array_equal(factor, chol_with_jitter(mat)[0])
        assert np.array_equal(factor, np.linalg.cholesky(mat + delta_of(rung, mat) * np.eye(4)))


def test_one_rung_past_the_ladder_raises():
    mat = needing(RUNGS)
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(mat)
    with pytest.raises(SingularMatrixError):
        chol_with_jitter(np.stack([needing(0), mat]))
