"""The diagonal-jitter ladder of `chol_with_jitter`: rung 0 adds nothing,
rung k >= 1 adds 1e-10 * mean diagonal * 2^(k - 1), and rung 7 is the last.
Past it, one matrix raises and a matrix of a stack gets a NaN factor.
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
    # in a stack the matrix past the ladder gets a NaN factor and adds no
    # delta; the others keep the factor and delta they have alone
    L, delta = chol_with_jitter(np.stack([needing(0), mat, needing(2)]))
    assert np.isnan(L[1]).all()
    assert np.array_equal(L[0], chol_with_jitter(needing(0))[0])
    assert np.array_equal(L[2], chol_with_jitter(needing(2))[0])
    assert delta == delta_of(2, needing(2))
    L, delta = chol_with_jitter(mat[None])
    assert np.isnan(L).all() and delta == 0.0


def test_solves_of_a_stack_equal_one_solve_per_item_bit_for_bit():
    from variokrig._linalg import chol_solve, chol_solve_each

    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 5, 5))
    L = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.5 * np.eye(5))
    which = np.array([2, 0, 2, 1])
    vectors = rng.normal(size=(4, 5))
    blocks = rng.normal(size=(4, 2, 5))  # C-ordered: each item's transpose is an (n, 2) block
    x, xb = vectors.copy(), blocks.copy()
    assert chol_solve_each(L, which, x) is None
    chol_solve_each(L, which, xb.transpose(0, 2, 1))
    for p, g in enumerate(which):
        assert np.array_equal(x[p], chol_solve(L[g], vectors[p]))
        assert np.array_equal(xb[p].T, chol_solve(L[g], blocks[p].T))
    # a zero on a factor's diagonal fails its items alone, whose rows turn
    # NaN, and so does a NaN factor, the factor of a matrix past the ladder
    L[0, 3, 3] = 0.0
    x = vectors.copy()
    chol_solve_each(L, which, x)
    assert np.isnan(x).all(axis=1).tolist() == [False, True, False, False]
    assert np.array_equal(x[0], chol_solve(L[2], vectors[0]))
    with pytest.raises(SingularMatrixError):
        chol_solve(L[0], vectors[1])
    L[1] = np.nan
    x = vectors.copy()
    chol_solve_each(L, which, x)
    assert np.isnan(x).all(axis=1).tolist() == [False, True, False, True]
    assert np.array_equal(x[2], chol_solve(L[2], vectors[2]))
    # a block of another layout would be copied by LAPACK's wrapper, not solved
    with pytest.raises(ValueError):
        chol_solve_each(L, which, blocks.copy().transpose(0, 2, 1).copy())


def test_a_stack_retries_only_the_matrices_that_fail(monkeypatch):
    # a density factors a size group under many draws in one stack: one
    # matrix that needs jitter, and one past the ladder, climb the ladder
    # alone, and every other matrix keeps the factor of the stacked call
    from variokrig import _linalg

    rungs = [0] * 40
    rungs[7], rungs[29] = 3, RUNGS
    mats = np.stack([needing(rung) for rung in rungs])
    climbed = []
    chol_one = _linalg._chol_one
    monkeypatch.setattr(_linalg, "_chol_one", lambda mat: climbed.append(mat) or chol_one(mat))
    L, delta = chol_with_jitter(mats)
    assert len(climbed) == 2
    assert all(np.array_equal(mat, mats[g]) for mat, g in zip(climbed, [7, 29]))
    assert delta == delta_of(3, mats[7])
    assert np.isnan(L[29]).all()
    for rung, mat, factor in zip(rungs, mats, L):
        if rung < RUNGS:
            assert np.array_equal(factor, np.linalg.cholesky(mat + delta_of(rung, mat) * np.eye(4)))
