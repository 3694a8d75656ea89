import numpy as np
import pytest

from variokrig.util import percentiles

QS = [0, 1, 25, 33, 50, 66.7, 75, 90, 99.9, 100]


def samples():
    rng = np.random.default_rng(40)
    yield from ([-0.0], [0.0], [3.5], [-0.0, 0.0], [0.0, -0.0], [1.0, 1.0], [2.0, -1.0])
    yield [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0]
    for n in (1, 2, 3, 4, 7, 10, 41, 300):
        yield rng.normal(size=n)
        yield rng.integers(-3, 4, size=n).astype(float)  # many ties
        yield np.round(rng.normal(size=n), 1) * 0.0 * rng.choice([-1.0, 1.0], size=n)  # signed zeros
        yield np.exp(rng.normal(scale=30.0, size=n)) * rng.choice([-1.0, 1.0], size=n)


@pytest.mark.parametrize("case", list(enumerate(samples())), ids=lambda c: str(c[0]))
def test_percentiles_equal_numpys_linear_percentile_bit_for_bit(case):
    _, x = case
    x = np.asarray(x, dtype=float)
    for q in QS:
        assert percentiles(x, [q]).tobytes() == np.atleast_1d(np.percentile(x, q)).tobytes(), q
    assert percentiles(x, QS).tobytes() == np.percentile(x, QS).tobytes()
    assert percentiles(x, [75, 25]).tobytes() == np.percentile(x, [75, 25]).tobytes()


def test_percentiles_leave_their_input_alone_and_propagate_nan():
    x = np.array([3.0, 1.0, 2.0])
    assert percentiles(x, [50])[0] == 2.0
    assert x.tolist() == [3.0, 1.0, 2.0]
    assert np.isnan(percentiles([1.0, np.nan, 2.0], [10, 90])).all()
