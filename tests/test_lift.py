"""The gamma functions' lift along a shift axis: bit for bit the loop of
whole-array passes it replaced (tests/conftest.py keeps it as the oracle)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from scool import special

from conftest import lift_loop


def _bits(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float)).view(np.int64)


@pytest.mark.parametrize("fn", [special.digamma, special.log_gamma])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    log_x=hst.lists(hst.floats(-12.0, 10.0), min_size=1, max_size=40),
    columns=hst.sampled_from([None, 1, 3]),
)
@example(log_x=[np.log(np.nextafter(10.0, 0.0)), np.log(10.0), 0.0, np.log(1e-300)], columns=None)
@example(log_x=[np.log(10.0), 5.0, 9.0], columns=3)  # every entry starts lifted
def test_bits_equal_the_loop(fn, log_x, columns):
    x = np.exp(np.array(log_x))
    if columns is not None:
        x = np.resize(x, (len(x), columns))  # 2-d, as gamma is K x M
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_lift", lift_loop)
        want = fn(x)
    np.testing.assert_array_equal(_bits(fn(x)), _bits(want))


@pytest.mark.parametrize("fn", [special.digamma, special.log_gamma])
@pytest.mark.parametrize("x", [1e-300, 0.37, 9.999999999999998, 10.0, 250.0])
def test_scalars_equal_the_loop(fn, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_lift", lift_loop)
        want = fn(x)
    got = fn(x)
    assert type(got) is float and _bits(got) == _bits(want)
