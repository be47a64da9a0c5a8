"""The gamma functions' lift along a shift axis: bit for bit the loop of
whole-array passes it replaced (tests/conftest.py keeps it as the oracle).
Each entry's bits depend on that entry alone, which lets the block priors
make one call on a concatenation, and every argument outside (0, inf)
raises the same ValueError."""

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


# Entries from 1e-300 to 1e3, log-uniform, so both sides of _SHIFT = 10 and
# the lift's every step count are drawn; the batched bookkeeping (one call on
# gamma and its row sums, on alpha and its sum) relies on what follows.
_entries = hst.floats(np.log(1e-300), np.log(1e3)).map(np.exp)


@pytest.mark.parametrize("fn", [special.digamma, special.log_gamma])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    parts=hst.lists(hst.lists(_entries, min_size=1, max_size=10), min_size=2, max_size=4),
    columns=hst.sampled_from([None, 2, 3]),
)
@example(parts=[[1e-300, 0.5], [10.0, 1e3], [np.nextafter(10.0, 0.0)]], columns=None)
@example(parts=[[11.0, 250.0], [3.0]], columns=3)  # one part needs no lift
def test_a_concatenation_gives_its_parts_bits(fn, parts, columns):
    arrays = [np.array(p) for p in parts]
    if columns is not None:
        arrays = [np.resize(a, (len(a), columns)) for a in arrays]  # 2-d, as gamma is K x M
    whole = fn(np.concatenate(arrays))
    np.testing.assert_array_equal(_bits(whole), _bits(np.concatenate([fn(a) for a in arrays])))


@pytest.mark.parametrize("fn", [special.digamma, special.log_gamma])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(x=_entries, others=hst.lists(_entries, max_size=8), at=hst.integers(0, 8))
@example(x=np.nextafter(10.0, 0.0), others=[1e-300], at=1)
@example(x=10.0, others=[1e-300, 0.5], at=0)
def test_a_scalar_gives_its_bits_inside_an_array(fn, x, others, at):
    at = min(at, len(others))
    values = np.array(others[:at] + [x] + others[at:])
    got = fn(x)
    assert type(got) is float
    assert _bits(got) == _bits(fn(values)[at])
    assert _bits(got) == _bits(fn(values.reshape(1, -1))[0, at])


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.5, -np.inf, np.inf, np.nan])
@pytest.mark.parametrize("fn", [special.digamma, special.log_gamma])
def test_a_bad_entry_raises_the_same_error(fn, bad):
    message = f"{fn.__name__} requires a strictly positive finite argument"
    for x in (bad, np.array([0.5, bad, 20.0]), np.array([[20.0], [bad]])):
        with pytest.raises(ValueError) as raised:
            fn(x)
        assert str(raised.value) == message
    with pytest.raises(ValueError, match="^x requires a strictly positive finite argument$"):
        special._validate_positive(np.array([3.0, bad]), "x")
