"""``floatrepr`` writes exactly what ``repr`` writes, entry by entry."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfsim import floatrepr


@pytest.fixture(autouse=True, scope="module")
def vectorized():
    """Every array here takes the vectorized path, however short."""
    with mock.patch.object(floatrepr, "VECTOR_MIN", 0):
        yield


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert floatrepr.reprs(values) == [repr(v).encode() for v in values.tolist()]


def with_neighbours(values):
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_powers_of_two_and_ten_with_their_neighbours():
    """Every power of two (the irregular spacing below it, and the subnormals
    that go to ``repr``) and every power of ten, of both signs."""
    assert_reprs(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_reprs(with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])))


def test_zeros_switch_points_and_fallbacks():
    """Signed zeros, the ends of the positional range, the extremes, and the
    entries that go to ``repr`` one at a time."""
    assert_reprs([0.0, -0.0, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16,
                  1.0, 0.1, 2.5, 123.0, 4503599627370497.0, 1.7976931348623157e308,
                  2.2250738585072014e-308, 5e-324, np.inf, -np.inf, np.nan])
    assert_reprs(np.zeros(5))
    assert floatrepr.reprs(np.array([])) == []


def test_random_bit_patterns():
    bits = np.random.default_rng(20261020).integers(0, 2**64, 100_000, dtype=np.uint64,
                                                    endpoint=False)
    values = bits.view(np.float64)
    assert_reprs(values[np.isfinite(values)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_drawn_floats(values):
    assert_reprs(values)


def test_short_arrays_go_entry_by_entry():
    values = [0.5, -0.0, 1e-7, 1e22]
    with mock.patch.object(floatrepr, "VECTOR_MIN", len(values) + 1), \
            mock.patch.object(floatrepr, "_shortest", side_effect=AssertionError):
        assert floatrepr.reprs(values) == [b"0.5", b"-0.0", b"1e-07", b"1e+22"]
