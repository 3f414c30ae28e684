"""Initial datum shapes: values, ranges, breakpoints, trigonometric identities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagflow.initial_data import (
    Box,
    Constant,
    OscCos,
    OscSin,
    Riemann,
    make_datum,
)

_SIN_SUPPORT = (11.0 / 40.0, 21.0 / 40.0)
_COS_SUPPORT = (27.0 / 80.0, 37.0 / 80.0)


def test_riemann_up_defaults():
    datum = make_datum("riemann_up")
    assert datum(np.array([0.0, 0.499])).tolist() == [0.3, 0.3]
    assert datum(np.array([0.5, 1.0])).tolist() == [1.5, 1.5]
    assert datum.value_range() == (0.3, 1.5)
    assert datum.breakpoints() == [0.5]


def test_riemann_down_defaults():
    datum = make_datum("riemann_down")
    assert datum(np.array([0.499999])).tolist() == [1.5]
    assert datum(np.array([0.5, 0.500001])).tolist() == [0.3, 0.3]


def test_riemann_small_steps_at_one_fifth():
    datum = make_datum("riemann_small")
    assert datum(np.array([0.19])).tolist() == [0.25]
    assert datum(np.array([0.2, 0.21])).tolist() == [0.5, 0.5]
    assert datum.value_range() == (0.25, 0.5)


def test_box_indicator():
    datum = Box(height=1.5, a=1.0, b=2.0)
    assert datum(np.array([0.99, 1.0, 1.5, 2.0, 2.01])).tolist() == [0.0, 1.5, 1.5, 1.5, 0.0]
    assert datum.value_range() == (0.0, 1.5)
    assert datum.breakpoints() == [1.0, 2.0]
    with pytest.raises(ValueError):
        Box(height=1.0, a=2.0, b=1.0)


def test_constant_datum():
    datum = Constant(0.5)
    assert np.all(datum(np.linspace(0, 1, 7)) == 0.5)
    assert datum.value_range() == (0.5, 0.5)
    assert datum.breakpoints() == []


@given(st.floats(min_value=0.0, max_value=1.0))
def test_osc_sin_reduces_to_cubed_sine(shift):
    """3/16 sin(t) - 1/16 sin(3t) = sin(t)^3 / 4 on the supported window."""
    datum = OscSin(shift=shift)
    x = np.linspace(_SIN_SUPPORT[0], _SIN_SUPPORT[1], 501)
    expected = 0.5 + np.sin(8.0 * np.pi * (x - shift)) ** 3 / 4.0
    assert np.allclose(datum(x), expected, atol=1e-14)


def test_osc_sin_background_outside_support():
    datum = OscSin(shift=0.4)
    x = np.array([0.0, _SIN_SUPPORT[0] - 1e-9, _SIN_SUPPORT[1] + 1e-9, 1.0])
    assert np.all(datum(x) == 0.5)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_osc_sin_range_covers_one_period(shift):
    """The support spans a full period, so the range is [1/4, 3/4]
    regardless of the phase shift."""
    datum = OscSin(shift=shift)
    lo, hi = datum.value_range()
    assert (lo, hi) == (0.25, 0.75)
    x = np.linspace(0.0, 1.0, 200001)
    vals = datum(x)
    assert float(vals.min()) == pytest.approx(lo, abs=1e-8)
    assert float(vals.max()) == pytest.approx(hi, abs=1e-8)


def test_osc_sin_continuous_at_two_fifths_shift():
    """shift = 2/5 puts sine zeros at both support ends."""
    datum = OscSin(shift=0.4)
    a, b = _SIN_SUPPORT
    for edge in (a, b):
        inside = datum(np.array([edge + 1e-12 if edge == a else edge - 1e-12]))[0]
        outside = 0.5
        assert inside == pytest.approx(outside, abs=1e-9)


def test_osc_cos_reduces_to_cubed_cosine():
    """3/8 cos(t) + 1/8 cos(3t) = cos(t)^3 / 2 on the supported window."""
    datum = OscCos(mean=0.25)
    x = np.linspace(_COS_SUPPORT[0], _COS_SUPPORT[1], 501)
    expected = 0.25 + np.cos(8.0 * np.pi * (x - 0.4)) ** 3 / 2.0
    assert np.allclose(datum(x), expected, atol=1e-14)


@pytest.mark.parametrize("mean", [0.25, 0.5])
def test_osc_cos_range_and_breakpoints(mean):
    datum = OscCos(mean=mean)
    assert datum.value_range() == (mean, mean + 0.5)
    assert datum.breakpoints() == [pytest.approx(_COS_SUPPORT[0]), pytest.approx(_COS_SUPPORT[1])]


def test_osc_cos_continuous_at_support_edges():
    """The cosine bump vanishes at the quarter-period support ends."""
    datum = OscCos(mean=0.5)
    a, b = _COS_SUPPORT
    assert datum(np.array([a + 1e-12]))[0] == pytest.approx(0.5, abs=1e-9)
    assert datum(np.array([b - 1e-12]))[0] == pytest.approx(0.5, abs=1e-9)
    assert datum(np.array([(a + b) / 2.0]))[0] == pytest.approx(1.0)


def test_make_datum_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError):
        make_datum("sawtooth")
    with pytest.raises(TypeError):
        make_datum("box", height=1.0, a=0.0, b=1.0, slope=2.0)


def test_make_datum_box_requires_all_params():
    with pytest.raises(TypeError, match=r"box datum is missing required keys a, b$"):
        make_datum("box", height=1.0)
    with pytest.raises(TypeError, match=r"missing required keys value$"):
        make_datum("constant")
