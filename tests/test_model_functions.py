"""Velocity, saturation, and kernel laws with their analytic sup-norms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagflow.model_functions import (
    SAT_NONE,
    Kernel,
    Saturation,
    Velocity,
    flux_speed,
)


def test_greenshields_endpoints():
    vel = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    assert vel(0.0) == 0.9
    assert vel(1.7) == pytest.approx(0.0, abs=1e-15)
    assert vel.d1_sup == pytest.approx(0.9 / 1.7)
    assert vel.d2_sup == 0.0
    assert vel.smooth


def test_normalized_greenshields_is_one_minus_rho():
    vel = Velocity("normalized_greenshields")
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(vel(x), 1.0 - x)
    with pytest.raises(ValueError):
        Velocity("normalized_greenshields", v_max=2.0)


def test_cropped_velocity_clamps_and_reports_no_second_derivative():
    vel = Velocity("cropped")
    assert vel(np.array([0.5, 1.0, 3.0])).tolist() == [0.5, 0.0, 0.0]
    assert not vel.smooth
    assert vel.d2_sup is None
    assert vel.d1_sup == 1.0


def test_velocity_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Velocity("triangular")


def test_saturation_none_is_identically_one():
    sat = Saturation(SAT_NONE)
    assert np.all(sat(np.linspace(-1, 3, 9)) == 1.0)
    assert sat.d1_sup == 0.0


def test_linear_saturation_matches_velocity_shape():
    sat = Saturation("linear", rho_max=1.7)
    assert sat(0.0) == 1.0
    assert sat(1.7) == pytest.approx(0.0, abs=1e-15)
    assert sat(0.85) == pytest.approx(0.5)
    assert sat(2.0) == 0.0
    assert sat(-0.1) == 1.0
    assert sat.d1_sup == pytest.approx(1.0 / 1.7)


def test_exponential_saturation_vanishes_at_capacity():
    sat = Saturation("exponential", rho_max=1.0, eps=0.02)
    assert sat(1.0) == 0.0
    assert sat(0.0) == pytest.approx(1.0 - np.exp(-50.0))
    # steepest at rho = R: |f'(R)| = 1/eps
    assert sat.d1_sup == pytest.approx(50.0)
    assert sat(1.5) == 0.0
    assert sat(-1.0) == 1.0


@pytest.mark.parametrize("eps", [0.02, 0.5, 3.0])
def test_exponential_saturation_matches_three_branch_law(eps):
    """f = 1 below 0, 1 - e^{(rho - R)/eps} on [0, R] and 0 above R, bit for
    bit, on random densities in [-1, 3R] and at NaN, +-inf, +-0, R and
    its neighbouring floats."""
    r = 1.7
    sat = Saturation("exponential", rho_max=r, eps=eps)
    rng = np.random.default_rng(0)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, r]
    special += [np.nextafter(r, np.inf), np.nextafter(r, -np.inf)]
    rho = np.concatenate([rng.uniform(-1.0, 3.0 * r, 2000), special])
    inside = 1.0 - np.exp((np.minimum(rho, r) - r) / eps)
    expected = np.where(rho < 0.0, 1.0, np.where(rho > r, 0.0, inside))
    assert sat(rho).tobytes() == expected.tobytes()


def test_exponential_saturation_requires_eps():
    with pytest.raises(ValueError):
        Saturation("exponential", rho_max=1.0)
    with pytest.raises(ValueError):
        Saturation("linear", rho_max=1.0, eps=0.02)


@pytest.mark.parametrize("kind,sup", [("constant", 10.0), ("linear_decreasing", 20.0)])
def test_kernel_sup_and_support(kind, sup):
    ker = Kernel(kind, length=0.1)
    assert ker.sup == pytest.approx(sup)
    assert ker(0.0) == pytest.approx(sup)
    assert ker(-1e-9) == 0.0
    assert ker(0.11) == 0.0


@given(st.sampled_from(["constant", "linear_decreasing"]),
       st.floats(min_value=1e-3, max_value=10.0))
def test_kernel_integral_is_one(kind, length):
    """The look-ahead weight is a probability density on [0, L]."""
    ker = Kernel(kind, length=length)
    x = np.linspace(0.0, length, 20001)
    integral = np.trapezoid(ker(x), x)
    assert integral == pytest.approx(1.0, rel=1e-6)


def test_kernel_derivative_norms():
    ker = Kernel("linear_decreasing", length=0.5)
    assert ker.d1_sup == pytest.approx(2.0 / 0.25)
    assert ker.d1_l1 == pytest.approx(2.0 * ker.sup)
    flat = Kernel("constant", length=0.5)
    assert flat.d1_sup == 0.0
    assert flat.d1_l1 == pytest.approx(4.0)


def test_flux_speed_is_v_max_times_one_plus_r_f_prime():
    """V (1 + R sup|f'|) from the model objects' own bounds."""
    vel = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    assert flux_speed(vel, Saturation("linear", rho_max=1.7)) == pytest.approx(1.8)
    sharp = Saturation("exponential", rho_max=1.7, eps=0.02)
    assert flux_speed(vel, sharp) == pytest.approx(0.9 * (1.0 + 1.7 * 50.0))
    assert flux_speed(vel, Saturation(SAT_NONE)) == 0.9


def test_cropped_bounds_report_not_smooth():
    """The cropped velocity keeps its first-order bound, so the CFL speed
    exists, but has no sup|v''|."""
    vel = Velocity("cropped")
    assert flux_speed(vel, Saturation("linear", rho_max=1.0)) == 2.0
    assert not vel.smooth
    assert vel.d2_sup is None
