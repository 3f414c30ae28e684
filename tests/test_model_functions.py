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


def _densities(r):
    """Random densities in [-1, 3R], then NaN, +-inf, +-0, -1e300, -1, R
    and its neighbouring floats."""
    rng = np.random.default_rng(0)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e300, -1.0, r]
    special += [np.nextafter(r, np.inf), np.nextafter(r, -np.inf)]
    return np.concatenate([rng.uniform(-1.0, 3.0 * r, 2000), special])


def _assert_out_matches_allocating_call(law, rho):
    """law(rho, out=buf) fills and returns buf with the allocating call's bits."""
    buf = np.full_like(rho, -7.0)
    assert law(rho, out=buf) is buf
    assert buf.tobytes() == law(rho).tobytes()


@pytest.mark.parametrize("eps", [0.02, 1.7 / 50, 1.7 / 38, 0.5, 3.0])
def test_exponential_saturation_matches_three_branch_law(eps):
    """f = 1 below 0, 1 - e^{(rho - R)/eps} on [0, R] and 0 above R, bit for
    bit, on random densities in [-1, 3R] and at NaN, +-inf, +-0, -1e300,
    -1, R and its neighbouring floats, through the allocating call and
    through out=.  From R / eps = 38 on (85, 50 and 38 here) the law takes
    no rho < 0 mask, as 1 - e^{(rho - R)/eps} is then exactly 1 below 0;
    at eps = 0.5 and 3 the mask is needed and taken."""
    r = 1.7
    sat = Saturation("exponential", rho_max=r, eps=eps)
    rho = _densities(r)
    inside = 1.0 - np.exp((np.minimum(rho, r) - r) / eps)
    expected = np.where(rho < 0.0, 1.0, np.where(rho > r, 0.0, inside))
    assert sat(rho).tobytes() == expected.tobytes()
    below = rho < 0.0
    assert (inside[below] == 1.0).all() == (r / eps >= 38.0)
    _assert_out_matches_allocating_call(sat, rho)


@pytest.mark.parametrize(
    "law",
    [
        Saturation(SAT_NONE),
        Saturation("linear", rho_max=1.7),
        Saturation("exponential", rho_max=1.0, eps=0.02),
        Saturation("exponential", rho_max=1.0, eps=0.5),
        Saturation("exponential", rho_max=1.0, eps=3.0),
        Velocity("greenshields", v_max=0.9, rho_max=1.7),
        Velocity("normalized_greenshields"),
        Velocity("cropped"),
    ],
    ids=[
        "sat_none", "sat_linear", "sat_exp_0.02", "sat_exp_0.5", "sat_exp_3",
        "greenshields", "normalized_greenshields", "cropped",
    ],
)
def test_out_argument_matches_allocating_call(law):
    """The march writes f and v into workspace buffers: every law gives the
    allocating call's bits there, including at NaN, +-inf, +-0, negative
    densities, R, its neighbours and densities above R, and when out is
    the input itself."""
    rho = _densities(law.rho_max)
    _assert_out_matches_allocating_call(law, rho)
    aliased = rho.copy()
    assert law(aliased, out=aliased).tobytes() == law(rho).tobytes()


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
