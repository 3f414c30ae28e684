"""Delay history and lagged convolution speeds."""

import numpy as np
import pytest

from lagflow.diagnostics import speed_increment_bound
from lagflow.discretization import build_grid, discretize_kernel
from lagflow.model_functions import Kernel, Velocity
from lagflow.schemes import (
    FREE_FLOW,
    PERIODIC,
    convolved_speeds,
    init_history,
    lagged_speeds,
    push_level,
)


def _weights(dx=0.25, length=0.5, kind="constant"):
    grid = build_grid(0.0, 1.0, dx, dx, 0.0, length)
    return discretize_kernel(Kernel(kind, length=length), grid)


def test_history_starts_constant_in_time():
    """Until the head is popped, every step reads the datum."""
    rho0 = np.array([0.1, 0.2, 0.3])
    history = init_history(rho0, h=2)
    assert np.array_equal(history[0], rho0)
    assert history[0] is not rho0
    assert len(history) - 1 == 0
    for k in range(1, 3):
        push_level(history, np.full(3, float(k)))
    assert np.array_equal(history[0], rho0)
    assert [level[0] for level in list(history)[1:]] == [1.0, 2.0]


def test_ring_rotates_after_h_plus_one_pushes():
    """Once n > h the lagged level is the one pushed h steps earlier."""
    h = 2
    history = init_history(np.zeros(2), h=h)
    for n in range(1, 6):
        level = np.full(2, float(n))
        push_level(history, level)
        if n > h:
            history.popleft()
            assert history[0][0] == float(n - h)
        else:
            assert history[0][0] == 0.0
        assert len(history) - 1 == min(n, h)
    assert [level[0] for level in list(history)[1:]] == [4.0, 5.0]


def test_zero_delay_window_has_single_level():
    history = init_history(np.array([1.0]), h=0)
    level = np.array([5.0])
    push_level(history, level)
    history.popleft()
    assert history[0] is level
    assert len(history) - 1 == 0


def test_push_rejects_wrong_shape():
    history = init_history(np.zeros(3), h=1)
    with pytest.raises(ValueError):
        push_level(history, np.zeros(4))


def test_convolved_speeds_constant_level():
    """A flat level sees speed v(rho) everywhere, any kernel."""
    vel = Velocity("normalized_greenshields")
    w = _weights()
    level = np.full(4, 0.25)
    v = convolved_speeds(level, w, vel, FREE_FLOW)
    assert np.allclose(v, 0.75, rtol=1e-14)


def test_convolved_speeds_forward_looking():
    """Cell j averages cells j, j+1 with a two-cell constant kernel."""
    vel = Velocity("normalized_greenshields")
    w = _weights()  # dx = 0.25, L = 0.5 -> weights [2, 2]
    level = np.array([0.0, 0.4, 0.8, 0.8])
    v = convolved_speeds(level, w, vel, FREE_FLOW)
    # convolution values: 0.25*2*(0+0.4)=0.2, 0.6, 0.8, then 0.8 by
    # constant extension beyond the right edge
    assert np.allclose(v, 1.0 - np.array([0.2, 0.6, 0.8, 0.8]))


def test_convolved_speeds_periodic_wraps():
    vel = Velocity("normalized_greenshields")
    w = _weights()
    level = np.array([0.0, 0.4, 0.8, 0.8])
    v = convolved_speeds(level, w, vel, PERIODIC)
    assert v[-1] == pytest.approx(1.0 - 0.25 * 2.0 * (0.8 + 0.0))


def test_lagged_speeds_use_oldest_level():
    vel = Velocity("normalized_greenshields")
    w = _weights()
    history = init_history(np.full(4, 0.5), h=1)
    push_level(history, np.full(4, 0.9))
    v = lagged_speeds(history, w, vel, FREE_FLOW)
    assert np.allclose(v, 0.5)


def test_lagged_speeds_are_read_only():
    """run hands one speed field to several steps and observers."""
    vel = Velocity("normalized_greenshields")
    v = lagged_speeds(init_history(np.full(4, 0.5), h=1), _weights(), vel, FREE_FLOW)
    with pytest.raises(ValueError):
        v[0] = 0.0


def test_speed_increment_bound_formula():
    """ceiling = 2 |v'| max(w) sup(rho) dx."""
    vel = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    w = _weights(kind="linear_decreasing")
    bound = speed_increment_bound(vel, w, rho_sup=1.7)
    expected = 2.0 * (0.9 / 1.7) * float(np.max(w.w)) * 1.7 * w.dx
    assert bound == pytest.approx(expected)


def test_adjacent_speed_increments_respect_bound():
    rng = np.random.default_rng(7)
    vel = Velocity("normalized_greenshields")
    grid = build_grid(0.0, 1.0, 0.01, 0.01, 0.0, 0.05)
    w = discretize_kernel(Kernel("linear_decreasing", length=0.05), grid)
    for _ in range(25):
        level = rng.uniform(0.0, 1.0, grid.n_cells)
        v = convolved_speeds(level, w, vel, FREE_FLOW)
        bound = speed_increment_bound(vel, w, rho_sup=float(level.max()))
        assert float(np.max(np.abs(np.diff(v)))) <= bound + 1e-12
