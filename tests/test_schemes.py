"""Marching schemes: hand-checked single steps, conservation, fixed points,
the delay history and lagged convolution speeds."""

import warnings
from collections import deque

import numpy as np
import pytest

from lagflow import schemes

from lagflow.diagnostics import DiagnosticsCollector, speed_increment_bound
from lagflow.discretization import build_grid, discretize_kernel
from lagflow.initial_data import Constant
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.schemes import (
    FREE_FLOW,
    PERIODIC,
    StepError,
    convolved_speeds,
    extend3,
    hw_step,
    init_history,
    lagged_speeds,
    lf_step,
    push_level,
    run,
    step_count,
)

_SAT_NONE = Saturation("none")


def test_extend3_free_flow_replicates_ends():
    out = extend3(np.array([1.0, 2.0, 3.0]), FREE_FLOW)
    assert out.tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]


def test_extend3_periodic_wraps():
    out = extend3(np.array([1.0, 2.0, 3.0]), PERIODIC)
    assert out.tolist() == [3.0, 1.0, 2.0, 3.0, 1.0]


def test_lf_step_hand_computed():
    """One Lax-Friedrichs step on [0, 1/2, 0], one-cell kernel, v = 1 - rho.

    Speeds are [1, 1/2, 1], fluxes rho * v = [0, 1/4, 0]; with lam = 1/4
    and alpha = 2 the update gives [3/32, 1/4, 5/32].
    """
    rho = np.array([0.0, 0.5, 0.0])
    v = np.array([1.0, 0.5, 1.0])
    out = lf_step(rho, v, lam=0.25, alpha=2.0, sat=_SAT_NONE, boundary=PERIODIC)
    assert np.allclose(out, [0.09375, 0.25, 0.15625])
    assert float(np.sum(out)) == pytest.approx(0.5)


def test_hw_step_hand_computed():
    """Same data, lam = 1/2: interface fluxes rho_j v_{j+1} give
    [0, 1/4, 1/4]."""
    rho = np.array([0.0, 0.5, 0.0])
    v = np.array([1.0, 0.5, 1.0])
    out = hw_step(rho, v, lam=0.5, sat=_SAT_NONE, boundary=PERIODIC)
    assert np.allclose(out, [0.0, 0.25, 0.25])
    assert float(np.sum(out)) == pytest.approx(0.5)


def test_hw_step_interface_fluxes_are_nonnegative_for_nonnegative_data():
    """The J + 1 interface fluxes recovered from one free-flow HW update
    are rho_j f(rho_{j+1}) V_{j+1} >= 0; the inflow flux is the first
    cell's own rho f(rho) V under the replicated ghost."""
    rng = np.random.default_rng(3)
    sat = Saturation("linear", rho_max=1.0)
    lam = 0.5
    for _ in range(20):
        rho = rng.uniform(0.0, 1.0, 12)
        v = rng.uniform(0.0, 1.0, 12)
        out = hw_step(rho, v, lam, sat, FREE_FLOW)
        inflow = rho[0] * sat(rho[0]) * v[0]
        fluxes = inflow + np.concatenate([[0.0], np.cumsum((rho - out) / lam)])
        r = extend3(rho, FREE_FLOW)
        expected = r[:-1] * sat(r[1:]) * extend3(v, FREE_FLOW)[1:]
        assert fluxes.shape == (13,)
        assert np.allclose(fluxes, expected, rtol=0.0, atol=1e-14)
        assert np.all(expected >= 0.0)


@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_step_detects_nonfinite(scheme):
    rho = np.array([0.0, np.inf, 0.0])
    v = np.ones(3)
    with pytest.raises(StepError, match="non-finite density in cell"):
        if scheme == "lf":
            lf_step(rho, v, lam=0.25, alpha=2.0, sat=_SAT_NONE, boundary=FREE_FLOW)
        else:
            hw_step(rho, v, lam=0.25, sat=_SAT_NONE, boundary=FREE_FLOW)


def test_step_passes_finite_level_whose_sum_overflows():
    """The non-finite guard sums the level first; a sum that overflows on
    finite cells sends it to the cell scan, which passes, without a
    warning."""
    rho = np.full(4, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = hw_step(rho, np.zeros(4), lam=0.25, sat=_SAT_NONE, boundary=FREE_FLOW)
    assert np.array_equal(out, rho)


def test_step_count_lands_on_horizon():
    assert step_count(0.5, 0.0025) == 200
    assert step_count(0.5, 0.5 / 5100) == 5100
    # floor with a one-part-in-1e9 slack: just below a whole count rounds up
    assert step_count(0.3, 0.1) == 3


@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("value", [0.0, 0.35, 1.0])
def test_constant_states_are_exact_fixed_points(scheme, value):
    """Flat profiles are preserved bit for bit over 1000 steps."""
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    grid = build_grid(0.0, 1.0, 0.02, 0.005, 0.03, 0.1, alpha=2.0)
    weights = discretize_kernel(Kernel("constant", length=0.1), grid)
    rho0 = np.full(grid.n_cells, value)
    final = run(
        grid, weights, vel, sat, scheme, rho0, t_final=1000 * grid.dt, boundary=FREE_FLOW
    )
    assert np.array_equal(final, rho0)


def test_run_invokes_observer_every_step():
    vel = Velocity("normalized_greenshields")
    grid = build_grid(0.0, 1.0, 0.1, 0.05, 0.1, 0.1)
    weights = discretize_kernel(Kernel("constant", length=0.1), grid)
    seen = []
    run(
        grid,
        weights,
        vel,
        _SAT_NONE,
        "hw",
        np.full(10, 0.5),
        t_final=0.25,
        observer=lambda n, level, v_lag: seen.append((n, level.shape, v_lag.shape)),
    )
    assert [n for n, _, _ in seen] == list(range(6))
    assert all(shape == (10,) for _, shape, _ in seen)


def test_run_requires_alpha_for_lf():
    vel = Velocity("normalized_greenshields")
    grid = build_grid(0.0, 1.0, 0.1, 0.05, 0.0, 0.1)  # alpha omitted
    weights = discretize_kernel(Kernel("constant", length=0.1), grid)
    with pytest.raises(ValueError):
        run(grid, weights, vel, _SAT_NONE, "lf", np.full(10, 0.5), t_final=0.1)


def test_run_zero_delay_equals_undelayed_convolution_loop():
    """h = 0 must reproduce a loop that reconvolves the current level."""
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    grid = build_grid(0.0, 1.0, 0.02, 0.005, 0.0, 0.1)
    weights = discretize_kernel(Kernel("linear_decreasing", length=0.1), grid)
    rng = np.random.default_rng(11)
    rho0 = rng.uniform(0.0, 1.0, grid.n_cells)

    rho = rho0.copy()
    for _ in range(40):
        v = convolved_speeds(rho, weights, vel, FREE_FLOW)
        rho = hw_step(rho, v, grid.lam, sat, FREE_FLOW)

    final = run(grid, weights, vel, sat, "hw", rho0, t_final=40 * grid.dt)
    assert np.array_equal(final, rho)


def test_run_constant_datum_all_snapshots_identical():
    vel = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    sat = Saturation("linear", rho_max=1.7)
    grid = build_grid(0.0, 1.0, 0.02, 0.005, 0.02, 0.1, alpha=1.8)
    weights = discretize_kernel(Kernel("constant", length=0.1), grid)
    rho0 = np.full(grid.n_cells, 0.85)
    captured = []
    run(
        grid,
        weights,
        vel,
        sat,
        "lf",
        rho0,
        t_final=0.25,
        observer=lambda n, level, v: captured.append(level.copy()),
    )
    assert all(np.array_equal(level, rho0) for level in captured)


def _delayed_case(h, n_steps):
    """Grid with dt = 0.005 and tau = h dt, and a random datum in [0, 1]."""
    grid = build_grid(0.0, 1.0, 0.02, 0.005, h * 0.005, 0.1, alpha=2.0)
    assert grid.delay_steps == h
    weights = discretize_kernel(Kernel("linear_decreasing", length=0.1), grid)
    rho0 = np.random.default_rng(5).uniform(0.0, 1.0, grid.n_cells)
    return grid, weights, rho0, n_steps * grid.dt


@pytest.mark.parametrize(
    "h, n_steps",
    [(0, 7), (6, 4), (6, 6), (6, 9), (6, 15)],
    ids=["h0", "NT_below_h", "NT_equal_h", "NT_below_2h", "NT_above_2h"],
)
def test_run_convolves_each_lagged_level_once(monkeypatch, h, n_steps):
    """lagged_speeds runs max(N_T - h, 0) + 1 times, the collector checks
    each speed field once (its block checks count fields each), and
    between steps the history holds at most min(h, max(N_T - h, 0)) levels
    behind its head."""
    grid, weights, rho0, t_final = _delayed_case(h, n_steps)
    states, calls, queued, checks = [], [], [], []
    init, lagged = schemes.init_history, schemes.lagged_speeds
    check_speeds = DiagnosticsCollector._check_speeds

    def recorded_init(*args):
        states.append(init(*args))
        return states[-1]

    def counted_lagged(*args):
        calls.append(args)
        return lagged(*args)

    def counted_check(self, count):
        checks.append(count)
        return check_speeds(self, count)

    vel = Velocity("normalized_greenshields")
    collector = DiagnosticsCollector(
        grid, weights, vel, _SAT_NONE, "hw", FREE_FLOW,
        constants=None, thorough=True, stride=1, n_final=n_steps,
    )

    def observer(n, level, v_lag):
        queued.append(len(states[0]) - 1)
        assert not v_lag.flags.writeable
        collector(n, level, v_lag)

    monkeypatch.setattr(schemes, "init_history", recorded_init)
    monkeypatch.setattr(schemes, "lagged_speeds", counted_lagged)
    monkeypatch.setattr(DiagnosticsCollector, "_check_speeds", counted_check)

    run(grid, weights, vel, _SAT_NONE, "hw", rho0, t_final, observer=observer)
    assert len(queued) == n_steps + 1
    assert len(calls) == max(n_steps - h, 0) + 1
    assert sum(checks) == len(calls)
    assert max(queued) == min(h, max(n_steps - h, 0))


def _ring_march(grid, weights, vel, sat, scheme, rho0, n_steps, boundary):
    """March with a ring of h + 1 levels that starts as h + 1 copies of the
    datum and re-convolves its oldest level after every step."""
    ring = deque((rho0.copy() for _ in range(grid.delay_steps + 1)), maxlen=grid.delay_steps + 1)
    rho = rho0.copy()
    v = convolved_speeds(ring[0], weights, vel, boundary)
    seen = [(0, rho, v)]
    for n in range(1, n_steps + 1):
        if scheme == "lf":
            rho = lf_step(rho, v, grid.lam, grid.alpha, sat, boundary)
        else:
            rho = hw_step(rho, v, grid.lam, sat, boundary)
        ring.append(rho)
        v = convolved_speeds(ring[0], weights, vel, boundary)
        seen.append((n, rho, v))
    return seen


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("n_steps", [9, 15])
def test_run_matches_full_ring_march_bit_for_bit(scheme, boundary, n_steps):
    """Every observer (n, level, v_lag) and the final level equal those of
    a march that keeps all h + 1 levels, and every call's v_lag is the
    speed field of the level the observer saw at call max(n - h, 0): the
    collector's reach ring relies on it."""
    grid, weights, rho0, t_final = _delayed_case(6, n_steps)
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    seen = []
    final = run(
        grid,
        weights,
        vel,
        sat,
        scheme,
        rho0,
        t_final,
        boundary=boundary,
        observer=lambda n, level, v_lag: seen.append((n, level.copy(), v_lag.copy())),
    )
    expected = _ring_march(grid, weights, vel, sat, scheme, rho0, n_steps, boundary)
    assert [n for n, *_ in seen] == [n for n, *_ in expected]
    for (n, level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert np.array_equal(level, level_ref)
        assert np.array_equal(v, v_ref)
        lagged = seen[max(n - grid.delay_steps, 0)][1]
        assert np.array_equal(v, convolved_speeds(lagged, weights, vel, boundary))
    assert np.array_equal(final, expected[-1][1])


# ---------------------------------------------------------------------------
# delay history and lagged convolution speeds


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
