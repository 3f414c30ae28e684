"""Marching schemes: hand-checked single steps, conservation, fixed points,
the delay history and lagged convolution speeds, and the workspace march
against the concatenate-based kernel it replaced."""

import dataclasses
import warnings
import weakref
from collections import deque

import numpy as np
import pytest

from lagflow import diagnostics, schemes

from lagflow.diagnostics import (
    SPEED_TOL,
    DiagnosticsCollector,
    bound_constants,
    entropy_residual,
    l1_norm,
    speed_increment_bound,
    total_variation,
)
from lagflow.discretization import build_grid, discretize_kernel
from lagflow.initial_data import Constant
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.runners import resolve_scenario, simulate
from lagflow.scenario import Scenario
from lagflow.schemes import (
    FREE_FLOW,
    PERIODIC,
    StepError,
    Workspace,
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


# ---------------------------------------------------------------------------
# the concatenate-based kernel the workspace march replaced, kept as its
# oracle: fresh ghost extensions, flux and level arrays every step


def _oracle_extend3(values, boundary):
    if boundary == FREE_FLOW:
        return np.concatenate([values[:1], values, values[-1:]])
    return np.concatenate([values[-1:], values, values[:1]])


def _oracle_speeds(level, weights, vel, boundary):
    """v(dx * sum_k w[k] rho[j+k]) for one level, J cells."""
    level = np.asarray(level, dtype=float)
    n_ghost = weights.n - 1
    if n_ghost == 0:
        ext = level
    elif boundary == FREE_FLOW:
        ext = np.concatenate([level, np.full(n_ghost, level[-1])])
    else:
        reps = -(-n_ghost // level.size)
        ext = np.concatenate([level, np.tile(level, reps)[:n_ghost]])
    return vel(weights.dx * np.correlate(ext, weights.w, mode="valid"))


def _oracle_lf_step(rho, v_lag, lam, alpha, sat, boundary):
    r = _oracle_extend3(rho, boundary)
    v = _oracle_extend3(v_lag, boundary)
    with np.errstate(invalid="ignore", over="ignore"):
        flux = r * sat(r) * v
        return rho + 0.5 * lam * (
            alpha * (r[2:] - 2.0 * rho + r[:-2]) - (flux[2:] - flux[:-2])
        )


def _oracle_hw_step(rho, v_lag, lam, sat, boundary):
    r = _oracle_extend3(rho, boundary)
    v = _oracle_extend3(v_lag, boundary)
    with np.errstate(invalid="ignore", over="ignore"):
        flux = r[:-1] * sat(r[1:]) * v[1:]
        return rho - lam * (flux[1:] - flux[:-1])


def _speeds(level, weights, vel, boundary):
    """The J-cell speed field of one level, through the workspace kernel."""
    work = Workspace(len(level), weights.n, boundary)
    return lagged_speeds([level], weights, vel, work)[0, 1:-1]


def _lf(rho, v, lam, alpha, sat, boundary):
    """One workspace LF step from a J-cell speed field."""
    work = Workspace(len(rho), 1, boundary)
    return lf_step(rho, extend3(v, boundary), lam, alpha, sat, work)


def _hw(rho, v, lam, sat, boundary):
    """One workspace HW step from a J-cell speed field."""
    work = Workspace(len(rho), 1, boundary)
    return hw_step(rho, extend3(v, boundary), lam, sat, work)


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
    out = _lf(rho, v, lam=0.25, alpha=2.0, sat=_SAT_NONE, boundary=PERIODIC)
    assert np.allclose(out, [0.09375, 0.25, 0.15625])
    assert float(np.sum(out)) == pytest.approx(0.5)


def test_hw_step_hand_computed():
    """Same data, lam = 1/2: interface fluxes rho_j v_{j+1} give
    [0, 1/4, 1/4]."""
    rho = np.array([0.0, 0.5, 0.0])
    v = np.array([1.0, 0.5, 1.0])
    out = _hw(rho, v, lam=0.5, sat=_SAT_NONE, boundary=PERIODIC)
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
        out = _hw(rho, v, lam, sat, FREE_FLOW)
        inflow = rho[0] * sat(rho[0]) * v[0]
        fluxes = inflow + np.concatenate([[0.0], np.cumsum((rho - out) / lam)])
        r = extend3(rho, FREE_FLOW)
        expected = r[:-1] * sat(r[1:]) * extend3(v, FREE_FLOW)[1:]
        assert fluxes.shape == (13,)
        assert np.allclose(fluxes, expected, rtol=0.0, atol=1e-14)
        assert np.all(expected >= 0.0)


@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_step_detects_nonfinite(scheme):
    """A step called outside run gets run's error state from its caller."""
    rho = np.array([0.0, np.inf, 0.0])
    v = np.ones(3)
    with np.errstate(all="ignore"), pytest.raises(StepError, match="non-finite density in cell"):
        if scheme == "lf":
            _lf(rho, v, lam=0.25, alpha=2.0, sat=_SAT_NONE, boundary=FREE_FLOW)
        else:
            _hw(rho, v, lam=0.25, sat=_SAT_NONE, boundary=FREE_FLOW)


def test_step_passes_finite_level_whose_sum_overflows(monkeypatch):
    """The non-finite guard sums the level first; a sum that overflows on
    finite cells sends it to the cell scan, which passes, without a
    warning in the error state run sets.  Zero speeds keep the level of
    1e308 cells still."""
    grid, weights, _, _ = _delayed_case(0, 2)
    monkeypatch.setattr(
        schemes, "lagged_speeds", lambda levels, *args: np.zeros((len(levels), grid.n_cells + 2))
    )
    rho0 = np.full(grid.n_cells, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = run(grid, weights, Velocity("normalized_greenshields"), _SAT_NONE, "hw", rho0,
                    2 * grid.dt)
    assert np.array_equal(final, rho0)


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
        v = _oracle_speeds(rho, weights, vel, FREE_FLOW)
        rho = _oracle_hw_step(rho, v, grid.lam, sat, FREE_FLOW)

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
    "h, n_steps, check_rows",
    [(0, 7, None), (6, 4, None), (6, 6, None), (6, 9, None), (6, 15, None), (6, 15, 4)],
    ids=["h0", "NT_below_h", "NT_equal_h", "NT_below_2h", "NT_above_2h", "NT_above_2h_B4"],
)
def test_run_convolves_each_lagged_level_once(monkeypatch, h, n_steps, check_rows):
    """lagged_speeds convolves max(N_T - h, 0) + 1 levels in all, at most
    speed_rows(J, h) per call, push_level runs max(N_T - h, 0) times and
    the step N_T times, each looked up as a schemes global (perfbench's
    traced layers wrap them there); the collector's block checks cover
    every call's speed field, so they count N_T + 1 calls in all; and
    between steps the history holds at most min(h, max(N_T - h, 0))
    levels behind its head.  B is the module's (above N_T) or check_rows,
    which splits the run into blocks of 4 calls: 0..3, 4..7, 8..11 and
    12..15."""
    if check_rows is not None:
        monkeypatch.setattr(diagnostics, "BLOCK_BYTES", check_rows * 8 * 50)
    grid, weights, rho0, t_final = _delayed_case(h, n_steps)
    rows = diagnostics.block_rows(grid.n_cells)
    assert rows == check_rows or rows > n_steps
    states, blocks, queued, checks, pushes, steps = [], [], [], [], [], []
    init, lagged = schemes.init_history, schemes.lagged_speeds
    push, step = schemes.push_level, schemes.hw_step
    check_speeds = DiagnosticsCollector._check_speeds

    def recorded_init(*args):
        states.append(init(*args))
        return states[-1]

    def counted_lagged(levels, *args):
        blocks.append(len(levels))
        return lagged(levels, *args)

    def counted_push(*args):
        pushes.append(args)
        return push(*args)

    def counted_step(*args):
        steps.append(args)
        return step(*args)

    def counted_check(self, m):
        checks.append(m)
        return check_speeds(self, m)

    vel = Velocity("normalized_greenshields")
    collector = DiagnosticsCollector(
        grid, weights, vel, _SAT_NONE, "hw", FREE_FLOW,
        constants=None, stride=1, n_final=n_steps,
    )

    def observer(n, level, v_lag):
        queued.append(len(states[0]) - 1)
        assert not v_lag.flags.writeable
        collector(n, level, v_lag)

    monkeypatch.setattr(schemes, "init_history", recorded_init)
    monkeypatch.setattr(schemes, "lagged_speeds", counted_lagged)
    monkeypatch.setattr(schemes, "push_level", counted_push)
    monkeypatch.setattr(schemes, "hw_step", counted_step)
    monkeypatch.setattr(DiagnosticsCollector, "_check_speeds", counted_check)

    run(grid, weights, vel, _SAT_NONE, "hw", rho0, t_final, observer=observer)
    assert len(queued) == n_steps + 1
    assert sum(blocks) == max(n_steps - h, 0) + 1
    assert max(blocks) <= schemes.speed_rows(grid.n_cells, h)
    assert len(pushes) == max(n_steps - h, 0)
    assert len(steps) == n_steps
    assert sum(checks) == n_steps + 1
    assert sum(checks) >= sum(blocks)
    assert max(queued) == min(h, max(n_steps - h, 0))


def _ring_march(grid, weights, vel, sat, scheme, rho0, n_steps, boundary):
    """March with a ring of h + 1 levels that starts as h + 1 copies of the
    datum and re-convolves its oldest level after every step; each call's
    speed field is recorded with its ghost cells."""
    ring = deque((rho0.copy() for _ in range(grid.delay_steps + 1)), maxlen=grid.delay_steps + 1)
    rho = rho0.copy()
    v = _oracle_speeds(ring[0], weights, vel, boundary)
    seen = [(0, rho, _oracle_extend3(v, boundary))]
    for n in range(1, n_steps + 1):
        if scheme == "lf":
            rho = _oracle_lf_step(rho, v, grid.lam, grid.alpha, sat, boundary)
        else:
            rho = _oracle_hw_step(rho, v, grid.lam, sat, boundary)
        ring.append(rho)
        v = _oracle_speeds(ring[0], weights, vel, boundary)
        seen.append((n, rho, _oracle_extend3(v, boundary)))
    return seen


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("n_steps", [9, 15])
def test_run_matches_full_ring_march_bit_for_bit(scheme, boundary, n_steps):
    """Every observer (n, level, speeds) and the final level equal those of
    a march that keeps all h + 1 levels, and every call's speeds are the
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
        observer=lambda n, level, speeds: seen.append((n, level.copy(), speeds.copy())),
    )
    expected = _ring_march(grid, weights, vel, sat, scheme, rho0, n_steps, boundary)
    assert [n for n, *_ in seen] == [n for n, *_ in expected]
    for (n, level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert np.array_equal(level, level_ref)
        assert np.array_equal(v, v_ref)
        lagged = seen[max(n - grid.delay_steps, 0)][1]
        assert np.array_equal(v, _oracle_extend3(_oracle_speeds(lagged, weights, vel, boundary), boundary))
    assert np.array_equal(final, expected[-1][1])


_SATURATIONS = [
    _SAT_NONE,
    Saturation("linear", rho_max=1.0),
    Saturation("exponential", rho_max=1.0, eps=0.05),
]
_VELOCITIES = [Velocity("greenshields", v_max=1.0, rho_max=1.0), Velocity("cropped")]


@pytest.mark.parametrize("vel", _VELOCITIES, ids=["greenshields", "cropped"])
@pytest.mark.parametrize("sat", _SATURATIONS, ids=["none", "linear", "exponential"])
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_run_matches_concatenate_kernel_bit_for_bit(scheme, boundary, sat, vel):
    """The workspace march equals the concatenate-based kernel on every
    observer (n, level, speeds) and on the final level, from a datum with
    negative cells and cells above R.  Levels and speed fields are kept
    uncopied, so a level or speed field that aliases a reused buffer fails."""
    grid, weights, _, t_final = _delayed_case(3, 12)
    rho0 = np.random.default_rng(8).uniform(-0.2, 1.3, grid.n_cells)
    seen = []
    final = run(
        grid, weights, vel, sat, scheme, rho0, t_final, boundary=boundary,
        observer=lambda n, level, speeds: seen.append((n, level, speeds)),
    )
    expected = _ring_march(grid, weights, vel, sat, scheme, rho0, 12, boundary)
    assert [n for n, *_ in seen] == [n for n, *_ in expected]
    for (_, level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert level.tobytes() == level_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
    assert final.tobytes() == expected[-1][1].tobytes()


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_observer_gets_the_speed_field_the_next_step_reads(monkeypatch, scheme, boundary):
    """The observer's speeds at call n are the very object step n + 1
    reads: J + 2 read-only cells whose ghost cells follow the boundary."""
    grid, weights, rho0, t_final = _delayed_case(3, 10)
    read = []

    def spy(step):
        def spied(rho, v_lag, *args):
            read.append(v_lag)
            return step(rho, v_lag, *args)

        return spied

    monkeypatch.setattr(schemes, "lf_step", spy(schemes.lf_step))
    monkeypatch.setattr(schemes, "hw_step", spy(schemes.hw_step))
    seen = []
    run(
        grid, weights, Velocity("normalized_greenshields"), Saturation("linear", rho_max=1.0),
        scheme, rho0, t_final, boundary=boundary,
        observer=lambda n, level, speeds: seen.append(speeds),
    )
    assert len(seen) == len(read) + 1 == 11
    for speeds, v_lag in zip(seen, read):
        assert speeds is v_lag
    for speeds in seen:
        assert speeds.shape == (grid.n_cells + 2,)
        assert not speeds.flags.writeable
        assert speeds.tobytes() == extend3(speeds[1:-1], boundary).tobytes()


def test_periodic_window_wraps_more_than_once():
    """With K - 1 > J the periodic convolution window wraps the level
    several times: J = 10, K = 43, on a delayed LF march and its speeds."""
    grid = build_grid(0.0, 1.0, 0.1, 0.01, 0.03, 4.3, alpha=2.0)
    weights = discretize_kernel(Kernel("linear_decreasing", length=4.3), grid)
    assert (grid.n_cells, weights.n) == (10, 43)
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    rho0 = np.random.default_rng(9).uniform(0.0, 1.0, 10)
    seen = []
    run(
        grid, weights, vel, sat, "lf", rho0, 8 * grid.dt, boundary=PERIODIC,
        observer=lambda n, level, speeds: seen.append((level, speeds)),
    )
    expected = _ring_march(grid, weights, vel, sat, "lf", rho0, 8, PERIODIC)
    for (level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert level.tobytes() == level_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize(
    "byte_rows, h, n_steps, boundary, wide",
    [
        (4, 6, 15, FREE_FLOW, False),
        (4, 6, 15, PERIODIC, False),
        (10, 3, 13, FREE_FLOW, False),
        (1, 3, 9, FREE_FLOW, False),
        (2, 3, 8, PERIODIC, True),
        (5, 3, 11, PERIODIC, True),
    ],
    ids=["b4_h6", "b4_h6_periodic", "h_below_rows", "b1", "b2_wraps", "h_below_rows_wraps"],
)
def test_run_with_small_speed_blocks_matches_ring_march(
    monkeypatch, scheme, byte_rows, h, n_steps, boundary, wide
):
    """With BLOCK_BYTES cut to byte_rows rows of J + 2 cells, lagged_speeds
    convolves min(byte_rows, h) levels per call at most (the last block of
    a run is shorter, as N_T - h is no multiple of it), and every observer
    (n, level, speeds), kept uncopied, and the final level equal the ring
    march bit for bit; the wide cases wrap the periodic window several
    times (K - 1 > J).  Consecutive calls share one read-only speeds
    object exactly while they share the lagged level."""
    if wide:
        grid = build_grid(0.0, 1.0, 0.1, 0.01, h * 0.01, 4.3, alpha=2.0)
        weights = discretize_kernel(Kernel("linear_decreasing", length=4.3), grid)
        assert weights.n - 1 > grid.n_cells
        rho0 = np.random.default_rng(9).uniform(0.0, 1.0, grid.n_cells)
        t_final = n_steps * grid.dt
    else:
        grid, weights, rho0, t_final = _delayed_case(h, n_steps)
    assert grid.delay_steps == h
    monkeypatch.setattr(schemes, "BLOCK_BYTES", byte_rows * 8 * (grid.n_cells + 2))
    rows = min(byte_rows, h)
    assert schemes.speed_rows(grid.n_cells, h) == rows
    assert (n_steps - h) % rows != 0 or rows == 1
    lagged, blocks = schemes.lagged_speeds, []

    def counted_lagged(levels, *args):
        blocks.append(len(levels))
        return lagged(levels, *args)

    monkeypatch.setattr(schemes, "lagged_speeds", counted_lagged)
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    seen = []
    final = run(
        grid, weights, vel, sat, scheme, rho0, t_final, boundary=boundary,
        observer=lambda n, level, speeds: seen.append((n, level, speeds)),
    )
    expected = _ring_march(grid, weights, vel, sat, scheme, rho0, n_steps, boundary)
    assert blocks[0] == 1 and max(blocks) == rows
    assert sum(blocks) == n_steps - h + 1
    assert [n for n, *_ in seen] == [n for n, *_ in expected]
    for (n, level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert level.tobytes() == level_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert not v.flags.writeable
        if n > 0:
            assert (v is seen[n - 1][2]) == (n <= h)
    assert final.tobytes() == expected[-1][1].tobytes()


def test_run_holds_at_most_two_speed_blocks(monkeypatch):
    """block_bytes counts two blocks of speed fields: with an observer that
    keeps only the last call's speeds, as the collector does, at most two
    blocks that lagged_speeds built are alive at any time, one while it
    builds the next."""
    grid, weights, rho0, t_final = _delayed_case(6, 40)
    monkeypatch.setattr(schemes, "BLOCK_BYTES", 4 * 8 * (grid.n_cells + 2))
    lagged, refs, live = schemes.lagged_speeds, [], []

    def alive():
        return sum(ref() is not None for ref in refs)

    def tracked(levels, *args):
        live.append(alive())
        block = lagged(levels, *args)
        refs.append(weakref.ref(block))
        live.append(alive())
        return block

    kept = []

    def observer(n, level, speeds):
        kept[:] = [speeds]
        live.append(alive())

    monkeypatch.setattr(schemes, "lagged_speeds", tracked)
    run(grid, weights, Velocity("normalized_greenshields"), _SAT_NONE, "hw", rho0, t_final,
        observer=observer)
    assert len(refs) == 1 + -(-(40 - 6) // 4)
    assert max(live) == 2


# ---------------------------------------------------------------------------
# the sliced march: steps on the cells around the nonzero ones


def _box_datum(kind):
    """J = 50 cells (the _delayed_case grid): a box on cells 20..30 with
    extra cells per kind; its slice reaches an edge within 30 steps."""
    rho0 = np.zeros(50)
    rho0[20:31] = np.random.default_rng(3).uniform(0.2, 0.9, 11)
    if kind == "negative_zero":
        rho0[[12, 37]] = -0.0
    elif kind == "subnormal":
        rho0[[14, 36]] = 5e-324, 2.5e-310
    elif kind == "all_zero":
        rho0[:] = 0.0
    elif kind == "ends_nonzero":
        rho0[[0, -1]] = 0.3, 0.6
    return rho0


@pytest.mark.parametrize("kind", ["box", "negative_zero", "subnormal", "all_zero", "ends_nonzero"])
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_sliced_run_matches_whole_level_march_byte_for_byte(monkeypatch, scheme, boundary, kind):
    """Every observer level and speed field of run, whose steps compute only
    the slice around the nonzero cells, has the bytes of the march that
    steps whole levels, so a -0.0 written as +0.0 fails too.  The box runs
    on slices until the slice reaches an edge and on whole levels after;
    a datum with a nonzero end cell, or none at all, runs on whole levels.
    The first slice reaches one cell past every cell whose bits are not 0:
    the -0.0 and subnormal cells too."""
    grid, weights, _, t_final = _delayed_case(3, 30)
    rho0 = _box_datum(kind)
    vel = Velocity("normalized_greenshields")
    sat = Saturation("linear", rho_max=1.0)
    slices = []  # each step's cells [a, b)

    def spy(step):
        def spied(*args):
            slices.append(args[-2:])
            return step(*args)

        return spied

    monkeypatch.setattr(schemes, "lf_step", spy(schemes.lf_step))
    monkeypatch.setattr(schemes, "hw_step", spy(schemes.hw_step))
    seen = []
    run(
        grid, weights, vel, sat, scheme, rho0, t_final, boundary=boundary,
        observer=lambda n, level, speeds: seen.append((level, speeds)),
    )
    expected = _ring_march(grid, weights, vel, sat, scheme, rho0, 30, boundary)
    assert len(seen) == len(expected) == 31
    for (level, v), (_, level_ref, v_ref) in zip(seen, expected):
        assert level.tobytes() == level_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
    sliced = sum(b - a < 50 for a, b in slices)
    if kind in ("all_zero", "ends_nonzero"):
        assert sliced == 0
    else:
        assert 0 < sliced < 30
        assert set(slices[sliced:]) == {(0, 50)}
        assert slices[0] == {"box": (19, 32), "negative_zero": (11, 39), "subnormal": (13, 38)}[kind]


def test_sliced_step_reports_the_level_cell():
    """A step on a slice names the non-finite cell by its index in the
    level, not in the slice: the same message as the step on the whole
    level."""
    grid, weights, _, _ = _delayed_case(0, 1)
    rho = np.zeros(50)
    rho[20:25] = 1e300
    v = np.ones(52)
    messages = []
    work = Workspace(50, weights.n, FREE_FLOW)
    for cells in ((), (19, 26)):
        with np.errstate(all="ignore"), pytest.raises(StepError) as exc:
            hw_step(rho, v * -1e300, grid.lam, _SAT_NONE, work, *cells)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert int(messages[0].rsplit(" ", 1)[1]) >= 19
    with pytest.raises(StepError, match="cell 8$"):
        schemes._finite(np.array([0.0, np.inf]), 7)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("field", [0, 1], ids=["datum_field", "later_field"])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_nonfinite_speed_outside_the_slice_fails_as_on_whole_levels(monkeypatch, scheme, field, bad):
    """A speed field with an inf or nan on a cell outside the slice, left
    or right of it, makes run step the whole level, which raises the
    StepError of a march on whole levels: at the same step and the same
    cell."""
    grid, weights, _, t_final = _delayed_case(3, 12)
    rho0 = _box_datum("box")
    lagged, blocks = schemes.lagged_speeds, []
    steps = {name: getattr(schemes, name) for name in ("lf_step", "hw_step")}

    def poisoned(levels, *args):
        block = lagged(levels, *args)
        blocks.append(block)
        if len(blocks) == field + 1:
            block = block.copy()
            block[:, column] = bad
            block.flags.writeable = False
        return block

    def whole(step):
        return lambda *args: step(*args[:-2])

    monkeypatch.setattr(schemes, "lagged_speeds", poisoned)
    for column in (6, 45):
        messages = []
        for patch in (False, True):
            blocks.clear()
            for name, step in steps.items():
                monkeypatch.setattr(schemes, name, whole(step) if patch else step)
            with pytest.raises(StepError) as exc:
                run(grid, weights, Velocity("normalized_greenshields"),
                    Saturation("linear", rho_max=1.0), scheme, rho0, t_final)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("step 1:" if field == 0 else "step 5:")


@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_run_simulate_and_entropy_residual_set_their_own_error_state(scheme):
    """run (observer included), simulate and entropy_residual each ignore
    every floating-point exception kind in an error state of their own.
    On the datum with subnormal cells, whose steps underflow, they give
    under np.errstate(all="raise") the bytes they give under NumPy's
    default state, and leave the caller's state as it was: every observer
    (level, speeds) pair and the final level of run, simulate's final
    level and records, and entropy_residual of the march's first step."""
    scenario = Scenario(
        x_min=0.0, x_max=1.0, dx=0.02, t_final=0.3, boundary=FREE_FLOW,
        velocity=Velocity("normalized_greenshields"), saturation=Saturation("linear", rho_max=1.0),
        kernel=Kernel("linear_decreasing", length=0.1), tau=0.03, scheme=scheme, safety=1.0,
        datum_kind="box", datum_params={"height": 0.75, "a": 0.4, "b": 0.6},
    )
    base, rho0 = resolve_scenario(scenario), _box_datum("subnormal")
    grid, sat = base.grid, base.saturation
    tv0, mass0 = total_variation(rho0, FREE_FLOW), l1_norm(rho0, grid.dx)
    constants = bound_constants(
        base.velocity, sat, scenario.kernel, grid.alpha, scenario.t_final, grid.tau, tv0, mass0,
        scheme,
    )
    resolved = dataclasses.replace(base, rho0=rho0, tv0=tv0, rho0_l1=mass0, constants=constants)

    def outputs():
        seen = []
        final = run(
            grid, resolved.weights, resolved.velocity, sat, scheme, resolved.rho0,
            scenario.t_final, observer=lambda n, level, speeds: seen.append((level, speeds)),
        )
        (rho, speeds), (rho_next, _) = seen[:2]
        value = entropy_residual(rho, rho_next, speeds, grid.lam, sat, FREE_FLOW, scheme, grid.alpha)
        col = simulate(resolved).collector
        return (
            [level.tobytes() + speeds.tobytes() for level, speeds in seen], final.tobytes(),
            repr(value), repr((col.records, col.sup_tv, col.entropy_max)),
        )

    expected = outputs()
    assert len(expected[0]) == resolved.n_steps + 1 > 30
    with np.errstate(all="raise"):
        state = np.geterr()
        assert outputs() == expected
        assert np.geterr() == state


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("sat", _SATURATIONS, ids=["none", "linear", "exponential"])
def test_one_shot_kernel_matches_concatenate_kernel(sat, boundary):
    """Single steps and speed fields on random data with negative cells and
    cells above R, J from 1 to 30 and K from 1 to 40, one workspace
    reused across calls: bit for bit the concatenate-based kernel."""
    rng = np.random.default_rng(10)
    vel = Velocity("cropped")
    for _ in range(40):
        n, k = int(rng.integers(1, 31)), int(rng.integers(1, 41))
        weights = discretize_kernel(
            Kernel("linear_decreasing", length=k * 0.1), build_grid(0.0, 1.0, 0.1, 0.1, 0.0, k * 0.1)
        )
        assert weights.n == k
        lam, alpha = rng.uniform(0.1, 0.5), rng.uniform(1.0, 3.0)
        work = Workspace(n, k, boundary)
        levels, expected = [], []
        for _ in range(3):
            rho = rng.uniform(-0.5, 1.5, n)
            speeds = lagged_speeds([rho], weights, vel, work)[0]
            v = _oracle_speeds(rho, weights, vel, boundary)
            assert speeds.tobytes() == _oracle_extend3(v, boundary).tobytes()
            lf = lf_step(rho, speeds, lam, alpha, sat, work)
            hw = hw_step(rho, speeds, lam, sat, work)
            assert lf.tobytes() == _oracle_lf_step(rho, v, lam, alpha, sat, boundary).tobytes()
            assert hw.tobytes() == _oracle_hw_step(rho, v, lam, sat, boundary).tobytes()
            levels.append(rho)
            expected.append(speeds)
        # a block of the three levels: each row is that level's field
        block = lagged_speeds(levels, weights, vel, work)
        assert block.shape == (3, n + 2) and not block.flags.writeable
        assert [row.tobytes() for row in block] == [v.tobytes() for v in expected]


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
    v = _speeds(level, w, vel, FREE_FLOW)
    assert np.allclose(v, 0.75, rtol=1e-14)


def test_convolved_speeds_forward_looking():
    """Cell j averages cells j, j+1 with a two-cell constant kernel."""
    vel = Velocity("normalized_greenshields")
    w = _weights()  # dx = 0.25, L = 0.5 -> weights [2, 2]
    level = np.array([0.0, 0.4, 0.8, 0.8])
    v = _speeds(level, w, vel, FREE_FLOW)
    # convolution values: 0.25*2*(0+0.4)=0.2, 0.6, 0.8, then 0.8 by
    # constant extension beyond the right edge
    assert np.allclose(v, 1.0 - np.array([0.2, 0.6, 0.8, 0.8]))


def test_convolved_speeds_periodic_wraps():
    vel = Velocity("normalized_greenshields")
    w = _weights()
    level = np.array([0.0, 0.4, 0.8, 0.8])
    v = _speeds(level, w, vel, PERIODIC)
    assert v[-1] == pytest.approx(1.0 - 0.25 * 2.0 * (0.8 + 0.0))


def test_lagged_speeds_use_oldest_level():
    vel = Velocity("normalized_greenshields")
    w = _weights()
    history = init_history(np.full(4, 0.5), h=1)
    push_level(history, np.full(4, 0.9))
    work = Workspace(4, w.n, FREE_FLOW)
    v = lagged_speeds([history[0]], w, vel, work)[0]
    assert np.allclose(v, 0.5)


def test_lagged_speeds_are_read_only():
    """run hands one speed field to several steps and observers."""
    vel = Velocity("normalized_greenshields")
    w = _weights()
    work = Workspace(4, w.n, FREE_FLOW)
    v = lagged_speeds([np.full(4, 0.5)], w, vel, work)[0]
    with pytest.raises(ValueError):
        v[0] = 0.0
    with pytest.raises(ValueError):
        v[1:-1][0] = 0.0


def _loads_law(x, out=None):
    """A velocity law that keeps the scaled loads, so a zero load's sign shows."""
    return x if out is None else out


def _sparse_levels(n):
    """Levels of n cells with zeros in every place lagged_speeds treats apart."""
    bump = np.random.default_rng(5).uniform(0.1, 1.0, n)
    levels = {"all_zero": np.zeros(n), "dense": bump.copy()}
    for name, cell in (("first", 0), ("interior", n // 2 - 1), ("last", n - 1)):
        levels[name] = np.zeros(n)
        levels[name][cell] = bump[cell]
    levels["leading_zeros"] = np.where(np.arange(n) >= n // 3, bump, 0.0)
    levels["trailing_zeros"] = np.where(np.arange(n) < n // 3, bump, 0.0)
    # periodic: the empty stretch runs through the seam, cells J - 1 and 0
    levels["zeros_across_seam"] = np.where((np.arange(n) > 2) & (np.arange(n) < n - 4), bump, 0.0)
    levels["negative_zeros"] = np.where(np.arange(n) % 5 == 2, bump, -0.0)
    levels["negative_zeros"][: n // 2] = -0.0
    levels["all_negative_zero"] = np.full(n, -0.0)
    levels["zero_ends"] = bump.copy()
    levels["zero_ends"][[0, -1]] = 0.0
    return levels


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize(
    "dx, length", [(1 / 40, 7 / 40), (0.1, 4.3)], ids=["J40_K7", "J10_K43_wraps"]
)
@pytest.mark.parametrize("vel", [Velocity("greenshields", v_max=0.9, rho_max=1.7), _loads_law],
                         ids=["greenshields", "loads"])
def test_lagged_speeds_skip_empty_windows_bit_for_bit(boundary, dx, length, vel):
    """Skipping the windows of exact zeros keeps every bit of the oracle's
    full convolution, the sign of a zero load included: one level per
    call and all levels in one block, with K - 1 > J on both boundaries."""
    weights = _weights(dx=dx, length=length, kind="linear_decreasing")
    n = round(1 / dx)
    levels = _sparse_levels(n)
    work = Workspace(n, weights.n, boundary)
    block = lagged_speeds(list(levels.values()), weights, vel, work)
    for row, (name, level) in zip(block, levels.items()):
        expected = _oracle_speeds(level, weights, vel, boundary)
        one = lagged_speeds([level], weights, vel, work)[0]
        assert row.view(np.int64).tolist() == one.view(np.int64).tolist(), name
        assert row[1:-1].view(np.int64).tolist() == expected.view(np.int64).tolist(), name
    if vel is _loads_law:
        assert block[list(levels).index("all_negative_zero")].view(np.int64).tolist() == [0] * (n + 2)


def _span(a):
    """Address and length of a 1-D array's cells."""
    return a.__array_interface__["data"][0], a.size


def test_lagged_speeds_correlate_only_the_windows_that_meet_the_support(monkeypatch):
    """An all-zero level calls no np.correlate; a box level correlates
    exactly window[lo : hi + K - 1], lo = max(0, s0 - K + 1) and hi = s1 + 1
    for its first and last nonzero cells s0, s1; a level with two nonzero
    end cells correlates its whole window without scanning it."""
    weights = _weights(dx=1 / 40, length=7 / 40, kind="linear_decreasing")
    n, k = 40, weights.n
    box = np.zeros(n)
    box[12:20] = 0.5
    dense = np.full(n, 0.5)
    inputs = []
    real = np.correlate

    def spy(a, v, mode):
        inputs.append(a)
        return real(a, v, mode)

    scans = []
    real_not_equal = np.not_equal

    def scan(*args, **kwargs):
        scans.append(args[0])
        return real_not_equal(*args, **kwargs)

    monkeypatch.setattr(np, "correlate", spy)
    monkeypatch.setattr(np, "not_equal", scan)
    vel = Velocity("normalized_greenshields")
    work = Workspace(n, k, FREE_FLOW)
    lagged_speeds([np.zeros(n), np.full(n, -0.0)], weights, vel, work)
    assert inputs == []
    lagged_speeds([box], weights, vel, work)
    lo, hi = 12 - k + 1, 20
    assert [_span(a) for a in inputs] == [_span(work.window[lo : hi + k - 1])]
    inputs.clear()
    scans.clear()
    lagged_speeds([dense], weights, vel, work)
    assert [_span(a) for a in inputs] == [_span(work.window)]
    assert scans == []


def test_speed_increment_bound_formula():
    """ceiling = 2 |v'| max(w) sup(rho) dx.  A signed level reaches it:
    with a constant kernel of N = 10 cells, a cell of -0.6 leaves the
    window as one of +0.6 enters, and the load moves by 2 w[0] dx 0.6."""
    vel = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    w = _weights(kind="linear_decreasing")
    bound = speed_increment_bound(vel, w, rho_sup=1.7)
    expected = 2.0 * (0.9 / 1.7) * float(np.max(w.w)) * 1.7 * w.dx
    assert bound == pytest.approx(expected)
    w = _weights(dx=0.01, length=0.1)
    level = np.zeros(100)
    level[[30, 40]] = -0.6, 0.6
    gap = float(np.max(np.abs(np.diff(_speeds(level, w, vel, FREE_FLOW)))))
    bound = speed_increment_bound(vel, w, rho_sup=0.6)
    assert (1.0 - 1e-12) * bound <= gap <= bound + SPEED_TOL


def test_adjacent_speed_increments_respect_bound():
    rng = np.random.default_rng(7)
    vel = Velocity("normalized_greenshields")
    grid = build_grid(0.0, 1.0, 0.01, 0.01, 0.0, 0.05)
    w = discretize_kernel(Kernel("linear_decreasing", length=0.05), grid)
    for _ in range(25):
        level = rng.uniform(0.0, 1.0, grid.n_cells)
        v = _speeds(level, w, vel, FREE_FLOW)
        bound = speed_increment_bound(vel, w, rho_sup=float(level.max()))
        assert float(np.max(np.abs(np.diff(v)))) <= bound + 1e-12
