"""Norms, a priori bound constants, entropy residual, invariant collector."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from entropy_oracle import broadcast_entropy_matrix, brute_force_entropy

from lagflow import diagnostics, preset_scenario, resolve_scenario, simulate
from lagflow.diagnostics import (
    SPEED_TOL,
    DiagnosticsCollector,
    InvariantViolation,
    bound_constants,
    default_kappas,
    entropy_residual,
    l1_distance,
    l1_norm,
    lipschitz_in_time_check,
    log_tv_amplification,
    speed_increment_bound,
    stability_bound,
    stability_constants,
    sup_norm,
    total_variation,
    tv_bound,
)
from lagflow.discretization import build_grid, cfl_dt_hw, cfl_dt_lf, discretize_kernel
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.schemes import FREE_FLOW, PERIODIC, Workspace, extend3, hw_step, lf_step, run


def _model():
    """Normalized velocity, linear saturation, constant kernel of length 0.1."""
    return (
        Velocity("normalized_greenshields"),
        Saturation("linear", rho_max=1.0),
        Kernel("constant", length=0.1),
    )


def test_l1_and_sup_norms():
    level = np.array([0.5, -0.25, 1.0])
    assert l1_norm(level, dx=0.1) == pytest.approx(0.175)
    assert sup_norm(level) == 1.0
    assert l1_distance(level, np.zeros(3), dx=0.1) == pytest.approx(0.175)


def test_total_variation_riemann():
    level = np.concatenate([np.full(5, 0.3), np.full(5, 1.5)])
    assert total_variation(level, FREE_FLOW) == pytest.approx(1.2)


def test_total_variation_periodic_counts_wrap_jump():
    level = np.array([0.0, 0.5, 0.0])
    assert total_variation(level, FREE_FLOW) == pytest.approx(1.0)
    assert total_variation(level, PERIODIC) == pytest.approx(1.0)
    ramp = np.array([0.0, 0.5, 1.0])
    assert total_variation(ramp, FREE_FLOW) == pytest.approx(1.0)
    assert total_variation(ramp, PERIODIC) == pytest.approx(2.0)


def test_tv_bound_zero_delay_is_plain_exponential():
    assert tv_bound(0.25, 0.0, 3.0, 2.0) == pytest.approx(2.0 * math.exp(2.0 * 3.0 * 0.25))


def test_tv_bound_frozen_multiple_window_example():
    """t = 5 tau exactly: bound = (2 e^{M tau} - 1)^5 TV0 with M tau = 8/3."""
    value = tv_bound(10.0, 2.0, 4.0 / 3.0, 3.0)
    assert value == pytest.approx((2.0 * math.exp(8.0 / 3.0) - 1.0) ** 5 * 3.0, rel=1e-12)


def test_tv_bound_continuous_across_window_seams():
    rate, tau, tv0 = 1.7, 0.3, 0.9
    for q in (1, 2, 3):
        t = q * tau
        below = tv_bound(t - 1e-12, tau, rate, tv0)
        above = tv_bound(t + 1e-12, tau, rate, tv0)
        assert above == pytest.approx(below, rel=1e-9)


def test_tv_bound_monotone_in_time():
    ts = np.linspace(0.0, 1.0, 301)
    values = [tv_bound(t, 0.17, 2.5, 1.0) for t in ts]
    assert all(b >= a * (1 - 1e-13) for a, b in zip(values, values[1:]))


def test_log_amplification_approaches_zero_delay_limit():
    """For tau -> 0 the windowed product converges to e^{2 M t}."""
    rate, t = 2.0, 1.0
    tiny = t * 2.0**-20
    assert log_tv_amplification(t, tiny, rate) == pytest.approx(2.0 * rate * t, rel=1e-4)


def test_tv_bound_overflow_is_honest_infinity():
    assert tv_bound(1.0, 0.0, 1e6, 1.0) == math.inf
    assert tv_bound(1.0, 0.0, 1e6, 0.0) == 0.0


def test_bound_constants_frozen_rates():
    """Normalized velocity, linear saturation, constant kernel L = 0.1:
    G = 4/L = 40 and H = 2/L = 20."""
    c = bound_constants(
        *_model(), alpha=None, horizon=0.5, tau=0.1, tv0=1.0, rho0_l1=0.5, scheme="hw"
    )
    assert c.tv_rate_current == pytest.approx(40.0)
    assert c.tv_rate_lagged == pytest.approx(20.0)
    assert c.tv_rate == pytest.approx(40.0)


def test_bound_constants_need_smooth_velocity():
    """Without sup|v''| the constants are unavailable: None, not an error."""
    _vel, sat, kernel = _model()
    cropped = Velocity("cropped")
    assert bound_constants(cropped, sat, kernel, None, 0.5, 0.1, 1.0, 0.5, "hw") is None


def test_bound_constants_lf_needs_alpha():
    with pytest.raises(ValueError):
        bound_constants(*_model(), None, 0.5, 0.1, 1.0, 0.5, "lf")


def test_time_rate_brackets_differ_by_scheme():
    """LF pays alpha + V(1 + R|f'|); HW pays V(1 + R|f'|)."""
    lf = bound_constants(*_model(), 2.0, 0.01, 0.0, 1.0, 0.0, "lf")
    hw = bound_constants(*_model(), None, 0.01, 0.0, 1.0, 0.0, "hw")
    # with rho0_l1 = 0 the constant is bracket * amplification * tv0
    ratio = lf.l1_time_rate / hw.l1_time_rate
    assert ratio == pytest.approx((2.0 + 2.0) / 2.0)


def test_stability_bound_reduces_to_datum_term_for_equal_delays():
    base = bound_constants(*_model(), None, 0.5, 0.1, 1.0, 0.5, "hw")
    consts = stability_constants(
        *_model(),
        sup_bv=2.0,
        sigma0_l1=0.5,
        tau1=0.1,
        tau2=0.1,
        log_l1_time_rate=base.log_l1_time_rate,
        horizon=0.5,
    )
    d0 = 0.01
    t = 0.001
    expected = math.exp(consts.rate * t) * consts.datum_weight * d0
    assert stability_bound(consts, t, d0) == pytest.approx(expected, rel=1e-12)
    assert stability_bound(consts, 0.0, 0.0) == 0.0


def test_stability_bound_overflow_is_infinity():
    base = bound_constants(*_model(), None, 0.5, 0.1, 1.0, 0.5, "hw")
    consts = stability_constants(*_model(), 1e6, 0.5, 0.1, 0.05, base.log_l1_time_rate, 0.5)
    assert stability_bound(consts, 0.5, 0.1) == math.inf


def test_default_kappas_cover_box_and_extrema():
    level = np.array([0.12, 0.98])
    kap = default_kappas(1.7, level)
    assert kap[0] == 0.0
    assert kap[-1] == 1.7
    assert 0.12 in kap and 0.98 in kap
    assert np.all(np.diff(kap) > 0)


def test_entropy_residual_nonpositive_for_lf_randomized():
    """100 random single LF steps under CFL never produce entropy."""
    rng = np.random.default_rng(2024)
    sat = Saturation("linear", rho_max=1.0)
    v_cap = 1.0
    alpha = v_cap * (1.0 + 1.0)  # V (1 + R |f'|)
    lam = 1.0 / (2.0 * alpha)
    worst = -math.inf
    for _ in range(100):
        n = rng.integers(4, 40)
        rho = rng.uniform(0.0, 1.0, n)
        v_lag = rng.uniform(0.0, v_cap, n)
        boundary = FREE_FLOW if rng.integers(2) else PERIODIC
        speeds = extend3(v_lag, boundary)
        with Workspace(n, 1, boundary) as work:
            rho_next = lf_step(rho, speeds, lam, alpha, sat, work)
        res = entropy_residual(rho, rho_next, speeds, lam, sat, boundary, "lf", alpha)
        worst = max(worst, res)
    assert worst <= 1e-10


def test_entropy_residual_flags_manufactured_violation():
    """A fake update that jumps above the data is not entropy admissible."""
    sat = Saturation("linear", rho_max=1.0)
    rho = np.full(5, 0.2)
    fake_next = rho.copy()
    fake_next[2] = 0.9
    v = np.full(7, 0.5)
    res = entropy_residual(rho, fake_next, v, 0.25, sat, FREE_FLOW, "lf", 2.0)
    assert res > 0.1


def _max_min_entropy_residual(rho, rho_next, v_lag, lam, sat, boundary, kappas, scheme, alpha):
    """Reference residual: the scheme's flux G composed with max/min, and f
    evaluated on every kappa-by-cell array (see entropy_residual)."""
    kap = np.asarray(kappas, dtype=float)[:, None]
    r = extend3(rho, boundary)
    v = extend3(v_lag, boundary)
    u, w = r[:-1], r[1:]
    v_left, v_right = v[:-1], v[1:]
    if scheme == "lf":

        def g_edge(a, b):
            return 0.5 * (a * sat(a) * v_left + b * sat(b) * v_right) - 0.5 * alpha * (b - a)

        speed_gap = 0.5 * (v[2:] - v[:-2])
    else:

        def g_edge(a, b):
            return a * sat(b) * v_right

        speed_gap = v[2:] - v[1:-1]
    flux_k = g_edge(np.maximum(u, kap), np.maximum(w, kap)) - g_edge(
        np.minimum(u, kap), np.minimum(w, kap)
    )
    residual = (
        np.abs(rho_next - kap)
        - np.abs(rho - kap)
        + lam * (flux_k[:, 1:] - flux_k[:, :-1])
        + lam * np.sign(rho_next - kap) * kap * sat(kap) * speed_gap
    )
    return float(np.max(residual))


@pytest.mark.parametrize("kind", ["none", "linear", "exponential"])
def test_entropy_residual_matches_max_min_composition(kind):
    """On random LF and HW steps inside the CFL rules, with levels and
    speeds in [0, 1], the value equals to 1e-15 the largest max/min
    composition over kappas tied to cell values and to updated values
    (sgn(0) terms), one below and one above all the data; it is at least
    the composition at each of them."""
    rng = np.random.default_rng(7)
    sat = Saturation(kind, eps=0.05 if kind == "exponential" else None)
    alpha = 1.0 + sat.d1_sup  # V (1 + R |f'|) with V = R = 1
    worst = 0.0
    for trial in range(60):
        scheme = "lf" if trial % 2 else "hw"
        boundary = FREE_FLOW if trial % 4 < 2 else PERIODIC
        n = int(rng.integers(3, 40))
        rho = rng.uniform(0.0, 1.0, n)
        v_lag = rng.uniform(0.0, 1.0, n)
        with Workspace(n, 1, boundary) as work:
            if scheme == "lf":
                lam = rng.uniform(0.1, 1.0) / alpha
                rho_next = lf_step(rho, extend3(v_lag, boundary), lam, alpha, sat, work)
            else:
                lam = rng.uniform(0.1, 1.0) / (1.0 + sat.d1_sup)
                rho_next = hw_step(rho, extend3(v_lag, boundary), lam, sat, work)
        kappas = np.concatenate([rho, rho_next, [-1.0, 2.0]])
        args = (rho, rho_next, v_lag, lam, sat, boundary)
        speeds = extend3(v_lag, boundary)
        new = entropy_residual(rho, rho_next, speeds, lam, sat, boundary, scheme, alpha)
        ref = [_max_min_entropy_residual(*args, [k], scheme, alpha) for k in kappas]
        assert new >= max(ref) - 1e-15
        worst = max(worst, abs(new - max(ref)))
    assert worst <= 1e-15


def test_lipschitz_check_accepts_rate_respecting_snapshots():
    a = np.zeros(4)
    b = np.full(4, 0.05)
    worst = lipschitz_in_time_check([(0.0, a), (1.0, b)], l1_time_rate=1.0, dx=0.25)
    assert worst <= 0.0


def test_lipschitz_check_allows_only_the_bound_slack():
    """The slack is K dt (1 + BOUND_TOL) + BOUND_TOL, as for the other
    bounds: a distance 5e-11 above K dt is refused."""
    a = np.zeros(4)
    ceiling = 0.1
    at = np.full(4, ceiling)
    assert lipschitz_in_time_check([(0.0, a), (1.0, at)], l1_time_rate=ceiling, dx=0.25) == 0.0
    over = np.full(4, ceiling + 5e-11)
    with pytest.raises(InvariantViolation, match="time-Lipschitz"):
        lipschitz_in_time_check([(0.0, a), (1.0, over)], l1_time_rate=ceiling, dx=0.25)


def test_lipschitz_check_rejects_fast_drift():
    a = np.zeros(4)
    b = np.full(4, 10.0)
    with pytest.raises(InvariantViolation):
        lipschitz_in_time_check([(0.0, a), (0.001, b)], l1_time_rate=1.0, dx=0.25)


def _collector(n_final=4, tau=0.02, dx=0.05, boundary=FREE_FLOW):
    vel, sat, kernel = _model()
    grid = build_grid(0.0, 1.0, dx, 0.01, tau, 0.1)
    weights = discretize_kernel(kernel, grid)
    c = bound_constants(
        vel,
        sat,
        kernel,
        None,
        n_final * grid.dt,
        grid.tau,
        1.0,
        0.5,
        "hw",
    )
    return DiagnosticsCollector(
        grid=grid,
        weights=weights,
        vel=vel,
        sat=sat,
        scheme="hw",
        boundary=boundary,
        constants=c,
        stride=2,
        n_final=n_final,
    )


def test_collector_rows_at_stride_and_endpoints():
    col = _collector()
    level = np.full(20, 0.5)
    v = np.full(22, 0.5)
    for n in range(5):
        col(n, level, v)
    assert [r.t for r in col.records] == pytest.approx([0.0, 0.02, 0.04])
    assert col.sup_density == 0.5
    assert col.records[0].tv == 0.0


def test_collector_detects_negative_density():
    col = _collector()
    bad = np.full(20, 0.5)
    bad[3] = -1e-6
    col(0, bad, np.full(22, 0.5))
    with pytest.raises(InvariantViolation, match="negative density"):
        col.flush()


def test_collector_detects_ceiling_violation():
    col = _collector()
    level = np.full(20, 1.5)
    col(0, level, np.full(22, 0.5))
    with pytest.raises(InvariantViolation, match="ceiling 1.0"):
        col.flush()


def test_collector_detects_mass_drift():
    col = _collector(boundary=PERIODIC)
    level = np.full(20, 0.5)
    v = np.full(22, 0.5)
    col(0, level, v)
    col(1, level * 1.01, v)
    with pytest.raises(InvariantViolation, match="mass drift"):
        col.flush()


def test_collector_detects_speed_field_inconsistency():
    """A speed field with a jump no convolution could produce is rejected.

    With a constant kernel of length 0.1 on a dx = 0.01 grid the adjacent
    speed increment is capped at 2 |v'| (1/L) R dx = 0.2.
    """
    col = _collector(dx=0.01)
    level = np.full(100, 0.5)
    v = np.full(100, 0.5)
    v[50] = 0.9
    col(0, level, extend3(v, FREE_FLOW))
    with pytest.raises(InvariantViolation):
        col.flush()


def test_collector_speed_ceiling_is_speed_increment_bound():
    """The collector's speed ceiling is speed_increment_bound at reach
    max(R, sup of the lagged level), to the last bit: a gap at ceiling +
    SPEED_TOL passes and the next float up fails."""
    col = _collector(dx=0.01)
    level = np.full(100, 0.5)
    limit = speed_increment_bound(col.vel, col.weights, 1.0) + SPEED_TOL
    v = np.zeros(100)
    v[50:] = limit
    col(0, level, extend3(v, FREE_FLOW))
    col.flush()
    v_next = np.zeros(100)
    v_next[50:] = np.nextafter(limit, math.inf)
    col(1, level, extend3(v_next, FREE_FLOW))
    with pytest.raises(InvariantViolation, match="speed increment"):
        col.flush()


# ---------------------------------------------------------------------------
# block checking against the per-step reference


class _PerStepCollector(DiagnosticsCollector):
    """Reference: every check runs inside the call, in the order and with
    the messages of the block collector's row walk, from 1-D reductions of
    the level itself, and refuses a value unless it is within its bound.  A new speed field's lagged level is the level of
    call max(n - h, 0), kept from the calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._prev_level = None
        self._levels_seen = []

    def flush(self):
        pass

    def __call__(self, n, level, speeds):
        t = n * self.grid.dt
        self._levels_seen.append(level)
        interior = speeds[1:-1]
        if speeds is not self._prev_speeds and interior.size >= 2:
            lagged = self._levels_seen[max(n - self.grid.delay_steps, 0)]
            reach = max(self.vel.rho_max, sup_norm(lagged))
            ceiling = speed_increment_bound(self.vel, self.weights, reach)
            gap = float(np.max(np.abs(np.diff(interior))))
            if not gap <= ceiling + SPEED_TOL:
                raise InvariantViolation(f"step {n}: speed increment {gap} exceeds bound {ceiling}")
        lo = float(np.min(level))
        hi = float(np.max(level))
        self.sup_density = max(self.sup_density, hi)
        self.min_density = min(self.min_density, lo)
        if self.positivity and not lo >= -diagnostics.LEVEL_TOL:
            raise InvariantViolation(f"step {n}: negative density {lo}")
        ceiling = self.rho_ceiling
        if ceiling is not None and not hi <= ceiling + diagnostics.LEVEL_TOL:
            raise InvariantViolation(f"step {n}: density {hi} exceeds the ceiling {ceiling}")
        mass = self.grid.dx * float(np.sum(level))
        if self._mass0 is None:
            self._mass0 = mass
        elif self.conserve_mass:
            drift = abs(mass - self._mass0) / max(abs(self._mass0), 1.0)
            self.mass_drift_max = max(self.mass_drift_max, drift)
            if not drift <= diagnostics.MASS_TOL:
                raise InvariantViolation(f"step {n}: relative mass drift {drift}")
        tv = total_variation(level, self.boundary)
        l1 = l1_norm(level, self.grid.dx)
        self.sup_tv = max(self.sup_tv, tv)
        self.sup_bv = max(self.sup_bv, tv + l1)
        if self.tv_ceiling:
            bound = self.constants.tv_bound_at(t)
            if not tv <= bound * (1.0 + diagnostics.BOUND_TOL) + diagnostics.BOUND_TOL:
                raise InvariantViolation(f"step {n}: total variation {tv} exceeds the ceiling {bound}")
        is_row = n == 0 or n == self.n_final or n % self.stride == 0
        residual = math.nan
        if n > 0:
            self.space_time_tv_time += l1_distance(level, self._prev_level, self.grid.dx)
            self.space_time_tv_space += self.grid.dt * self._prev_tv
            if self.entropy_assert or (self.entropy_watch and is_row):
                residual = entropy_residual(
                    self._prev_level,
                    level,
                    self._prev_speeds,
                    self.grid.lam,
                    self.sat,
                    self.boundary,
                    scheme=self.scheme,
                    alpha=self.grid.alpha,
                )
                self.entropy_max = max(self.entropy_max, residual)
                if self.entropy_assert and not residual <= diagnostics.ENTROPY_TOL:
                    raise InvariantViolation(
                        f"step {n}: entropy residual {residual} above {diagnostics.ENTROPY_TOL}"
                    )
        if is_row:
            bound = math.nan if self.constants is None else self.constants.tv_bound_at(t)
            self.records.append(
                diagnostics.DiagnosticsRecord(t, l1, max(abs(lo), abs(hi)), lo, hi, tv, bound, residual)
            )
        self._prev_level = level
        self._prev_speeds = speeds
        self._prev_tv = tv


#: Block rows of the oracle runs: the steps 0..13 of n_final = 13 fill two
#: blocks and part of a third.
_ORACLE_ROWS = 5
_ORACLE_STATE = (
    "sup_tv",
    "sup_bv",
    "sup_density",
    "min_density",
    "entropy_max",
    "mass_drift_max",
    "space_time_tv_space",
    "space_time_tv_time",
)


def _oracle_march(scheme, boundary, h, n_final, seed, sat=None, high=0.7):
    """Grid, weights, model, constants and the observer calls of a random
    run: a datum in [0.2, high] on 50 cells, a kernel of length 0.5 (so
    the TV ceiling stays below an oscillating level's TV) and tau = h dt,
    under linear saturation unless sat is given."""
    vel = Velocity("normalized_greenshields")
    sat = sat or Saturation("linear", rho_max=1.0)
    kernel = Kernel("constant", length=0.5)
    dx = 0.02
    if scheme == "lf":
        alpha, dt = cfl_dt_lf(vel, sat, dx)
    else:
        alpha, dt = None, cfl_dt_hw(vel, sat, dx)
    grid = build_grid(0.0, 1.0, dx, dt, h * dt, kernel.length, alpha)
    assert grid.delay_steps == h
    weights = discretize_kernel(kernel, grid)
    rho0 = np.random.default_rng(seed).uniform(0.2, high, grid.n_cells)
    calls = []
    run(
        grid, weights, vel, sat, scheme, rho0, n_final * grid.dt, boundary,
        observer=lambda *call: calls.append(call),
    )
    assert len(calls) == n_final + 1
    constants = bound_constants(
        vel, sat, kernel, alpha, n_final * grid.dt, grid.tau,
        total_variation(rho0, boundary), l1_norm(rho0, dx), scheme,
    )
    return (grid, weights, vel, sat, constants), calls


def _drive(cls, case, calls, scheme, boundary, n_final, stride=3):
    """Feed the calls to a new collector; its error or None, and itself."""
    grid, weights, vel, sat, constants = case
    col = cls(grid, weights, vel, sat, scheme, boundary, constants, stride, n_final)
    try:
        for call in calls:
            col(*call)
    except InvariantViolation as exc:
        return exc, col
    return None, col


def _state(col):
    return [repr(tuple(vars(r).values())) for r in col.records] + [
        repr(getattr(col, name)) for name in _ORACLE_STATE
    ]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of _ORACLE_ROWS rows on the 50-cell oracle grid."""
    monkeypatch.setattr(diagnostics, "BLOCK_BYTES", _ORACLE_ROWS * 8 * 50)
    assert diagnostics.block_rows(50) == _ORACLE_ROWS


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("n_final", [3, 13])
@pytest.mark.parametrize("h", [2, 6, 12])
def test_block_collector_matches_per_step_collector(small_blocks, scheme, boundary, n_final, h):
    """Records, running maxima and space-time accumulators equal the
    per-step reference's bit for bit, with n_final below the block size
    and not a multiple of it, on runs that assert entropy (LF with
    saturation) and on runs that watch it (HW, and both schemes without
    saturation); with h = 12 the second block brings no new speed field."""
    for seed in range(3):
        for sat in (None, Saturation("none")):
            case, calls = _oracle_march(scheme, boundary, h, n_final, seed, sat=sat)
            args = (case, calls, scheme, boundary, n_final)
            err, col = _drive(DiagnosticsCollector, *args)
            err_ref, ref = _drive(_PerStepCollector, *args)
            assert err is None and err_ref is None
            assert col.entropy_assert == (scheme == "lf" and sat is None)
            assert col.entropy_watch != col.entropy_assert
            assert len(col.records) == len(range(0, n_final, 3)) + 1
            assert _state(col) == _state(ref)


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_block_collector_matches_per_step_collector_at_full_blocks(scheme, boundary):
    """The same over 700 steps at the module's own block size (327 rows
    of 50 cells): two full blocks and part of a third."""
    assert diagnostics.block_rows(50) == 327
    case, calls = _oracle_march(scheme, boundary, 40, 700, 11)
    err, col = _drive(DiagnosticsCollector, case, calls, scheme, boundary, 700, stride=7)
    err_ref, ref = _drive(_PerStepCollector, case, calls, scheme, boundary, 700, stride=7)
    assert err is None and err_ref is None
    assert _state(col) == _state(ref)


def _spike_speeds(call):
    n, level, v = call
    bad = v.copy()
    bad[25] += 0.9
    return n, level, bad


def _with_level(change):
    def inject(call):
        n, level, v = call
        bad = level.copy()
        change(bad)
        return n, bad, v

    return inject


def _set(index, value):
    def change(level):
        level[index] = value

    return change


def _oscillate(level):
    level[::2] = 0.0
    level[1::2] = 0.95


def _raise_by(delta, index=slice(None)):
    def change(level):
        level[index] += delta

    return change


#: kind: (scheme, boundary, injection, expected message fragment)
_VIOLATIONS = {
    "speed": ("hw", FREE_FLOW, _spike_speeds, "speed increment"),
    "negative": ("lf", FREE_FLOW, _with_level(_set(3, -1e-6)), "negative density"),
    "ceiling": ("hw", FREE_FLOW, _with_level(_set(7, 1.5)), "exceeds the ceiling 1.0"),
    "mass": ("lf", PERIODIC, _with_level(_raise_by(1e-3)), "relative mass drift"),
    "tv": ("hw", FREE_FLOW, _with_level(_oscillate), "total variation"),
    "entropy": ("lf", FREE_FLOW, _with_level(_raise_by(0.05, 25)), "entropy residual"),
}


@pytest.mark.parametrize("h", [2, 6])
@pytest.mark.parametrize("step", [5, 7, 9], ids=["first_row", "middle_row", "last_row"])
@pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
def test_block_collector_raises_per_step_violation(small_blocks, kind, step, h):
    """A violation injected at the first, a middle or the last row of the
    second block raises the reference's exception, message and step; with
    h = 6 the block's rows and speed fields are not aligned."""
    scheme, boundary, inject, fragment = _VIOLATIONS[kind]
    case, calls = _oracle_march(scheme, boundary, h, 13, 1)
    calls[step] = inject(calls[step])
    err, _ = _drive(DiagnosticsCollector, case, calls, scheme, boundary, 13)
    err_ref, _ = _drive(_PerStepCollector, case, calls, scheme, boundary, 13)
    assert err_ref is not None and str(err_ref).startswith(f"step {step}: ")
    assert fragment in str(err_ref)
    assert type(err) is type(err_ref)
    assert str(err) == str(err_ref)


@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("h", [0, 2, 6, 20], ids=["h0", "h2", "h6", "h_above_N"])
def test_block_collector_reads_lagged_reach_above_capacity(small_blocks, scheme, h):
    """Without saturation the density exceeds R = 1, so each field's bound
    uses sup|rho| of its lagged level, which the block collector reads from
    its reach ring: the records match the reference's, and a speed spike
    at step 9 reports the reference's bound bit for bit."""
    sat = Saturation("none")
    case, calls = _oracle_march(scheme, FREE_FLOW, h, 13, 2, sat=sat, high=1.8)
    assert max(float(np.max(level)) for _, level, _ in calls) > 1.0
    err, col = _drive(DiagnosticsCollector, case, calls, scheme, FREE_FLOW, 13)
    err_ref, ref = _drive(_PerStepCollector, case, calls, scheme, FREE_FLOW, 13)
    assert err is None and err_ref is None
    assert _state(col) == _state(ref)
    calls[9] = _spike_speeds(calls[9])
    err, _ = _drive(DiagnosticsCollector, case, calls, scheme, FREE_FLOW, 13)
    err_ref, _ = _drive(_PerStepCollector, case, calls, scheme, FREE_FLOW, 13)
    assert str(err_ref).startswith("step 9: speed increment")
    assert str(err) == str(err_ref)


def _box_delay_march(steps):
    """The preset box_delay under LF on its own grid (J = 1000, blocks of
    16 steps): the collector's case, the observer calls of its first
    `steps` steps and the boundary."""
    resolved = resolve_scenario(dataclasses.replace(preset_scenario("box_delay"), scheme="lf"))
    grid = resolved.grid
    calls = []
    run(
        grid, resolved.weights, resolved.velocity, resolved.saturation, "lf", resolved.rho0,
        steps * grid.dt, resolved.boundary, observer=lambda *call: calls.append(call),
    )
    assert len(calls) == steps + 1
    case = (grid, resolved.weights, resolved.velocity, resolved.saturation, resolved.constants)
    return case, calls, resolved.boundary


@pytest.mark.parametrize("where, cell", [("tail", 480), ("front", 200)])
def test_block_collector_raises_a_1e9_defect_of_a_real_run(where, cell):
    """One cell of level 150 of a box_delay LF run raised by 1e-9 gives
    step 150 the defect rho' - LF(rho) = 1e-9 > ENTROPY_TOL there: the
    block collector raises at step 150 with the per-step reference's
    message, in the tail ahead of the box (0 < rho < 1e-12, a span
    [lo_j, hi_j] of about 1e-9) and on the box front."""
    case, calls, boundary = _box_delay_march(160)
    n = 150
    prev, level, speeds = calls[n - 1][1], calls[n][1], calls[n][2]
    raised = level.copy()
    raised[cell] += 1e-9
    near = np.append(extend3(prev, boundary)[cell : cell + 3], raised[cell])
    lo, hi = near.min(), near.max()
    assert (0.0 < lo and hi < 2e-9) == (where == "tail")
    calls[n] = (n, raised, speeds)
    err, _ = _drive(DiagnosticsCollector, case, calls, "lf", boundary, 160)
    err_ref, _ = _drive(_PerStepCollector, case, calls, "lf", boundary, 160)
    assert str(err_ref).startswith(f"step {n}: entropy residual")
    assert type(err) is type(err_ref)
    assert str(err) == str(err_ref)


def test_collector_raises_on_a_nan_speed_field():
    """A nan in the left ghost cell of the speed field of call 6, which the
    increment check does not read, makes step 7's entropy residual nan,
    and the assertion refuses it: a nan compares false with the tolerance
    either way, so the check is 'not residual <= tol'."""
    case, calls = _oracle_march("lf", FREE_FLOW, 2, 13, 3)
    n, level, speeds = calls[6]
    spoilt = speeds.copy()
    spoilt[0] = np.nan
    calls[6] = (n, level, spoilt)
    err, _ = _drive(DiagnosticsCollector, case, calls, "lf", FREE_FLOW, 13)
    assert isinstance(err, InvariantViolation)
    assert str(err) == f"step 7: entropy residual nan above {diagnostics.ENTROPY_TOL}"


@pytest.mark.parametrize("where", ["level", "speeds"])
def test_collector_refuses_a_nan_level_or_speed_field(small_blocks, where):
    """A nan cell in the level, or in the new speed field, of call 7 of an
    HW run makes that step's minimum, or its field's increment gap, nan;
    positivity and the speed check refuse it at step 7, as the per-step
    reference does, for a nan fails every 'not value <= bound'."""
    case, calls = _oracle_march("hw", FREE_FLOW, 2, 13, 4)
    n, level, speeds = calls[7]
    assert speeds is not calls[6][2]
    if where == "level":
        level = level.copy()
        level[20] = np.nan
    else:
        speeds = speeds.copy()
        speeds[20] = np.nan
    calls[7] = (n, level, speeds)
    err, _ = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13)
    err_ref, _ = _drive(_PerStepCollector, case, calls, "hw", FREE_FLOW, 13)
    fragment = "negative density nan" if where == "level" else "speed increment nan"
    assert str(err_ref).startswith(f"step 7: {fragment}")
    assert type(err) is type(err_ref)
    assert str(err) == str(err_ref)


def test_block_sizes_follow_block_bytes():
    """B = max(1, BLOCK_BYTES // 8 J); the buffers are the (B + 1, J) level
    block, the (B + 1, J + 2) speed block, the (B, J) scratch block and a
    ring of min(h, N_T) + 1 reaches; an entropy-asserting run adds the
    block kernel's three (B, J + 2) and four (B, J) float rows."""
    assert diagnostics.block_rows(344) == 47
    assert diagnostics.block_rows(4000) == 4
    assert diagnostics.block_rows(10**6) == 1
    watched = ((2 * 47 + 1) * 344 + 48 * 346 + 2194) * 8
    assert diagnostics.block_bytes(344, 2193, 10965, False) == watched
    kernel = (3 * 47 * 346 + 4 * 47 * 344) * 8
    assert diagnostics.block_bytes(344, 2193, 10965, True) == watched + kernel


def _array_bytes(obj):
    return sum(a.nbytes for a in vars(obj).values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("cells", [1, 50, 344, 4000])
@pytest.mark.parametrize(
    "h, n_final", [(0, 5), (3, 8), (8, 8), (20, 8)], ids=["h0", "h_below_N", "h_equal_N", "h_above_N"]
)
def test_block_bytes_equal_the_collector_buffers(cells, h, n_final):
    """block_bytes, which the manifest reports and the history budget
    counts, is every array a fresh collector holds (its blocks and reach
    ring) and, on an LF run that asserts entropy, every array of its
    entropy block kernel; an HW run builds no kernel."""
    vel, sat, _ = _model()
    dx = 1.0 / cells
    for scheme, alpha in (("lf", 2.0), ("hw", None)):
        grid = build_grid(0.0, 1.0, dx, 0.01, h * 0.01, dx, alpha)
        assert (grid.n_cells, grid.delay_steps) == (cells, h)
        weights = discretize_kernel(Kernel("constant", length=dx), grid)
        col = DiagnosticsCollector(grid, weights, vel, sat, scheme, FREE_FLOW, None, 1, n_final)
        assert col.entropy_assert == (scheme == "lf")
        held = _array_bytes(col)
        if col.entropy_assert:
            held += _array_bytes(col._entropy_work)
        else:
            assert col._entropy_work is None
        assert held == diagnostics.block_bytes(cells, h, n_final, col.entropy_assert)


# ---------------------------------------------------------------------------
# the entropy bound against the brute-force oracle


_LAWS = {
    "none": Saturation("none"),
    "linear": Saturation("linear", rho_max=1.0),
    "exponential": Saturation("exponential", rho_max=1.0, eps=0.05),
}


def _random_steps(rng, scheme, boundary, sat, count):
    """count random steps (rho, rho', speeds with ghost cells, lam, alpha,
    the scheme's update of rho, monotone) at J in {1, 2, 3, 40}.

    A third of them lie inside the hypotheses of the lemma: levels and
    speeds in [0, 1] and the CFL rules, with alpha at 100-150 % of
    V (1 + R |f'|) (LF).  The others draw levels and speeds from
    [-0.3, 1.3], alpha from 5-120 % of that value and lam up to three
    times the CFL limit.  Two thirds of the updates carry defects of
    +-1e-3 in some cells.  monotone says the step is sure to be monotone:
    inside the hypotheses, with rho' too in [0, 1] on HW.
    """
    speed = 1.0 + sat.d1_sup  # V (1 + R |f'|) with V = R = 1
    for trial in range(count):
        n = (1, 2, 3, 40)[trial % 4]
        inside = trial % 3 == 0
        low, high = (0.0, 1.0) if inside else (-0.3, 1.3)
        rho = rng.uniform(low, high, n)
        speeds = extend3(rng.uniform(low, high, n), boundary)
        share = rng.uniform(0.05, 1.0 if inside else 3.0)
        with Workspace(n, 1, boundary) as work:
            if scheme == "lf":
                alpha = speed * (rng.uniform(1.0, 1.5) if inside else rng.uniform(0.05, 1.2))
                lam = share / alpha
                update = lf_step(rho, speeds, lam, alpha, sat, work)
            else:
                alpha, lam = None, share / speed
                update = hw_step(rho, speeds, lam, sat, work)
        rho_next = update + (rng.choice([0.0, 1e-3, -1e-3], n) if trial % 3 != 1 else 0.0)
        monotone = inside and (scheme == "lf" or 0.0 <= rho_next.min() <= rho_next.max() <= 1.0)
        yield rho, rho_next, speeds, lam, alpha, update, monotone


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_entropy_residual_bounds_every_kappa(scheme, boundary, law):
    """On random steps, monotone or not, the value is at least the
    brute-force supremum over kappa less 1e-14, and on the monotone ones
    it is max_j |rho'_j - H_j(rho)| bit for bit, H the scheme's update."""
    rng = np.random.default_rng(11)
    sat = _LAWS[law]
    monotone_steps = 0
    for rho, rho_next, speeds, lam, alpha, update, monotone in _random_steps(
        rng, scheme, boundary, sat, 60
    ):
        value = entropy_residual(rho, rho_next, speeds, lam, sat, boundary, scheme, alpha)
        oracle = brute_force_entropy(rho, rho_next, speeds[1:-1], lam, sat, boundary, scheme, alpha)
        assert value >= oracle - 1e-14, (value, oracle)
        if monotone:
            monotone_steps += 1
            assert value == float(np.max(np.abs(rho_next - update)))
    assert monotone_steps >= 10


def test_entropy_residual_covers_the_jump_of_the_exponential_law():
    """The exponential law has f(0) = 1 - e^{-R/eps} but f = 1 below 0.  On
    an HW step whose level crosses 0 the supremum over kappa exceeds
    |c| = 0 by about lam (1 - f(0)) rho_{j-1} V_j, far more than the
    derivative terms of m_j give, and the jump's term in m_j covers it."""
    sat = Saturation("exponential", rho_max=1.0, eps=0.5)
    rho = np.array([0.861, -1.5e-6, 0.212])
    speeds = extend3(np.array([0.103, 0.961, 0.889]), FREE_FLOW)
    lam = 0.33
    with Workspace(3, 1, FREE_FLOW) as work:
        rho_next = hw_step(rho, speeds, lam, sat, work)
    oracle = brute_force_entropy(rho, rho_next, speeds[1:-1], lam, sat, FREE_FLOW, "hw")
    assert oracle > 0.01
    assert entropy_residual(rho, rho_next, speeds, lam, sat, FREE_FLOW, "hw") >= oracle - 1e-14


@pytest.mark.parametrize("name", ["box_delay", "stopgo_riemann"])
def test_block_kernel_bounds_the_sampled_kernel_on_preset_runs(monkeypatch, name):
    """On every step of the preset's LF run the block kernel's value is at
    least the largest residual at the 19 sampled kappas, default_kappas(R,
    rho), less 1e-15: the bound over every kappa covers the sample."""
    resolved = resolve_scenario(dataclasses.replace(preset_scenario(name), scheme="lf"))
    rho_max = resolved.velocity.rho_max
    residuals = diagnostics.EntropyBlock.residuals
    steps = []

    def spy(self, rho, rho_next, speeds, fields, lam, sat, boundary, scheme, alpha):
        out = residuals(self, rho, rho_next, speeds, fields, lam, sat, boundary, scheme, alpha)
        for i, field in enumerate(fields):
            sampled = broadcast_entropy_matrix(
                rho[i], rho_next[i], speeds[field, 1:-1], lam, sat, boundary,
                default_kappas(rho_max, rho[i]), scheme, alpha,
            )
            assert out[i] >= np.max(sampled) - 1e-15, (len(steps), out[i], np.max(sampled))
            steps.append(out[i])
        return out

    monkeypatch.setattr(diagnostics.EntropyBlock, "residuals", spy)
    result = simulate(resolved)
    # every step and the unread step-0 row of the first block
    assert len(steps) == resolved.n_steps + 1
    assert result.collector.entropy_max == 0.0


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
def test_block_entropy_equals_per_step_bits(boundary, law):
    """EntropyBlock.residuals over blocks of B = 1..5 steps and of the
    collector's own B equals entropy_residual of each step to the last
    bit, on both schemes: J in {1, 2, 3, 40, 1000}, eleven chained steps
    from a level with a stretch of zeros, every fourth one raised by 1e-3
    in one cell, which share four speed fields."""
    rng = np.random.default_rng(12)
    sat = _LAWS[law]
    speed = 1.0 + sat.d1_sup
    steps = 11
    for scheme in ("lf", "hw"):
        for n in (1, 2, 3, 40, 1000):
            alpha = rng.uniform(0.3, 1.0) * speed
            lam = 1.0 / (alpha + speed) if scheme == "lf" else rng.uniform(0.3, 1.0) / speed
            table = np.array([extend3(rng.uniform(0.0, 1.0, n), boundary) for _ in range(4)])
            fields = np.sort(rng.integers(0, 4, steps))
            levels = [rng.uniform(0.0, 1.0, n)]
            levels[0][: n // 3] = 0.0
            with Workspace(n, 1, boundary) as work:
                for i, field in enumerate(fields):
                    if scheme == "lf":
                        levels.append(lf_step(levels[-1], table[field], lam, alpha, sat, work))
                    else:
                        levels.append(hw_step(levels[-1], table[field], lam, sat, work))
                    if i % 4 == 3:
                        levels[-1][rng.integers(n)] += 1e-3
            levels = np.array(levels)
            expected = [
                entropy_residual(
                    levels[i], levels[i + 1], table[fields[i]], lam, sat, boundary, scheme, alpha
                ).hex()
                for i in range(steps)
            ]
            assert any(float.fromhex(x) > 0.0 for x in expected)
            for rows in (1, 2, 3, 4, 5, diagnostics.block_rows(n)):
                block = diagnostics.EntropyBlock(rows, n)
                got = []
                for first in range(0, steps, rows):
                    rho = levels[first : min(first + rows, steps)]
                    got += block.residuals(
                        rho, levels[first + 1 : first + 1 + len(rho)], table,
                        fields[first : first + len(rho)], lam, sat, boundary, scheme, alpha,
                    ).tolist()
                assert [x.hex() for x in got] == expected, (scheme, n, rows)


def test_entropy_residual_is_nan_on_any_non_finite_input():
    """A nan or inf in rho, rho' or the speeds (ghost cells too) makes the
    LF value nan."""
    sat = _LAWS["linear"]
    rng = np.random.default_rng(15)
    rho = rng.uniform(0.0, 1.0, 40)
    speeds = extend3(rng.uniform(0.0, 1.0, 40), FREE_FLOW)
    with Workspace(40, 1, FREE_FLOW) as work:
        rho_next = lf_step(rho, speeds, 0.25, 2.0, sat, work)
    args = [rho, rho_next, speeds]
    assert math.isfinite(entropy_residual(rho, rho_next, speeds, 0.25, sat, FREE_FLOW, "lf", 2.0))
    for which, cell in ((0, 7), (1, 7), (2, 0), (2, 20), (2, 41)):
        for bad in (math.nan, math.inf):
            a, b, v = (np.array(x) for x in args)
            (a, b, v)[which][cell] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                res = entropy_residual(a, b, v, 0.25, sat, FREE_FLOW, "lf", 2.0)
            assert math.isnan(res), (which, cell, bad)


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
def test_saturation_on_a_block_equals_each_extended_row(boundary, law):
    """f on a (m, J + 2) block of ghost-extended levels equals f on each
    extended row, and on the row without its left ghost cell, bit for
    bit, so the kernel's evaluation of f on a block stands in for
    lf_step's and hw_step's."""
    rng = np.random.default_rng(13)
    sat = _LAWS[law]
    for n in (1, 2, 3, 7, 344, 1000, 4000):
        block = rng.uniform(-0.1, 1.1, (5, n))
        block[0, : min(n, 3)] = (0.0, 1.0, -0.0)[: min(n, 3)]
        extended = np.array([extend3(row, boundary) for row in block])
        whole = sat(extended)
        for row, f_row in zip(extended, whole):
            assert sat(row).tobytes() == f_row.tobytes()
            assert sat(row[1:]).tobytes() == f_row[1:].tobytes()


_FAULT_RUN = """
import dataclasses, resource
from lagflow import preset_scenario, resolve_scenario, simulate
scenario = dataclasses.replace(
    preset_scenario("box_delay"), scheme="lf", t_final=0.025, snapshots=()
)
resolved = resolve_scenario(scenario)
assert resolved.n_steps == 510
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = simulate(resolved)
assert result.collector.entropy_assert
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_lf_run_under_default_malloc_faults_no_pages_per_step():
    """A fresh interpreter with glibc's default malloc settings runs 510
    box_delay LF steps with fewer than 20 000 minor page faults: no
    per-step array is large enough to be mapped and unmapped."""
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OMP_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 20_000
