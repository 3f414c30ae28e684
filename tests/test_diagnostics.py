"""Norms, a priori bound constants, entropy residual, invariant collector."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from entropy_oracle import broadcast_entropy_matrix, brute_force_entropy

from lagflow import diagnostics, preset_scenario, resolve_scenario, schemes, simulate
from lagflow.diagnostics import (
    SPEED_TOL,
    DiagnosticsCollector,
    InvariantViolation,
    bound_constants,
    default_kappas,
    entropy_residual,
    l1_distance,
    l1_norm,
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
from lagflow.presets import PRESET_NAMES
from lagflow.schemes import (
    FREE_FLOW, PERIODIC, Workspace, extend3, hw_step, lf_step, run, update,
)


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


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.3, 0.017])
@pytest.mark.parametrize("tv0", [0.0, 0.9, 3.0])
def test_tv_bound_at_seams_overflow_and_edges(tv0, tau):
    """tv_bound at rate M = 40 against the closed form (2 e^{M (t - q tau)}
    - 1)(2 e^{M tau} - 1)^q TV0, q = floor(t / tau), or e^{2 M t} TV0 at
    tau = 0, to 1e-12: at each seam q tau and one ulp either side of it,
    where the two sides agree to 1e-12, and between seams.  At t = 0 it is
    TV0 to the bit (exp(log 3.0) is not 3.0); past overflow it is inf, and
    0 at every time when TV0 = 0."""
    rate = 40.0
    seams = [q * tau for q in range(1, 12)] if tau else []
    sides = [[math.nextafter(seam, d) for d in (-math.inf, math.inf)] for seam in seams]
    for below, above in sides:
        assert tv_bound(above, tau, rate, tv0) == pytest.approx(
            tv_bound(below, tau, rate, tv0), rel=1e-12, abs=0.0
        )
    for t in [0.05, 0.123, 0.5, *seams, *(t for pair in sides for t in pair)]:
        if tau:
            q = math.floor(t / tau)
            factor = (2.0 * math.exp(rate * (t - q * tau)) - 1.0) * (
                2.0 * math.exp(rate * tau) - 1.0
            ) ** q
        else:
            factor = math.exp(2.0 * rate * t)
        assert tv_bound(t, tau, rate, tv0) == pytest.approx(factor * tv0, rel=1e-12, abs=0.0), t
    assert tv_bound(0.0, tau, rate, tv0).hex() == tv0.hex()
    assert tv_bound(40.0, tau, rate, tv0) == (0.0 if tv0 == 0.0 else math.inf)


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.3, 0.017])
@pytest.mark.parametrize("tv0", [0.0, 0.9, 3.0])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_tv_bound_at_equals_tv_bound_bits(scheme, tv0, tau):
    """BoundConstants.tv_bound_at equals tv_bound at the run's tau, TV rate
    and TV0 bit for bit, under either scheme: at the window seams q tau,
    one ulp either side of them, between them, past overflow, at tau = 0
    and at TV0 = 0."""
    vel, sat, kernel = _model()
    c = bound_constants(vel, sat, kernel, 2.0, 0.5, tau, tv0, 0.5, scheme)
    seams = [q * tau for q in range(12)] if tau else [0.0]
    times = [0.0, 1e-9, 0.05, 0.123, 0.5, 7.0, 40.0]
    for seam in seams:
        times += [seam, math.nextafter(seam, -math.inf), math.nextafter(seam, math.inf)]
    times += [n * 0.5 / 997 for n in range(998)]
    for t in (t for t in times if t >= 0.0):
        expected = tv_bound(t, tau, c.tv_rate, tv0)
        assert c.tv_bound_at(t).hex() == expected.hex(), t
    assert c.tv_bound_at(40.0) == (0.0 if tv0 == 0.0 else math.inf)


def test_tv_ceiling_at_t0_is_the_datum_tv():
    """BoundConstants.tv_bound_at(0) is TV(rho0) to the bit, so step 0
    meets its ceiling without BOUND_TOL: on the periodic oracle datum of
    seed 9, whose exp(log TV0) is one ulp below TV0, and on every preset
    under both schemes."""
    (_, _, _, _, constants), calls = _oracle_march("lf", PERIODIC, 2, 3, 9)
    tv0 = total_variation(calls[0][1], PERIODIC)
    assert math.exp(math.log(tv0)) != tv0
    assert constants.tv_bound_at(0.0).hex() == tv0.hex()
    for name in PRESET_NAMES:
        for scheme in ("lf", "hw"):
            resolved = resolve_scenario(dataclasses.replace(preset_scenario(name), scheme=scheme))
            if resolved.constants is not None:
                tv0 = total_variation(resolved.rho0, resolved.boundary)
                assert resolved.constants.tv_bound_at(0.0).hex() == tv0.hex(), (name, scheme)


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
        work = Workspace(n, 1, boundary)
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
        work = Workspace(n, 1, boundary)
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


def test_collector_checks_a_repeated_speed_field_against_its_own_bound():
    """A field passed again at a later call is judged at that call's lagged
    level: on an unsaturated run whose step 0 reaches 1.5 R, a gap between
    the bounds at R and at 1.5 R passes at steps 0..2 (lagged level 0) and
    fails at step 3, whose lagged level 1 stays within R, although the
    field object is call 0's and the previous call's."""
    vel, _, kernel = _model()
    grid = build_grid(0.0, 1.0, 0.01, 0.01, 0.02, 0.1)
    assert grid.delay_steps == 2
    weights = discretize_kernel(kernel, grid)
    col = DiagnosticsCollector(
        grid, weights, vel, Saturation("none"), "hw", FREE_FLOW,
        constants=None, stride=1, n_final=3,
    )
    assert col.rho_ceiling is None
    at_r = speed_increment_bound(vel, weights, vel.rho_max) + SPEED_TOL
    wide = speed_increment_bound(vel, weights, 1.5 * vel.rho_max) + SPEED_TOL
    v = np.zeros(100)
    v[50:] = 0.5 * (at_r + wide)
    field = extend3(v, FREE_FLOW)
    col(0, np.full(100, 1.5 * vel.rho_max), field)
    col.flush()
    level = np.full(100, 0.5)
    col(1, level, field)
    col(2, level, field)
    with pytest.raises(InvariantViolation, match="^step 3: speed increment"):
        col(3, level, field)


# ---------------------------------------------------------------------------
# block checking against the per-step reference


class _PerStepCollector(DiagnosticsCollector):
    """Reference: every check runs inside the call, in the order and with
    the messages of the block collector's verdict, from 1-D reductions of
    the level itself, and refuses a value unless it is within its bound.
    Every call's speed field is judged at the sup of its lagged level, the
    level of call max(n - h, 0), kept from the calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._prev_level = None
        self._prev_speeds = None
        self._levels_seen = []

    def flush(self):
        pass

    def __call__(self, n, level, speeds):
        t = n * self.grid.dt
        self._levels_seen.append(level)
        interior = speeds[1:-1]
        if interior.size >= 2:
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
            if self.entropy_assert or is_row:
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


def _oracle_march(scheme, boundary, h, n_final, seed, sat=None, high=0.7, vel=None):
    """Grid, weights, model, constants and the observer calls of a random
    run: a datum in [0.2, high] on 50 cells, a kernel of length 0.5 (so
    the TV ceiling stays below an oscillating level's TV) and tau = h dt,
    under linear saturation and the normalized velocity unless sat or vel
    is given."""
    vel = vel or Velocity("normalized_greenshields")
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
@pytest.mark.parametrize("h", [2, 3, 4, 5, 6, 12])
def test_block_collector_matches_per_step_collector(small_blocks, scheme, boundary, n_final, h):
    """Records, running maxima and space-time accumulators equal the
    per-step reference's bit for bit, with n_final below the block size
    and not a multiple of it, on runs that assert entropy (LF with
    saturation) and on runs that report it at record rows (HW, and both
    schemes without saturation).  The first new speed field after the
    datum's (call h + 1) falls on the first block's last row (h = 3), on
    the second block's first row (h = 4), mid-block (h = 5, 6) and in the
    third block, after a block that brings none (h = 12)."""
    for seed in range(3):
        for sat in (None, Saturation("none")):
            case, calls = _oracle_march(scheme, boundary, h, n_final, seed, sat=sat)
            new = [n for n in range(1, len(calls)) if calls[n][2] is not calls[n - 1][2]]
            assert new[:1] == ([h + 1] if h < n_final else [])
            args = (case, calls, scheme, boundary, n_final)
            err, col = _drive(DiagnosticsCollector, *args)
            err_ref, ref = _drive(_PerStepCollector, *args)
            assert err is None and err_ref is None
            assert col.entropy_assert == (scheme == "lf" and sat is None)
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


@pytest.mark.parametrize("stride", [7, 11])
@pytest.mark.parametrize(
    "scheme, sat", [("hw", None), ("lf", Saturation("none"))], ids=["hw", "lf_unsaturated"]
)
def test_reporting_blocks_without_a_record_step_skip_the_kernel(
    monkeypatch, small_blocks, scheme, sat, stride
):
    """On a run that does not assert entropy, with a stride above B = 5,
    some blocks hold no record step after step 0: the collector calls
    EntropyBlock.residuals once on each block that holds one, on its
    record steps only, and never on the others, and its records equal the
    per-step reference's bit for bit."""
    n_final = 23
    case, calls = _oracle_march(scheme, FREE_FLOW, 2, n_final, 5, sat=sat)
    residuals = diagnostics.EntropyBlock.residuals
    rows = []

    def spy(self, rho, *args):
        rows.append(len(rho))
        return residuals(self, rho, *args)

    monkeypatch.setattr(diagnostics.EntropyBlock, "residuals", spy)
    err, col = _drive(DiagnosticsCollector, case, calls, scheme, FREE_FLOW, n_final, stride)
    assert err is None and not col.entropy_assert
    record_steps = [n for n in range(1, n_final + 1) if n % stride == 0 or n == n_final]
    blocks = {n // _ORACLE_ROWS for n in record_steps}
    assert len(rows) == len(blocks) < n_final // _ORACLE_ROWS + 1
    assert sum(rows) == len(record_steps)
    err_ref, ref = _drive(_PerStepCollector, case, calls, scheme, FREE_FLOW, n_final, stride)
    assert err_ref is None
    assert _state(col) == _state(ref)


def test_asserting_kernel_reads_the_collector_rows_in_place(monkeypatch, small_blocks):
    """On an asserting LF run each EntropyBlock.residuals call reads views
    of the collector's level and speed blocks, with no copy: row r of v is
    the speed field of the call before step r (the previous block's last
    call at r = 0).  With h = 6 and B = 5 the datum's field fills the first
    block, and the first new field (call 7) falls mid-block in the second."""
    case, calls = _oracle_march("lf", FREE_FLOW, 6, 13, 7)
    grid, weights, vel, sat, constants = case
    col = DiagnosticsCollector(grid, weights, vel, sat, "lf", FREE_FLOW, constants, 3, 13)
    assert col.entropy_assert
    residuals = diagnostics.EntropyBlock.residuals
    firsts = []

    def spy(self, rho, rho_next, v):
        assert np.shares_memory(rho, col._levels) and np.shares_memory(rho_next, col._levels)
        assert np.shares_memory(v, col._speeds)
        first = col._last_n - len(v) + 1
        for r in range(max(1 - first, 0), len(v)):
            assert np.array_equal(v[r], calls[first + r - 1][2])
        firsts.append(first)
        return residuals(self, rho, rho_next, v)

    monkeypatch.setattr(diagnostics.EntropyBlock, "residuals", spy)
    for call in calls:
        col(*call)
    assert firsts == [0, 5, 10]
    assert col.entropy_max == 0.0


@pytest.mark.parametrize("scheme, high", [("lf", 4.0), ("hw", 1.8)], ids=["lf", "hw"])
def test_block_kernel_writes_nothing_into_its_speed_rows(monkeypatch, small_blocks, scheme, high):
    """Every EntropyBlock.residuals call of a collector gives the same bits
    when its v is a read-only view as on a writable copy, so the kernel
    never writes into the collector's speed rows: on certified blocks (a
    saturated run) and on blocks the certificate refuses (an unsaturated
    run whose speeds go negative, below -alpha on LF), every step a
    record."""
    residuals = diagnostics.EntropyBlock.residuals
    certified = diagnostics.EntropyBlock._certified
    outcomes = {}

    def spy(self, rho, rho_next, v):
        read_only = v.view()
        read_only.flags.writeable = False
        out = residuals(self, rho, rho_next, read_only)
        assert out.tobytes() == residuals(self, rho, rho_next, v.copy()).tobytes()
        return out

    def seen(self, *args):
        result = certified(self, *args)
        outcomes.setdefault(kind, set()).add(result)
        return result

    monkeypatch.setattr(diagnostics.EntropyBlock, "residuals", spy)
    monkeypatch.setattr(diagnostics.EntropyBlock, "_certified", seen)
    for kind, sat, top in (("saturated", None, 0.7), ("unsaturated", Saturation("none"), high)):
        case, calls = _oracle_march(scheme, FREE_FLOW, 2, 13, 2, sat=sat, high=top)
        err, col = _drive(DiagnosticsCollector, case, calls, scheme, FREE_FLOW, 13, stride=1)
        assert err is None
        assert col.entropy_assert == (scheme == "lf" and sat is None)
        if sat is not None:
            assert min(float(np.min(v)) for _, _, v in calls) < -(case[0].alpha or 0.0)
    assert outcomes == {"saturated": {True}, "unsaturated": {False}}


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_cropped_velocity_reports_entropy_at_record_rows(scheme, boundary):
    """A saturated run with the cropped velocity, which is not C^2,
    asserts no entropy but reports the bound at its record rows: each row
    after t = 0 holds the one-row entropy_residual of its step, bit for
    bit, and at least the brute-force supremum over kappa less 1e-14;
    only the row at t = 0 is nan."""
    case, calls = _oracle_march(scheme, boundary, 2, 13, 6, vel=Velocity("cropped"))
    grid, _, _, sat, constants = case
    assert constants is None
    err, col = _drive(DiagnosticsCollector, case, calls, scheme, boundary, 13)
    assert err is None and not col.entropy_assert
    values = {round(r.t / grid.dt): r.entropy_residual_max for r in col.records}
    assert list(values) == [0, 3, 6, 9, 12, 13]
    assert math.isnan(values.pop(0))
    for n, value in values.items():
        (_, rho, speeds), (_, rho_next, _) = calls[n - 1], calls[n]
        args = (grid.lam, sat, boundary, scheme, grid.alpha)
        assert value.hex() == entropy_residual(rho, rho_next, speeds, *args).hex()
        assert value >= brute_force_entropy(rho, rho_next, speeds[1:-1], *args) - 1e-14


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
    h = 6 that block's calls 5 and 6 repeat the datum's speed field and
    the first new one (call 7) falls mid-block."""
    scheme, boundary, inject, fragment = _VIOLATIONS[kind]
    case, calls = _oracle_march(scheme, boundary, h, 13, 1)
    calls[step] = inject(calls[step])
    err, _ = _drive(DiagnosticsCollector, case, calls, scheme, boundary, 13)
    err_ref, _ = _drive(_PerStepCollector, case, calls, scheme, boundary, 13)
    assert err_ref is not None and str(err_ref).startswith(f"step {step}: ")
    assert fragment in str(err_ref)
    assert type(err) is type(err_ref)
    assert str(err) == str(err_ref)


def _nan_speed_cell(call):
    n, level, v = call
    bad = v.copy()
    bad[20] = np.nan
    return n, level, bad


#: case: ({step: injections}, the start of the reference's message)
_ORDERINGS = {
    "tv_step7_before_negative_step9": (
        {7: [_with_level(_oscillate)], 9: [_with_level(_set(3, -1e-6))]},
        "step 7: total variation",
    ),
    "speed_before_ceiling": (
        {7: [_spike_speeds, _with_level(_set(7, 1.5))]}, "step 7: speed increment"
    ),
    "nan_speed_before_negative": (
        {7: [_nan_speed_cell, _with_level(_set(3, -1e-6))]}, "step 7: speed increment nan"
    ),
}


@pytest.mark.parametrize("case_id", sorted(_ORDERINGS))
def test_block_collector_orders_several_violations_of_one_block(small_blocks, case_id):
    """Several violations in the second block (steps 5..9) of a saturated
    HW run: the earliest step's wins, even when its check comes later in a
    step's order (TV at step 7 against a negative cell at step 9), and at
    one step the check a per-step check makes first (a speed spike, or a
    nan speed field, against a ceiling breach or a negative cell), with
    the per-step reference's message."""
    injections, start = _ORDERINGS[case_id]
    case, calls = _oracle_march("hw", FREE_FLOW, 2, 13, 1)
    for step, changes in injections.items():
        for change in changes:
            calls[step] = change(calls[step])
    err, _ = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13)
    err_ref, _ = _drive(_PerStepCollector, case, calls, "hw", FREE_FLOW, 13)
    assert str(err_ref).startswith(start)
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


@pytest.mark.parametrize("check", ["speed", "tv"])
def test_rows_above_the_block_bound_are_judged_by_their_own(small_blocks, check):
    """A row above its block's bound but within its own passes, as in the
    per-step reference: at step 9, a speed gap above the bound at R but
    within the bound at the sup of its lagged level 7 (an unsaturated run
    above R), or a TV above the ceiling at the block's first step 5 but
    within the ceiling at step 9 (a saturated run, the level alternating
    between 0.2 and 0.2 + d on its 50 cells)."""
    h = 2
    if check == "speed":
        case, calls = _oracle_march("hw", FREE_FLOW, h, 13, 2, sat=Saturation("none"), high=1.8)
        grid, weights, vel, _, _ = case
        low = speed_increment_bound(vel, weights, vel.rho_max) + SPEED_TOL
        own = speed_increment_bound(vel, weights, sup_norm(calls[9 - h][1])) + SPEED_TOL
        speeds = np.zeros(grid.n_cells + 2)
        speeds[26:] = value = 0.5 * (low + own)
        calls[9] = (9, calls[9][1], speeds)
    else:
        case, calls = _oracle_march("hw", FREE_FLOW, h, 13, 1)
        grid, constants = case[0], case[4]
        low, own = (constants.tv_bound_at(n * grid.dt) for n in (5, 9))
        level = np.full(grid.n_cells, 0.2)
        level[1::2] += 0.5 * (low + own) / (grid.n_cells - 1)
        value = total_variation(level)
        calls[9] = (9, level, calls[9][2])
    assert low < value < own
    err, col = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13)
    err_ref, ref = _drive(_PerStepCollector, case, calls, "hw", FREE_FLOW, 13)
    assert err is None and err_ref is None
    assert _state(col) == _state(ref)


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


# ---------------------------------------------------------------------------
# the verdict: each check's rows scanned against one bound per block


@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_screen_bounds_are_at_most_each_steps_bound(scheme):
    """The verdict's premise on every preset's BoundConstants: the TV
    ceiling at a block's first step s, taken without BOUND_TOL, is at most
    the row's own bound at every step t of the block, s <= t < s + B dt, so
    tv_bound_at(t) (1 + BOUND_TOL) + BOUND_TOL >= tv_bound_at(s):
    at the step times, one ulp either side of each seam q tau, with tau =
    0 and with TV0 = 0.  And the speed bound does not decrease in sup|rho|,
    so the block's bound at R is at most a field's bound at max(R, sup
    of its lagged level)."""
    tol = diagnostics.BOUND_TOL
    rng = np.random.default_rng(21)
    for name in PRESET_NAMES:
        resolved = resolve_scenario(dataclasses.replace(preset_scenario(name), scheme=scheme))
        grid, c = resolved.grid, resolved.constants
        if c is None:
            continue
        rows = diagnostics.block_rows(grid.n_cells)
        for consts in (c, dataclasses.replace(c, tau=0.0), dataclasses.replace(c, tv0=0.0)):
            bounds = np.array([consts.tv_bound_at(n * grid.dt) for n in range(resolved.n_steps + 1)])
            allowed = bounds * (1.0 + tol) + tol
            padded = np.append(allowed, np.full(rows - 1, np.inf))
            lowest = np.lib.stride_tricks.sliding_window_view(padded, rows).min(axis=1)
            assert np.all(lowest >= bounds), (name, consts.tau, consts.tv0)
            windows = int(resolved.n_steps * grid.dt / consts.tau) if consts.tau else 0
            for seam in np.arange(1, windows + 1) * consts.tau:
                times = [math.nextafter(seam, -math.inf), seam, math.nextafter(seam, math.inf)]
                for s in times:
                    for t in (t for t in times if t >= s):
                        assert consts.tv_bound_at(t) * (1.0 + tol) + tol >= consts.tv_bound_at(s)
        r = resolved.velocity.rho_max
        reach = np.sort(np.concatenate([[r, math.nextafter(r, math.inf)], rng.uniform(r, 50 * r, 200)]))
        speeds = [speed_increment_bound(resolved.velocity, resolved.weights, x) for x in reach]
        assert all(a <= b for a, b in zip(speeds, speeds[1:])), name


@pytest.mark.parametrize("where", ["level", "speeds"])
def test_a_nan_block_is_walked_not_committed(small_blocks, where):
    """A nan fails each check it reaches: a saturated HW run raises the
    per-step refusal at step 7, and an unsaturated free-flow run (no
    positivity, ceiling, mass, TV or entropy assertion) with a nan cell in
    level 7 raises nothing and leaves the per-step reference's state, nan
    accumulators included."""
    case, calls = _oracle_march("hw", FREE_FLOW, 2, 13, 4)
    n, level, speeds = calls[7]
    if where == "level":
        level = level.copy()
        level[20] = np.nan
    else:
        speeds = speeds.copy()
        speeds[20] = np.nan
    calls[7] = (n, level, speeds)
    err, _ = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13)
    fragment = "negative density nan" if where == "level" else "speed increment nan"
    assert str(err).startswith(f"step 7: {fragment}")

    case, calls = _oracle_march("hw", FREE_FLOW, 2, 13, 4, sat=Saturation("none"))
    n, level, speeds = calls[7]
    level = level.copy()
    level[20] = np.nan
    calls[7] = (n, level, speeds)
    err, col = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13)
    err_ref, ref = _drive(_PerStepCollector, case, calls, "hw", FREE_FLOW, 13)
    assert err is None and err_ref is None
    assert _state(col) == _state(ref)
    assert math.isnan(col.space_time_tv_time)


def _zeros_and_nans(values, seed):
    """values with a stretch of -0.0 and one of +0.0; an odd seed adds nan
    end cells, which a flat difference across rows meets, and a seed of 3
    mod 4 an inner nan."""
    values = values.copy()
    start = int(np.random.default_rng(seed).integers(1, len(values) - 21))
    values[start : start + 10] = -0.0
    values[start + 10 : start + 20] = 0.0
    if seed % 2:
        values[[0, -1]] = np.nan
    if seed % 4 == 3:
        values[start + 20] = np.nan
    return values


def test_flat_differences_equal_the_row_differences(small_blocks):
    """The collector takes each block's adjacent differences, of levels
    and of speed fields, from one subtraction over the rows as a flat
    array; on rows with nan and +-0 cells the TV and gap of every row are
    the bits of a subtraction of the rows' shifted 2-D views, and an
    unsaturated free-flow run, which asserts no level check, keeps the
    per-step reference's state."""
    case, calls = _oracle_march("hw", FREE_FLOW, 2, 13, 4, sat=Saturation("none"))
    calls = [(n, _zeros_and_nans(level, n) if n % 3 else level, speeds) for n, level, speeds in calls]
    err, col = _drive(DiagnosticsCollector, case, calls, "hw", FREE_FLOW, 13, stride=1)
    err_ref, ref = _drive(_PerStepCollector, case, calls, "hw", FREE_FLOW, 13, stride=1)
    assert err is None and err_ref is None
    assert _state(col) == _state(ref)
    rows = np.array([level for _, level, _ in calls])
    tvs = np.add.reduce(np.abs(rows[:, 1:] - rows[:, :-1]), axis=1)
    assert np.array([r.tv for r in col.records]).view(np.int64).tolist() == tvs.view(np.int64).tolist()

    fields = np.array([_zeros_and_nans(speeds, n) for n, _, speeds in calls[:_ORACLE_ROWS]])
    col._speeds[1 : _ORACLE_ROWS + 1] = fields
    inner = fields[:, 1:-1]
    gaps = np.maximum.reduce(np.abs(inner[:, 1:] - inner[:, :-1]), axis=1)
    assert np.array(col._check_speeds(_ORACLE_ROWS)).view(np.int64).tolist() == gaps.view(np.int64).tolist()
    assert np.isnan(gaps).tolist() == [False, False, False, True, False]


def test_block_sizes_follow_block_bytes():
    """B = max(1, BLOCK_BYTES // 8 J); the buffers are the (B + 1, J) level
    block, the (B + 1, J + 2) speed block, the (B, J + 2) scratch block and N_T
    + 1 per-step reaches, and the march holds two (b, J + 2)
    blocks of speed fields, b = max(1, min(h, BLOCK_BYTES // 8 (J + 2)));
    every run adds the block entropy kernel's two (B, J + 2) and four
    (B, J) float rows."""
    assert diagnostics.block_rows(344) == 47
    assert diagnostics.block_rows(4000) == 4
    assert diagnostics.block_rows(10**6) == 1
    assert schemes.speed_rows(344, 2193) == 47
    assert schemes.speed_rows(4000, 6192) == 4
    assert schemes.speed_rows(1000, 3) == 3
    assert schemes.speed_rows(1000, 0) == schemes.speed_rows(10**6, 9) == 1
    blocks = (48 * 344 + (47 + 48 + 2 * 47) * 346 + 10966) * 8
    kernel = (2 * 47 * 346 + 4 * 47 * 344) * 8
    assert kernel == diagnostics.EntropyBlock.bytes_for(47, 344) == 777568
    assert diagnostics.block_bytes(344, 2193, 10965) == blocks + kernel


def _array_bytes(obj):
    return sum(a.nbytes for a in vars(obj).values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("cells", [1, 50, 344, 4000])
@pytest.mark.parametrize(
    "h, n_final", [(0, 5), (3, 8), (8, 8), (20, 8)], ids=["h0", "h_below_N", "h_equal_N", "h_above_N"]
)
def test_block_bytes_equal_the_collector_buffers(cells, h, n_final):
    """block_bytes, which the manifest reports and the history budget
    counts, is every array a fresh collector holds (its blocks and reach
    ring), the march's two live blocks of speed_rows(J, h) speed fields
    and every array of its entropy block kernel, on runs that assert
    entropy (LF) and on runs that do not (HW)."""
    vel, sat, _ = _model()
    dx = 1.0 / cells
    for scheme, alpha in (("lf", 2.0), ("hw", None)):
        grid = build_grid(0.0, 1.0, dx, 0.01, h * 0.01, dx, alpha)
        assert (grid.n_cells, grid.delay_steps) == (cells, h)
        weights = discretize_kernel(Kernel("constant", length=dx), grid)
        col = DiagnosticsCollector(grid, weights, vel, sat, scheme, FREE_FLOW, None, 1, n_final)
        assert col.entropy_assert == (scheme == "lf")
        held = _array_bytes(col) + 2 * schemes.speed_rows(cells, h) * (cells + 2) * 8
        held += _array_bytes(col._entropy_work)
        assert held == diagnostics.block_bytes(cells, h, n_final)


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
        work = Workspace(n, 1, boundary)
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
    work = Workspace(3, 1, FREE_FLOW)
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

    def spy(self, rho, rho_next, v):
        out = residuals(self, rho, rho_next, v)
        for i in range(len(v)):
            sampled = broadcast_entropy_matrix(
                rho[i], rho_next[i], v[i, 1:-1], self.lam, self.sat, self.boundary,
                default_kappas(rho_max, rho[i]), self.scheme, self.alpha,
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
    """schemes.update on a (J, B) block view equals B one-row calls, and
    lf_step and hw_step return its row, to the last bit; and
    EntropyBlock.residuals over blocks of B = 1..5 steps and of the
    collector's own B equals entropy_residual of each step to the last
    bit.  Both schemes: J in {1, 2, 3, 40, 1000}, eleven chained steps
    from a level with a stretch of zeros, every fourth one raised by 1e-3
    in one cell, which share four speed fields."""
    rng = np.random.default_rng(12)
    sat = _LAWS[law]
    speed = 1.0 + sat.d1_sup
    steps = 11

    def update_row(scheme, rho, v, lam, alpha):
        """update of one level on fresh one-row buffers."""
        r, f = np.empty((2, len(v)))
        d, out = np.empty((2, len(rho)))
        return update(scheme, rho, v, lam, alpha, sat, boundary, r, f, d, out)

    def update_block(scheme, rho, v, lam, alpha):
        """update of B levels (rows) on the (J, B) transposes of the first
        B rows of five-row buffers, as EntropyBlock passes them."""
        rows, n = rho.shape
        r, f = np.empty((2, 5, n + 2))
        d, out = np.empty((2, 5, n))
        update(scheme, rho.T, v.T, lam, alpha, sat, boundary, r[:rows].T, f[:rows].T,
               d[:rows].T, out[:rows].T)
        return out[:rows]

    for scheme in ("lf", "hw"):
        for n in (1, 2, 3, 40, 1000):
            alpha = rng.uniform(0.3, 1.0) * speed
            lam = 1.0 / (alpha + speed) if scheme == "lf" else rng.uniform(0.3, 1.0) / speed
            table = np.array([extend3(rng.uniform(0.0, 1.0, n), boundary) for _ in range(4)])
            fields = np.sort(rng.integers(0, 4, steps))
            levels = [rng.uniform(0.0, 1.0, n)]
            levels[0][: n // 3] = 0.0
            work = Workspace(n, 1, boundary)
            for i, field in enumerate(fields):
                if scheme == "lf":
                    levels.append(lf_step(levels[-1], table[field], lam, alpha, sat, work))
                else:
                    levels.append(hw_step(levels[-1], table[field], lam, sat, work))
                row = update_row(scheme, levels[-2], table[field], lam, alpha)
                assert levels[-1].tobytes() == row.tobytes(), (scheme, n, i)
                if i % 4 == 3:
                    levels[-1][rng.integers(n)] += 1e-3
            levels = np.array(levels)
            for rows in (1, 2, 3, 4, 5):
                for first in range(0, steps - rows + 1, rows):
                    rho, v = levels[first : first + rows], table[fields[first : first + rows]]
                    block = update_block(scheme, rho, v, lam, alpha)
                    for i in range(rows):
                        row = update_row(scheme, rho[i], v[i], lam, alpha)
                        assert block[i].tobytes() == row.tobytes(), (scheme, n, rows, i)
            expected = [
                entropy_residual(
                    levels[i], levels[i + 1], table[fields[i]], lam, sat, boundary, scheme, alpha
                ).hex()
                for i in range(steps)
            ]
            assert any(float.fromhex(x) > 0.0 for x in expected)
            for rows in (1, 2, 3, 4, 5, diagnostics.block_rows(n)):
                block = diagnostics.EntropyBlock(rows, n, lam, sat, boundary, scheme, alpha)
                got = []
                for first in range(0, steps, rows):
                    rho = levels[first : min(first + rows, steps)]
                    got += block.residuals(
                        rho, levels[first + 1 : first + 1 + len(rho)],
                        table[fields[first : first + len(rho)]],
                    ).tolist()
                assert [x.hex() for x in got] == expected, (scheme, n, rows)


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
def test_certified_blocks_give_the_full_path_bits(monkeypatch, scheme, boundary, law):
    """EntropyBlock.residuals with the certificate (which skips lo, hi and
    m) and with it switched off (which forms them on every block) give the
    same bits, on random blocks of 1-4 steps at J in {1, 3, 40}: inside the
    hypotheses, at the CFL limit (a level at R and a speed at V, lam at
    and one ulp either side of 1 / V (1 + R |f'|) on HW, 1 / alpha with
    alpha = Phi V on LF) and outside them.  The certificate holds on some
    blocks and fails on others, on HW at the limit too."""
    rng = np.random.default_rng(21)
    sat = _LAWS[law]
    speed = 1.0 + sat.d1_sup
    certified = diagnostics.EntropyBlock._certified
    outcomes = {"inside": set(), "limit": set(), "outside": set()}
    for trial in range(90):
        n, rows = (1, 3, 40)[trial % 3], 1 + trial % 4
        case = ("inside", "limit", "outside")[trial // 30]
        low, high = (-0.3, 1.3) if case == "outside" else (0.0, 1.0)
        rho = rng.uniform(low, high, (rows, n))
        table = np.array([extend3(rng.uniform(low, high, n), boundary) for _ in range(3)])
        fields = np.sort(rng.integers(0, 3, rows))
        alpha = None
        if scheme == "lf":
            alpha = speed if case == "limit" else speed * rng.uniform(1.0, 1.5)
        limit = 1.0 / (speed if scheme == "hw" else alpha)
        lam = limit * rng.uniform(0.3, 1.0)
        if case == "limit":
            rho[rng.integers(rows), rng.integers(n)] = 1.0
            table[:, 1 + rng.integers(n)] = 1.0
            lam = (math.nextafter(limit, 0.0), limit, math.nextafter(limit, 2.0))[trial // 3 % 3]
        elif case == "outside":
            lam *= rng.uniform(1.0, 3.0)
        rho_next = np.empty_like(rho)
        work = Workspace(n, 1, boundary)
        for i in range(rows):
            if scheme == "lf":
                rho_next[i] = lf_step(rho[i], table[fields[i]], lam, alpha, sat, work)
            else:
                rho_next[i] = hw_step(rho[i], table[fields[i]], lam, sat, work)
        if trial % 5 == 4:
            rho_next[:, rng.integers(n)] += rng.choice([1e-3, -1e-3])
        args = (rho, rho_next, table[fields])
        constants = (lam, sat, boundary, scheme, alpha)
        with monkeypatch.context() as patch:
            seen = []
            patch.setattr(
                diagnostics.EntropyBlock, "_certified",
                lambda self, *a: seen.append(certified(self, *a)) or seen[-1],
            )
            fast = diagnostics.EntropyBlock(4, n, *constants).residuals(*args)
            patch.setattr(diagnostics.EntropyBlock, "_certified", lambda self, *a: False)
            full = diagnostics.EntropyBlock(4, n, *constants).residuals(*args)
        assert fast.tobytes() == full.tobytes(), (case, trial)
        outcomes[case].add(seen[0])
    assert outcomes["inside"] == {True}
    assert True in outcomes["limit"]
    # on LF, lam one ulp above 1 / alpha may still round to lam alpha = 1
    assert False in outcomes["limit"] or scheme == "lf"
    assert False in outcomes["outside"]


def test_entropy_residual_is_nan_on_any_non_finite_input():
    """A nan or inf in rho, rho' or the speeds (ghost cells too) makes the
    LF value nan, under the caller's default floating-point error state."""
    sat = _LAWS["linear"]
    rng = np.random.default_rng(15)
    rho = rng.uniform(0.0, 1.0, 40)
    speeds = extend3(rng.uniform(0.0, 1.0, 40), FREE_FLOW)
    work = Workspace(40, 1, FREE_FLOW)
    rho_next = lf_step(rho, speeds, 0.25, 2.0, sat, work)
    args = [rho, rho_next, speeds]
    assert math.isfinite(entropy_residual(rho, rho_next, speeds, 0.25, sat, FREE_FLOW, "lf", 2.0))
    for which, cell in ((0, 7), (1, 7), (2, 0), (2, 20), (2, 41)):
        for bad in (math.nan, math.inf):
            a, b, v = (np.array(x) for x in args)
            (a, b, v)[which][cell] = bad
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
