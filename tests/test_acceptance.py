"""Acceptance suite: every contracted numerical property at its stated
tolerance, one test (and one pass/fail line) per criterion, plus the unit
cases of criterion 10's pairwise checker.

Run with ``pytest tests/test_acceptance.py -v``.  Full preset simulations
are cached per (preset, scheme, boundary, delay) so each
configuration is marched exactly once per session.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from entropy_oracle import brute_force_entropy

from lagflow.diagnostics import BOUND_TOL, entropy_residual, l1_distance
from lagflow.discretization import build_grid, discretize_kernel
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.presets import PRESET_NAMES, preset_scenario
from lagflow.runners import (
    compare_schemes,
    resolve_scenario,
    saturation_study,
    simulate,
    stability_experiment,
    tau_sweep,
)
from lagflow.schemes import (
    FREE_FLOW,
    PERIODIC,
    Workspace,
    extend3,
    hw_step,
    lagged_speeds,
    lf_step,
    run,
)

SCHEMES = ("lf", "hw")

# The refinement-study preset and the two delay-study presets by name
REFINE_PRESET = "box_refine"
DELAY_PRESETS = ("osc_delay", "box_delay")

_cache: dict = {}


def _standard_snapshots(scenario):
    times = {0.0, scenario.t_final}
    times.update(scenario.snapshots)
    return tuple(sorted(times))


def _run(name, scheme, boundary=None, tau=None):
    """Simulate one preset configuration once per session."""
    key = (name, scheme, boundary, tau)
    if key not in _cache:
        s = preset_scenario(name)
        overrides = {"scheme": scheme}
        if boundary is not None:
            overrides["boundary"] = boundary
        if tau is not None:
            overrides["tau"] = tau
        s = dataclasses.replace(s, **overrides)
        resolved = resolve_scenario(s)
        _cache[key] = (resolved, simulate(resolved, _standard_snapshots(s)))
    return _cache[key]


def test_criterion_01_constant_data_are_bit_exact_fixed_points():
    """Constant levels (including 0 and R) survive 1000 steps unchanged."""
    cases = [
        (Velocity("greenshields", v_max=0.9, rho_max=1.7),
         Saturation("linear", rho_max=1.7), 1.7, 2.0),
        (Velocity("normalized_greenshields"),
         Saturation("exponential", rho_max=1.0, eps=0.5), 1.0, 4.0),
    ]
    checked = 0
    for vel, sat, capacity, alpha in cases:
        for scheme in SCHEMES:
            for tau in (0.0, 0.01, 0.0146):
                grid = build_grid(0.0, 1.0, 0.02, 0.002, tau, 0.1, alpha=alpha)
                weights = discretize_kernel(Kernel("constant", length=0.1), grid)
                for value in (0.0, 0.5 * capacity, capacity):
                    rho0 = np.full(grid.n_cells, value)
                    final = run(
                        grid, weights, vel, sat, scheme, rho0,
                        t_final=1000 * grid.dt,
                    )
                    assert np.array_equal(final, rho0), (
                        f"constant {value} drifted: scheme={scheme} tau={tau}"
                    )
                    checked += 1
    print(f"criterion 1 PASS: {checked} constant runs of 1000 steps bit-exact")


def test_criterion_02_positivity_and_maximum_principle():
    """min >= -1e-12 and max <= R + 1e-12 at every step, all saturated
    presets, both schemes (also enforced in-run at every single step)."""
    for name in PRESET_NAMES:
        capacity = preset_scenario(name).velocity.rho_max
        for scheme in SCHEMES:
            resolved, sim = _run(name, scheme)
            assert resolved.saturation.kind != "none"
            assert sim.collector.min_density >= -1e-12, (name, scheme)
            assert sim.collector.sup_density <= capacity + 1e-12, (name, scheme)
    print(f"criterion 2 PASS: {len(PRESET_NAMES)} presets x {SCHEMES} inside [0, R]")


GOLDEN_PRESETS = Path(__file__).with_name("golden_presets.json")


def test_preset_summaries_match_golden_table():
    """sup TV, sup density, final L1 and TV and the worst entropy residual
    of every preset x scheme run agree with tests/golden_presets.json to
    1e-12 relative (entropy residuals, which sit at rounding level, to
    1e-15 absolute).  The runs are criterion 2's cached ones."""
    golden = json.loads(GOLDEN_PRESETS.read_text())
    assert sorted(golden) == sorted(f"{n}/{s}" for n in PRESET_NAMES for s in SCHEMES)
    for key, want in golden.items():
        name, scheme = key.split("/")
        col = _run(name, scheme)[1].collector
        got = {
            "sup_tv": col.sup_tv,
            "sup_density": col.sup_density,
            "final_l1": col.records[-1].l1,
            "final_tv": col.records[-1].tv,
            "entropy_residual_max": col.entropy_max,
        }
        assert sorted(got) == sorted(want), key
        for field, value in want.items():
            floor = 1e-15 if field == "entropy_residual_max" else 0.0
            assert math.isclose(got[field], value, rel_tol=1e-12, abs_tol=floor), (
                key, field, got[field], value,
            )
    print(f"golden table PASS: {len(golden)} preset x scheme summaries match")


def test_criterion_03_periodic_mass_conservation():
    """dx * sum(rho) drifts at most 1e-12 relative on periodic variants."""
    worst = 0.0
    for name in PRESET_NAMES:
        for scheme in SCHEMES:
            resolved, sim = _run(name, scheme, boundary=PERIODIC)
            mass0 = resolved.rho0_l1
            drift_rel = sim.collector.mass_drift_max * max(mass0, 1.0) / mass0
            worst = max(worst, drift_rel)
            assert drift_rel <= 1e-12, (name, scheme, drift_rel)
    print(f"criterion 3 PASS: worst relative mass drift {worst:.3e} <= 1e-12")


def test_criterion_04_discrete_entropy_inequality():
    """LF entropy residual <= 1e-10 on every preset (checked at every step
    in-run) and on 100 randomized single-step trials, where the bound over
    every kappa is also at least the brute-force supremum less 1e-14."""
    worst = -math.inf
    for name in PRESET_NAMES:
        resolved, sim = _run(name, "lf")
        assert sim.collector.entropy_assert, name
        assert sim.collector.entropy_max <= 1e-10, (name, sim.collector.entropy_max)
        worst = max(worst, sim.collector.entropy_max)

    rng = np.random.default_rng(181)
    sat = Saturation("linear", rho_max=1.0)
    alpha = 2.0  # V (1 + R |f'|) for the normalized model
    lam = 1.0 / (2.0 * alpha)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        rho = rng.uniform(0.0, 1.0, n)
        v_lag = rng.uniform(0.0, 1.0, n)
        boundary = FREE_FLOW if rng.integers(2) else PERIODIC
        speeds = extend3(v_lag, boundary)
        work = Workspace(n, 1, boundary)
        rho_next = lf_step(rho, speeds, lam, alpha, sat, work)
        res = entropy_residual(rho, rho_next, speeds, lam, sat, boundary, "lf", alpha)
        worst = max(worst, res)
        assert res <= 1e-10
        oracle = brute_force_entropy(rho, rho_next, v_lag, lam, sat, boundary, "lf", alpha)
        assert res >= oracle - 1e-14
    print(f"criterion 4 PASS: worst LF entropy residual {worst:.3e} <= 1e-10")


def test_criterion_05_total_variation_bounds():
    """Measured TV(t) <= a priori bound(t), refine + delay presets, both
    schemes (asserted in-run at every step; re-checked here on records)."""
    names = (REFINE_PRESET,) + DELAY_PRESETS
    for name in names:
        for scheme in SCHEMES:
            resolved, sim = _run(name, scheme)
            assert sim.collector.tv_ceiling, name
            for record in sim.collector.records:
                assert record.tv <= record.tv_ceiling * (1 + 1e-12) + 1e-12, (
                    name, scheme, record.t,
                )
    print(f"criterion 5 PASS: TV under bound on {names} x {SCHEMES}")


def test_criterion_06_scheme_diffusion_ordering():
    """HW is closer than LF to a dx = 2.5e-4 LF reference on both Riemann
    presets, within a 2-minute budget."""
    started = time.perf_counter()
    reports = {}
    for name in ("riemann_shock", "riemann_rarefaction"):
        reports[name] = compare_schemes(preset_scenario(name), ref_dx=2.5e-4)
    elapsed = time.perf_counter() - started
    for name, report in reports.items():
        assert report["l1_hw_vs_ref"] < report["l1_lf_vs_ref"], (name, report)
    assert elapsed <= 120.0, f"comparison took {elapsed:.1f}s"
    print(
        "criterion 6 PASS: "
        + "; ".join(
            f"{name} hw {r['l1_hw_vs_ref']:.4e} < lf {r['l1_lf_vs_ref']:.4e}"
            for name, r in reports.items()
        )
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_07_delay_to_zero_convergence():
    """L1 distance to the zero-delay run decreases strictly in tau, each
    decrement at least 1% of the largest distance."""
    taus = (0.1, 0.05, 0.025, 0.0125)
    report = tau_sweep(preset_scenario("osc_delay"), taus)
    dist = report["distance_to_zero_delay"]
    ordered = [dist[t] for t in sorted(dist)]  # tau increasing from 0
    assert ordered[0] == 0.0
    floor_gap = 0.01 * max(ordered)
    for smaller, larger in zip(ordered[:-1], ordered[1:]):
        assert larger - smaller >= floor_gap, dist
    print(
        "criterion 7 PASS: distances "
        + ", ".join(f"{t}->{dist[t]:.4e}" for t in sorted(dist, reverse=True))
    )


def test_criterion_08_tv_versus_delay_ordering():
    """TV at T = 0.5 is larger for tau = 0.1 than for tau = 0.02 on both
    delay presets."""
    outcome = {}
    for name in DELAY_PRESETS:
        report = tau_sweep(preset_scenario(name), (0.1, 0.02))
        tv = report["tv_at_final_time"]
        assert tv[0.1] > tv[0.02], (name, tv)
        outcome[name] = tv
    print(
        "criterion 8 PASS: "
        + "; ".join(
            f"{name} tv(0.1)={tv[0.1]:.4f} > tv(0.02)={tv[0.02]:.4f}"
            for name, tv in outcome.items()
        )
    )


def test_criterion_09_l1_stability_bounds():
    """Measured two-run distance below e^{K1 t}(K3 d0 + K2 |dtau|) at all
    snapshots: perturbed-datum same-delay and half-delay experiments."""
    experiments = [
        ("box_delay", 0.1, ("box", {"height": 0.74, "a": 1.0, "b": 2.0})),
        ("osc_delay", 0.1, ("osc_sin", {"shift": 0.51})),
        ("box_delay", 0.05, None),
        ("osc_delay", 0.05, None),
    ]
    for name, tau2, perturbation in experiments:
        report = stability_experiment(preset_scenario(name), tau2, perturbation)
        for t, measured, bound in report["rows"]:
            assert measured <= bound * (1 + 1e-12) + 1e-12, (name, t, measured, bound)
    print(f"criterion 9 PASS: {len(experiments)} experiments under the bound")


def test_criterion_10_l1_lipschitz_continuity_in_time():
    """||rho(t_b) - rho(t_a)||_1 <= K |t_b - t_a| for all snapshot pairs of
    the refinement preset, with the scheme-matched constant K."""
    for scheme in SCHEMES:
        resolved, sim = _run(REFINE_PRESET, scheme)
        rate = resolved.constants.l1_time_rate
        assert rate > 0  # may be inf when the Gronwall factor overflows
        snapshots = [(t_act, level) for _t, t_act, level in sim.snapshots]
        assert len(snapshots) >= 3
        worst = _lipschitz_in_time_margin(snapshots, rate, resolved.grid.dx)
        assert worst <= 0.0
    print(f"criterion 10 PASS: both schemes within K|t_b - t_a| on {REFINE_PRESET}")


def _lipschitz_in_time_margin(snapshots, rate, dx):
    """Check ||rho(t_b) - rho(t_a)||_1 <= K |t_b - t_a| for all pairs of
    (t, level) snapshots, with the slack of the other bounds,
    K dt (1 + BOUND_TOL) + BOUND_TOL; a nan distance fails.  Returns the
    worst margin distance - K dt (-inf if every pair is at zero distance
    and K is infinite)."""
    worst = -math.inf
    for i, (t_a, lev_a) in enumerate(snapshots):
        for t_b, lev_b in snapshots[i + 1 :]:
            dist = l1_distance(lev_b, lev_a, dx)
            gap = abs(t_b - t_a)
            ceiling = 0.0 if gap == 0.0 else rate * gap
            assert dist <= ceiling * (1.0 + BOUND_TOL) + BOUND_TOL, (t_a, t_b, dist, ceiling)
            worst = max(worst, dist - ceiling)
    return worst


def test_criterion_10_checker_accepts_rate_respecting_snapshots():
    a = np.zeros(4)
    b = np.full(4, 0.05)
    assert _lipschitz_in_time_margin([(0.0, a), (1.0, b)], rate=1.0, dx=0.25) <= 0.0


def test_criterion_10_checker_allows_only_the_bound_slack():
    """The slack is K dt (1 + BOUND_TOL) + BOUND_TOL, as for the other
    bounds: a distance 5e-11 above K dt is refused, and so is a nan."""
    a = np.zeros(4)
    ceiling = 0.1
    at = np.full(4, ceiling)
    assert _lipschitz_in_time_margin([(0.0, a), (1.0, at)], rate=ceiling, dx=0.25) == 0.0
    for bad in (ceiling + 5e-11, math.nan):
        with pytest.raises(AssertionError):
            _lipschitz_in_time_margin([(0.0, a), (1.0, np.full(4, bad))], rate=ceiling, dx=0.25)


def test_criterion_10_checker_rejects_fast_drift():
    a = np.zeros(4)
    b = np.full(4, 10.0)
    with pytest.raises(AssertionError):
        _lipschitz_in_time_margin([(0.0, a), (0.001, b)], rate=1.0, dx=0.25)


def test_criterion_11_saturation_necessity():
    """Without saturation the density exceeds R; with linear or exponential
    saturation it never does."""
    report = saturation_study(preset_scenario("osc_sat"))
    variants = report["variants"]
    assert variants["none"]["exceeds_ceiling"], variants
    assert not variants["linear"]["exceeds_ceiling"], variants
    assert not variants["exponential"]["exceeds_ceiling"], variants
    print(
        "criterion 11 PASS: max density none={none:.4f} > 1, "
        "linear={linear:.4f}, exponential={exponential:.4f}".format(
            **{k: v["max_density"] for k, v in variants.items()}
        )
    )


def _independent_zero_delay_loop(resolved):
    """A from-scratch non-delayed marching loop: no history ring, speeds
    recomputed from the current level before every step."""
    grid, weights = resolved.grid, resolved.weights
    vel, sat = resolved.velocity, resolved.saturation
    rho = resolved.rho0.copy()
    work = Workspace(grid.n_cells, weights.n, resolved.boundary)
    for _ in range(resolved.n_steps):
        speeds = lagged_speeds([(0, rho)], weights, vel, work)[0]
        if resolved.scheme == "lf":
            rho = lf_step(rho, speeds, grid.lam, grid.alpha, sat, work)
        else:
            rho = hw_step(rho, speeds, grid.lam, sat, work)
    return rho


def test_criterion_12_zero_delay_reduction_is_bit_identical():
    """tau = 0 runs coincide bit for bit with an independently coded
    non-delayed loop on every preset, both schemes."""
    for name in PRESET_NAMES:
        for scheme in SCHEMES:
            resolved, sim = _run(name, scheme, tau=0.0)
            assert resolved.grid.delay_steps == 0
            reference = _independent_zero_delay_loop(resolved)
            assert np.array_equal(sim.final_level, reference), (name, scheme)
    print(
        f"criterion 12 PASS: {len(PRESET_NAMES) * len(SCHEMES)} zero-delay runs "
        "bit-identical to the independent loop"
    )
