"""Experiment runners: resolution, artifacts, determinism, study reports."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lagflow import diagnostics, runners, schemes
from lagflow.diagnostics import InvariantViolation
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.presets import PRESET_NAMES, preset_scenario
from lagflow.runners import (
    compare_schemes,
    grid_refine,
    resolve_scenario,
    restrict_to_coarse,
    run_scenario,
    saturation_study,
    simulate,
    stability_experiment,
    tau_sweep,
)
from lagflow.scenario import Scenario, ScenarioError
from lagflow.schemes import StepError


def _tiny(**overrides) -> Scenario:
    base = Scenario(
        x_min=0.0,
        x_max=1.0,
        dx=0.02,
        t_final=0.1,
        boundary="free_flow",
        velocity=Velocity("normalized_greenshields"),
        saturation=Saturation("linear", rho_max=1.0),
        kernel=Kernel("constant", length=0.1),
        tau=0.02,
        scheme="hw",
        safety=1.0,
        datum_kind="box",
        datum_params={"height": 0.75, "a": 0.3, "b": 0.6},
        snapshots=(0.05, 0.1),
        out_dir="out",
    )
    return dataclasses.replace(base, **overrides)


def test_resolve_fits_delay_and_keeps_cfl():
    r = resolve_scenario(_tiny())
    # hw time step: dx / (V (1 + R |f'|)) = 0.02 / 2 = 0.01, tau = 2 steps
    assert r.grid.dt == pytest.approx(0.01)
    assert r.grid.delay_steps == 2
    assert r.n_steps == 10
    assert r.grid.alpha is None
    assert r.constants is not None
    col = simulate(r).collector
    assert col.positivity and col.tv_ceiling


def test_resolve_lf_carries_alpha():
    r = resolve_scenario(_tiny(scheme="lf"))
    assert r.grid.alpha == pytest.approx(2.0)
    assert r.grid.dt == pytest.approx(0.005)
    assert simulate(r).collector.entropy_assert


def test_collector_checks_gate_on_hypotheses():
    vel = Velocity("normalized_greenshields")
    sat_none = Saturation("none")
    sat = Saturation("linear", rho_max=1.0)
    cropped = Velocity("cropped")

    def checks(velocity, saturation, scheme, boundary):
        scenario = _tiny(
            velocity=velocity, saturation=saturation, scheme=scheme, boundary=boundary
        )
        return simulate(resolve_scenario(scenario)).collector

    def reported(c):
        """Whether every record row after t = 0 carries an entropy value."""
        return all(math.isfinite(r.entropy_residual_max) for r in c.records[1:])

    c = checks(vel, sat_none, "hw", "free_flow")
    assert not c.positivity and c.rho_ceiling is None and not c.tv_ceiling
    assert not c.entropy_assert and reported(c)
    c = checks(vel, sat, "lf", "free_flow")
    assert c.entropy_assert and reported(c)
    c = checks(vel, sat_none, "lf", "free_flow")
    assert not c.entropy_assert and reported(c)
    c = checks(cropped, sat, "lf", "periodic")
    assert c.conserve_mass and not c.tv_ceiling and not c.entropy_assert
    assert reported(c) and math.isnan(c.records[0].entropy_residual_max)


def test_simulate_captures_snapshots_at_requested_times():
    r = resolve_scenario(_tiny())
    sim = simulate(r, (0.0, 0.05, 0.1))
    assert [t for t, _, _ in sim.snapshots] == [0.0, 0.05, 0.1]
    assert [ta for _, ta, _ in sim.snapshots] == pytest.approx([0.0, 0.05, 0.1])
    assert np.array_equal(sim.snapshots[0][2], r.rho0)
    assert sim.final_time == pytest.approx(0.1)
    assert np.array_equal(sim.snapshots[-1][2], sim.final_level)


def test_run_scenario_writes_contracted_files(tmp_path):
    out = tmp_path / "case"
    run_scenario(_tiny(), out)
    names = {p.name for p in out.iterdir()}
    assert names == {
        "snapshot_t0.05.csv",
        "snapshot_t0.1.csv",
        "diagnostics.csv",
        "manifest.txt",
    }
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,l1,linf,min,max,tv,tv_bound,entropy_residual_max"
    snap = (out / "snapshot_t0.1.csv").read_text().splitlines()
    assert snap[0] == "x,rho"
    assert len(snap) == 51
    manifest = (out / "manifest.txt").read_text()
    assert "dt = 0.01" in manifest
    assert "delay_steps = 2" in manifest
    assert "tv_rate" in manifest


@pytest.mark.parametrize(
    "tau, levels",
    [(0.0, 1), (0.02, 3), (0.08, 3), (0.2, 1)],
    ids=["no_delay", "h2", "h8", "h_above_NT"],
)
def test_manifest_reports_history_bytes(tmp_path, tau, levels):
    """(min(h, max(N_T - h, 0)) + 1) levels of J = 50 float64 cells."""
    run_scenario(_tiny(tau=tau), tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert f"history_bytes = {levels * 50 * 8}" in manifest


def test_manifest_reports_block_bytes(tmp_path):
    """B = BLOCK_BYTES // 8 J = 327 at J = 50 on an LF run, which asserts
    entropy, and 2 * 327 on an HW run, which reports it: the (B + 1, J)
    levels, the (B + 1, J + 2) speed fields, the (B, J + 2) scratch and
    N_T + 1 per-step reaches, the entropy block kernel's two (E, J + 2)
    and four (E, J) rows, E = B on the LF run and at stride 1 (the
    default here), else ceil(B / stride) + 1, and the march's two blocks
    of h speed fields (h is below BLOCK_BYTES // 8 (J + 2)).  The budget
    counts them with the history."""
    runs = [("lf", None, 4, 20, 327, 327), ("hw", None, 2, 10, 654, 654), ("hw", 7, 2, 10, 654, 95)]
    for scheme, stride, h, n_steps, rows, kernel_rows in runs:
        out = tmp_path / f"{scheme}{stride}"
        run_scenario(_tiny(scheme=scheme, stride=stride), out)
        manifest = (out / "manifest.txt").read_text().splitlines()
        expected = ((rows + 1) * 50 + (2 * rows + 1 + 2 * h) * 52 + n_steps + 1) * 8
        expected += (2 * kernel_rows * 52 + 4 * kernel_rows * 50) * 8
        assert f"n_steps = {n_steps}" in manifest
        assert f"stride = {stride or 1}" in manifest
        assert f"block_bytes = {expected}" in manifest
        assert diagnostics.block_bytes(50, h, n_steps, stride or 1, scheme == "lf") == expected


def test_step_error_reports_earlier_violation_of_its_block(monkeypatch):
    """A negative density at step 2 and a non-finite level at step 4 fall
    in one check block: simulate checks the block before the StepError
    leaves it and raises the violation of step 2.  Without the negative
    cell the StepError itself comes out."""
    resolved = resolve_scenario(_tiny())
    assert diagnostics.block_rows(resolved.grid.n_cells, False) > 4
    real_step = schemes.hw_step

    def faulty_step(negative):
        steps = iter(range(1, resolved.n_steps + 1))

        def step(*args):
            n, out = next(steps), real_step(*args).copy()
            if n == 2 and negative:
                out[5] = -1e-3
            if n == 4:
                out[7] = math.nan
            return schemes._finite(out)

        return step

    monkeypatch.setattr(schemes, "hw_step", faulty_step(True))
    with pytest.raises(InvariantViolation, match=r"^step 2: negative density -0\.001$"):
        simulate(resolved)
    monkeypatch.setattr(schemes, "hw_step", faulty_step(False))
    with pytest.raises(StepError, match=r"^step 4: non-finite density in cell 7$"):
        simulate(resolved)


def test_flush_after_a_step_error_raises_no_floating_point_warning(monkeypatch):
    """simulate checks the block a StepError leaves outside the march's
    floating-point error state, and pytest turns a RuntimeWarning into an
    error.  Level 1 ends on -0.9e308 and level 2 starts on 0.9e308, so the
    collector's flat difference of level rows overflows between the two
    rows, an entry no check reads: the StepError still comes out.  Every
    step up to h = 3 reads the datum's speeds."""
    resolved = resolve_scenario(_tiny(saturation=Saturation("none"), tau=0.06))
    assert resolved.grid.delay_steps == 3
    real_step = schemes.hw_step
    steps = iter(range(1, resolved.n_steps + 1))

    def step(*args):
        n, out = next(steps), real_step(*args).copy()
        if n == 1:
            out[-1] = -0.9e308
        if n == 2:
            out[[0, -1]] = 0.9e308, -0.5e308
        if n == 3:
            out[7] = math.nan
        return schemes._finite(out)

    monkeypatch.setattr(schemes, "hw_step", step)
    with pytest.raises(StepError, match=r"^step 3: non-finite density in cell 7$"):
        simulate(resolved)


@pytest.mark.parametrize(
    "scheme, saturation, error, message",
    [
        ("hw", "linear", InvariantViolation, r"^step 1: negative density -1e\+308$"),
        ("lf", "linear", InvariantViolation, r"^step 1: negative density -1e\+308$"),
        ("hw", "none", StepError, r"^step 2: non-finite density in cell 7$"),
    ],
)
def test_flush_after_a_step_error_survives_overflowing_row_sums(
    monkeypatch, scheme, saturation, error, message
):
    """Level 1 alternates +-1e308, so the flush's row sums, differences
    and entropy replay overflow whatever floating-point error state
    simulate's caller holds; level 2 carries a nan.  A saturated run
    raises the positivity violation of step 1, an unsaturated one, which
    asserts nothing that level 1 breaks, the StepError of step 2."""
    resolved = resolve_scenario(_tiny(scheme=scheme, saturation=Saturation(saturation)))
    steps = iter(range(1, resolved.n_steps + 1))

    def step(rho, *args):
        out = np.zeros_like(rho)
        if next(steps) == 1:
            out[:] = 1e308
            out[1::2] = -1e308
        else:
            out[7] = math.nan
        return schemes._finite(out)

    monkeypatch.setattr(schemes, f"{scheme}_step", step)
    with pytest.raises(error, match=message):
        simulate(resolved)


def test_run_scenario_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(_tiny(), a)
    run_scenario(_tiny(), b)
    for name in ("diagnostics.csv", "snapshot_t0.1.csv", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_restrict_to_coarse_averages_groups():
    fine = np.array([1.0, 3.0, 2.0, 4.0])
    assert restrict_to_coarse(fine, 2).tolist() == [2.0, 3.0]
    with pytest.raises(ValueError):
        restrict_to_coarse(fine, 3)


def test_compare_schemes_constant_datum_gives_zero_distances():
    s = _tiny(datum_kind="constant", datum_params={"value": 0.5})
    report = compare_schemes(s, ref_dx=0.01)
    assert report["l1_lf_vs_ref"] == pytest.approx(0.0, abs=1e-14)
    assert report["l1_hw_vs_ref"] == pytest.approx(0.0, abs=1e-14)
    assert report["refinement_factor"] == 2


def test_compare_schemes_reference_asserts_entropy(monkeypatch):
    """The fine-grid LF reference makes the checks of any LF run with a
    saturation term: it asserts the entropy inequality on every step."""
    seen = []
    real = runners.simulate

    def spy(resolved, *args):
        sim = real(resolved, *args)
        seen.append((resolved.scheme, resolved.grid.n_cells, sim.collector.entropy_assert))
        return sim

    monkeypatch.setattr(runners, "simulate", spy)
    compare_schemes(_tiny(), ref_dx=0.01)
    assert seen == [("lf", 50, True), ("hw", 50, False), ("lf", 100, True)]


def test_compare_schemes_rejects_non_divisor_reference():
    with pytest.raises(ScenarioError):
        compare_schemes(_tiny(), ref_dx=0.015)


@pytest.mark.parametrize("ref_dx", [0.0, -0.0, math.nan, math.inf])
def test_compare_schemes_refuses_a_reference_width_not_finite_and_positive(monkeypatch, ref_dx):
    """A reference cell width of +-0, nan or inf is refused with the
    whole-cells message, as a ScenarioError, before any march."""

    def march(*args):
        raise AssertionError("compare_schemes marched")

    monkeypatch.setattr(runners, "simulate", march)
    with pytest.raises(ScenarioError, match=r"^ref_dx: dx 0\.02 is not a whole positive number"):
        compare_schemes(_tiny(), ref_dx=ref_dx)


def test_tau_sweep_inserts_zero_delay_reference(tmp_path):
    report = tau_sweep(_tiny(), [0.04, 0.02], tmp_path)
    assert report["taus"] == (0.0, 0.02, 0.04)
    assert report["distance_to_zero_delay"][0.0] == 0.0
    assert (tmp_path / "distances.csv").is_file()
    assert (tmp_path / "tv_tau0.02.csv").is_file()
    dist = report["distance_to_zero_delay"]
    assert dist[0.04] >= dist[0.02] >= 0.0


def test_grid_refine_constant_datum_all_differences_zero():
    s = _tiny(datum_kind="constant", datum_params={"value": 0.5})
    report = grid_refine(s, levels=3)
    assert report["successive_l1_differences"] == pytest.approx((0.0, 0.0), abs=1e-14)
    assert report["max_density_per_level"] == pytest.approx((0.5, 0.5, 0.5))
    with pytest.raises(ScenarioError):
        grid_refine(s, levels=1)


def test_stability_identical_runs_have_zero_distance():
    s = _tiny()
    report = stability_experiment(s, tau2=s.tau)
    assert report["datum_distance"] == 0.0
    for _t, measured, bound in report["rows"]:
        assert measured == 0.0
        assert bound >= 0.0


def test_stability_perturbed_datum_obeys_bound(tmp_path):
    s = _tiny()
    report = stability_experiment(
        s,
        tau2=s.tau,
        perturbation=("box", {"height": 0.74, "a": 0.3, "b": 0.6}),
        out_dir=tmp_path,
    )
    assert report["datum_distance"] == pytest.approx(0.01 * 0.3, rel=1e-9)
    for _t, measured, bound in report["rows"]:
        assert measured <= bound
    assert (tmp_path / "stability.csv").is_file()
    assert (tmp_path / "report.txt").is_file()


def test_stability_rejects_perturbation_outside_capacity(no_march):
    with pytest.raises(ScenarioError):
        stability_experiment(
            _tiny(), tau2=0.02, perturbation=("box", {"height": 1.4, "a": 0.3, "b": 0.6})
        )


@pytest.fixture
def no_march(monkeypatch):
    """Fail any test that reaches the time loop."""

    def refuse(*args, **kwargs):
        raise AssertionError("a run marched before validation failed")

    monkeypatch.setattr(runners, "advance", refuse)


GOLDEN_CONSTANTS = Path(__file__).with_name("golden_constants.json")


def test_resolved_constants_match_golden_table(no_march):
    """Every preset x scheme resolves, without marching, to the viscosity,
    time step, delay steps and bound constants in tests/golden_constants.json:
    floats to 1e-12 relative, delay_steps exactly.  A cropped velocity has no
    constants."""
    golden = json.loads(GOLDEN_CONSTANTS.read_text())
    assert sorted(golden) == sorted(f"{n}/{s}" for n in PRESET_NAMES for s in ("lf", "hw"))
    for key, want in golden.items():
        name, scheme = key.split("/")
        r = resolve_scenario(dataclasses.replace(preset_scenario(name), scheme=scheme))
        assert r.grid.delay_steps == want["delay_steps"], key
        got = {"alpha": r.grid.alpha, "dt": r.grid.dt}
        got.update(
            (field, getattr(r.constants, field))
            for field in (
                "tv_rate_current",
                "tv_rate_lagged",
                "log_tv_amplification_at_horizon",
                "log_l1_time_rate",
            )
        )
        assert sorted(got) == sorted(set(want) - {"delay_steps"}), key
        for field, value in got.items():
            if want[field] is None:
                assert value is None, (key, field)
            else:
                assert math.isclose(value, want[field], rel_tol=1e-12), (key, field, value)
    cropped = dataclasses.replace(preset_scenario("osc_sat"), velocity=Velocity("cropped"))
    assert resolve_scenario(cropped).constants is None


def test_resolve_and_run_scenario_set_their_own_error_state(tmp_path):
    """Under a caller's np.errstate(all="raise"), every preset x scheme
    resolves to the constants it resolves to under NumPy's default state
    (box_refine and the stopgo presets underflow in bound_constants'
    logaddexp), and run_scenario on box_refine (whose manifest bound
    underflows too) writes the same bytes in every file; the caller's
    state is left as it was."""
    def constants():
        return [
            repr(resolve_scenario(dataclasses.replace(preset_scenario(name), scheme=scheme)).constants)
            for name in PRESET_NAMES
            for scheme in ("lf", "hw")
        ]

    expected = constants()
    run_scenario(preset_scenario("box_refine"), tmp_path / "default")
    with np.errstate(all="raise"):
        state = np.geterr()
        assert constants() == expected
        run_scenario(preset_scenario("box_refine"), tmp_path / "raise")
        assert np.geterr() == state
    files = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert "manifest.txt" in files
    assert sorted(p.name for p in (tmp_path / "raise").iterdir()) == files
    for name in files:
        assert (tmp_path / "raise" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_history_over_budget_refused_before_marching(no_march):
    """A delay history above 4 GiB is refused when the run is resolved, and
    grid_refine resolves every level before the first one marches: here the
    first two levels fit (0.5 and 2 GB) and the third (8 GB) does not."""
    budget = r"needs \d+ bytes, over the 4294967296-byte budget$"
    with pytest.raises(ScenarioError, match=budget):
        resolve_scenario(_tiny(dx=1e-5, tau=0.05))
    with pytest.raises(ScenarioError, match=budget):
        grid_refine(_tiny(dx=4e-5, tau=0.05), levels=3)


def test_saturation_study_rejects_datum_above_unit_capacity_before_marching(no_march):
    # box_refine's box of height 1.5 exceeds the study's capacity R = 1
    with pytest.raises(ScenarioError, match="datum"):
        saturation_study(preset_scenario("box_refine"))


def test_studies_validate_every_variant_before_marching(no_march):
    with pytest.raises(ScenarioError, match="tau"):
        tau_sweep(_tiny(), [0.02, -0.01])
    with pytest.raises(ScenarioError, match="tau"):
        stability_experiment(_tiny(), tau2=-0.01)
    with pytest.raises(ScenarioError, match="datum"):
        stability_experiment(_tiny(), tau2=0.02, perturbation=("box", {"height": 0.5}))


def test_saturation_study_reports_three_variants(tmp_path):
    s = _tiny(datum_kind="osc_sin", datum_params={"shift": 0.4}, tau=0.04)
    report = saturation_study(s, tmp_path)
    assert set(report["variants"]) == {"none", "linear", "exponential"}
    assert not report["variants"]["linear"]["exceeds_ceiling"]
    assert not report["variants"]["exponential"]["exceeds_ceiling"]
    assert (tmp_path / "saturation.csv").is_file()
    assert (tmp_path / "final_none.csv").is_file()


def test_constant_datum_snapshots_are_all_identical(tmp_path):
    s = _tiny(datum_kind="constant", datum_params={"value": 0.5})
    out = run_scenario(s, tmp_path / "const")
    sim = out["result"]
    for _t, _ta, level in sim.snapshots:
        assert np.array_equal(level, out["resolved"].rho0)


def test_periodic_run_asserts_mass_conservation(tmp_path):
    s = _tiny(boundary="periodic")
    sim = simulate(resolve_scenario(s))
    assert sim.collector.conserve_mass
    assert sim.collector.mass_drift_max <= 1e-12


def test_unsaturated_run_disables_ceiling_checks():
    s = _tiny(saturation=Saturation("none"), tau=0.0)
    col = simulate(resolve_scenario(s)).collector  # must not raise
    assert not col.positivity
    assert col.rho_ceiling is None
