"""Experiment runners: resolve scenarios, simulate, write CSV artifacts.

Every runner is deterministic: identical inputs give byte-identical
outputs on the same build of NumPy.  Across NumPy builds the numbers agree
within 1e-12 relative, not bit for bit, because summation order may differ
(the datum's total variation tv0 moves by one ulp).  Every runner embeds
the invariant checks from diagnostics; a violated invariant raises
InvariantViolation out of the run.  Each study resolves, and so validates
and budgets, every run before the first march.

File formats:
  snapshot_t<time>.csv   header x,rho; one row per cell center
  diagnostics.csv        header t,l1,linf,min,max,tv,tv_bound,entropy_residual_max
  manifest.txt           key = value lines with every resolved parameter
Floats are written with shortest round-trip decimal representation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (
    BOUND_TOL,
    LEVEL_TOL,
    BoundConstants,
    DiagnosticsCollector,
    InvariantViolation,
    StabilityConstants,
    asserts_entropy,
    block_bytes,
    bound_constants,
    exp_or_inf,
    l1_distance,
    l1_norm,
    log_term,
    stability_bound,
    stability_constants,
    total_variation,
)
from .discretization import (
    Grid,
    KernelWeights,
    build_grid,
    cfl_dt_hw,
    cfl_dt_lf,
    discretize_kernel,
    project_initial_datum,
    whole_cells,
)
from .model_functions import SAT_NONE, Kernel, Saturation, Velocity
from .scenario import Scenario, ScenarioError
from .schemes import LAX_FRIEDRICHS, StepError, history_bytes, step_count
from .schemes import run as advance

__all__ = [
    "ResolvedRun",
    "SimulationResult",
    "resolve_scenario",
    "simulate",
    "run_scenario",
    "compare_schemes",
    "tau_sweep",
    "grid_refine",
    "stability_experiment",
    "saturation_study",
]

#: Largest delay history (schemes.history_bytes) plus check block
#: (diagnostics.block_bytes) a run may hold: 4 GiB.
HISTORY_BUDGET_BYTES = 4 << 30


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_kv(path: Path, items) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in items]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ResolvedRun:
    """A scenario lowered onto a concrete mesh with all run inputs."""

    scenario: Scenario
    grid: Grid
    weights: KernelWeights
    velocity: Velocity
    saturation: Saturation
    scheme: str
    boundary: str
    rho0: np.ndarray
    tv0: float
    rho0_l1: float
    constants: BoundConstants | None
    n_steps: int
    stride: int


@dataclass
class SimulationResult:
    """Final level plus the collector and captured snapshots of one run."""

    final_level: np.ndarray
    final_time: float
    collector: DiagnosticsCollector
    snapshots: list  # (requested_time, actual_time, level)


def resolve_scenario(scenario: Scenario) -> ResolvedRun:
    """Fix dt by the scheme's CFL rule, fit the delay, project the datum.

    A run whose delay history and check block would exceed
    HISTORY_BUDGET_BYTES is refused with a ScenarioError before anything
    is allocated.
    """
    vel = scenario.velocity
    sat = scenario.saturation
    if scenario.scheme == LAX_FRIEDRICHS:
        alpha, dt = cfl_dt_lf(vel, sat, scenario.dx, scenario.safety)
    else:
        alpha, dt = None, cfl_dt_hw(vel, sat, scenario.dx, scenario.safety)
    grid = build_grid(
        scenario.x_min,
        scenario.x_max,
        scenario.dx,
        dt,
        scenario.tau,
        scenario.kernel.length,
        alpha,
    )
    n_steps = step_count(scenario.t_final, grid.dt)
    stride = scenario.stride if scenario.stride is not None else max(1, n_steps // 100)
    sizes = (grid.n_cells, grid.delay_steps, n_steps)
    asserting = asserts_entropy(vel, sat, scenario.scheme)
    need = history_bytes(*sizes) + block_bytes(*sizes, stride, asserting)
    if need > HISTORY_BUDGET_BYTES:
        raise ScenarioError(
            f"the delay history with the check block needs {need} bytes, "
            f"over the {HISTORY_BUDGET_BYTES}-byte budget"
        )
    weights = discretize_kernel(scenario.kernel, grid)
    rho0 = project_initial_datum(scenario.make_datum(), grid)
    tv0 = total_variation(rho0, scenario.boundary)
    rho0_l1 = l1_norm(rho0, grid.dx)
    constants = bound_constants(
        vel, sat, scenario.kernel, alpha, scenario.t_final, grid.tau, tv0, rho0_l1, scenario.scheme
    )
    return ResolvedRun(
        scenario=scenario,
        grid=grid,
        weights=weights,
        velocity=vel,
        saturation=sat,
        scheme=scenario.scheme,
        boundary=scenario.boundary,
        rho0=rho0,
        tv0=tv0,
        rho0_l1=rho0_l1,
        constants=constants,
        n_steps=n_steps,
        stride=stride,
    )


def simulate(resolved: ResolvedRun, snapshot_times=()) -> SimulationResult:
    """Run the time loop with the diagnostics collector attached.

    On a StepError the collector first checks the steps it still holds, so
    an invariant violation at an earlier step is raised instead.
    """
    grid = resolved.grid
    collector = DiagnosticsCollector(
        grid=grid,
        weights=resolved.weights,
        vel=resolved.velocity,
        sat=resolved.saturation,
        scheme=resolved.scheme,
        boundary=resolved.boundary,
        constants=resolved.constants,
        stride=resolved.stride,
        n_final=resolved.n_steps,
    )
    want: dict[int, list[float]] = {}
    for t_req in snapshot_times:
        n_req = min(step_count(t_req, grid.dt), resolved.n_steps)
        want.setdefault(n_req, []).append(float(t_req))
    captured: list = []

    def observer(n: int, level: np.ndarray, speeds: np.ndarray) -> None:
        collector(n, level, speeds)
        if n in want:
            for t_req in want[n]:
                captured.append((t_req, n * grid.dt, level.copy()))

    try:
        final = advance(
            grid,
            resolved.weights,
            resolved.velocity,
            resolved.saturation,
            resolved.scheme,
            resolved.rho0,
            resolved.scenario.t_final,
            resolved.boundary,
            observer,
        )
    except StepError:
        collector.flush()
        raise
    captured.sort(key=lambda item: item[0])
    return SimulationResult(
        final_level=final,
        final_time=resolved.n_steps * grid.dt,
        collector=collector,
        snapshots=captured,
    )


@np.errstate(all="ignore")
def _manifest_items(resolved: ResolvedRun, sim: SimulationResult):
    s = resolved.scenario
    grid = resolved.grid
    col = sim.collector
    sizes = (grid.n_cells, grid.delay_steps, resolved.n_steps)
    items = [
        ("generator", "lagflow"),
        ("x_min", s.x_min),
        ("x_max", s.x_max),
        ("dx", grid.dx),
        ("n_cells", grid.n_cells),
        ("t_final_requested", s.t_final),
        ("boundary", s.boundary),
        ("scheme", resolved.scheme),
        ("safety", s.safety),
        ("velocity", resolved.velocity.kind),
        ("v_max", resolved.velocity.v_max),
        ("rho_max", resolved.velocity.rho_max),
        ("saturation", resolved.saturation.kind),
        ("eps", resolved.saturation.eps),
        ("kernel", s.kernel.kind),
        ("kernel_length", s.kernel.length),
        ("kernel_cells", grid.kernel_cells),
        ("tau_requested", s.tau),
        ("tau_resolved", grid.tau),
        ("delay_steps", grid.delay_steps),
        ("dt", grid.dt),
        ("lam", grid.lam),
        ("alpha", grid.alpha),
        ("n_steps", resolved.n_steps),
        ("history_bytes", history_bytes(*sizes)),
        ("block_bytes", block_bytes(*sizes, resolved.stride, col.entropy_assert)),
        ("final_time", sim.final_time),
        ("stride", resolved.stride),
        ("datum", s.datum_kind),
    ]
    for key, value in sorted(s.datum_params.items()):
        items.append((f"datum_{key}", value))
    items += [
        ("tv0", resolved.tv0),
        ("rho0_l1", resolved.rho0_l1),
    ]
    c = resolved.constants
    if c is not None:
        space_time_bound_log = np.logaddexp(
            log_term(s.t_final * col.sup_tv), c.log_l1_time_rate + log_term(s.t_final)
        )
        space_time_bound = exp_or_inf(float(space_time_bound_log))
        items += [
            ("tv_rate_current", c.tv_rate_current),
            ("tv_rate_lagged", c.tv_rate_lagged),
            ("tv_rate", c.tv_rate),
            ("log_tv_amplification", c.log_tv_amplification_at_horizon),
            ("tv_amplification", c.tv_amplification),
            ("log_l1_time_rate", c.log_l1_time_rate),
            ("l1_time_rate", c.l1_time_rate),
            ("space_time_tv_bound", space_time_bound),
        ]
    else:
        items.append(("bound_constants", "unavailable (velocity not smooth)"))
    items += [
        ("sup_tv", col.sup_tv),
        ("sup_bv", col.sup_bv),
        ("sup_density", col.sup_density),
        ("min_density", col.min_density),
        ("entropy_residual_max", col.entropy_max if col.entropy_max > -math.inf else math.nan),
        ("mass_drift_max", col.mass_drift_max),
        ("space_time_tv", col.space_time_tv_space + col.space_time_tv_time),
        ("check_positivity", col.positivity),
        ("check_rho_ceiling", col.rho_ceiling),
        ("check_mass", col.conserve_mass),
        ("check_tv_ceiling", col.tv_ceiling),
        ("check_entropy", col.entropy_assert),
    ]
    for t_req, t_actual, _ in sim.snapshots:
        items.append((f"snapshot_t{_fmt(t_req)}", t_actual))
    return items


def _write_snapshot(path: Path, grid: Grid, level: np.ndarray) -> None:
    """The x,rho rows, streamed: repr of tolist()'s Python floats, which
    is _fmt's text without its type checks on every value, and no copy
    of the whole text."""
    with path.open("w", encoding="utf-8") as out:
        out.write("x,rho\n")
        out.writelines(map("{!r},{!r}\n".format, grid.centers().tolist(), level.tolist()))


def _write_diagnostics(path: Path, records) -> None:
    _write_csv(
        path,
        "t,l1,linf,min,max,tv,tv_bound,entropy_residual_max",
        (
            (r.t, r.l1, r.linf, r.minimum, r.maximum, r.tv, r.tv_ceiling, r.entropy_residual_max)
            for r in records
        ),
    )


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> dict:
    """Simulate one scenario and write snapshots, diagnostics, manifest."""
    resolved = resolve_scenario(scenario)
    sim = simulate(resolved, scenario.snapshots)
    out = Path(out_dir if out_dir is not None else scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t_req, _t_actual, level in sim.snapshots:
        _write_snapshot(out / f"snapshot_t{_fmt(t_req)}.csv", resolved.grid, level)
    _write_diagnostics(out / "diagnostics.csv", sim.collector.records)
    _write_kv(out / "manifest.txt", _manifest_items(resolved, sim))
    return {
        "out_dir": out,
        "resolved": resolved,
        "result": sim,
    }


def restrict_to_coarse(fine: np.ndarray, factor: int) -> np.ndarray:
    """Average consecutive groups of `factor` fine cells (conservative)."""
    if fine.size % factor:
        raise ValueError("fine level length is not a multiple of the factor")
    return fine.reshape(-1, factor).mean(axis=1)


def compare_schemes(scenario: Scenario, ref_dx: float, out_dir: str | Path | None = None) -> dict:
    """L1 distances of both schemes to a fine-grid reference.

    Runs the scenario with each scheme at its own CFL time step, then a
    reference with the Lax-Friedrichs scheme at cell width ref_dx (which
    must divide dx), restricted to the coarse grid by exact cell averaging.
    """
    try:
        factor = whole_cells(scenario.dx, ref_dx, "dx")
    except ValueError as exc:
        raise ScenarioError(f"ref_dx: {exc}") from exc
    resolved = [resolve_scenario(dataclasses.replace(scenario, scheme=k)) for k in ("lf", "hw")]
    ref_resolved = resolve_scenario(dataclasses.replace(scenario, scheme="lf", dx=ref_dx))
    finals = {res.scheme: (res, simulate(res)) for res in resolved}
    ref_sim = simulate(ref_resolved)
    ref_coarse = restrict_to_coarse(ref_sim.final_level, factor)
    grid = finals["hw"][0].grid
    dist = {
        scheme: l1_distance(sim.final_level, ref_coarse, grid.dx)
        for scheme, (_res, sim) in finals.items()
    }
    report = {
        "dx": grid.dx,
        "ref_dx": ref_resolved.grid.dx,
        "refinement_factor": factor,
        "l1_lf_vs_ref": dist["lf"],
        "l1_hw_vs_ref": dist["hw"],
        "hw_closer": dist["hw"] < dist["lf"],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_snapshot(out / "final_lf.csv", grid, finals["lf"][1].final_level)
        _write_snapshot(out / "final_hw.csv", grid, finals["hw"][1].final_level)
        _write_snapshot(out / "final_ref.csv", grid, ref_coarse)
        _write_kv(out / "report.txt", sorted(report.items()))
    return report


def tau_sweep(scenario: Scenario, taus, out_dir: str | Path | None = None) -> dict:
    """Distances to the zero-delay solution and TV series for each delay."""
    taus = [float(t) for t in taus]
    if 0.0 not in taus:
        taus = taus + [0.0]
    resolved = {tau: resolve_scenario(dataclasses.replace(scenario, tau=tau)) for tau in taus}
    runs = {tau: (res, simulate(res)) for tau, res in resolved.items()}
    base = runs[0.0]
    distances = {
        tau: l1_distance(sim.final_level, base[1].final_level, res.grid.dx)
        for tau, (res, sim) in runs.items()
    }
    tv_final = {
        tau: sim.collector.records[-1].tv for tau, (res, sim) in runs.items()
    }
    report = {
        "taus": tuple(sorted(runs)),
        "distance_to_zero_delay": distances,
        "tv_at_final_time": tv_final,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(
            out / "distances.csv",
            "tau,l1_distance_to_zero_delay,tv_at_final_time",
            ((tau, distances[tau], tv_final[tau]) for tau in sorted(runs)),
        )
        for tau, (res, sim) in runs.items():
            _write_csv(
                out / f"tv_tau{_fmt(tau)}.csv",
                "t,tv",
                ((r.t, r.tv) for r in sim.collector.records),
            )
    return report


def grid_refine(scenario: Scenario, levels: int, out_dir: str | Path | None = None) -> dict:
    """Successive L1 differences under halving of dx."""
    if levels < 2:
        raise ScenarioError("grid refinement needs at least 2 levels")
    widths = [scenario.dx / 2**k for k in range(levels)]
    resolved = [resolve_scenario(dataclasses.replace(scenario, dx=dx)) for dx in widths]
    finals = []
    maxima = []
    amplitudes = []
    for dx, res in zip(widths, resolved):
        sim = simulate(res)
        finals.append((dx, res, sim.final_level))
        maxima.append(sim.collector.sup_density)
        amplitudes.append(float(sim.final_level.max() - sim.final_level.min()))
    diffs = []
    for (dx_c, res_c, coarse), (_dx_f, _res_f, fine) in zip(finals[:-1], finals[1:]):
        diffs.append((dx_c, l1_distance(coarse, restrict_to_coarse(fine, 2), dx_c)))
    report = {
        "widths": tuple(widths),
        "successive_l1_differences": tuple(d for _dx, d in diffs),
        "max_density_per_level": tuple(maxima),
        "final_amplitude_per_level": tuple(amplitudes),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for dx, res, final in finals:
            _write_snapshot(out / f"final_dx{_fmt(dx)}.csv", res.grid, final)
        _write_csv(
            out / "differences.csv",
            "dx_coarse,l1_difference_to_halved",
            diffs,
        )
        _write_csv(
            out / "levels.csv",
            "dx,max_density,final_amplitude",
            zip(widths, maxima, amplitudes),
        )
    return report


def stability_experiment(
    scenario: Scenario,
    tau2: float,
    perturbation: tuple[str, dict] | None = None,
    out_dir: str | Path | None = None,
) -> dict:
    """Two-run L1 distance against the stability estimate.

    The first run follows the scenario (delay tau1, its own datum); the
    second uses delay tau2 and, when given, the perturbed datum
    (kind, params).  Distances are measured at the scenario's snapshot
    times and compared against e^{K1 t}(K3 d0 + K2 |tau1 - tau2|), K1
    built from the first run's measured sup BV norm.  With a non-smooth
    velocity the bound is unavailable and only distances are reported.
    """
    changes: dict = {"tau": tau2}
    if perturbation is not None:
        kind, params = perturbation
        changes.update(datum_kind=kind, datum_params=dict(params))
    first = resolve_scenario(scenario)
    second = resolve_scenario(dataclasses.replace(scenario, **changes))
    sim1 = simulate(first, scenario.snapshots)
    sim2 = simulate(second, scenario.snapshots)
    datum_distance = l1_distance(first.rho0, second.rho0, first.grid.dx)
    consts: StabilityConstants | None = None
    if first.constants is not None:
        consts = stability_constants(
            first.velocity,
            first.saturation,
            scenario.kernel,
            sim1.collector.sup_bv,
            second.rho0_l1,
            first.grid.tau,
            second.grid.tau,
            first.constants.log_l1_time_rate,
            scenario.t_final,
        )
    rows = []
    for (t_req, t_act1, lev1), (_t2, _t_act2, lev2) in zip(sim1.snapshots, sim2.snapshots):
        measured = l1_distance(lev1, lev2, first.grid.dx)
        if consts is not None:
            bound = stability_bound(consts, t_act1, datum_distance)
            if measured > bound * (1.0 + BOUND_TOL) + BOUND_TOL:
                raise InvariantViolation(
                    f"stability bound broken at t={t_act1}: {measured} > {bound}"
                )
        else:
            bound = math.nan
        rows.append((t_req, measured, bound))
    report = {
        "tau1": first.grid.tau,
        "tau2": second.grid.tau,
        "datum_distance": datum_distance,
        "rows": rows,
        "rate": consts.rate if consts is not None else math.nan,
        "datum_weight": consts.datum_weight if consts is not None else math.nan,
        "delay_weight": consts.delay_weight if consts is not None else math.nan,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "stability.csv", "t,measured_l1,bound", rows)
        _write_kv(
            out / "report.txt",
            [
                ("tau1", report["tau1"]),
                ("tau2", report["tau2"]),
                ("datum_distance", datum_distance),
                ("stability_rate", report["rate"]),
                ("datum_weight", report["datum_weight"]),
                ("delay_weight", report["delay_weight"]),
            ],
        )
    return report


def saturation_study(scenario: Scenario, out_dir: str | Path | None = None) -> dict:
    """Maximum densities without saturation and with the two built-in ones.

    The study fixes the normalized velocity v = 1 - rho and a constant
    kernel of length 0.1 (overriding the scenario's choices), then runs
    saturation none / linear / exponential (eps = 0.02) and reports each
    run's maximum density.  The saturated runs assert the ceiling R; the
    unsaturated one records whether it exceeded R.
    """
    velocity = Velocity("normalized_greenshields")
    kernel = Kernel("constant", length=0.1)
    variants = {
        "none": Saturation(SAT_NONE),
        "linear": Saturation("linear", rho_max=velocity.rho_max),
        "exponential": Saturation("exponential", rho_max=velocity.rho_max, eps=0.02),
    }
    resolved = {
        name: resolve_scenario(
            dataclasses.replace(scenario, velocity=velocity, saturation=sat, kernel=kernel)
        )
        for name, sat in variants.items()
    }
    results = {}
    finals = {}
    for name, res in resolved.items():
        sim = simulate(res)
        results[name] = {
            "max_density": sim.collector.sup_density,
            "exceeds_ceiling": sim.collector.sup_density > velocity.rho_max + LEVEL_TOL,
        }
        finals[name] = (res.grid, sim.final_level)
    report = {
        "rho_ceiling": velocity.rho_max,
        "variants": results,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(
            out / "saturation.csv",
            "saturation,max_density,exceeds_ceiling",
            (
                (name, results[name]["max_density"], results[name]["exceeds_ceiling"])
                for name in variants
            ),
        )
        for name, (grid, final) in finals.items():
            _write_snapshot(out / f"final_{name}.csv", grid, final)
    return report
