"""Workloads, measurement and output checks of the lagflow benchmark.

Every workload is a preset with a fixed scheme, cell width, horizon, delay
and kernel, so the cell count J, the step count N_T, the delay steps h and
the kernel width K, and with them the work of a run, never depend on the
seed.  The seed draws only the datum: box height and edges, or the two
Riemann states and the jump position, always inside [0, R].

A full run of ``lf_box_delay`` or ``hw_refine_j4000`` (the presets'
t = 0.5, five delays) takes 20-30 s on a 2-core Xeon, and a benchmark run
must repeat a sample many times inside its time budget to be steady, so
both are cut.  ``lf_box_delay`` runs to t = 0.025 with the delay scaled by
the same factor, tau = 0.005 (h = 102): it keeps the full run's five
delays and its step size, J, K, per-step work and diagnostics row spacing,
but its history buffer is 0.8 MB instead of 16 MB.  ``hw_refine_j4000``
keeps tau = 0.1 and its 198 MB history buffer and runs to t = 0.125, one
and a quarter delays, so a fifth of its steps come after the first delay,
where the lagged level changes every step.  ``hw_stopgo`` runs its full
horizon of five delays.

End-to-end metrics (``--trace 0``) come from a set-up phase of repeated
``resolve_scenario`` calls, then repeated ``run_scenario`` calls into a
scratch directory, with spans only on ``run_scenario`` and ``simulate``.
Per-layer metrics (``--trace 1``) come from rounds of one untraced
``simulate``, one bare ``schemes.run`` and one ``run_scenario`` with spans
on every layer function that ``simulate``, ``schemes.run`` and
``DiagnosticsCollector.__call__`` look up at call time.  A run starts no
sample that would end past its time budget, judged by the last sample's
length.

Every time is the median over the run's samples of the sample's wall time
rescaled to a reference machine speed (see speed.py); the report also
prints the plain wall-time medians.

Every output is checked: each sample must reproduce the first bit for bit,
a bare ``schemes.run`` must end on the same level, the written snapshot
and manifest must hold it, the final level must match an independent march
(reference.py), and on the golden seed a summary must match golden.json.
A run that raises ``InvariantViolation`` or ``StepError`` or fails a check
counts as failed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import lagflow
from lagflow import diagnostics, runners, schemes
from lagflow.diagnostics import (
    DiagnosticsCollector,
    InvariantViolation,
    l1_norm,
    total_variation,
)
from lagflow.presets import preset_sections
from lagflow.scenario import Scenario, scenario_from_sections
from lagflow.schemes import StepError

import reference
from spans import Tracer
from speed import Speedometer

#: Seed whose output summaries are stored in golden.json.
GOLDEN_SEED = 0
#: Relative tolerance of the golden comparison, and absolute floors for
#: summaries that live at rounding level.
GOLDEN_RTOL = 1e-12
GOLDEN_ATOL = {"entropy_residual_max": 1e-15}
#: Relative tolerance between the projected datum's mass and the datum's
#: exact mass.
MASS_RTOL = 1e-12
#: Relative L1 distance allowed between a final level and the reference
#: march; LF runs agree to about 5e-16 and HW runs bit for bit.
REFERENCE_RTOL = 1e-12
#: Horizon of ``--quick`` runs: a few dozen steps at the workloads' dt.
QUICK_T_FINAL = 0.002
#: The set-up phase of an end-to-end run: at least this many
#: resolve_scenario calls, in batches of about SETUP_BATCH_S seconds with
#: a speed calibration after each, for at least SETUP_SHARE of the run.
SETUP_MIN = 9
SETUP_BATCH_S = 0.25
SETUP_SHARE = 0.1


def _box(height: tuple[float, float]) -> Callable[[np.random.Generator], dict]:
    def draw(rng: np.random.Generator) -> dict:
        a = float(rng.uniform(0.8, 1.2))
        return {
            "kind": "box",
            "height": float(rng.uniform(*height)),
            "a": a,
            "b": a + float(rng.uniform(0.8, 1.2)),
        }

    return draw


def _riemann_small(rng: np.random.Generator) -> dict:
    return {
        "kind": "riemann_small",
        "left": float(rng.uniform(0.15, 0.35)),
        "right": float(rng.uniform(0.4, 0.6)),
        "position": float(rng.uniform(0.15, 0.3)),
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a preset lowered onto a fixed mesh and horizon."""

    preset: str
    scheme: str
    dx: float | None  # None keeps the preset's cell width
    tau: float | None  # None keeps the preset's delay
    t_final: float
    #: Diagnostics row spacing of the preset's full-horizon run, so the rows
    #: (and the HW entropy watch on them) keep their share of a cut run.
    stride: int | None
    draw: Callable[[np.random.Generator], dict]
    why: str


WORKLOADS = {
    "lf_box_delay": Workload(
        preset="box_delay",
        scheme="lf",
        dx=None,
        tau=0.005,
        t_final=0.025,
        stride=102,
        draw=_box((0.6, 0.9)),
        why="LF with the per-step entropy assertion, which takes most of "
        "simulate_s; entropy and kappa changes show here; five short delays",
    ),
    "hw_stopgo": Workload(
        preset="stopgo_riemann",
        scheme="hw",
        dx=None,
        tau=None,
        t_final=0.5,
        stride=None,
        draw=_riemann_small,
        why="small HW grid over five delays: per-call overhead of the step, "
        "convolution and collector dominates, entropy runs only on record rows",
    ),
    "hw_refine_j4000": Workload(
        preset="box_refine",
        scheme="hw",
        dx=1.25e-3,
        tau=None,
        t_final=0.125,
        stride=309,
        draw=_box((1.2, 1.6)),
        why="largest grid, K=120 convolution and a 198 MB history buffer; "
        "guards memory, set-up (projection) and CSV output; 1.25 delays",
    ),
}


def scenario_for(name: str, seed: int, quick: bool) -> Scenario:
    """The workload's validated scenario with the datum drawn from the seed."""
    work = WORKLOADS[name]
    t_final = QUICK_T_FINAL if quick else work.t_final
    sections = preset_sections(work.preset)
    sections["domain"]["t_final"] = t_final
    if work.dx is not None:
        sections["domain"]["dx"] = work.dx
    if work.tau is not None:
        sections["model"]["tau"] = work.tau
    sections["scheme"]["kind"] = work.scheme
    sections["datum"] = work.draw(np.random.default_rng(seed))
    sections["output"] = {"snapshots": f"{t_final / 2!r}, {t_final!r}"}
    if work.stride is not None:
        sections["output"]["stride"] = work.stride
    for body in sections.values():
        for key, value in body.items():
            if not isinstance(value, str):
                body[key] = repr(float(value)) if isinstance(value, float) else str(value)
    return scenario_from_sections(sections)


# ---------------------------------------------------------------------------
# output checks


def summary(sim: runners.SimulationResult, grid, boundary: str) -> dict[str, float]:
    """The numbers the golden file stores for a run.

    The final level's total variation and first moment are there because
    the other four can all be reached at t = 0 or be fixed by conservation,
    so alone they would miss a wrong march.
    """
    col = sim.collector
    level = sim.final_level
    return {
        "final_l1": l1_norm(level, grid.dx),
        "final_tv": total_variation(level, boundary),
        "final_moment": grid.dx * float(np.dot(grid.centers(), level)),
        "sup_tv": col.sup_tv,
        "sup_density": col.sup_density,
        "entropy_residual_max": col.entropy_max,
    }


def load_golden(name: str) -> dict[str, float] | None:
    path = Path(__file__).with_name("golden.json")
    golden = json.loads(path.read_text(encoding="utf-8"))
    return golden["workloads"].get(name)


class Verifier:
    """Counts attempted and failed operations and checks every output.

    The first successful run fixes the reference level and summary; every
    later run in the process must reproduce them bit for bit.  On the
    golden seed the summary must match golden.json, and on every seed the
    level must match an independent march (reference.py).
    """

    def __init__(self, name: str, seed: int, quick: bool, resolved) -> None:
        self.name = name
        self.resolved = resolved
        self.golden = None
        self.want_golden = seed == GOLDEN_SEED and not quick
        if self.want_golden:
            self.golden = load_golden(name)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.final: np.ndarray | None = None
        self.summary: dict[str, float] | None = None

    def attempt(self, op: Callable[[], object]):
        """Run op, counting it; an invariant or step error is a failure."""
        self.attempted += 1
        try:
            return op()
        except (InvariantViolation, StepError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_level(self, level: np.ndarray, what: str) -> bool:
        """A final level from any path must equal the first run's bit for bit."""
        if self.final is not None and not np.array_equal(level, self.final):
            self._fail(f"{what}: final level differs from the first run")
            return False
        return True

    def check_run(self, sim: runners.SimulationResult, what: str) -> bool:
        got = summary(sim, self.resolved.grid, self.resolved.boundary)
        if self.final is None:
            self.final = sim.final_level.copy()
            self.summary = got
            return self._check_golden(what)
        if not self.check_level(sim.final_level, what):
            return False
        if got != self.summary:
            self._fail(f"{what}: summary {got} differs from the first run {self.summary}")
            return False
        return True

    def _check_golden(self, what: str) -> bool:
        if not self.want_golden:
            return True
        found = []
        if self.golden is None:
            found.append(f"golden.json has no entry for {self.name}")
        else:
            for key, want in self.golden.items():
                got = self.summary[key]
                slack = GOLDEN_RTOL * max(abs(got), abs(want)) + GOLDEN_ATOL.get(key, 0.0)
                if not abs(got - want) <= slack:
                    found.append(f"{key} = {got!r}, golden {want!r}")
        if found:
            self._fail(f"{what}: " + "; ".join(found))
        return not found

    def check_reference_march(self) -> None:
        """One counted operation: the independent march and the datum's mass."""
        self.attempted += 1
        found = []
        if self.final is not None:
            ref = reference.march(self.resolved)
            gap = float(np.sum(np.abs(ref - self.final)))
            if not gap <= REFERENCE_RTOL * float(np.sum(np.abs(self.final))):
                found.append(f"final level is {gap!r} (L1 sum) from the reference march")
        m0 = self.resolved.grid.dx * float(np.sum(self.resolved.rho0))
        exact = reference.datum_mass(self.resolved.scenario)
        if not abs(m0 - exact) <= MASS_RTOL * exact:
            found.append(f"projected datum mass {m0!r}, exact {exact!r}")
        if found:
            self._fail("reference check: " + "; ".join(found))

    def check_files(self, out_dir: Path, sim: runners.SimulationResult) -> bool:
        """The written final snapshot and manifest must match the run."""
        t_last = self.resolved.scenario.snapshots[-1]
        path = out_dir / f"snapshot_t{t_last!r}.csv"
        rho = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        if not np.array_equal(rho, sim.final_level):
            self._fail(f"{path.name} does not hold the final level")
            return False
        manifest = dict(
            line.split(" = ", 1)
            for line in (out_dir / "manifest.txt").read_text(encoding="utf-8").splitlines()
        )
        if float(manifest["sup_tv"]) != sim.collector.sup_tv:
            self._fail("manifest sup_tv differs from the collector's")
            return False
        return True


# ---------------------------------------------------------------------------
# measurement


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with ten samples beyond it."""
    n = len(values)
    if n == 0:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    if pct <= 50:
        return None
    return pct, float(np.percentile(values, pct))


def bare_run(resolved) -> np.ndarray:
    """schemes.run of the resolved inputs with no observer."""
    return schemes.run(
        resolved.grid,
        resolved.weights,
        resolved.velocity,
        resolved.saturation,
        resolved.scheme,
        resolved.rho0,
        resolved.scenario.t_final,
        resolved.boundary,
    )


class Sampler:
    """Output directories for run_scenario samples inside the checkout."""

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench_tmp" / str(os.getpid())
        self.count = 0

    def next_dir(self) -> Path:
        self.count += 1
        return self.base / f"run{self.count}"

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def run_scenario_sample(scenario: Scenario, check: Verifier, sampler: Sampler, first: bool):
    """One checked run_scenario into a fresh directory.

    Returns the bytes written, or None when the run failed or its output
    did not check out.  The written files are checked on the first sample.
    """
    out = sampler.next_dir()
    try:
        result = check.attempt(lambda: runners.run_scenario(scenario, out))
        if result is None:
            return None
        sim = result["result"]
        if not check.check_run(sim, "run_scenario"):
            return None
        if first and not check.check_files(out, sim):
            return None
        return dir_bytes(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def timed(op: Callable[[], object], check: Verifier):
    """(wall time, minor page faults, result) of one counted call.

    The result is None on failure.
    """
    f0 = minor_faults()
    t0 = time.perf_counter()
    out = check.attempt(op)
    return time.perf_counter() - t0, minor_faults() - f0, out


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Samples:
    """Per-metric samples, each kept as rescaled and as wall time."""

    def __init__(self, *keys: str) -> None:
        self.raw = {key: ([], []) for key in keys}
        self.faults: dict[str, list[int]] = {}

    def keep(self, key: str, elapsed: float, scale: float) -> None:
        self.raw[key][0].append(elapsed * scale)
        self.raw[key][1].append(elapsed)

    def keep_faults(self, key: str, count: int) -> None:
        self.faults.setdefault(key, []).append(count)

    def median(self, key: str) -> float:
        return median(self.raw[key][0])


def until(deadline: float) -> Callable[[], bool]:
    """True until a sample as long as the previous one would end past deadline.

    The first call is always True, so a run takes at least one sample.
    """
    last: list[float] = []

    def more() -> bool:
        now = time.perf_counter()
        if not last:
            last.append(now)
            return True
        length, last[0] = now - last[0], now
        return now + length <= deadline

    return more


def setup_phase(scenario: Scenario, samples: Samples, speed: Speedometer, seconds: float) -> None:
    """resolve_scenario, timed in batches with a speed calibration after each."""
    end = time.perf_counter() + SETUP_SHARE * seconds
    count = 0
    while count < SETUP_MIN or time.perf_counter() < end:
        batch: list[float] = []
        batch_end = time.perf_counter() + SETUP_BATCH_S
        while not batch or time.perf_counter() < batch_end:
            t0 = time.perf_counter()
            runners.resolve_scenario(scenario)
            batch.append(time.perf_counter() - t0)
        scale = speed.factor()
        for elapsed in batch:
            samples.keep("setup_s", elapsed, scale)
        count += len(batch)


def end_to_end(scenario, resolved, check, sampler, seconds, start):
    """The end-to-end metrics and their samples."""
    tracer = Tracer(
        (
            (runners, "run_scenario", "total_s"),
            (runners, "simulate", "simulate_s"),
        )
    )
    speed = Speedometer()
    samples = Samples("setup_s", "simulate_s", "total_s")
    setup_phase(scenario, samples, speed, seconds)
    rows = []
    more = until(start + seconds)
    while more():
        f0 = minor_faults()
        with tracer:
            size = run_scenario_sample(scenario, check, sampler, not rows)
        rows.append((size, minor_faults() - f0, speed.factor()))
    for tree, (size, faults, scale) in zip(tracer.per_root(), rows):
        if size is not None:
            samples.keep("simulate_s", tree["simulate_s"][0], scale)
            samples.keep("total_s", tree["total_s"][0], scale)
            samples.keep_faults("run_scenario", faults)
    _, _, bare = timed(lambda: bare_run(resolved), check)
    if bare is not None:
        check.check_level(bare, "bare schemes.run")
    cells = resolved.grid.n_cells * resolved.n_steps
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {key: (samples.median(key), "s") for key in samples.raw}
    metrics["cell_updates_per_s"] = (cells / metrics["simulate_s"][0], "1/s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics, samples, speed.factors


#: Traced layer functions: (owner, attribute, span name).  Each is looked up
#: at call time by run_scenario, simulate, schemes.run or the collector.
LAYERS = (
    (runners, "run_scenario", "runners.run_scenario"),
    (runners, "resolve_scenario", "scenario.resolve"),
    (runners, "project_initial_datum", "discretization.project"),
    (runners, "simulate", "runners.simulate"),
    (runners, "advance", "schemes.run"),
    (schemes, "init_history", "delay_state.init_history"),
    (schemes, "lf_step", "schemes.step"),
    (schemes, "hw_step", "schemes.step"),
    (schemes, "push_level", "delay_state.push_level"),
    (schemes, "lagged_speeds", "delay_state.lagged_speeds"),
    (DiagnosticsCollector, "__call__", "diagnostics.collector"),
    (DiagnosticsCollector, "_check_speeds", "diagnostics.speed_check"),
    (diagnostics, "sup_norm", "diagnostics.norms"),
    (diagnostics, "total_variation", "diagnostics.norms"),
    (diagnostics, "l1_norm", "diagnostics.norms"),
    (diagnostics, "l1_distance", "diagnostics.norms"),
    (diagnostics, "default_kappas", "diagnostics.kappas"),
    (diagnostics, "entropy_residual", "diagnostics.entropy"),
)

#: (span, metric) of the self times inside simulate that the per-layer
#: metrics name; the rest of the traced simulate time is the loop itself
#: (trace.unattributed_s).
SELF_TIMES = (
    ("schemes.step", "schemes.step_s"),
    ("delay_state.lagged_speeds", "delay_state.lagged_speeds_s"),
    ("delay_state.push_level", "delay_state.push_level_s"),
    ("delay_state.init_history", "delay_state.init_history_s"),
    ("diagnostics.entropy", "diagnostics.entropy_s"),
    ("diagnostics.kappas", "diagnostics.kappas_s"),
    ("diagnostics.collector", "diagnostics.collector_self_s"),
    ("diagnostics.speed_check", "diagnostics.speed_check_s"),
    ("diagnostics.norms", "diagnostics.norms_s"),
)


def per_layer(scenario, resolved, check, sampler, seconds, start):
    """Per-layer metrics from rounds of untraced, bare and traced samples.

    Each round runs one untraced simulate, one bare schemes.run and one
    traced run_scenario, so all three see the same machine conditions.
    """
    snaps = scenario.snapshots
    tracer = Tracer(LAYERS)
    speed = Speedometer()
    samples = Samples("untraced_simulate_s", "bare_run_s", "traced_simulate_s")
    rows = []
    more = until(start + seconds)
    while more():
        elapsed, faults, sim = timed(lambda: runners.simulate(resolved, snaps), check)
        scale = speed.factor()
        if sim is not None and check.check_run(sim, "untraced simulate"):
            samples.keep("untraced_simulate_s", elapsed, scale)
            samples.keep_faults("untraced simulate", faults)
        elapsed, _, level = timed(lambda: bare_run(resolved), check)
        scale = speed.factor()
        if level is not None and check.check_level(level, "bare schemes.run"):
            samples.keep("bare_run_s", elapsed, scale)
        f0 = minor_faults()
        with tracer:
            size = run_scenario_sample(scenario, check, sampler, not rows)
        rows.append((size, minor_faults() - f0, speed.factor()))
    traced = []
    for tree, (size, faults, scale) in zip(tracer.per_root(), rows):
        if size is not None:
            traced.append((tree, size, scale))
            samples.keep("traced_simulate_s", tree["runners.simulate"][0], scale)
            samples.keep_faults("traced run_scenario", faults)

    def self_s(tree, span):
        return tree.get(span, (0.0, 0.0, 0))[1]

    def calls(tree, span):
        return tree.get(span, (0.0, 0.0, 0))[2]

    def med_time(fn):
        """Median over traced samples of a span time, rescaled."""
        return median([fn(tree) * scale for tree, _, scale in traced])

    def med_self(span):
        return med_time(lambda tree: self_s(tree, span))

    def med_calls(span):
        return median([calls(tree, span) for tree, _, _ in traced])

    grid = resolved.grid
    j, k, h = grid.n_cells, resolved.weights.n, grid.delay_steps
    simulate_s = samples.median("untraced_simulate_s")
    bare_s = samples.median("bare_run_s")
    traced_s = samples.median("traced_simulate_s")
    metrics = {metric: (med_self(span), "s") for span, metric in SELF_TIMES}
    lagged_s = metrics["delay_state.lagged_speeds_s"][0]
    metrics.update(
        {
            "schemes.step_calls": (med_calls("schemes.step"), "count"),
            "schemes.bare_run_s": (bare_s, "s"),
            "delay_state.conv_mflops_per_s": (
                2.0 * k * j * med_calls("delay_state.lagged_speeds") / lagged_s / 1e6,
                "MFLOP/s",
            ),
            "delay_state.history_bytes": ((h + 1) * j * 8, "bytes"),
            "diagnostics.entropy_calls": (med_calls("diagnostics.entropy"), "count"),
            "diagnostics.overhead_ratio": (simulate_s / bare_s, "ratio"),
            "discretization.project_s": (med_self("discretization.project"), "s"),
            "runners.write_s": (med_self("runners.run_scenario"), "s"),
            "runners.bytes_written": (median([size for _, size, _ in traced]), "bytes"),
            "trace.simulate_s": (traced_s, "s"),
            "trace.untraced_simulate_s": (simulate_s, "s"),
            "trace.overhead_s": (traced_s - simulate_s, "s"),
            "trace.unattributed_s": (
                med_time(
                    lambda tree: tree["runners.simulate"][0]
                    - sum(self_s(tree, span) for span, _ in SELF_TIMES)
                ),
                "s",
            ),
        }
    )
    return metrics, samples, speed.factors


# ---------------------------------------------------------------------------
# report


def machine_facts() -> dict:
    """Core count, CPU model, cache sizes, versions and thread pinning."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}"] = size
    return facts


def report(
    name, seed, trace, quick, malloc, resolved, metrics, samples, factors, check, elapsed
) -> None:
    work = WORKLOADS[name]
    grid = resolved.grid
    facts = {
        "workload": name,
        "preset": work.preset,
        "scheme": work.scheme,
        "J": grid.n_cells,
        "N_T": resolved.n_steps,
        "h": grid.delay_steps,
        "K": resolved.weights.n,
        "dt": grid.dt,
        "stride": resolved.stride,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "datum": resolved.scenario.datum_params,
        "why": work.why,
        "machine": machine_facts(),
        "malloc": malloc,
    }
    print(
        f"workload {name} (seed {seed}, trace {trace}{', quick' if quick else ''}): "
        f"preset {work.preset}, scheme {work.scheme}, J={grid.n_cells} "
        f"N_T={resolved.n_steps} h={grid.delay_steps} K={resolved.weights.n}"
    )
    print(f"  facts: {json.dumps(facts, sort_keys=True)}")
    print(
        f"  speed factor to the reference speed: median {median(factors):.4g}, "
        f"range {min(factors):.4g}-{max(factors):.4g} over {len(factors)} samples"
    )
    for key, (scaled, wall) in samples.raw.items():
        line = f"  {key}: median {median(scaled):.6g} s at reference speed over n={len(scaled)}"
        high = tail(scaled)
        if high is not None:
            line += f", p{high[0]} {high[1]:.6g} s"
        elif scaled:
            line += f", max {max(scaled):.6g} s (too few samples for a tail percentile)"
        print(line + f"; wall median {median(wall):.6g} s")
    for key, counts in samples.faults.items():
        print(f"  minor page faults per {key}: median {median(counts):.0f} over n={len(counts)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    if "trace.simulate_s" in metrics:
        traced = metrics["trace.simulate_s"][0]
        shares = ", ".join(
            f"{key} {100.0 * metrics[key][0] / traced:.1f}%"
            for key in [metric for _, metric in SELF_TIMES] + ["trace.unattributed_s"]
        )
        print(f"  shares of trace.simulate_s: {shares}")
    share = check.failed / check.attempted if check.attempted else math.nan
    print(f"  failed_share = {check.failed}/{check.attempted} = {share:.6g}")
    if check.summary is not None:
        print(f"  summary: {json.dumps(check.summary, sort_keys=True)}")
    for problem in check.problems:
        print(f"  FAILED: {problem}")
    print(f"  wall: {elapsed:.3f} s")


def main(args, root: Path) -> int:
    start = time.perf_counter()
    src = (root / "src").resolve()
    if Path(lagflow.__file__).resolve().parent.parent != src:
        print(f"perfbench: lagflow imported from {lagflow.__file__}, not {src}", file=sys.stderr)
        return 2
    scenario = scenario_for(args.workload, args.seed, args.quick)
    resolved = runners.resolve_scenario(scenario)
    check = Verifier(args.workload, args.seed, args.quick, resolved)
    sampler = Sampler(root)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, samples, factors = measure(
            scenario, resolved, check, sampler, args.seconds, time.perf_counter()
        )
    finally:
        sampler.cleanup()
    # After the measurement, so its history array stays out of peak_rss_mb.
    check.check_reference_march()
    report(
        args.workload,
        args.seed,
        args.trace,
        args.quick,
        args.malloc,
        resolved,
        metrics,
        samples,
        factors,
        check,
        time.perf_counter() - start,
    )
    result = {
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
