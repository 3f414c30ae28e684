"""Mutation matrix: each row breaks the march in one way and names the
check whose message simulate must raise.

A row is a mutation (a patch of lf_step, hw_step or update, the functions
schemes.run looks up as module globals), a scheme, a preset and a
boundary.  Every run goes to t = 0.1 on one of four presets under both
boundaries.  Only what the in-run checks catch today is a row; the
misses are listed in the README.  The collector's entropy replay calls
its own import of update, so a patched update changes the march only.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from lagflow import schemes
from lagflow.diagnostics import InvariantViolation
from lagflow.presets import preset_scenario
from lagflow.runners import resolve_scenario, simulate
from lagflow.schemes import FREE_FLOW, PERIODIC

PRESETS = ("riemann_shock", "osc_sat", "box_delay", "stopgo_riemann")

#: each check's message after "step n: "
MESSAGES = {
    "positivity": "negative density",
    "ceiling": r"density \S+ exceeds the ceiling",
    "mass": "relative mass drift",
    "tv": "total variation",
    "entropy": "entropy residual",
}

#: edits of a step's (speeds, lam, a, b); the slice [a, b) is cut short
#: only while it is not the whole level
STEP_EDITS = {
    "3lam": lambda rho, v, lam, a, b: (v, 3.0 * lam, a, b),
    "half_lam": lambda rho, v, lam, a, b: (v, 0.5 * lam, a, b),
    "speeds_rolled": lambda rho, v, lam, a, b: (np.roll(v, 1), lam, a, b),
    "slice_short": lambda rho, v, lam, a, b: (
        (v, lam, a + 1, b - 1) if b - a < rho.size else (v, lam, a, b)
    ),
}

#: (scheme, mutation) -> {preset: (free-flow check, periodic check)};
#: None marks a run the checks miss, which is no row
MATRIX = {
    ("lf", "3lam"): {
        "riemann_shock": ("tv", "tv"),
        "osc_sat": ("entropy", "entropy"),
        "box_delay": ("tv", "tv"),
        "stopgo_riemann": ("tv", "tv"),
    },
    ("lf", "half_lam"): {preset: ("entropy", "entropy") for preset in PRESETS},
    ("lf", "speeds_rolled"): {
        "riemann_shock": ("entropy", "mass"),
        "osc_sat": ("entropy", "entropy"),
        "box_delay": ("entropy", "entropy"),
        "stopgo_riemann": ("entropy", "mass"),
    },
    ("lf", "slice_short"): {"box_delay": ("entropy", "mass")},
    ("hw", "3lam"): {"riemann_shock": (None, "positivity")},
    ("hw", "slice_short"): {"box_delay": (None, "mass")},
    ("hw", "flux_flipped"): {
        "riemann_shock": ("positivity", "positivity"),
        "osc_sat": ("tv", "tv"),
        "box_delay": ("positivity", "positivity"),
        "stopgo_riemann": ("ceiling", "positivity"),
    },
}

ROWS = [
    pytest.param(scheme, mutation, preset, boundary, check,
                 id=f"{scheme}-{mutation}-{preset}-{boundary}")
    for (scheme, mutation), runs in MATRIX.items()
    for preset, checks in runs.items()
    for boundary, check in zip((FREE_FLOW, PERIODIC), checks)
    if check is not None
]


@lru_cache(maxsize=None)
def _resolved(preset, scheme, boundary):
    scenario = preset_scenario(preset)
    return resolve_scenario(dataclasses.replace(
        scenario, scheme=scheme, boundary=boundary, t_final=0.1, snapshots=(),
    ))


def _edited(step, edit):
    """step with its speeds, lam and slice passed through edit."""

    def mutant(rho, v, lam, *args):
        *args, a, b = args
        v, lam, a, b = edit(rho, v, lam, a, b)
        return step(rho, v, lam, *args, a, b)

    return mutant


def _flux_flipped(update):
    """update with the sign of its flux difference flipped: rho + (rho - H(rho))."""

    def mutant(scheme, rho, *args):
        out = update(scheme, rho, *args)
        return np.subtract(2.0 * rho, out, out=out)

    return mutant


@pytest.mark.parametrize("scheme, mutation, preset, boundary, check", ROWS)
def test_simulate_catches_the_mutation(monkeypatch, scheme, mutation, preset, boundary, check):
    resolved = _resolved(preset, scheme, boundary)
    if mutation == "flux_flipped":
        monkeypatch.setattr(schemes, "update", _flux_flipped(schemes.update))
    else:
        name = f"{scheme}_step"
        monkeypatch.setattr(schemes, name, _edited(getattr(schemes, name), STEP_EDITS[mutation]))
    with pytest.raises(InvariantViolation, match=rf"^step \d+: {MESSAGES[check]}"):
        simulate(resolved)


@pytest.mark.parametrize("boundary", [FREE_FLOW, PERIODIC])
@pytest.mark.parametrize("scheme", ["lf", "hw"])
@pytest.mark.parametrize("preset", PRESETS)
def test_unmutated_runs_pass(preset, scheme, boundary):
    """The matrix's runs pass every check when nothing is patched."""
    simulate(_resolved(preset, scheme, boundary))
