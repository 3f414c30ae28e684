"""Built-in scenario presets covering the library's reference experiments.

Each preset is a complete scenario-file section mapping (see scenario) and
can be rendered to disk or resolved directly.  Every preset runs the
Hilliges-Weidlich scheme from x = 0 to t = 0.5 and writes to
runs/<name>.  A preset is one of four families of shared settings, its
datum, and the settings it changes:

riemann: riemann_shock / riemann_rarefaction
    Scheme comparison on [0, 1], dx = 5e-3: Greenshields velocity
    (V = 0.9, R = 1.7), linear saturation, constant kernel with a short
    look-ahead L = 0.015, delay 0.01, snapshots 0.25 and 0.5; Riemann
    data jumping between 0.3 and 1.5 at x = 0.5.

osc: osc_sat / osc_cos_quarter / osc_cos_half
    Saturation effect on [0, 1], dx = 1e-3: normalized velocity
    v = 1 - rho, linear saturation, constant kernel L = 0.1, delay 0.12,
    a snapshot at 0.5; a continuous sine bump (shift 0.4), and cosine
    bumps over means 1/4 and 1/2, the latter with delay 0.08.

delay: osc_delay / box_delay / box_refine
    Delay convergence on [0, 5], dx = 5e-3: normalized velocity,
    exponential saturation (eps = 0.02), linear-decreasing kernel
    L = 0.15, delay 0.1, snapshots every 0.1; a sine bump (shift 0.5, edge
    jumps) and the normalized box 0.75 on [1, 2].  box_refine, the
    grid-refinement study, takes the Greenshields velocity, the box 1.5
    on [1, 2] and snapshots 0.25 and 0.5.

stopgo: stopgo_riemann / stopgo_osc
    Stop-and-go waves: the delay family on [0, 0.8] with kernel L = 0.1,
    from the small Riemann step and the cosine bump over mean 1/2.  The
    cell width is 0.8/344 (about 2.33e-3): the nearby conventional choice
    2.3e-3 cannot tile both the domain and the look-ahead distance with
    whole cells, so the preset uses the closest width that does.
"""

from __future__ import annotations

import copy
from pathlib import Path

from .scenario import Scenario, render_config, scenario_from_sections

_GREENSHIELDS = {"velocity": "greenshields", "v_max": 0.9, "rho_max": 1.7}
_NORMALIZED = {"velocity": "normalized_greenshields"}
_LINEAR = {"saturation": "linear"}
_EXPONENTIAL = {"saturation": "exponential", "eps": 0.02}

_RIEMANN = {
    "x_max": 1.0,
    "dx": 5e-3,
    "velocity": _GREENSHIELDS,
    "saturation": _LINEAR,
    "kernel": "constant",
    "kernel_length": 0.015,
    "tau": 0.01,
    "snapshots": (0.25, 0.5),
}
_OSC = {
    "x_max": 1.0,
    "dx": 1e-3,
    "velocity": _NORMALIZED,
    "saturation": _LINEAR,
    "kernel": "constant",
    "kernel_length": 0.1,
    "tau": 0.12,
    "snapshots": (0.5,),
}
_DELAY = {
    "x_max": 5.0,
    "dx": 5e-3,
    "velocity": _NORMALIZED,
    "saturation": _EXPONENTIAL,
    "kernel": "linear_decreasing",
    "kernel_length": 0.15,
    "tau": 0.1,
    "snapshots": (0.1, 0.2, 0.3, 0.4, 0.5),
}
_STOPGO = {**_DELAY, "x_max": 0.8, "dx": 0.8 / 344, "kernel_length": 0.1}


def _sections(
    name: str,
    datum: dict,
    *,
    x_max: float,
    dx: float,
    velocity: dict,
    saturation: dict,
    kernel: str,
    kernel_length: float,
    tau: float,
    snapshots: tuple,
) -> dict:
    return {
        "domain": {"x_min": 0.0, "x_max": x_max, "dx": dx, "t_final": 0.5},
        "model": {
            **velocity,
            **saturation,
            "kernel": kernel,
            "kernel_length": kernel_length,
            "tau": tau,
        },
        "scheme": {"kind": "hw"},
        "datum": dict(datum),
        "output": {
            "directory": f"runs/{name}",
            "snapshots": ", ".join(repr(float(t)) for t in snapshots),
        },
    }


PRESETS: dict[str, dict] = {
    name: _sections(name, datum, **{**family, **changes})
    for name, family, datum, changes in (
        ("riemann_shock", _RIEMANN, {"kind": "riemann_up"}, {}),
        ("riemann_rarefaction", _RIEMANN, {"kind": "riemann_down"}, {}),
        (
            "box_refine",
            _DELAY,
            {"kind": "box", "height": 1.5, "a": 1.0, "b": 2.0},
            {"velocity": _GREENSHIELDS, "snapshots": (0.25, 0.5)},
        ),
        ("osc_sat", _OSC, {"kind": "osc_sin", "shift": 0.4}, {}),
        ("osc_cos_quarter", _OSC, {"kind": "osc_cos", "mean": 0.25}, {}),
        ("osc_cos_half", _OSC, {"kind": "osc_cos", "mean": 0.5}, {"tau": 0.08}),
        ("osc_delay", _DELAY, {"kind": "osc_sin", "shift": 0.5}, {}),
        ("box_delay", _DELAY, {"kind": "box", "height": 0.75, "a": 1.0, "b": 2.0}, {}),
        ("stopgo_riemann", _STOPGO, {"kind": "riemann_small"}, {}),
        ("stopgo_osc", _STOPGO, {"kind": "osc_cos", "mean": 0.5}, {}),
    )
}

PRESET_NAMES = tuple(PRESETS)


def preset_sections(name: str) -> dict:
    """Deep copy of a preset's section mapping."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return copy.deepcopy(PRESETS[name])


def preset_scenario(name: str) -> Scenario:
    """The preset as a validated Scenario."""
    sections = preset_sections(name)
    for body in sections.values():
        for key, value in body.items():
            if not isinstance(value, str):
                body[key] = repr(float(value)) if isinstance(value, float) else str(value)
    return scenario_from_sections(sections)


def write_preset_configs(directory: str | Path) -> list[Path]:
    """Render every preset to <directory>/<name>.cfg; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in PRESET_NAMES:
        path = directory / f"{name}.cfg"
        path.write_text(render_config(preset_sections(name)), encoding="utf-8")
        paths.append(path)
    return paths
