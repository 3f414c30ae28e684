"""Experiment configuration: flat key = value files with sections.

A scenario file fully describes one simulation::

    [domain]
    x_min = 0.0
    x_max = 1.0
    dx = 0.005
    t_final = 0.5
    boundary = free_flow          ; optional: free_flow (default) | periodic

    [model]
    velocity = greenshields       ; greenshields | normalized_greenshields | cropped
    v_max = 0.9                   ; greenshields only
    rho_max = 1.7                 ; greenshields only
    saturation = linear           ; none | linear | exponential
    eps = 0.02                    ; exponential only
    kernel = constant             ; constant | linear_decreasing
    kernel_length = 0.015
    tau = 0.01

    [scheme]
    kind = hw                     ; lf | hw
    safety = 1.0                  ; optional, in (0, 1]

    [datum]
    kind = riemann_up             ; see initial_data.DATUM_KINDS
    ; kind-specific keys: left/right/position, height/a/b, shift, mean, value

    [output]                      ; optional section
    directory = out
    snapshots = 0.25, 0.5         ; times in [0, t_final]; default: t_final
    stride = 100                  ; diagnostics row spacing; default: automatic

Every Scenario is validated when it is built, whether parsed from a file
or made with dataclasses.replace from another one: the domain, dx,
t_final, v_max, rho_max, eps (when set), the kernel length, tau, safety
and the snapshot times must be finite, a saturation other than none must
share the velocity's rho_max, the domain and the kernel support whole
numbers of cells, tau >= 0, the scheme known, safety in (0, 1], datum
values inside [0, rho_max], snapshots distinct and inside [0, t_final]
and stride >= 1.  The parser checks only syntax: sections, keys, numbers
and which keys each kind takes.  Unknown sections or keys are rejected by
name, as are missing required keys.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import initial_data
from .discretization import whole_cells
from .model_functions import GREENSHIELDS, SAT_EXPONENTIAL, SAT_NONE, Kernel, Saturation, Velocity
from .schemes import BOUNDARY_KINDS, FREE_FLOW, SCHEME_KINDS


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


#: [model] keys that exactly one kind of one family takes, and requires.
_MODEL_KIND_KEYS = (
    ("velocity", GREENSHIELDS, ("v_max", "rho_max")),
    ("saturation", SAT_EXPONENTIAL, ("eps",)),
)


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    x_min: float
    x_max: float
    dx: float
    t_final: float
    boundary: str
    velocity: Velocity
    saturation: Saturation
    kernel: Kernel
    tau: float
    scheme: str
    safety: float
    datum_kind: str
    datum_params: dict = field(default_factory=dict)
    snapshots: tuple = ()
    out_dir: str = "out"
    stride: int | None = None

    def __post_init__(self) -> None:
        for section, key, value in (
            ("domain", "x_min", self.x_min),
            ("domain", "x_max", self.x_max),
            ("domain", "dx", self.dx),
            ("domain", "t_final", self.t_final),
            ("model", "v_max", self.velocity.v_max),
            ("model", "rho_max", self.velocity.rho_max),
            *(("model", "eps", eps) for eps in (self.saturation.eps,) if eps is not None),
            ("model", "kernel_length", self.kernel.length),
            ("model", "tau", self.tau),
            ("scheme", "safety", self.safety),
            *(("output", "snapshots", t) for t in self.snapshots),
        ):
            if not math.isfinite(value):
                raise ScenarioError(f"[{section}] {key}: {value} is not finite")
        if self.saturation.kind != SAT_NONE and self.saturation.rho_max != self.velocity.rho_max:
            raise ScenarioError("[model] saturation and velocity must share rho_max")
        if not self.x_max > self.x_min:
            raise ScenarioError("[domain] x_max must exceed x_min")
        if not self.dx > 0:
            raise ScenarioError("[domain] dx must be positive")
        if not self.t_final >= 0:
            raise ScenarioError("[domain] t_final must be non-negative")
        if self.boundary not in BOUNDARY_KINDS:
            raise ScenarioError(f"[domain] boundary: unknown kind {self.boundary!r}")
        for section, what, length in (
            ("domain", "domain length", self.x_max - self.x_min),
            ("model", "kernel_length", self.kernel.length),
        ):
            try:
                whole_cells(length, self.dx, what)
            except ValueError as exc:
                raise ScenarioError(f"[{section}] {exc}") from exc
        if not self.tau >= 0:
            raise ScenarioError("[model] tau must be non-negative")
        if self.scheme not in SCHEME_KINDS:
            raise ScenarioError(f"[scheme] kind: unknown scheme {self.scheme!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ScenarioError("[scheme] safety must lie in (0, 1]")
        try:
            lo, hi = self.make_datum().value_range()
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"[datum] {exc}") from exc
        if lo < 0.0 or hi > self.velocity.rho_max:
            raise ScenarioError(
                f"[datum] values span [{lo}, {hi}], outside [0, {self.velocity.rho_max}]"
            )
        for i, t in enumerate(self.snapshots):
            if not 0 <= t <= self.t_final:
                raise ScenarioError(
                    f"[output] snapshots: time {t} outside [0, {self.t_final}]"
                )
            if t in self.snapshots[:i]:
                raise ScenarioError(f"[output] snapshots: duplicate time {t}")
        if self.stride is not None and self.stride < 1:
            raise ScenarioError("[output] stride must be at least 1")

    def make_datum(self):
        return initial_data.make_datum(self.datum_kind, **self.datum_params)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def _take(
    sections: dict,
    name: str,
    required: tuple[str, ...],
    optional: tuple[str, ...],
) -> dict[str, str]:
    if name not in sections:
        if required:
            raise ScenarioError(f"missing section [{name}]")
        return {}
    body = sections[name]
    for key in body:
        if key not in required and key not in optional:
            raise ScenarioError(f"[{name}] unknown key {key!r}")
    for key in required:
        if key not in body:
            raise ScenarioError(f"[{name}] missing key {key!r}")
    return body


def _floats(section: str, body: dict[str, str], skip: tuple[str, ...]) -> dict[str, float]:
    return {key: _parse_float(section, key, raw) for key, raw in body.items() if key not in skip}


def scenario_from_sections(sections: dict) -> Scenario:
    """Parse a {section: {key: value-string}} mapping into a Scenario."""
    known = {"domain", "model", "scheme", "datum", "output"}
    for name in sections:
        if name not in known:
            raise ScenarioError(f"unknown section [{name}]")

    dom = _take(sections, "domain", ("x_min", "x_max", "dx", "t_final"), ("boundary",))
    domain = _floats("domain", dom, ("boundary",))

    kinds = ("velocity", "saturation", "kernel")
    mod = _take(sections, "model", kinds + ("kernel_length", "tau"), ("v_max", "rho_max", "eps"))
    for family, kind, keys in _MODEL_KIND_KEYS:
        for key in keys:
            if mod[family] == kind and key not in mod:
                raise ScenarioError(f"[model] {family} = {kind} needs {key}")
            if mod[family] != kind and key in mod:
                raise ScenarioError(f"[model] {key} applies only to {family} = {kind}")
    model = _floats("model", mod, kinds)
    try:
        velocity = Velocity(
            mod["velocity"], **{k: model[k] for k in ("v_max", "rho_max") if k in model}
        )
        saturation = Saturation(
            mod["saturation"], rho_max=velocity.rho_max, eps=model.get("eps")
        )
        kernel = Kernel(mod["kernel"], length=model["kernel_length"])
    except ValueError as exc:
        raise ScenarioError(f"[model] {exc}") from exc

    sch = _take(sections, "scheme", ("kind",), ("safety",))

    # the kind first, since it decides which other keys the section takes
    datum_kind = _take(sections, "datum", ("kind",), tuple(sections.get("datum", ())))["kind"]
    if datum_kind not in initial_data.DATUM_KINDS:
        raise ScenarioError(f"[datum] kind: unknown datum {datum_kind!r}")
    _, required, defaults = initial_data.DATUM_KINDS[datum_kind]
    dat = _take(sections, "datum", ("kind",) + required, tuple(defaults))

    out = _take(sections, "output", (), ("directory", "snapshots", "stride"))
    if "snapshots" in out:
        snapshots = tuple(
            _parse_float("output", "snapshots", piece)
            for piece in out["snapshots"].replace(",", " ").split()
        )
    else:
        snapshots = (domain["t_final"],)

    return Scenario(
        **domain,
        boundary=dom.get("boundary", FREE_FLOW),
        velocity=velocity,
        saturation=saturation,
        kernel=kernel,
        tau=model["tau"],
        scheme=sch["kind"],
        safety=_parse_float("scheme", "safety", sch.get("safety", "1.0")),
        datum_kind=datum_kind,
        datum_params=_floats("datum", dat, ("kind",)),
        snapshots=snapshots,
        out_dir=out.get("directory", "out"),
        stride=_parse_int("output", "stride", out["stride"]) if "stride" in out else None,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"no such scenario file: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return scenario_from_sections(sections)


def render_config(sections: dict) -> str:
    """Serialize a {section: {key: value}} mapping to scenario-file text.

    Values are written with repr round-tripping for floats so that
    rendering and re-parsing reproduces the same Scenario.
    """
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
