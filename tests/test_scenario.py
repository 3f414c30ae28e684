"""Scenario parsing, validation diagnostics, preset registry round-trips."""

import dataclasses

import numpy as np
import pytest

from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.presets import PRESET_NAMES, preset_scenario, preset_sections, write_preset_configs
from lagflow.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    render_config,
    scenario_from_sections,
)

MINIMAL = {
    "domain": {"x_min": "0.0", "x_max": "1.0", "dx": "0.01", "t_final": "0.5"},
    "model": {
        "velocity": "normalized_greenshields",
        "saturation": "linear",
        "kernel": "constant",
        "kernel_length": "0.1",
        "tau": "0.05",
    },
    "scheme": {"kind": "hw"},
    "datum": {"kind": "constant", "value": "0.5"},
}


#: [model] settings a key needs before the parser accepts it.
_APPLIES_UNDER = {
    "v_max": {"velocity": "greenshields", "v_max": "0.9", "rho_max": "1.7"},
    "rho_max": {"velocity": "greenshields", "v_max": "0.9", "rho_max": "1.7"},
    "eps": {"saturation": "exponential", "eps": "0.02"},
}


def _sections(**overrides):
    merged = {name: dict(body) for name, body in MINIMAL.items()}
    for name, body in overrides.items():
        if "kind" in body:
            merged[name] = dict(body)
        else:
            merged.setdefault(name, {}).update(body)
    return merged


def test_minimal_scenario_gets_documented_defaults():
    s = scenario_from_sections(MINIMAL)
    assert s.safety == 1.0
    assert s.boundary == "free_flow"
    assert s.scheme == "hw"
    assert s.snapshots == (0.5,)
    assert s.out_dir == "out"
    assert s.stride is None
    assert s.datum_params == {"value": 0.5}


def test_negative_delay_rejected_by_key_name():
    with pytest.raises(ScenarioError, match="tau"):
        scenario_from_sections(_sections(model={"tau": "-0.01"}))


def test_replaced_scenario_is_validated():
    """dataclasses.replace copies are checked like parsed scenarios."""
    valid = scenario_from_sections(MINIMAL)
    with pytest.raises(ScenarioError, match="tau"):
        dataclasses.replace(valid, tau=-1.0)
    with pytest.raises(ScenarioError, match="safety"):
        dataclasses.replace(valid, safety=1.5)
    with pytest.raises(ScenarioError, match="datum"):
        dataclasses.replace(valid, datum_params={"value": 1.5})
    with pytest.raises(ScenarioError, match="snapshots"):
        dataclasses.replace(valid, t_final=0.25)


def test_direct_scenario_with_fractional_kernel_cells_rejected():
    with pytest.raises(ScenarioError, match="kernel_length"):
        Scenario(
            x_min=0.0,
            x_max=1.0,
            dx=0.004,
            t_final=0.5,
            boundary="free_flow",
            velocity=Velocity("normalized_greenshields"),
            saturation=Saturation("linear"),
            kernel=Kernel("constant", length=0.015),
            tau=0.05,
            scheme="hw",
            safety=1.0,
            datum_kind="constant",
            datum_params={"value": 0.5},
        )


def test_fractional_kernel_cells_rejected():
    # 0.015 / 0.004 = 3.75 cells
    bad = _sections(
        domain={"dx": "0.004"}, model={"kernel_length": "0.015"}
    )
    with pytest.raises(ScenarioError, match="kernel_length"):
        scenario_from_sections(bad)


def test_unknown_section_and_key_rejected_by_name():
    with pytest.raises(ScenarioError, match="turbulence"):
        scenario_from_sections(_sections(turbulence={"on": "1"}))
    with pytest.raises(ScenarioError, match="viscosity"):
        scenario_from_sections(_sections(model={"viscosity": "0.1"}))


def test_datum_outside_capacity_rejected():
    bad = _sections(datum={"kind": "constant", "value": "1.5"})
    with pytest.raises(ScenarioError, match="datum"):
        scenario_from_sections(bad)


def test_snapshots_must_lie_in_horizon():
    bad = _sections(output={"snapshots": "0.25, 0.75"})
    with pytest.raises(ScenarioError, match="snapshot"):
        scenario_from_sections(bad)


def test_duplicate_snapshot_times_rejected():
    bad = _sections(output={"snapshots": "0.05, 0.05, 0.1"})
    with pytest.raises(ScenarioError, match=r"^\[output\] snapshots: duplicate time 0\.05$"):
        scenario_from_sections(bad)
    # distinct times that land on the same step stay allowed
    close = scenario_from_sections(_sections(output={"snapshots": "0.1, 0.1000000001"}))
    assert close.snapshots == (0.1, 0.1000000001)


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("domain", "x_min", "-inf"),
        ("domain", "x_max", "inf"),
        ("domain", "dx", "nan"),
        ("domain", "t_final", "inf"),
        ("model", "v_max", "nan"),
        ("model", "v_max", "inf"),
        ("model", "rho_max", "nan"),
        ("model", "rho_max", "inf"),
        ("model", "eps", "nan"),
        ("model", "eps", "inf"),
        ("model", "kernel_length", "inf"),
        ("model", "tau", "inf"),
        ("scheme", "safety", "nan"),
        ("output", "snapshots", "0.25, inf"),
    ],
)
def test_non_finite_numbers_rejected_by_key_name(section, key, raw):
    body = {**_APPLIES_UNDER.get(key, {}), key: raw}
    with pytest.raises(ScenarioError, match=rf"^\[{section}\] {key}: -?(inf|nan) is not finite$"):
        scenario_from_sections(_sections(**{section: body}))


def test_mismatched_capacity_rejected():
    """The saturation and the velocity share R, also in a directly built
    Scenario."""
    base = scenario_from_sections(MINIMAL)
    wide = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    with pytest.raises(
        ScenarioError, match=r"^\[model\] saturation and velocity must share rho_max$"
    ):
        dataclasses.replace(base, velocity=wide)


def test_none_saturation_ignores_capacity():
    base = scenario_from_sections(MINIMAL)
    wide = Velocity("greenshields", v_max=0.9, rho_max=1.7)
    s = dataclasses.replace(base, velocity=wide, saturation=Saturation("none"))
    assert s.saturation.rho_max != s.velocity.rho_max


def test_greenshields_requires_both_parameters():
    bad = _sections(model={"velocity": "greenshields", "v_max": "0.9"})
    with pytest.raises(ScenarioError, match="rho_max"):
        scenario_from_sections(bad)


def test_eps_only_for_exponential_saturation():
    bad = _sections(model={"eps": "0.02"})
    with pytest.raises(ScenarioError, match="eps"):
        scenario_from_sections(bad)


def test_load_scenario_from_rendered_text(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(render_config(MINIMAL), encoding="utf-8")
    assert load_scenario(path) == scenario_from_sections(MINIMAL)


def test_scenario_make_datum_applies_params():
    s = scenario_from_sections(
        _sections(datum={"kind": "box", "height": "0.75", "a": "1.0", "b": "2.0"},
                  domain={"x_max": "5.0"})
    )
    datum = s.make_datum()
    assert datum(np.array([1.5]))[0] == 0.75


def test_every_preset_builds_a_valid_scenario():
    for name in PRESET_NAMES:
        s = preset_scenario(name)
        assert isinstance(s, Scenario)
        lo, hi = s.make_datum().value_range()
        assert 0.0 <= lo <= hi <= s.velocity.rho_max


def test_preset_sections_round_trip_through_config_text(tmp_path):
    """Rendered preset files parse back to the exact same scenarios."""
    paths = write_preset_configs(tmp_path)
    assert len(paths) == len(PRESET_NAMES)
    for name, path in zip(PRESET_NAMES, paths):
        assert load_scenario(path) == preset_scenario(name)


def test_preset_sections_are_copies():
    a = preset_sections("riemann_shock")
    a["model"]["tau"] = 99.0
    assert preset_sections("riemann_shock")["model"]["tau"] != 99.0


def test_unknown_preset_lists_available_names():
    with pytest.raises(KeyError, match="riemann_shock"):
        preset_sections("warp_drive")
