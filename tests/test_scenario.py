"""Scenario parsing, validation diagnostics, preset registry round-trips."""

import dataclasses
import hashlib

import numpy as np
import pytest

from lagflow.initial_data import DATUM_KINDS
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


#: SHA-256 of each preset's rendered scenario file, in preset order.
_PRESET_CONFIG_SHA256 = {
    "riemann_shock": "55d5f0e04ea500cbfd4a8914a94995e85b3000f2e345841d1afbabb6d714589f",
    "riemann_rarefaction": "0d003f37eb5b42f9d94d76ed6d359f569493f9c7c88cf7bc52628662b10c8143",
    "box_refine": "2739cbe8de14804549c78406bcd98a836347935ebeb1dbfb5fdc4193e85789aa",
    "osc_sat": "64a356e66c2d7d2da64f105d23ce9111d543178c5f6c37e4d8140adb620e2bbd",
    "osc_cos_quarter": "c7b4346da72bf8c07f40b191809a65ae3f04727a5dff581e40b83b0ab1a0c447",
    "osc_cos_half": "aada8f339a9c4a52f553b52ed24bd3b2e9f14e27dcc39840a37b13ecd3e5b2ac",
    "osc_delay": "198eef7d9729a7730efcd73513d458d588a24af4fc2c4240cde879a6e924f8eb",
    "box_delay": "db7fa6439f08b43268a78df7b47deff5ccaa74af4c345daf2aff0d83597006a3",
    "stopgo_riemann": "4846704fc681bfea814ed836c06daa0f12dd160be5bf7b0ae97cf41f3427b483",
    "stopgo_osc": "1367abfba88c027b5539b5631e0c0312105999ea858ccda80d45e86545453d20",
}


def test_preset_config_text_is_pinned():
    """Every setting of every preset, its output directory and snapshot
    times included, renders to the pinned text."""
    assert PRESET_NAMES == tuple(_PRESET_CONFIG_SHA256)
    for name, digest in _PRESET_CONFIG_SHA256.items():
        text = render_config(preset_sections(name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


#: a value for each required datum key that fits the [0, 1.7] capacity box
_REQUIRED_VALUES = {"height": "1.0", "a": "0.2", "b": "0.4", "value": "0.5"}


def _datum_sections(datum):
    return _sections(model=_APPLIES_UNDER["v_max"], datum=datum)


@pytest.mark.parametrize("kind", sorted(DATUM_KINDS))
def test_datum_keys_follow_the_kind_table(kind):
    """The parser takes each kind's keys from DATUM_KINDS: the required
    keys alone parse, each optional key parses and its default is the
    table's, and an unknown or missing key fails by name."""
    _, required, defaults = DATUM_KINDS[kind]
    base = {"kind": kind, **{key: _REQUIRED_VALUES[key] for key in required}}
    plain = scenario_from_sections(_datum_sections(base))
    assert plain.datum_params == {key: float(_REQUIRED_VALUES[key]) for key in required}
    for key, default in defaults.items():
        given = scenario_from_sections(_datum_sections({**base, key: repr(default)}))
        assert given.datum_params[key] == default
        assert given.make_datum() == plain.make_datum()
    with pytest.raises(ScenarioError, match=r"^\[datum\] unknown key 'bogus'$"):
        scenario_from_sections(_datum_sections({**base, "bogus": "1.0"}))
    for key in required:
        partial = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ScenarioError, match=rf"^\[datum\] missing key '{key}'$"):
            scenario_from_sections(_datum_sections(partial))


@pytest.mark.parametrize("kind", sorted(DATUM_KINDS))
def test_datum_refuses_interface_takes_right(kind):
    """Which side owns a Riemann jump is the kind's, not a datum key."""
    _, required, _ = DATUM_KINDS[kind]
    base = {"kind": kind, **{key: _REQUIRED_VALUES[key] for key in required}}
    with pytest.raises(ScenarioError, match=r"^\[datum\] unknown key 'interface_takes_right'$"):
        scenario_from_sections(_datum_sections({**base, "interface_takes_right": "0"}))
    valid = scenario_from_sections(_datum_sections(base))
    with pytest.raises(ScenarioError, match="interface_takes_right"):
        dataclasses.replace(
            valid, datum_params={**valid.datum_params, "interface_takes_right": False}
        )
