"""The public surface: lagflow.__all__ and what the demos and README import."""

import ast
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import lagflow

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PUBLIC = [
    "FREE_FLOW",
    "HILLIGES_WEIDLICH",
    "InvariantViolation",
    "Kernel",
    "LAX_FRIEDRICHS",
    "PERIODIC",
    "PRESET_NAMES",
    "Saturation",
    "Scenario",
    "ScenarioError",
    "StepError",
    "Velocity",
    "compare_schemes",
    "grid_refine",
    "load_scenario",
    "preset_scenario",
    "resolve_scenario",
    "run_scenario",
    "saturation_study",
    "simulate",
    "stability_experiment",
    "tau_sweep",
    "write_preset_configs",
]


def test_resolve_scenario_takes_only_the_scenario():
    """No switch beside the scenario decides which checks a run makes."""
    params = tuple(inspect.signature(lagflow.resolve_scenario).parameters)
    assert params == ("scenario",)


def _importable():
    submodules = {info.name for info in pkgutil.iter_modules(lagflow.__path__)}
    return set(lagflow.__all__) | submodules


def test_all_is_the_public_api_and_resolves():
    assert sorted(lagflow.__all__) == PUBLIC
    for name in lagflow.__all__:
        assert getattr(lagflow, name) is not None, name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_only_public_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lagflow"
        for alias in node.names
    ]
    assert names
    assert set(names) <= _importable()


def test_readme_imports_only_public_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    names = [
        name.strip()
        for block in blocks
        for clause in re.findall(r"from lagflow import ([\w, ]+)", block)
        for name in clause.split(",")
    ]
    assert names
    assert set(names) <= _importable()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_module_imports_cleanly(path):
    """Each demo marches only under its __main__ guard, so importing it
    runs no simulation."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_no_module_imports_a_private_name_of_another():
    """No module of lagflow imports an underscore name from another lagflow
    module: what two modules share is named without one."""
    package = Path(lagflow.__file__).parent
    private = [
        (path.name, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lagflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
