"""Command line interface: exit codes, artifact files, determinism."""

import math

import numpy as np
import pytest

from lagflow import schemes
from lagflow.cli import main
from lagflow.scenario import render_config

TINY = {
    "domain": {"x_min": "0.0", "x_max": "1.0", "dx": "0.02", "t_final": "0.1"},
    "model": {
        "velocity": "normalized_greenshields",
        "saturation": "linear",
        "kernel": "constant",
        "kernel_length": "0.1",
        "tau": "0.02",
    },
    "scheme": {"kind": "hw"},
    "datum": {"kind": "box", "height": "0.75", "a": "0.3", "b": "0.6"},
    "output": {"snapshots": "0.05, 0.1"},
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(render_config(TINY), encoding="utf-8")
    return path


def test_run_subcommand_writes_artifacts(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", str(tiny_cfg), "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").is_file()
    assert (out / "manifest.txt").is_file()
    assert (out / "snapshot_t0.05.csv").is_file()
    assert (out / "snapshot_t0.1.csv").is_file()
    assert str(out) in capsys.readouterr().out


def test_run_accepts_preset_names(tmp_path):
    assert main(["run", "riemann_shock", "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "snapshot_t0.5.csv").is_file()


def test_safety_flag_is_recorded_in_manifest(tmp_path):
    out = tmp_path / "half"
    assert main(["run", "riemann_shock", "--out", str(out), "--safety", "0.5"]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "safety = 0.5" in manifest
    assert "dt = 0.00125" in manifest


def test_two_runs_are_byte_identical(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(tiny_cfg), "--out", str(a)]) == 0
    assert main(["run", str(tiny_cfg), "--out", str(b)]) == 0
    for name in ("diagnostics.csv", "manifest.txt", "snapshot_t0.1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_violation_before_a_step_error_exits_two(tiny_cfg, tmp_path, monkeypatch, capsys):
    """Level 1 alternates +-1e308 and level 2 carries a nan: the flush
    after the StepError overflows its row sums and still reports the
    negative density of step 1."""
    steps = iter(range(1, 100))

    def step(rho, *args):
        out = np.zeros_like(rho)
        if next(steps) == 1:
            out[:] = 1e308
            out[1::2] = -1e308
        else:
            out[7] = math.nan
        return schemes._finite(out)

    monkeypatch.setattr(schemes, "hw_step", step)
    assert main(["run", str(tiny_cfg), "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == "invariant violation: step 1: negative density -1e+308\n"


def test_missing_config_is_a_configuration_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "no such scenario" in capsys.readouterr().err


def test_invalid_config_is_a_configuration_error(tmp_path, capsys):
    bad = dict(TINY, model=dict(TINY["model"], tau="-1.0"))
    path = tmp_path / "bad.cfg"
    path.write_text(render_config(bad), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert "tau" in capsys.readouterr().err


def test_non_finite_numbers_are_configuration_errors(tiny_cfg, tmp_path, capsys):
    """inf in a config or a flag is an error line, not an OverflowError."""
    bad = dict(TINY, domain=dict(TINY["domain"], t_final="inf"))
    path = tmp_path / "inf.cfg"
    path.write_text(render_config(bad), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: [domain] t_final: inf is not finite")
    assert main(["stability", str(tiny_cfg), "--tau2", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: [model] tau: inf is not finite")


def test_compare_schemes_subcommand(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare-schemes", str(tiny_cfg), "--ref-dx", "0.01", "--out", str(out)])
    assert code == 0
    assert (out / "report.txt").is_file()
    assert (out / "final_ref.csv").is_file()
    assert "hw_closer" in capsys.readouterr().out


def test_compare_schemes_bad_reference_exits_one(tiny_cfg, capsys):
    assert main(["compare-schemes", str(tiny_cfg), "--ref-dx", "0.013"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("ref_dx", ["0", "-0.0", "nan", "inf"])
def test_compare_schemes_reference_width_not_finite_and_positive_exits_one(tiny_cfg, capsys, ref_dx):
    assert main(["compare-schemes", str(tiny_cfg), "--ref-dx", ref_dx]) == 1
    assert capsys.readouterr().err.startswith("error: ref_dx: dx 0.02 is not a whole positive number")


def test_tau_sweep_subcommand(tiny_cfg, tmp_path):
    out = tmp_path / "sweep"
    assert main(["tau-sweep", str(tiny_cfg), "--taus", "0.04,0.02", "--out", str(out)]) == 0
    assert (out / "distances.csv").is_file()
    assert (out / "tv_tau0.0.csv").is_file()


def test_grid_refine_subcommand(tiny_cfg, tmp_path):
    out = tmp_path / "refine"
    assert main(["grid-refine", str(tiny_cfg), "--levels", "2", "--out", str(out)]) == 0
    assert (out / "differences.csv").is_file()
    assert (out / "levels.csv").is_file()


def test_stability_subcommand_with_perturbation(tiny_cfg, tmp_path):
    out = tmp_path / "stab"
    code = main(
        [
            "stability",
            str(tiny_cfg),
            "--tau2",
            "0.02",
            "--perturb",
            "box,height=0.74,a=0.3,b=0.6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "stability.csv").is_file()


def test_stability_malformed_perturbation_exits_one(tiny_cfg, capsys):
    assert main(["stability", str(tiny_cfg), "--tau2", "0.02", "--perturb", "box,height"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_saturation_study_subcommand(tiny_cfg, tmp_path):
    out = tmp_path / "sat"
    assert main(["saturation-study", str(tiny_cfg), "--out", str(out)]) == 0
    assert (out / "saturation.csv").is_file()
