"""The benchmark harness runs against the current package."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_layers_name_existing_attributes(monkeypatch):
    """perfbench's tracer wraps vars(owner)[attr] for each entry of
    bench.LAYERS, so a renamed or moved layer function would make
    `perfbench/run.py --trace 1` fail with a KeyError."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    missing = [
        (owner.__name__, attr) for owner, attr, _span in bench.LAYERS if attr not in vars(owner)
    ]
    assert not missing


@pytest.mark.parametrize(
    "workload, trace",
    [(w["name"], 1) for w in BENCHMARK["workloads"]] + [("hw_stopgo", 0)],
)
def test_quick_benchmark_run_is_correct(workload, trace):
    """`perfbench/run.py --quick` reaches everything the benchmark reads of
    the package (schemes.run's signature, ResolvedRun's fields, the
    collector's attributes): the run is correct, no operation fails, and
    every metric BENCHMARK.json lists for the mode is present and finite."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--quick", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    metrics = result["metrics"]
    for metric in BENCHMARK["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        assert name in metrics, name
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
