"""The benchmark's layer tracer finds every function it is told to wrap."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
