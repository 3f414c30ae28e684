"""Run every lagflow benchmark workload and print one report.

    python3 perfbench/suite.py [--seed N] [--out FILE]
    python3 perfbench/suite.py --check          # quick self-check, a few seconds
    python3 perfbench/suite.py --table FILE     # the baseline table of a saved report

Run it from the root of a lagflow checkout.  Each workload runs twice, one
after another and each in a fresh process: untraced for the end-to-end
metrics, then traced for the per-layer metrics.  The report lists every
metric with its unit, the sample counts and machine facts that run.py
prints, and a table of ``simulate_s`` against a bare ``schemes.run`` per
workload.  Both columns of the table come from the traced run, which times
an untraced ``simulate`` and a bare ``schemes.run`` in alternation, so they
see the same machine conditions; the end-to-end ``simulate_s`` comes from
another process and is not paired with them.  The raw results are saved as
JSON (default ``.perfbench_out/suite.json``); ``baseline.json`` next to
this file is such a report for seed 0.

Tier-1 test wall time is not part of the benchmark: at about 209 s on a
2-core machine it cannot be repeated the 22 times per workload that a
regression check needs.

``--check`` runs each workload at reduced size (``run.py --quick``) for one
second per mode and fails unless every metric that BENCHMARK.json names is
present with its unit and a finite value and every run checked out
correct.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lf_box_delay", "hw_stopgo", "hw_refine_j4000")
TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One run.py process; its result, report lines and facts."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(trace),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    facts = next(
        json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("  facts:")
    )
    return {"result": json.loads(lines[-1]), "report": lines[:-1], "facts": facts}


def table(runs: dict) -> list[str]:
    """simulate_s against the bare march, one row per workload."""
    rows = [
        "| workload | preset | scheme | J | N_T | h | simulate_s | bare schemes.run "
        "| overhead ratio |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, pair in runs.items():
        facts = pair["trace1"]["facts"]
        layer = pair["trace1"]["result"]["metrics"]
        rows.append(
            f"| {name} | {facts['preset']} | {facts['scheme']} | {facts['J']} | {facts['N_T']} "
            f"| {facts['h']} | {layer['trace.untraced_simulate_s']['value']:.3f} s "
            f"| {layer['schemes.bare_run_s']['value']:.3f} s "
            f"| {layer['diagnostics.overhead_ratio']['value']:.2f} |"
        )
    return rows


def problems_of(runs: dict, spec: dict) -> list[str]:
    """Named metrics missing, with the wrong unit or not finite; failed runs."""
    found = []
    for name, pair in runs.items():
        for mode, key in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            result = pair[mode]["result"]
            if not result["correct"] or result["failed"]:
                found.append(f"{name} {mode}: {result['failed']} of {result['attempted']} failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    found.append(f"{name} {mode}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    found.append(f"{name} {mode}: {metric['name']} unit {got.get('unit')!r}")
                elif not math.isfinite(got.get("value", math.nan)):
                    found.append(f"{name} {mode}: {metric['name']} = {got.get('value')}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out" / "suite.json")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--table", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.table is not None:
        print("\n".join(table(json.loads(args.table.read_text(encoding="utf-8"))["runs"])))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = 1.0 if args.check else float(spec["run_seconds"])
    runs = {}
    for name in WORKLOADS:
        runs[name] = {
            f"trace{trace}": run_one(name, args.seed, seconds, trace, args.check)
            for trace in (0, 1)
        }
        for trace in (0, 1):
            print("\n".join(runs[name][f"trace{trace}"]["report"]), flush=True)
    found = problems_of(runs, spec)
    if args.check:
        for problem in found:
            print(f"CHECK FAILED: {problem}")
        print("self-check " + ("failed" if found else "passed"))
        return 1 if found else 0

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps({"seed": args.seed, "seconds": seconds, "runs": runs}, indent=1),
        encoding="utf-8",
    )
    print()
    print("\n".join(table(runs)))
    print("Tier-1 test wall time is not measured (about 209 s; see suite.py).")
    for problem in found:
        print(f"FAILED: {problem}")
    print(f"results saved to {args.out}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
