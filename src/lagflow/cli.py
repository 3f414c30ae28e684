"""Command line front end for scenario runs and paper-style studies.

Subcommands:
  run <config>                          simulate and write artifacts
  compare-schemes <config> --ref-dx V   LF/HW distance to a fine reference
  tau-sweep <config> --taus A,B,...     delay-to-zero convergence study
  grid-refine <config> --levels N       successive dx halvings
  stability <config> --tau2 V [--perturb SPEC]
                                        two-run L1 distance vs bound
  saturation-study <config>             max density per saturation variant

<config> is a path to a scenario file, or the name of a built-in preset.
Global flags: --out DIR (output directory), --stride STEPS (diagnostics
row spacing), --safety V (CFL safety factor override).

Exit codes: 0 all asserted invariants passed; 2 an invariant was
violated; 1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .diagnostics import InvariantViolation
from .presets import PRESET_NAMES, preset_scenario
from .runners import (
    compare_schemes,
    grid_refine,
    run_scenario,
    saturation_study,
    stability_experiment,
    tau_sweep,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .schemes import StepError

__all__ = ["main", "build_parser"]


def _load(config: str) -> Scenario:
    if config in PRESET_NAMES:
        return preset_scenario(config)
    path = Path(config)
    if not path.exists():
        raise ScenarioError(
            f"no such scenario file or preset: {config!r} "
            f"(presets: {', '.join(PRESET_NAMES)})"
        )
    return load_scenario(path)


def _parse_perturbation(spec: str) -> tuple[str, dict]:
    """Parse 'kind,key=value,...' into a datum kind and parameters."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise ScenarioError("empty perturbation spec")
    kind, params = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ScenarioError(
                f"perturbation parameter {part!r} is not of the form key=value"
            )
        key, _, raw = part.partition("=")
        try:
            params[key.strip()] = float(raw)
        except ValueError as exc:
            raise ScenarioError(
                f"perturbation parameter {key.strip()!r} has non-numeric "
                f"value {raw!r}"
            ) from exc
    return kind, params


def _parse_taus(spec: str) -> list[float]:
    try:
        return [float(p) for p in spec.replace(",", " ").split()]
    except ValueError as exc:
        raise ScenarioError(f"could not parse delay list {spec!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagflow",
        description="finite-volume runs for the delayed non-local traffic model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario file path or preset name")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--stride", type=int, default=None, help="steps between diagnostics rows"
        )
        p.add_argument(
            "--safety", type=float, default=None, help="CFL safety factor override"
        )
        return p

    add("run", "simulate one scenario, write snapshots and diagnostics")
    p = add("compare-schemes", "L1 distance of both schemes to a fine LF reference")
    p.add_argument("--ref-dx", type=float, required=True, help="reference cell width")
    p = add("tau-sweep", "distances to the zero-delay run for each delay")
    p.add_argument("--taus", required=True, help="comma-separated delays")
    p = add("grid-refine", "successive L1 differences under dx halving")
    p.add_argument("--levels", type=int, required=True, help="number of halvings + 1")
    p = add("stability", "two-run distance against the stability estimate")
    p.add_argument("--tau2", type=float, required=True, help="second run's delay")
    p.add_argument(
        "--perturb",
        default=None,
        help="second run's datum as 'kind,key=value,...' (default: same datum)",
    )
    add("saturation-study", "max density without and with saturation")
    return parser


def _default_out(scenario: Scenario, command: str) -> str:
    return scenario.out_dir if command == "run" else f"{scenario.out_dir}_{command.replace('-', '_')}"


def _dispatch(args: argparse.Namespace) -> None:
    overrides = {"stride": args.stride, "safety": args.safety}
    scenario = dataclasses.replace(
        _load(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    out = args.out if args.out is not None else _default_out(scenario, args.command)
    if args.command == "run":
        run_scenario(scenario, out)
        print(f"run complete: {out}")
    elif args.command == "compare-schemes":
        report = compare_schemes(scenario, args.ref_dx, out)
        print(
            f"l1 to reference: lf={report['l1_lf_vs_ref']!r} "
            f"hw={report['l1_hw_vs_ref']!r} hw_closer={report['hw_closer']}"
        )
    elif args.command == "tau-sweep":
        report = tau_sweep(scenario, _parse_taus(args.taus), out)
        for tau in report["taus"]:
            print(
                f"tau={tau!r}: l1_to_zero_delay="
                f"{report['distance_to_zero_delay'][tau]!r} "
                f"tv_final={report['tv_at_final_time'][tau]!r}"
            )
    elif args.command == "grid-refine":
        report = grid_refine(scenario, args.levels, out)
        for dx, diff in zip(
            report["widths"], report["successive_l1_differences"]
        ):
            print(f"dx={dx!r}: l1_difference_to_halved={diff!r}")
    elif args.command == "stability":
        perturbation = (
            _parse_perturbation(args.perturb) if args.perturb is not None else None
        )
        report = stability_experiment(scenario, args.tau2, perturbation, out)
        for t, measured, bound in report["rows"]:
            print(f"t={t!r}: measured={measured!r} bound={bound!r}")
    elif args.command == "saturation-study":
        report = saturation_study(scenario, out)
        for name, row in report["variants"].items():
            print(
                f"{name}: max_density={row['max_density']!r} "
                f"exceeds_ceiling={row['exceeds_ceiling']}"
            )
    else:  # pragma: no cover - argparse enforces the choices
        raise ScenarioError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, StepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
