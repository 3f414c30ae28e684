"""Finite-volume solvers for a 1D non-local traffic model with time delay.

The conservation law is

    d/dt rho + d/dx [ rho f(rho) v((rho * omega)(t - tau, x)) ] = 0,

where omega is a forward-looking averaging kernel, v a decreasing speed
map, f a saturation factor, and tau >= 0 a reaction delay.  The package
provides the Lax-Friedrichs and Hilliges-Weidlich marching schemes with
their lagged convolution speeds and delay history (schemes), a priori
bound constants and a diagnostics engine that checks the model's
provable inequalities at run time (diagnostics), and batch experiment
runners with a command line front end.

The names below are the public API; everything else is imported from its
submodule (lagflow.schemes, lagflow.diagnostics, ...).
"""

from .diagnostics import InvariantViolation
from .model_functions import Kernel, Saturation, Velocity
from .presets import PRESET_NAMES, preset_scenario, write_preset_configs
from .runners import (
    compare_schemes,
    grid_refine,
    resolve_scenario,
    run_scenario,
    saturation_study,
    simulate,
    stability_experiment,
    tau_sweep,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .schemes import FREE_FLOW, HILLIGES_WEIDLICH, LAX_FRIEDRICHS, PERIODIC, StepError

__version__ = "0.1.0"

__all__ = [
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
