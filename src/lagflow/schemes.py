"""Finite-volume updates, lagged convolution speeds and the delayed time loop.

Both schemes advance the delayed conservation law

    d/dt rho + d/dx ( rho f(rho) v((rho * omega)(t - tau, x)) ) = 0

one step at a time using the lagged speed field V_j = V^{n-h}_j.  With
lam = dt/dx and F(rho) = rho f(rho):

Lax-Friedrichs (viscosity alpha):

    rho'_j = rho_j + (lam alpha / 2) (rho_{j+1} - 2 rho_j + rho_{j-1})
                   - (lam / 2) (F(rho_{j+1}) V_{j+1} - F(rho_{j-1}) V_{j-1})

Hilliges-Weidlich:

    rho'_j = rho_j - lam (rho_j f(rho_{j+1}) V_{j+1} - rho_{j-1} f(rho_j) V_j)

The lagged speed field is the convolution of level max(n - h, 0), where
tau = h dt (the datum is extended as constant in time on [-tau, 0]):

    V_j = v(dx * sum_{k=0}^{N-1} w[k] * rho[j + k]).

Ghost cells, one on each side of a step and N - 1 past the right edge of
the convolution window, follow the boundary rule: free-flow replicates
the first/last cell, periodic wraps.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

import numpy as np

from .discretization import Grid, KernelWeights
from .model_functions import Saturation, Velocity

LAX_FRIEDRICHS = "lf"
HILLIGES_WEIDLICH = "hw"

SCHEME_KINDS = (LAX_FRIEDRICHS, HILLIGES_WEIDLICH)

FREE_FLOW = "free_flow"
PERIODIC = "periodic"

BOUNDARY_KINDS = (FREE_FLOW, PERIODIC)


class StepError(RuntimeError):
    """Non-finite value produced by a scheme step."""


def extend3(values: np.ndarray, boundary: str) -> np.ndarray:
    """values with one ghost cell on each side (replicate or wrap)."""
    if boundary == FREE_FLOW:
        return np.concatenate([values[:1], values, values[-1:]])
    return np.concatenate([values[-1:], values, values[:1]])


def _extended_window(level: np.ndarray, n_ghost: int, boundary: str) -> np.ndarray:
    """Level plus n_ghost cells past the right boundary."""
    if n_ghost == 0:
        return level
    if boundary == FREE_FLOW:
        tail = np.full(n_ghost, level[-1])
    else:
        reps = -(-n_ghost // level.size)
        tail = np.tile(level, reps)[:n_ghost]
    return np.concatenate([level, tail])


def convolved_speeds(
    level: np.ndarray,
    weights: KernelWeights,
    vel: Velocity,
    boundary: str,
) -> np.ndarray:
    """Speeds v(dx * sum_k w[k] rho[j+k]) for one density level."""
    ext = _extended_window(np.asarray(level, dtype=float), weights.n - 1, boundary)
    loads = weights.dx * np.correlate(ext, weights.w, mode="valid")
    return vel(loads)


def init_history(rho0: np.ndarray, h: int, boundary: str = FREE_FLOW) -> deque:
    """Delay history: a deque whose head, the lagged level, is a copy of rho0."""
    if h < 0:
        raise ValueError("delay step count must be non-negative")
    if boundary not in BOUNDARY_KINDS:
        raise ValueError(f"unknown boundary kind {boundary!r}")
    return deque([np.array(rho0, dtype=float)])


def push_level(history: deque, rho_next: np.ndarray) -> None:
    """Append a level that a later step will read as its lagged level."""
    rho_next = np.asarray(rho_next, dtype=float)
    if rho_next.shape != history[0].shape:
        raise ValueError("pushed level has wrong length")
    history.append(rho_next)


def lagged_speeds(
    history: deque,
    weights: KernelWeights,
    vel: Velocity,
    boundary: str,
) -> np.ndarray:
    """Speed field of the lagged level history[0], read-only.

    run reuses one speed field for up to h + 1 steps, so a caller that
    wrote into it would corrupt the steps after it.
    """
    speeds = convolved_speeds(history[0], weights, vel, boundary)
    speeds.flags.writeable = False
    return speeds


def history_bytes(n_cells: int, h: int, n_steps: int) -> int:
    """Bytes of the levels a delay history holds between steps of a run.

    The lagged level plus at most min(h, max(N_T - h, 0)) later levels,
    J float64 values each.
    """
    return (min(h, max(n_steps - h, 0)) + 1) * n_cells * 8


def _finite(out: np.ndarray) -> np.ndarray:
    """out, or StepError naming its first non-finite cell.

    NaN and inf carry through a sum, so the cells are scanned only when
    the sum of out is not finite; a finite level whose sum overflows is
    scanned and passes.
    """
    if not math.isfinite(np.sum(out)):
        finite = np.isfinite(out)
        if not finite.all():
            raise StepError(f"non-finite density in cell {int(np.argmin(finite))}")
    return out


def lf_step(
    rho: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    alpha: float,
    sat: Saturation,
    boundary: str,
) -> np.ndarray:
    """One Lax-Friedrichs update of the whole level."""
    r = extend3(rho, boundary)
    v = extend3(v_lag, boundary)
    with np.errstate(invalid="ignore", over="ignore"):
        flux = r * sat(r) * v
        out = rho + 0.5 * lam * (
            alpha * (r[2:] - 2.0 * rho + r[:-2]) - (flux[2:] - flux[:-2])
        )
        return _finite(out)


def hw_step(
    rho: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    sat: Saturation,
    boundary: str,
) -> np.ndarray:
    """One Hilliges-Weidlich update of the whole level.

    The interface flux rho_j f(rho_{j+1}) V_{j+1} is non-negative whenever
    the level is, so no numerical viscosity is needed.
    """
    r = extend3(rho, boundary)
    v = extend3(v_lag, boundary)
    with np.errstate(invalid="ignore", over="ignore"):
        # flux[j] = flux through the right interface of (extended) cell j
        flux = r[:-1] * sat(r[1:]) * v[1:]
        out = rho - lam * (flux[1:] - flux[:-1])
        return _finite(out)


def step_count(t_final: float, dt: float) -> int:
    """Largest N with N dt <= t_final, tolerating float rounding in t/dt."""
    if t_final < 0:
        raise ValueError("final time must be non-negative")
    return int(np.floor(t_final / dt + 1e-9))


def run(
    grid: Grid,
    weights: KernelWeights,
    vel: Velocity,
    sat: Saturation,
    scheme: str,
    rho0: np.ndarray,
    t_final: float,
    boundary: str = FREE_FLOW,
    observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Advance the projected datum to N_T dt with N_T dt <= t_final.

    The observer, if given, is called as observer(n, level, v_lag) once
    before the loop (n = 0) and after each step n = 1..N_T, where level is
    the density at step n and v_lag the speed field V^{n-h} of the level
    of call max(n - h, 0), which the NEXT step will consume.  A stateful
    observer that remembers the previous call therefore holds exactly the
    (level, speeds) pair that produced the current level.

    This loop owns the delay schedule.  Every step up to h reads the
    datum's speeds; the history deque holds the lagged level at its head
    and, behind it, the levels a later step will read.  Level n is pushed
    only when n <= N_T - h, since no step reads a later one, and the head
    is popped only when n > h, so between steps the history holds at most
    min(h, max(N_T - h, 0)) + 1 levels (history_bytes).  The speeds are
    recomputed only when the head moves: consecutive calls share one
    read-only v_lag array exactly while they share the lagged level, so an
    observer may treat the same v_lag object as the same field.
    """
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == LAX_FRIEDRICHS and grid.alpha is None:
        raise ValueError("Lax-Friedrichs needs the grid's viscosity alpha")
    rho = np.asarray(rho0, dtype=float).copy()
    if rho.size != grid.n_cells:
        raise ValueError("initial level length does not match the grid")
    h = grid.delay_steps
    history = init_history(rho, h, boundary)
    n_steps = step_count(t_final, grid.dt)
    lam = grid.lam
    v_lag = lagged_speeds(history, weights, vel, boundary)
    if observer is not None:
        observer(0, rho, v_lag)
    for n in range(1, n_steps + 1):
        try:
            if scheme == LAX_FRIEDRICHS:
                rho = lf_step(rho, v_lag, lam, grid.alpha, sat, boundary)
            else:
                rho = hw_step(rho, v_lag, lam, sat, boundary)
        except StepError as exc:
            raise StepError(f"step {n}: {exc}") from exc
        if n <= n_steps - h:
            push_level(history, rho)
        if n > h:
            history.popleft()
            v_lag = lagged_speeds(history, weights, vel, boundary)
        if observer is not None:
            observer(n, rho, v_lag)
    return rho
