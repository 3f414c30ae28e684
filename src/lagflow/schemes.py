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

run marches on a Workspace built once per run: the ghost-extended level,
f on it, the fluxes, a difference buffer and the convolution window are
rewritten in place with out= ufuncs, in the order the fresh-array
expressions above evaluate, so the levels keep their bits.  Two kinds of
array stay fresh: each new level, which the delay history may hold, and
each speed field, which up to h + 1 steps and the observer share.
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


class Workspace:
    """Buffers one march reuses every step, and its floating-point error state.

    Sized from J cells and K kernel weights: the ghost-extended level r,
    f(r) and the fluxes (J + 2 cells each), a difference buffer (J) and the
    convolution window (J + K - 1).  Entered as a context manager, it
    ignores invalid and overflowing floating-point operations; the
    non-finite guard (_finite) reports their results instead.
    """

    def __init__(self, n_cells: int, n_weights: int, boundary: str) -> None:
        if boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {boundary!r}")
        self.boundary = boundary
        self.r, self.f, self.flux = np.empty((3, n_cells + 2))
        self.diff = np.empty(n_cells)
        self.window = np.empty(n_cells + n_weights - 1)
        # periodic: window cell J + k holds level cell k mod J
        self.wrap = np.arange(n_weights - 1)
        self._errstate = np.errstate(invalid="ignore", over="ignore")

    def __enter__(self) -> "Workspace":
        self._errstate.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._errstate.__exit__(*exc)


def _fill_ghosts(ext: np.ndarray, boundary: str) -> np.ndarray:
    """ext with its two ghost cells set from ext[1:-1] (replicate or wrap)."""
    if boundary == FREE_FLOW:
        ext[0], ext[-1] = ext[1], ext[-2]
    else:
        ext[0], ext[-1] = ext[-2], ext[1]
    return ext


def extend3(values: np.ndarray, boundary: str, out: np.ndarray | None = None) -> np.ndarray:
    """values with one ghost cell on each side, written into out when given."""
    if out is None:
        out = np.empty(len(values) + 2)
    out[1:-1] = values
    return _fill_ghosts(out, boundary)


def init_history(rho0: np.ndarray, h: int) -> deque:
    """Delay history: a deque whose head, the lagged level, is a copy of rho0."""
    if h < 0:
        raise ValueError("delay step count must be non-negative")
    return deque([np.array(rho0, dtype=float)])


def push_level(history: deque, rho_next: np.ndarray) -> None:
    """Append a level that a later step will read as its lagged level."""
    rho_next = np.asarray(rho_next, dtype=float)
    if rho_next.shape != history[0].shape:
        raise ValueError("pushed level has wrong length")
    history.append(rho_next)


def lagged_speeds(
    level: np.ndarray,
    weights: KernelWeights,
    vel: Velocity,
    work: Workspace,
) -> np.ndarray:
    """Speeds v(dx * sum_k w[k] rho[j+k]) of one level with their ghost
    cells: a fresh, read-only array of J + 2 cells.

    run reuses one speed field for up to h + 1 steps, so a caller that
    wrote into it would corrupt the steps after it.
    """
    n = len(level)
    window = work.window
    window[:n] = level
    if work.boundary == FREE_FLOW:
        window[n:] = window[n - 1]
    else:
        np.take(level, work.wrap, mode="wrap", out=window[n:])
    loads = np.correlate(window, weights.w, mode="valid")
    np.multiply(weights.dx, loads, out=loads)
    speeds = np.empty(n + 2)
    vel(loads, out=speeds[1:-1])
    _fill_ghosts(speeds, work.boundary)
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
    if not math.isfinite(np.add.reduce(out)):
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
    work: Workspace,
) -> np.ndarray:
    """One Lax-Friedrichs update of the whole level, a fresh array.

    v_lag is the speed field with its ghost cells (lagged_speeds).
    """
    r = extend3(rho, work.boundary, out=work.r)
    f, flux, diff = work.f, work.flux, work.diff
    np.multiply(r, sat(r, out=f), out=flux)
    flux *= v_lag
    # rho + (lam / 2) (alpha (r[2:] - 2 rho + r[:-2]) - (flux[2:] - flux[:-2]))
    np.multiply(2.0, rho, out=diff)
    np.subtract(r[2:], diff, out=diff)
    diff += r[:-2]
    diff *= alpha
    # f is spent once the fluxes are formed; it takes their difference
    diff -= np.subtract(flux[2:], flux[:-2], out=f[2:])
    diff *= 0.5 * lam
    return _finite(np.add(rho, diff))


def hw_step(
    rho: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    sat: Saturation,
    work: Workspace,
) -> np.ndarray:
    """One Hilliges-Weidlich update of the whole level, a fresh array.

    v_lag is the speed field with its ghost cells (lagged_speeds).  The
    interface flux rho_j f(rho_{j+1}) V_{j+1} is non-negative whenever
    the level is, so no numerical viscosity is needed.
    """
    r = extend3(rho, work.boundary, out=work.r)
    # flux[j] = flux through the right interface of (extended) cell j
    flux, diff = work.flux[:-1], work.diff
    np.multiply(r[:-1], sat(r[1:], out=work.f[1:]), out=flux)
    flux *= v_lag[1:]
    np.subtract(flux[1:], flux[:-1], out=diff)
    diff *= lam
    return _finite(np.subtract(rho, diff))


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
    read-only v_lag array (the J cells of the speed field the steps read
    with its ghost cells) exactly while they share the lagged level, so an
    observer may treat the same v_lag object as the same field.  The
    observer runs inside the workspace's floating-point error state.
    """
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == LAX_FRIEDRICHS and grid.alpha is None:
        raise ValueError("Lax-Friedrichs needs the grid's viscosity alpha")
    rho = np.asarray(rho0, dtype=float).copy()
    if rho.size != grid.n_cells:
        raise ValueError("initial level length does not match the grid")
    h = grid.delay_steps
    history = init_history(rho, h)
    n_steps = step_count(t_final, grid.dt)
    lam = grid.lam
    with Workspace(rho.size, weights.n, boundary) as work:
        speeds = lagged_speeds(history[0], weights, vel, work)
        v_lag = speeds[1:-1]
        if observer is not None:
            observer(0, rho, v_lag)
        for n in range(1, n_steps + 1):
            try:
                if scheme == LAX_FRIEDRICHS:
                    rho = lf_step(rho, speeds, lam, grid.alpha, sat, work)
                else:
                    rho = hw_step(rho, speeds, lam, sat, work)
            except StepError as exc:
                raise StepError(f"step {n}: {exc}") from exc
            if n <= n_steps - h:
                push_level(history, rho)
            if n > h:
                history.popleft()
                speeds = lagged_speeds(history[0], weights, vel, work)
                v_lag = speeds[1:-1]
            if observer is not None:
                observer(n, rho, v_lag)
    return rho
