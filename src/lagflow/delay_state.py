"""Lagged density level, the queue of levels still to be read, and speeds.

The delayed flux reads the speed field of level max(n - h, 0), where
tau = h dt: the datum is extended as constant in time on [-tau, 0].  So
every step up to h reads the speeds of the initial datum, and with N_T
steps no level after N_T - h is ever read.  The history therefore holds
the current lagged level plus a FIFO of the pushed levels that a later
step will read; ``schemes.run`` pushes level n only when n <= N_T - h and
advances the lagged level only when n > h.  Between steps it holds at
most min(h, max(N_T - h, 0)) + 1 levels (``history_bytes``).

The convolution speed of cell j is

    V_j = v(dx * sum_{k=0}^{N-1} w[k] * rho[j + k]),

with the level extended past the right boundary by cell replication
(free-flow) or index wrapping (periodic).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .discretization import KernelWeights
from .model_functions import Velocity

FREE_FLOW = "free_flow"
PERIODIC = "periodic"

BOUNDARY_KINDS = (FREE_FLOW, PERIODIC)


@dataclass
class DelayedState:
    """Lagged density level plus the pushed levels a later step will read.

    lagged is the level max(n - h, 0) whose speeds the next step reads;
    queue holds the pushed levels, oldest first, that become lagged in
    turn as ``advance`` is called.
    """

    lagged: np.ndarray
    queue: deque
    boundary: str

    def advance(self) -> None:
        """Make the oldest queued level the lagged one."""
        self.lagged = self.queue.popleft()


def init_history(rho0: np.ndarray, h: int, boundary: str = FREE_FLOW) -> DelayedState:
    """History whose lagged level is the initial datum and whose queue is empty."""
    if h < 0:
        raise ValueError("delay step count must be non-negative")
    if boundary not in BOUNDARY_KINDS:
        raise ValueError(f"unknown boundary kind {boundary!r}")
    return DelayedState(lagged=np.array(rho0, dtype=float), queue=deque(), boundary=boundary)


def push_level(state: DelayedState, rho_next: np.ndarray) -> DelayedState:
    """Queue a level that a later step will read as its lagged level."""
    rho_next = np.asarray(rho_next, dtype=float)
    if rho_next.shape != state.lagged.shape:
        raise ValueError("pushed level has wrong length")
    state.queue.append(rho_next)
    return state


def history_bytes(n_cells: int, h: int, n_steps: int) -> int:
    """Bytes of the levels a delay history holds between steps of a run.

    The lagged level plus at most min(h, max(N_T - h, 0)) queued levels,
    J float64 values each.
    """
    return (min(h, max(n_steps - h, 0)) + 1) * n_cells * 8


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


def lagged_speeds(
    state: DelayedState,
    weights: KernelWeights,
    vel: Velocity,
) -> np.ndarray:
    """Speed field of the lagged level, read-only.

    schemes.run reuses one speed field for up to h + 1 steps, so a caller
    that wrote into it would corrupt the steps after it.
    """
    speeds = convolved_speeds(state.lagged, weights, vel, state.boundary)
    speeds.flags.writeable = False
    return speeds


def speed_increment_bound(vel: Velocity, weights: KernelWeights, rho_sup: float) -> float:
    """Uniform bound 2 sup|v'| sup(omega) rho_sup dx on |V_{j+1} - V_j|.

    Shifting the convolution window by one cell changes the weighted load
    by at most dx * (w[0] rho_sup + sum_k |w[k+1] - w[k]| rho_sup), and the
    non-increasing weights telescope to w[0] <= sup(omega) twice over.
    """
    return 2.0 * vel.d1_sup * weights.sup * rho_sup * weights.dx
