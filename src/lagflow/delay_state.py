"""Rolling density history and lagged convolution speeds.

The delayed flux at step n reads the density level from step n - h, where
tau = h dt.  A ring buffer of h + 1 levels (n - h .. n) supplies exactly
that level; the buffer starts with h + 1 copies of the initial datum,
which realizes the constant extension of the datum to times in [-tau, 0].

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
    """Ring buffer of the h + 1 most recent density levels.

    levels[0] is the lagged level n - h consumed by the schemes,
    levels[-1] the current level n.
    """

    levels: deque
    boundary: str

    @property
    def lagged(self) -> np.ndarray:
        """Density level from h steps ago."""
        return self.levels[0]

    @property
    def current(self) -> np.ndarray:
        return self.levels[-1]


def init_history(rho0: np.ndarray, h: int, boundary: str = FREE_FLOW) -> DelayedState:
    """Buffer holding h + 1 copies of the initial datum."""
    if h < 0:
        raise ValueError("delay step count must be non-negative")
    if boundary not in BOUNDARY_KINDS:
        raise ValueError(f"unknown boundary kind {boundary!r}")
    rho0 = np.asarray(rho0, dtype=float)
    levels = deque((rho0.copy() for _ in range(h + 1)), maxlen=h + 1)
    return DelayedState(levels=levels, boundary=boundary)


def push_level(state: DelayedState, rho_next: np.ndarray) -> DelayedState:
    """Append the level for step n + 1, evicting the oldest one."""
    rho_next = np.asarray(rho_next, dtype=float)
    if rho_next.shape != state.current.shape:
        raise ValueError("pushed level has wrong length")
    state.levels.append(rho_next)
    return state


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
    """Speed field evaluated on the lagged level n - h."""
    return convolved_speeds(state.lagged, weights, vel, state.boundary)


def speed_increment_bound(vel: Velocity, weights: KernelWeights, rho_sup: float) -> float:
    """Uniform bound 2 sup|v'| sup(omega) rho_sup dx on |V_{j+1} - V_j|.

    Shifting the convolution window by one cell changes the weighted load
    by at most dx * (w[0] rho_sup + sum_k |w[k+1] - w[k]| rho_sup), and the
    non-increasing weights telescope to w[0] <= sup(omega) twice over.
    """
    return 2.0 * vel.d1_sup * weights.sup * rho_sup * weights.dx
