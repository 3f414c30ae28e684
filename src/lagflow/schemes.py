"""Finite-volume updates, lagged convolution speeds and the delayed time loop.

Both schemes advance the delayed conservation law

    d/dt rho + d/dx ( rho f(rho) v((rho * omega)(t - tau, x)) ) = 0

one step at a time using the lagged speed field V_j = V^{n-h}_j.  With
lam = dt/dx and F(rho) = rho f(rho), update writes both; lf_step, hw_step
and the entropy check (diagnostics.EntropyBlock) all call it:

Lax-Friedrichs (viscosity alpha):

    rho'_j = rho_j + (lam alpha / 2) (rho_{j+1} - 2 rho_j + rho_{j-1})
                   - (lam / 2) (F(rho_{j+1}) V_{j+1} - F(rho_{j-1}) V_{j-1})

Hilliges-Weidlich:

    rho'_j = rho_j - lam (rho_j f(rho_{j+1}) V_{j+1} - rho_{j-1} f(rho_j) V_j)

The lagged speed field is the convolution of level max(n - h, 0), where
tau = h dt (the datum is extended as constant in time on [-tau, 0]):

    V_j = v(dx * sum_{k=0}^{N-1} w[k] * rho[j + k]).

Since a step reads the level h steps back, the next b <= h lagged levels
are already in the history when the head moves, and lagged_speeds builds
their fields as the rows of one block: one np.correlate per level, over
the loads whose window meets its history entry's cells (the others load
+0.0 and cost none), then one dx scale, one velocity call and one ghost
fill for all b.

Ghost cells, one on each side of a step and N - 1 past the right edge of
the convolution window, follow the boundary rule: free-flow replicates
the first/last cell, periodic wraps.

run marches on a Workspace built once per run: the ghost-extended level,
f on it (then the fluxes), a difference buffer and the convolution window
are rewritten in place with out= ufuncs, in the order the fresh-array
expressions above evaluate, so the levels keep their bits; a step computes
only the cells around the nonzero ones (see run).  Two kinds of array stay
fresh: each new level, which the delay history may hold (only its cells
around the nonzero ones, as an (offset, values) entry), and each block
of speed fields, whose rows up to h + 1 steps and the observer share.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .discretization import Grid, KernelWeights
from .model_functions import Saturation, Velocity

LAX_FRIEDRICHS = "lf"
HILLIGES_WEIDLICH = "hw"

SCHEME_KINDS = (LAX_FRIEDRICHS, HILLIGES_WEIDLICH)

FREE_FLOW = "free_flow"
PERIODIC = "periodic"

BOUNDARY_KINDS = (FREE_FLOW, PERIODIC)

#: Sizes the blocks: b = speed_rows(J, h) rows of J + 2 float64 cells, and
#: diagnostics.block_rows's B0 = BLOCK_BYTES // 8 J rows of J cells, which a
#: run that only reports entropy doubles (see diagnostics.block_bytes).
BLOCK_BYTES = 1 << 17


class StepError(RuntimeError):
    """Non-finite value produced by a scheme step."""


class Workspace:
    """Buffers one march reuses every step.

    Sized from J cells and K kernel weights: the ghost-extended level r,
    f(r), then the fluxes (J + 2 cells each), a difference buffer (J; a
    step on a slice uses the leading cells of these three) and the
    convolution window (J + K - 1).
    """

    def __init__(self, n_cells: int, n_weights: int, boundary: str) -> None:
        if boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {boundary!r}")
        self.boundary = boundary
        self.r, self.f = np.empty((2, n_cells + 2))
        self.diff = np.empty(n_cells)
        self.window = np.empty(n_cells + n_weights - 1)
        # periodic: window cell J + k holds level cell k mod J
        self.wrap = np.arange(n_weights - 1)


def _fill_ghosts(ext: np.ndarray, boundary: str) -> np.ndarray:
    """ext with its two ghost cells set from ext[1:-1] (replicate or wrap);
    a block whose rows are extended levels passes its transpose."""
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


class _History(deque):
    """A deque of (offset, values) entries of levels of n_cells cells."""


def init_history(rho0: np.ndarray, a: int = 0, b: int | None = None) -> deque:
    """Delay history: a deque whose head, the lagged level, is the entry
    (a, a copy of rho0's cells [a, b)) (b None: J); every cell of rho0
    outside [a, b) must be +0.0."""
    rho0 = np.asarray(rho0, dtype=float)
    history = _History([(a, rho0[a:b].copy())])
    history.n_cells = len(rho0)
    return history


def push_level(history: deque, rho_next: np.ndarray, a: int = 0, b: int | None = None) -> None:
    """Append a level that a later step will read as its lagged level: the
    entry (a, a copy of its cells [a, b)), whose other cells must be +0.0,
    or (0, rho_next) itself, uncopied, when b is None."""
    rho_next = np.asarray(rho_next, dtype=float)
    if rho_next.shape != (history.n_cells,):
        raise ValueError("pushed level has wrong length")
    history.append((0, rho_next) if b is None else (a, rho_next[a:b].copy()))


def lagged_speeds(
    entries: Sequence[tuple[int, np.ndarray]],
    weights: KernelWeights,
    vel: Velocity,
    work: Workspace,
) -> np.ndarray:
    """Speeds v(dx * sum_k w[k] rho[j+k]) of b levels with their ghost
    cells: the read-only rows of a fresh (b, J + 2) block.

    Each level comes as a history entry (a, values): the level whose cells
    from a on are values and whose others are +0.0.  The entry bounds the
    level's nonzero cells, so one np.correlate per entry, over
    window[lo : hi + K - 1], gives the loads lo = max(0, a - K + 1) to
    hi = a + len(values) with no scan; hi = J for a periodic entry with
    a < K - 1, whose wrapped tail meets it, and a whole entry (0, level)
    takes the whole window.  The other loads are +0.0, and an empty entry
    calls none.  Each "valid" output of np.correlate is its own dot
    product of window[j : j + K] with w, and NumPy's double dot starts its
    sum at +0.0, so the loads keep their bits, +0.0 on all +-0 windows
    too.  The dx scale, the velocity law and the ghost cells then run once
    on the whole block, elementwise, so every row has the bits a one-level
    call gives.  run reuses one speed field for up to h + 1 steps, so a
    caller that wrote into it would corrupt the steps after it.
    """
    n = len(work.diff)
    block = np.empty((len(entries), n + 2))
    loads = block[:, 1:-1]
    window, w, k = work.window, weights.w, weights.n
    free, head = work.boundary == FREE_FLOW, window[:n]
    for (a, level), load in zip(entries, loads):
        if not len(level):
            load.fill(0.0)
            continue
        if len(level) < n:
            head.fill(0.0)
            head[a : a + len(level)] = level
        else:
            head[:] = level
        if free:
            window[n:] = window[n - 1]
        else:
            np.take(head, work.wrap, mode="wrap", out=window[n:])
        lo, hi = max(0, a - k + 1), a + len(level)
        if not free and a < k - 1:
            hi = n
        load[:lo] = load[hi:] = 0.0
        load[lo:hi] = np.correlate(window[lo : hi + k - 1], w, mode="valid")
    np.multiply(weights.dx, loads, out=loads)
    vel(loads, out=loads)
    _fill_ghosts(block.T, work.boundary)
    block.flags.writeable = False
    return block


def speed_rows(n_cells: int, h: int) -> int:
    """Most levels run convolves in one lagged_speeds call: as many J + 2
    cell float64 rows as BLOCK_BYTES holds, at most h and at least one."""
    return max(1, min(h, BLOCK_BYTES // (8 * (n_cells + 2))))


def history_bytes(n_cells: int, h: int, n_steps: int) -> int:
    """Most bytes a delay history can hold between steps of a run: the
    lagged level plus at most min(h, max(N_T - h, 0)) later levels, J
    float64 values each, as if every entry were a whole level.
    """
    return (min(h, max(n_steps - h, 0)) + 1) * n_cells * 8


def _finite(out: np.ndarray, first: int = 0) -> np.ndarray:
    """out, or StepError naming its first non-finite cell, out[0] being cell first.

    NaN and inf carry through a sum, so the cells are scanned only when
    the sum of out is not finite; a finite level whose sum overflows is
    scanned and passes.
    """
    if not math.isfinite(np.add.reduce(out)):
        finite = np.isfinite(out)
        if not finite.all():
            raise StepError(f"non-finite density in cell {first + int(np.argmin(finite))}")
    return out


def update(
    scheme: str, rho: np.ndarray, v: np.ndarray, lam: float, alpha: float | None,
    sat: Saturation, boundary: str, r: np.ndarray, f: np.ndarray, d: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One step of the scheme from rho and the speed field v, written into out.

    Cell by cell along axis 0: B steps pass the (J, B) transposes of rows.
    r takes the extended level and f takes f(r), then the fluxes (J + 2
    cells each, as v); d takes the differences.  out may not alias rho or d.
    """
    extend3(rho, boundary, out=r)
    if scheme == LAX_FRIEDRICHS:
        # f = F(r) V; rho + (lam / 2) (alpha (r[2:] - 2 rho + r[:-2]) - (f[2:] - f[:-2]))
        sat(r, out=f)
        f *= r
        f *= v
        np.multiply(2.0, rho, out=d)
        np.subtract(r[2:], d, out=d)
        d += r[:-2]
        d *= alpha
        d -= np.subtract(f[2:], f[:-2], out=out)
        d *= 0.5 * lam
        return np.add(rho, d, out=out)
    # f[k] = r_{k-1} f(r_k) V_k, the flux through the left edge of extended cell k
    sat(r[1:], out=f[1:])
    f[1:] *= r[:-1]
    f[1:] *= v[1:]
    np.subtract(f[2:], f[1:-1], out=d)
    d *= lam
    return np.subtract(rho, d, out=out)


def _step(
    scheme: str, rho: np.ndarray, v_lag: np.ndarray, lam: float, alpha: float | None,
    sat: Saturation, work: Workspace, a: int, b: int | None,
) -> np.ndarray:
    """update of the whole level as a fresh array, computed on the cells
    [a, b) only (b None: J) and +0.0 on the others (see run).  The whole
    level goes unsliced: six slices add about 1 of 11 us per step at J =
    344 (numpy 2.4, 2-core x86), 7 % of a march on whole levels."""
    n = len(rho)
    b = n if b is None else b
    if b - a == n:
        return _finite(update(scheme, rho, v_lag, lam, alpha, sat, work.boundary,
                              work.r, work.f, work.diff, np.empty(n)))
    m, out = b - a + 2, np.zeros(n)
    _finite(update(scheme, rho[a:b], v_lag[a : b + 2], lam, alpha, sat, work.boundary,
                   work.r[:m], work.f[:m], work.diff[: m - 2], out[a:b]), a)
    return out


def lf_step(
    rho: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    alpha: float,
    sat: Saturation,
    work: Workspace,
    a: int = 0,
    b: int | None = None,
) -> np.ndarray:
    """One Lax-Friedrichs update of the whole level, a fresh array (_step).

    v_lag is the speed field with its ghost cells (lagged_speeds).
    """
    return _step(LAX_FRIEDRICHS, rho, v_lag, lam, alpha, sat, work, a, b)


def hw_step(
    rho: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    sat: Saturation,
    work: Workspace,
    a: int = 0,
    b: int | None = None,
) -> np.ndarray:
    """One Hilliges-Weidlich update of the whole level, a fresh array (_step).

    v_lag is the speed field with its ghost cells (lagged_speeds).  The
    interface flux rho_j f(rho_{j+1}) V_{j+1} is non-negative whenever
    the level is, so no numerical viscosity is needed.
    """
    return _step(HILLIGES_WEIDLICH, rho, v_lag, lam, None, sat, work, a, b)


def step_count(t_final: float, dt: float) -> int:
    """Largest N with N dt <= t_final, tolerating float rounding in t/dt."""
    if t_final < 0:
        raise ValueError("final time must be non-negative")
    return int(np.floor(t_final / dt + 1e-9))


@np.errstate(all="ignore")
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

    The observer, if given, is called as observer(n, level, speeds) once
    before the first step (n = 0) and after each step n = 1..N_T, where
    level is the density at step n and speeds the speed field V^{n-h} of
    the level of call max(n - h, 0), which the NEXT step will consume.  A
    stateful observer that remembers the previous call therefore holds
    exactly the (level, speeds) pair that produced the current level.

    This loop owns the delay schedule.  Every step up to h reads the
    datum's speeds; the history deque holds the lagged level at its head
    and, behind it, the levels a later step will read.  Level n is pushed
    only when n <= N_T - h, since no step reads a later one, and the head
    is popped only when n > h, so between steps the history holds at most
    min(h, max(N_T - h, 0)) + 1 levels (history_bytes).  Each entry is
    (a, a copy of the level's cells [a, b)) for the slice below, or (0,
    level) itself once the slice is the whole level.  A new speed field
    is taken only when the head moves: consecutive calls share one
    read-only speeds array (a J + 2 cell row view that lagged_speeds
    built, ghost cells included, which the steps read) exactly while they
    share the lagged level.  The fields come a block at a time: the
    levels behind the head are already in the history, so whenever the
    queue of fields runs out, lagged_speeds convolves the first
    min(speed_rows(J, h), len(history)) of them in one call and the queue
    hands out one row per lagged level.  At most two blocks are live, the
    one being handed out and the one holding the previous field.

    The whole march, observer included, ignores every kind of
    floating-point exception, whatever the caller's error state: a level
    that is not finite raises StepError (_finite) instead.

    The steps compute only the slice [a, b) of the level, whose end cells
    and every cell outside it have bit pattern 0 (+0.0; -0.0 counts as
    nonzero) unless it is the whole level [0, J).  lf_step and hw_step
    write +0.0 outside it, the bits of a whole-level step: update is
    elementwise; the slice's ghost cells, copies of its +0 end cells,
    equal their true neighbours under both boundaries; and outside it,
    where LF's rho_{j-1}, rho_j, rho_{j+1} and HW's rho_{j-1}, rho_j are
    +0, every flux is +-0 while f(0) and V are finite, and +0 plus or
    minus +-0 is +0.  One scan of the datum's bits gives the first
    slice; after a step it grows past each end cell that became nonzero
    (+0 never steps to -0).  A slice past an edge, or one after a block
    of speed fields whose sum is not finite, becomes the whole level for
    the rest of the run.
    """
    if scheme not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == LAX_FRIEDRICHS and grid.alpha is None:
        raise ValueError("Lax-Friedrichs needs the grid's viscosity alpha")
    rho = np.asarray(rho0, dtype=float).copy()
    if rho.size != grid.n_cells:
        raise ValueError("initial level length does not match the grid")
    h = grid.delay_steps
    bits = rho.view(np.int64) != 0
    a, b = int(bits.argmax()) - 1, rho.size + 1 - int(bits[::-1].argmax())
    if a < 0 or b > rho.size:
        a, b = 0, rho.size
    history = init_history(rho, a, b)
    n_steps = step_count(t_final, grid.dt)
    lam = grid.lam
    rows = speed_rows(rho.size, h)
    work = Workspace(rho.size, weights.n, boundary)
    # speed fields of the levels behind the head, one row view each
    fields: deque = deque()
    for n in range(n_steps + 1):
        if n:
            try:
                if scheme == LAX_FRIEDRICHS:
                    rho = lf_step(rho, speeds, lam, grid.alpha, sat, work, a, b)
                else:
                    rho = hw_step(rho, speeds, lam, sat, work, a, b)
            except StepError as exc:
                raise StepError(f"step {n}: {exc}") from exc
            if b - a < rho.size:
                a, b = a - bool(rho[a]), b + bool(rho[b - 1])
                if a < 0 or b > rho.size:
                    a, b = 0, rho.size
            if n <= n_steps - h:
                push_level(history, rho, a, b if b - a < rho.size else None)
            if n > h:
                history.popleft()
        if n > h or not n:
            if not fields:
                block = lagged_speeds(list(islice(history, rows)), weights, vel, work)
                if b - a < rho.size and not math.isfinite(np.add.reduce(block, axis=None)):
                    a, b = 0, rho.size
                fields.extend(block)
            speeds = fields.popleft()
        if observer is not None:
            observer(n, rho, speeds)
    return rho
