"""Uniform grid, kernel and initial-datum cell averages, CFL time steps.

The mesh couples three exactness requirements: the kernel support is an
integer number of cells (L = N dx), the delay is an integer number of time
steps (tau = h dt), and dt satisfies the scheme's CFL condition.  dt is only
ever shrunk when fitting the delay, so the CFL inequalities survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model_functions import KERNEL_CONSTANT, Kernel, Saturation, Velocity, flux_speed

#: Relative tolerance for "a length is a whole number of cells".
_REL_TOL_CELLS = 1e-9
#: Relative tolerance for "dt already divides tau exactly".
_REL_TOL_DELAY = 1e-12
#: project_initial_datum's 10-point Gauss-Legendre rule and widest panel.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)
_MAX_PANEL = 2.5e-3
#: Bytes per quadrature temporary: under half of glibc's 128 kB mmap threshold.
_CHUNK_BYTES = 60 * 1024


@dataclass(frozen=True)
class Grid:
    """Uniform space-time mesh.

    J cells of width dx cover [x_min, x_max]; cell centers sit at
    x_min + (j - 1/2) dx.  lam = dt/dx is the mesh ratio, h the number of
    time steps spanning the delay (tau = h dt), N the number of cells
    spanning the kernel support (L = N dx), and alpha the numerical
    viscosity (present only for the Lax-Friedrichs scheme).
    """

    x_min: float
    x_max: float
    dx: float
    dt: float
    n_cells: int
    delay_steps: int
    kernel_cells: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")
        if whole_cells(self.x_max - self.x_min, self.dx, "domain length") != self.n_cells:
            raise ValueError("n_cells * dx must equal the domain length")
        if self.delay_steps < 0:
            raise ValueError("delay_steps must be non-negative")
        if self.kernel_cells < 1:
            raise ValueError("kernel support must cover at least one cell")

    @property
    def lam(self) -> float:
        """Mesh ratio dt/dx."""
        return self.dt / self.dx

    @property
    def tau(self) -> float:
        """Resolved delay h * dt."""
        return self.delay_steps * self.dt

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, length n_cells."""
        j = np.arange(self.n_cells, dtype=float)
        return self.x_min + (j + 0.5) * self.dx

    def edges(self) -> np.ndarray:
        """Cell-interface coordinates, length n_cells + 1."""
        j = np.arange(self.n_cells + 1, dtype=float)
        return self.x_min + j * self.dx


@dataclass(frozen=True)
class KernelWeights:
    """Cell averages w[k] of the kernel over [k dx, (k+1) dx], k = 0..N-1.

    dx * sum(w) equals the kernel integral 1; the weights inherit the
    kernel's monotone non-increasing shape.
    """

    w: np.ndarray
    dx: float

    def __post_init__(self) -> None:
        if self.w.ndim != 1 or self.w.size < 1:
            raise ValueError("weights must be a non-empty vector")

    @property
    def n(self) -> int:
        return int(self.w.size)

    @cached_property
    def sup(self) -> float:
        """Largest weight, the discrete sup(omega)."""
        return float(np.max(self.w))


def whole_cells(length: float, dx: float, what: str) -> int:
    """Number of cells n >= 1 with n dx = length, rejecting other ratios.

    This is the one whole-cells rule: the domain, the kernel support and a
    coarse cell split into reference cells all use it.  A dx that is not
    finite and positive gives no such n.
    """
    if math.isfinite(dx) and dx > 0.0:
        ratio = length / dx
        n = round(ratio)
        if n >= 1 and abs(n - ratio) <= _REL_TOL_CELLS * max(1.0, ratio):
            return int(n)
    raise ValueError(f"{what} {length} is not a whole positive number of cells {dx} wide")


def discretize_kernel(kernel: Kernel, grid: Grid) -> KernelWeights:
    """Exact closed-form cell averages of the kernel.

    constant:           w[k] = 1/L
    linear_decreasing:  w[k] = (2/L)(1 - (k + 1/2) dx / L)
    """
    n = grid.kernel_cells
    dx = grid.dx
    length = n * dx
    if kernel.kind == KERNEL_CONSTANT:
        w = np.full(n, 1.0 / length)
    else:
        k = np.arange(n, dtype=float)
        w = (2.0 / length) * (1.0 - (k + 0.5) * dx / length)
    return KernelWeights(w=w, dx=dx)


def cfl_dt_lf(
    vel: Velocity, sat: Saturation, dx: float, safety: float = 1.0
) -> tuple[float, float]:
    """Viscosity and time step for the Lax-Friedrichs scheme.

    alpha = V (1 + R sup|f'|) is the minimal admissible viscosity, and
    dt = safety * dx / (alpha + V (1 + R sup|f'|)) enforces
    lam * (alpha + V (1 + R sup|f'|)) <= safety.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    alpha = speed = flux_speed(vel, sat)
    return alpha, safety * dx / (alpha + speed)


def cfl_dt_hw(vel: Velocity, sat: Saturation, dx: float, safety: float = 1.0) -> float:
    """Time step for the Hilliges-Weidlich scheme:
    dt = safety * dx / (V (1 + R sup|f'|))."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety * dx / flux_speed(vel, sat)


def fit_delay_steps(tau: float, dt: float) -> tuple[int, float]:
    """Integer delay-step count h with tau = h dt, shrinking dt if needed.

    If dt already divides tau (to relative tolerance), it is kept; otherwise
    h = ceil(tau/dt) and dt becomes tau/h, which only shrinks dt and so
    preserves every CFL inequality.  tau = 0 keeps dt and returns h = 0.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if tau == 0.0:
        return 0, dt
    ratio = tau / dt
    h = round(ratio)
    if h >= 1 and abs(h * dt - tau) <= _REL_TOL_DELAY * max(tau, dt):
        return int(h), dt
    h = math.ceil(ratio)
    return int(h), tau / h


def build_grid(
    x_min: float,
    x_max: float,
    dx: float,
    dt: float,
    tau: float,
    kernel_length: float,
    alpha: float | None = None,
) -> Grid:
    """Assemble a Grid, fitting the delay into the time step.

    dt must already satisfy the scheme's CFL condition; fitting the delay
    can only shrink it.
    """
    h, dt_fit = fit_delay_steps(tau, dt)
    return Grid(
        x_min=x_min,
        x_max=x_max,
        dx=dx,
        dt=dt_fit,
        n_cells=whole_cells(x_max - x_min, dx, "domain length"),
        delay_steps=h,
        kernel_cells=whole_cells(kernel_length, dx, "kernel support"),
        alpha=alpha,
    )


def project_initial_datum(datum, grid: Grid) -> np.ndarray:
    """Cell averages of a piecewise-analytic initial profile.

    ``datum`` provides vectorized evaluation, a ``breakpoints()`` list of
    discontinuity/kink locations, and a ``value_range()`` pair (see
    initial_data).  Each cell is split at interior breakpoints and every
    piece integrated by composite 10-point Gauss-Legendre quadrature with
    panels no wider than 2.5e-3, which is exact to machine precision for
    the built-in constant pieces and below 1e-12 relative error for the
    trigonometric ones.  Cell averages of a function provably lie inside
    its range, so the result is clamped to ``value_range()``; this removes
    last-ulp quadrature noise (a constant profile projects bit-exactly)
    and guarantees the projection respects the capacity box.
    """
    edges = grid.edges()
    breaks = [b for b in datum.breakpoints() if edges[0] < b < edges[-1]]

    def integrals(lo: np.ndarray, hi: np.ndarray, panels: int) -> np.ndarray:
        """Quadrature of the datum over each [lo[i], hi[i]] in equal panels."""
        # np.linspace(lo, hi, panels + 1, axis=-1), op for op, without its overhead
        bounds = np.arange(panels + 1.0) * ((hi - lo) / panels)[:, None] + lo[:, None]
        bounds[:, -1] = hi
        half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])
        mid = 0.5 * (bounds[:, 1:] + bounds[:, :-1])
        x = mid[:, :, None] + half[:, :, None] * _GAUSS_NODES
        terms = half[:, :, None] * _GAUSS_WEIGHTS * datum(x)
        # one contiguous row per interval keeps np.sum's pairwise order
        return np.sum(terms.reshape(len(lo), -1), axis=1)

    # the cells cut at the interior breakpoints: batches of _CHUNK_BYTES per
    # panel count, then each cell sums its pieces in order
    cuts = np.union1d(edges, breaks)
    left, right = cuts[:-1], cuts[1:]
    panels = np.maximum(1, np.ceil((right - left) / _MAX_PANEL)).astype(int)
    pieces = np.empty(len(left))
    for count in np.flatnonzero(np.bincount(panels)).tolist():
        sel = np.flatnonzero(panels == count)
        rows = max(1, _CHUNK_BYTES // (8 * _GAUSS_NODES.size * count))
        for chunk in (sel[i : i + rows] for i in range(0, len(sel), rows)):
            pieces[chunk] = integrals(left[chunk], right[chunk], count)
    totals = np.zeros(grid.n_cells)
    np.add.at(totals, np.searchsorted(edges, left, side="right") - 1, pieces)
    lo, hi = datum.value_range()
    return np.clip(totals / grid.dx, lo, hi)
