"""An independent march of the delayed scheme, to check lagflow's output.

It is written from the formulas in lagflow's README, not from its code: its
own kernel weights, speed and saturation laws, a (h + 1) x J history array
indexed by step, ``np.pad`` ghost cells and ``np.convolve`` loads.  It
covers what the benchmark's workloads use: free-flow boundaries, the
linear-decreasing kernel, (normalized) Greenshields speeds and exponential
saturation.  Its floating-point order differs from lagflow's, so the two
agree to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np


def march(resolved) -> np.ndarray:
    """Final level of the resolved run, marched without lagflow's code."""
    scenario = resolved.scenario
    vel, sat = resolved.velocity, resolved.saturation
    if (
        scenario.boundary != "free_flow"
        or scenario.kernel.kind != "linear_decreasing"
        or sat.kind != "exponential"
        or vel.kind not in ("greenshields", "normalized_greenshields")
    ):
        raise ValueError("the reference march covers only the benchmark's models")
    grid = resolved.grid
    dx, lam, alpha, h, cells = grid.dx, grid.lam, grid.alpha, grid.delay_steps, grid.kernel_cells
    length = cells * dx
    w = (2.0 / length) * (1.0 - (np.arange(cells) + 0.5) * dx / length)
    v_max, r_max, eps = vel.v_max, vel.rho_max, sat.eps

    def flux(rho, v_at, free_at):
        """rho f(free_at) v_at with f = 1 - exp((rho - R) / eps) on [0, R]."""
        return rho * (1.0 - np.exp((np.clip(free_at, 0.0, r_max) - r_max) / eps)) * v_at

    rho = np.array(resolved.rho0, dtype=float)
    history = np.tile(rho, (h + 1, 1))  # level k lives in row k mod (h + 1)
    for n in range(resolved.n_steps):
        # Row (n + 1) mod (h + 1) holds level n - h, or the datum while n <= h.
        lagged = history[(n + 1) % (h + 1)]
        loads = dx * np.convolve(np.pad(lagged, (0, cells - 1), mode="edge"), w[::-1], "valid")
        v = np.pad(v_max * (1.0 - loads / r_max), 1, mode="edge")
        r = np.pad(rho, 1, mode="edge")
        if resolved.scheme == "lf":
            f = flux(r, v, r)
            rho = rho + 0.5 * lam * alpha * (r[2:] - 2.0 * rho + r[:-2]) - 0.5 * lam * (
                f[2:] - f[:-2]
            )
        else:
            f = flux(r[:-1], v[1:], r[1:])
            rho = rho - lam * (f[1:] - f[:-1])
        history[(n + 1) % (h + 1)] = rho
    return rho


def datum_mass(scenario) -> float:
    """Exact integral of the box or Riemann datum over the domain."""
    p = scenario.datum_params
    if scenario.datum_kind == "box":
        return p["height"] * (min(p["b"], scenario.x_max) - max(p["a"], scenario.x_min))
    if scenario.datum_kind == "riemann_small":
        pos = p["position"]
        return p["left"] * (pos - scenario.x_min) + p["right"] * (scenario.x_max - pos)
    raise ValueError(f"no exact mass for datum {scenario.datum_kind!r}")
