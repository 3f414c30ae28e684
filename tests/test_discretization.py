"""Grid construction, kernel quadrature, CFL steps, datum projection."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagflow.discretization import (
    build_grid,
    cfl_dt_hw,
    cfl_dt_lf,
    discretize_kernel,
    fit_delay_steps,
    project_initial_datum,
    whole_cells,
)
from lagflow.initial_data import DATUM_KINDS, Box, Constant, OscSin, Riemann, make_datum
from lagflow.model_functions import Kernel, Saturation, Velocity
from lagflow.presets import PRESET_NAMES, preset_scenario
from lagflow.runners import resolve_scenario


def _model(sat="linear"):
    """Normalized velocity (V = R = 1) with the given saturation."""
    return Velocity("normalized_greenshields"), Saturation(sat)


def test_kernel_cell_count_accepts_whole_multiples():
    assert whole_cells(0.1, 0.005, "kernel support") == 20
    assert whole_cells(0.015, 0.005, "kernel support") == 3


def test_kernel_cell_count_rejects_fractional_multiples():
    # 0.015 / 0.004 = 3.75 cells
    with pytest.raises(ValueError, match="kernel support 0.015"):
        whole_cells(0.015, 0.004, "kernel support")


@pytest.mark.parametrize("dx", [0.0, -0.0, math.nan, math.inf, -math.inf, -0.005])
def test_cell_count_refuses_a_width_not_finite_and_positive(dx):
    with pytest.raises(ValueError, match=f"^dx 0.015 is not a whole positive number of cells {dx} wide$"):
        whole_cells(0.015, dx, "dx")


def test_constant_kernel_weights_are_uniform():
    grid = build_grid(0.0, 1.0, 0.05, 0.01, 0.0, 0.1)
    w = discretize_kernel(Kernel("constant", length=0.1), grid)
    assert w.n == 2
    assert np.allclose(w.w, [10.0, 10.0])


def test_linear_kernel_weights_frozen_example():
    """L = 0.1, dx = 0.05: cell averages of (2/L)(1 - x/L) are 15 and 5."""
    grid = build_grid(0.0, 1.0, 0.05, 0.01, 0.0, 0.1)
    w = discretize_kernel(Kernel("linear_decreasing", length=0.1), grid)
    assert np.allclose(w.w, [15.0, 5.0])


@given(
    st.sampled_from(["constant", "linear_decreasing"]),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e-4, max_value=0.5),
)
def test_kernel_weights_sum_to_unit_mass(kind, n_cells, dx):
    """dx * sum(w) reproduces the unit integral for any resolved kernel."""
    length = n_cells * dx
    grid = build_grid(0.0, 2 * n_cells * dx, dx, dx, 0.0, length)
    w = discretize_kernel(Kernel(kind, length=length), grid)
    assert w.n == n_cells
    assert dx * float(np.sum(w.w)) == pytest.approx(1.0, rel=1e-12)


def test_cfl_lf_matches_hand_formula():
    # normalized v (V=1, R=1), linear f (|f'| = 1): alpha = V(1 + R|f'|) = 2
    alpha, dt = cfl_dt_lf(*_model(), 0.01)
    assert alpha == pytest.approx(2.0)
    # dt = dx / (alpha + V(1 + R|f'|)) = 0.01 / 4
    assert dt == pytest.approx(0.0025)


def test_cfl_hw_matches_hand_formula():
    assert cfl_dt_hw(*_model(), 0.01) == pytest.approx(0.005)
    assert cfl_dt_hw(*_model(), 0.01, safety=0.5) == pytest.approx(0.0025)


def test_cfl_without_saturation_is_velocity_only():
    assert cfl_dt_hw(*_model(sat="none"), 0.01) == pytest.approx(0.01)


def test_fit_delay_steps_zero_delay():
    assert fit_delay_steps(0.0, 0.25) == (0, 0.25)


def test_fit_delay_steps_exact_divisor_keeps_dt():
    h, dt = fit_delay_steps(0.1, 0.0025)
    assert (h, dt) == (40, 0.0025)


def test_fit_delay_steps_shrinks_to_land_on_tau():
    h, dt = fit_delay_steps(0.01, 0.003)
    assert h == 4
    assert dt == pytest.approx(0.0025)
    assert h * dt == pytest.approx(0.01, rel=1e-15)


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_fit_delay_steps_properties(tau, dt):
    """h dt' = tau exactly (to roundoff), dt' <= dt, and h >= 1."""
    h, dt_fit = fit_delay_steps(tau, dt)
    assert h >= 1
    assert dt_fit <= dt * (1 + 1e-12)
    assert h * dt_fit == pytest.approx(tau, rel=1e-9)


def test_build_grid_validates_span():
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 0.003, 0.001, 0.0, 0.003)


def test_build_grid_resolves_delay_and_kernel():
    grid = build_grid(0.0, 1.0, 0.005, 0.0025, 0.01, 0.015, alpha=2.0)
    assert grid.n_cells == 200
    assert grid.delay_steps == 4
    assert grid.kernel_cells == 3
    assert grid.lam == pytest.approx(0.5)
    assert grid.tau == pytest.approx(0.01)
    assert grid.alpha == 2.0


def test_grid_centers_and_edges():
    grid = build_grid(0.0, 1.0, 0.25, 0.1, 0.0, 0.25)
    assert np.allclose(grid.centers(), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(grid.edges(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_projection_of_constant_is_constant():
    grid = build_grid(0.0, 1.0, 0.01, 0.001, 0.0, 0.01)
    rho0 = project_initial_datum(Constant(0.7), grid)
    assert np.allclose(rho0, 0.7, rtol=1e-14)


def test_projection_riemann_jump_on_cell_edge_is_sharp():
    grid = build_grid(0.0, 1.0, 0.005, 0.001, 0.0, 0.005)
    rho0 = project_initial_datum(make_datum("riemann_up"), grid)
    assert np.allclose(rho0[:100], 0.3, rtol=1e-13)
    assert np.allclose(rho0[100:], 1.5, rtol=1e-13)


def test_projection_splits_cell_at_interior_jump():
    """A jump strictly inside a cell projects to the exact area fraction."""
    grid = build_grid(0.0, 1.0, 0.25, 0.1, 0.0, 0.25)
    datum = Riemann(left=1.0, right=0.0, position=0.3)
    rho0 = project_initial_datum(datum, grid)
    # cell [0.25, 0.5] holds value 1 on [0.25, 0.3]: average 0.05/0.25 = 0.2
    assert rho0[0] == pytest.approx(1.0)
    assert rho0[1] == pytest.approx(0.2)
    assert np.allclose(rho0[2:], 0.0, atol=1e-15)


def test_projection_box_mass_is_exact():
    grid = build_grid(0.0, 5.0, 0.005, 0.001, 0.0, 0.15)
    rho0 = project_initial_datum(Box(height=1.5, a=1.0, b=2.0), grid)
    assert grid.dx * float(np.sum(rho0)) == pytest.approx(1.5, rel=1e-13)


def test_projection_oscillatory_mass_matches_closed_form():
    """The sine hump integrates to 1/2 over [0, 1]: the bracket is odd
    around the support midpoint when the shift centers it, so only the
    background contributes."""
    grid = build_grid(0.0, 1.0, 0.001, 0.0005, 0.0, 0.1)
    rho0 = project_initial_datum(OscSin(shift=0.4), grid)
    x = np.linspace(0.0, 1.0, 2_000_001)
    reference = np.trapezoid(OscSin(shift=0.4)(x), x)
    assert grid.dx * float(np.sum(rho0)) == pytest.approx(reference, rel=1e-10)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_projection_mass_property_for_staircases(values):
    """Piecewise-constant data project with exact total mass."""
    n_pieces = len(values)
    grid = build_grid(0.0, 1.0, 0.02, 0.01, 0.0, 0.02)
    width = 1.0 / n_pieces

    class Staircase:
        def __call__(self, x):
            idx = np.minimum((np.asarray(x) / width).astype(int), n_pieces - 1)
            return np.asarray(values, dtype=float)[idx]

        def breakpoints(self):
            return [k * width for k in range(1, n_pieces)]

        def value_range(self):
            return min(values), max(values)

    rho0 = project_initial_datum(Staircase(), grid)
    exact = sum(values) * width
    assert grid.dx * float(np.sum(rho0)) == pytest.approx(exact, abs=1e-12)


def _projection_loop(datum, grid):
    """Cell by cell: split at breakpoints, 10-point Gauss-Legendre panels."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    edges = grid.edges()
    breaks = [b for b in datum.breakpoints() if edges[0] < b < edges[-1]]
    averages = np.empty(grid.n_cells)
    for j in range(grid.n_cells):
        a, b = edges[j], edges[j + 1]
        cuts = [a] + [c for c in breaks if a < c < b] + [b]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            panels = max(1, math.ceil((hi - lo) / 2.5e-3))
            bounds_1d = np.linspace(lo, hi, panels + 1)
            half = 0.5 * (bounds_1d[1:] - bounds_1d[:-1])
            mid = 0.5 * (bounds_1d[1:] + bounds_1d[:-1])
            x = mid[:, None] + half[:, None] * nodes[None, :]
            total += float(np.sum(half[:, None] * weights[None, :] * datum(x)))
        averages[j] = total / grid.dx
    lo, hi = datum.value_range()
    return np.clip(averages, lo, hi)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_projection_equals_per_cell_loop_on_presets(name):
    scenario = preset_scenario(name)
    resolved = resolve_scenario(scenario)
    datum = make_datum(scenario.datum_kind, **scenario.datum_params)
    assert np.array_equal(resolved.rho0, _projection_loop(datum, resolved.grid))


@pytest.mark.parametrize("dx", [0.05, 0.01, 0.005, 0.0025, 0.002])
def test_projection_equals_per_cell_loop_at_any_panel_count(dx):
    """Cells of 1 to 20 panels, jumps inside cells and on cell edges."""
    grid = build_grid(0.0, 1.0, dx, dx, 0.0, dx)
    for datum in (
        Box(height=0.7, a=0.2137, b=0.75),
        OscSin(shift=0.4321),
        Riemann(left=0.2, right=0.9, position=0.6173),
    ):
        assert np.array_equal(project_initial_datum(datum, grid), _projection_loop(datum, grid))


def test_projection_never_evaluates_a_breakpoint():
    """The projection cuts each cell at every interior breakpoint, and the
    Gauss nodes (|xi| <= 0.974) lie strictly inside each piece, so no datum
    is evaluated on a jump or kink: which side owns a jump point moves no
    cell average.  Checked for every datum kind (each preset's datum and
    each kind at its defaults) on the preset grids, the study grids (the
    compare_schemes reference dx = 2.5e-4 and grid_refine's two halvings)
    and dx = 0.25 on [0, 1].  It can fail on other grids: with dx = 0.1
    minus one ulp on [0, 1], the edge 5 dx is one ulp below riemann_up's
    jump at 0.5, and the nodes of that sliver piece round onto the jump."""
    datums = {preset_scenario(name).make_datum() for name in PRESET_NAMES}
    datums |= {make_datum(kind) for kind, (_, required, _) in DATUM_KINDS.items() if not required}
    datums.add(make_datum("constant", value=0.5))
    assert {type(d) for d in datums} == {profile for profile, _, _ in DATUM_KINDS.values()}
    grids = {(0.0, 1.0, 0.25)}
    for name in PRESET_NAMES:
        s = preset_scenario(name)
        grids |= {(s.x_min, s.x_max, dx) for dx in (s.dx, s.dx / 2, s.dx / 4, 2.5e-4)}
    evaluated, on_breaks = 0, 0

    class Spy:
        def __init__(self, datum):
            self.datum = datum
            self.breakpoints, self.value_range = datum.breakpoints, datum.value_range

        def __call__(self, x):
            nonlocal evaluated, on_breaks
            evaluated += x.size
            on_breaks += int(np.isin(x, self.datum.breakpoints()).sum())
            return self.datum(x)

    for x_min, x_max, dx in sorted(grids):
        grid = build_grid(x_min, x_max, dx, dx, 0.0, dx)
        for datum in datums:
            project_initial_datum(Spy(datum), grid)
    assert evaluated > 10**6
    assert on_breaks == 0

    grid = build_grid(0.0, 1.0, np.nextafter(0.1, 0.0), 0.1, 0.0, 0.1)
    project_initial_datum(Spy(make_datum("riemann_up")), grid)
    assert on_breaks > 0


_PROJECTION_FAULTS = """
import resource
from lagflow.discretization import build_grid, project_initial_datum
from lagflow.initial_data import Box, OscSin
grid = build_grid(0.0, 5.0, 1.25e-3, 1.25e-3, 0.0, 1.25e-3)
assert grid.n_cells == 4000
for datum in (Box(height=1.5, a=1.0, b=2.0), OscSin(shift=0.5)):
    for _ in range(3):
        project_initial_datum(datum, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        project_initial_datum(datum, grid)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_projection_under_default_malloc_faults_few_pages_per_call():
    """A fresh interpreter with glibc's default malloc settings projects a
    box and a sine datum onto box_refine's J = 4000 grid (dx = 1.25e-3)
    with fewer than 20 minor page faults per warmed call: no quadrature
    temporary is large enough to be mapped and unmapped."""
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OMP_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _PROJECTION_FAULTS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    faults = [float(x) for x in done.stdout.split()]
    assert len(faults) == 2
    assert max(faults) < 20, faults


def test_stopgo_grid_dimensions():
    """344 cells tile [0, 0.8] and carry kernel length 0.1 exactly."""
    dx = 0.8 / 344
    grid = build_grid(0.0, 0.8, dx, dx / 4, 0.1, 0.1)
    assert grid.n_cells == 344
    assert grid.kernel_cells == 43
    assert math.isclose(grid.kernel_cells * dx, 0.1, rel_tol=1e-12)
