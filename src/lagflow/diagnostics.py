"""Measured solution quantities and the theoretical bounds checked against them.

Measurements: L1/sup norms, total variation, L1 distances, discrete entropy
residuals.  Bounds: the TV growth estimate, the L1-in-time Lipschitz rate,
and the L1 stability estimate, all read from the Velocity, Saturation and
Kernel objects' sup-norm properties.  They need sup|v''|: for a velocity
that is not C^2, bound_constants returns None and they are unavailable.  With

    G = 2 sup|v'| sup(omega) R (1 + R sup|f'|)
    H = R sup(omega) (6 sup|v''| J0 R + 2 sup|v'|)
    M = max{H, G}

the total variation of the numerical solution obeys

    TV(t) <= (2 e^{M (t - q tau)} - 1) (2 e^{M tau} - 1)^q TV(rho0),
    q = floor(t / tau),

with limit e^{2 M t} TV(rho0) as tau -> 0.  The time-Lipschitz rate is

    K = B * C(T, tau) * TV(rho0) + 2 R sup(omega) sup|v'| ||rho0||_1,

where C is the TV amplification factor at the horizon and B = alpha +
(1 + R sup|f'|) V for the Lax-Friedrichs scheme, B = V (1 + R sup|f'|)
for Hilliges-Weidlich.  Two solutions rho (delay tau1) and sigma (delay
tau2) satisfy

    ||rho(t) - sigma(t)||_1 <= e^{K1 t} (K3 ||rho0 - sigma0||_1
                                         + K2 |tau1 - tau2|),

with K1 = sup(omega) sup|v'| (1 + R sup|f'|) sup_t ||rho(t)||_BV
        + R (sup|v'| ||omega'||_1 + sup|v''| ||sigma0||_1 ||omega'||_inf J0),
K2 = K1 K T and K3 = 1 + K1 min{tau1, tau2}.  J0, the integral of omega,
is 1 for every kernel (omega is a probability density on [0, L]), so the
code leaves the factor out.

The amplification C and everything built on it grow like e^{M T} and
overflow double precision for sharp saturation (sup|f'| = 50 pushes M into
the thousands), so C and K are stored as logarithms; linear values are
exposed as properties and honestly become inf when too large, in which
case bound assertions pass vacuously.  CSV bound columns may therefore
contain inf, and nan marks a quantity that was not computed at that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretization import Grid, KernelWeights
from .model_functions import SAT_NONE, Kernel, Saturation, Velocity, flux_speed
from .schemes import FREE_FLOW, HILLIGES_WEIDLICH, LAX_FRIEDRICHS, PERIODIC, extend3

#: Absolute tolerance for the discrete entropy inequality.
ENTROPY_TOL = 1e-10
#: Absolute slack for positivity / maximum-principle assertions.
LEVEL_TOL = 1e-12
#: Relative tolerance for mass conservation on periodic runs.
MASS_TOL = 1e-12
#: Absolute slack for the speed adjacent-difference bound.
SPEED_TOL = 1e-12
#: Relative and absolute slack for a measured quantity against its bound.
BOUND_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """A quantity left the region a proved estimate confines it to."""


# ---------------------------------------------------------------------------
# measurements


def l1_norm(level: np.ndarray, dx: float) -> float:
    """dx * sum |rho_j|."""
    return dx * float(np.sum(np.abs(level)))


def sup_norm(level: np.ndarray) -> float:
    """max |rho_j|."""
    return float(np.max(np.abs(level)))


def l1_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """dx * sum |a_j - b_j|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("levels have different lengths")
    return dx * float(np.sum(np.abs(a - b)))


def total_variation(level: np.ndarray, boundary: str = FREE_FLOW) -> float:
    """Sum of |rho_{j+1} - rho_j| over edges.

    Free-flow counts interior edges only; periodic adds the wrap edge.
    """
    level = np.asarray(level, dtype=float)
    tv = float(np.sum(np.abs(np.diff(level))))
    if boundary != FREE_FLOW:
        tv += abs(float(level[0]) - float(level[-1]))
    return tv


# ---------------------------------------------------------------------------
# bound constants


def exp_or_inf(x: float) -> float:
    """e^x, or inf where it would overflow double precision (x >= 709)."""
    return math.exp(x) if x < 709.0 else math.inf


def log_term(x: float) -> float:
    """log x, or -inf for x <= 0: a term that drops out of np.logaddexp."""
    return math.log(x) if x > 0.0 else -math.inf


def _log_two_exp_minus_one(x: float) -> float:
    """log(2 e^x - 1), stable for all x >= 0."""
    if x < 0:
        return math.log(2.0 * math.exp(x) - 1.0)
    return x + math.log(2.0 - math.exp(-x))


def log_tv_amplification(t: float, tau: float, rate: float) -> float:
    """log of (2 e^{rate (t - q tau)} - 1)(2 e^{rate tau} - 1)^q, q = floor(t/tau).

    The tau = 0 limit is 2 rate t.  The expression is continuous across
    the window seams t = q tau, so float jitter in the floor is harmless.
    """
    if t < 0 or tau < 0:
        raise ValueError("times must be non-negative")
    if tau == 0.0:
        return 2.0 * rate * t
    q = math.floor(t / tau)
    return _log_two_exp_minus_one(rate * (t - q * tau)) + q * _log_two_exp_minus_one(
        rate * tau
    )


def tv_bound(t: float, tau: float, rate: float, tv0: float) -> float:
    """Total-variation ceiling at time t; inf when the factor overflows."""
    if tv0 == 0.0:
        return 0.0
    return exp_or_inf(log_tv_amplification(t, tau, rate) + math.log(tv0))


def speed_increment_bound(vel: Velocity, weights: KernelWeights, rho_sup: float) -> float:
    """Uniform bound 2 sup|v'| sup(omega) rho_sup dx on |V_{j+1} - V_j|.

    Shifting the convolution window by one cell changes the weighted load
    by at most dx * (w[0] rho_sup + sum_k |w[k+1] - w[k]| rho_sup), and the
    non-increasing weights telescope to w[0] <= sup(omega) twice over.
    """
    return 2.0 * vel.d1_sup * weights.sup * rho_sup * weights.dx


@dataclass(frozen=True)
class BoundConstants:
    """Growth rates and amplification factors of one run's estimates.

    tv_rate_current / tv_rate_lagged are the TV growth rates G and H fed by
    the current and the lagged level; tv_rate is their maximum M.  The
    amplification C and the L1-in-time rate K live in log space (see the
    module docstring).
    """

    tv_rate_current: float
    tv_rate_lagged: float
    tv_rate: float
    log_tv_amplification_at_horizon: float
    log_l1_time_rate: float
    tau: float
    tv0: float

    @property
    def tv_amplification(self) -> float:
        return exp_or_inf(self.log_tv_amplification_at_horizon)

    @property
    def l1_time_rate(self) -> float:
        return exp_or_inf(self.log_l1_time_rate)

    def tv_bound_at(self, t: float) -> float:
        return tv_bound(t, self.tau, self.tv_rate, self.tv0)


def bound_constants(
    vel: Velocity,
    sat: Saturation,
    kernel: Kernel,
    alpha: float | None,
    horizon: float,
    tau: float,
    tv0: float,
    rho0_l1: float,
    scheme: str,
) -> BoundConstants | None:
    """The growth rates and log-space factors of one run; None if v is not C^2."""
    if not vel.smooth:
        return None
    r = vel.rho_max
    g = 2.0 * vel.d1_sup * kernel.sup * r * (1.0 + r * sat.d1_sup)
    h = r * kernel.sup * (6.0 * vel.d2_sup * r + 2.0 * vel.d1_sup)
    m = max(g, h)
    log_c = log_tv_amplification(horizon, tau, m)
    if scheme == LAX_FRIEDRICHS:
        if alpha is None:
            raise ValueError("the Lax-Friedrichs rate needs alpha")
        bracket = alpha + flux_speed(vel, sat)
    elif scheme == HILLIGES_WEIDLICH:
        bracket = flux_speed(vel, sat)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    # K = bracket * C * tv0 + 2 R sup(omega) sup|v'| ||rho0||_1
    log_k = np.logaddexp(
        log_term(bracket * tv0) + log_c,
        log_term(2.0 * r * kernel.sup * vel.d1_sup * rho0_l1),
    )
    return BoundConstants(
        tv_rate_current=g,
        tv_rate_lagged=h,
        tv_rate=m,
        log_tv_amplification_at_horizon=log_c,
        log_l1_time_rate=float(log_k),
        tau=tau,
        tv0=tv0,
    )


# ---------------------------------------------------------------------------
# stability constants


@dataclass(frozen=True)
class StabilityConstants:
    """Ingredients of the two-solution L1 estimate.

    rate is K1; log_delay_weight holds log K2 = log(K1 K T); datum_weight
    is K3 = 1 + K1 min{tau1, tau2}.
    """

    rate: float
    log_delay_weight: float
    datum_weight: float
    tau1: float
    tau2: float

    @property
    def delay_weight(self) -> float:
        return exp_or_inf(self.log_delay_weight)


def stability_constants(
    vel: Velocity,
    sat: Saturation,
    kernel: Kernel,
    sup_bv: float,
    sigma0_l1: float,
    tau1: float,
    tau2: float,
    log_l1_time_rate: float,
    horizon: float,
) -> StabilityConstants:
    """K1, K2, K3 from a C^2 velocity's bounds and one run's measured sup BV."""
    r = vel.rho_max
    k1 = kernel.sup * vel.d1_sup * (1.0 + r * sat.d1_sup) * sup_bv + r * (
        vel.d1_sup * kernel.d1_l1 + vel.d2_sup * sigma0_l1 * kernel.d1_sup
    )
    return StabilityConstants(
        rate=k1,
        log_delay_weight=log_term(k1) + log_l1_time_rate + log_term(horizon),
        datum_weight=1.0 + k1 * min(tau1, tau2),
        tau1=tau1,
        tau2=tau2,
    )


def stability_bound(consts: StabilityConstants, t: float, datum_distance: float) -> float:
    """e^{K1 t} (K3 d0 + K2 |tau1 - tau2|); inf when it overflows."""
    log_sum = np.logaddexp(
        log_term(consts.datum_weight * datum_distance),
        consts.log_delay_weight + log_term(abs(consts.tau1 - consts.tau2)),
    )
    return exp_or_inf(consts.rate * t + float(log_sum))


# ---------------------------------------------------------------------------
# discrete entropy residual


#: Equispaced entropy constants the check samples in [0, R].
KAPPA_COUNT = 17


def default_kappas(rho_ceiling: float, level: np.ndarray | None = None) -> np.ndarray:
    """KAPPA_COUNT = 17 equispaced entropy constants in [0, R], plus the
    level's extrema.

    The entropy check is a sample in kappa, not a proof over all kappa: for
    a nonlinear F the residual is not piecewise linear between level values
    (F(kappa) keeps a nonzero coefficient where the data straddle kappa).
    The extrema pin the sample to the level's active range.
    """
    base = np.linspace(0.0, rho_ceiling, KAPPA_COUNT)
    if level is not None:
        base = np.concatenate([base, [np.min(level), np.max(level)]])
    return np.unique(base)


class EntropyWorkspace:
    """Buffers the Lax-Friedrichs entropy check rewrites on every call.

    Sized from K kappas and J cells.  Row k of each (K, J + 2) matrix
    belongs to kappa k: kap holds kappa_k and kap_flux kappa_k f(kappa_k)
    in every column; kap is the workspace's only copy of the kappas.  A
    call rewrites only the rows whose kappa changed (bit for bit) since
    the last call, evaluating f on those kappas only; the rows therefore
    hold one saturation law's values, and a workspace serves one law.
    Three work matrices and the residual matrix follow, then the J + 2
    vectors r, f(r), r f(r), (lam/2) V, rho' and the speed gap, indexed
    like the ghost-extended level.  The ghost cells of rho' and the gap
    stay 0, so the ghost columns of every matrix hold finite values (see
    entropy_residual).
    """

    def __init__(self, n_kappas: int, n_cells: int) -> None:
        shape = (n_kappas, n_cells + 2)
        self.kap, self.kap_flux = np.full((2,) + shape, np.nan)
        self.a, self.b, self.c, self.res = np.empty((4,) + shape)
        self.r, self.f, self.rf, self.hv = np.empty((4, n_cells + 2))
        self.rho_next, self.gap = np.zeros((2, n_cells + 2))

    @staticmethod
    def bytes_for(n_kappas: int, n_cells: int) -> int:
        """Bytes of the buffers of a workspace for K kappas and J cells."""
        return (6 * n_kappas + 6) * (n_cells + 2) * 8

    def set_kappas(self, kappas: np.ndarray, sat: Saturation) -> None:
        """Rewrite the rows of the kappas whose bits changed."""
        held = self.kap[:, 0]
        if kappas.shape != held.shape:
            raise ValueError("the workspace holds a different number of kappas")
        changed = np.flatnonzero(kappas.view(np.int64) != held.view(np.int64))
        if changed.size:
            new = kappas[changed]
            self.kap[changed] = new[:, None]
            self.kap_flux[changed] = (new * sat(new))[:, None]


def entropy_residual(
    rho: np.ndarray,
    rho_next: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    sat: Saturation,
    boundary: str,
    kappas: np.ndarray,
    scheme: str = LAX_FRIEDRICHS,
    alpha: float | None = None,
    f_rho: np.ndarray | None = None,
    work: EntropyWorkspace | None = None,
) -> float:
    """Largest discrete entropy production of one step; theory says <= 0.

    v_lag is the speed field the step read, with its ghost cells (J + 2
    cells, as lf_step and hw_step take it); f_rho, when given, is f on the
    J cells of rho.  For each cell j and constant kappa the residual is

        |rho'_j - k| - |rho_j - k|
        + lam (Fk_{j+1/2}(rho_j, rho_j+1) - Fk_{j-1/2}(rho_j-1, rho_j))
        + correction_j,

    with the numerical entropy flux built from the scheme's interface flux
    G by the max/min composition

        Fk(u, w) = G(max(u,k), max(w,k)) - G(min(u,k), min(w,k)),

    G(u, w) = F(u) V_j / 2 + F(w) V_{j+1} / 2 - alpha (w - u) / 2 for the
    Lax-Friedrichs scheme with correction
    (lam/2) sgn(rho'_j - k) F(k) (V_{j+1} - V_{j-1}), and
    G(u, w) = u f(w) V_{j+1} for Hilliges-Weidlich with correction
    lam sgn(rho'_j - k) F(k) (V_{j+1} - V_j); F(rho) = rho f(rho).  The
    inequality is proved for Lax-Friedrichs; the Hilliges-Weidlich residual
    is reported for observation only.

    f is evaluated on the cells (unless f_rho is given) and on the kappas
    whose rows are rewritten, never on a kappa-by-cell array.  Since
    F(max(u,k)) - F(min(u,k)) = sgn(u-k)(F(u) - F(k)) and max(w,k) -
    min(w,k) = |w-k|, the Lax-Friedrichs flux is

        Fk(u, w) = (P(u) V_j + P(w) V_{j+1}) / 2 - alpha (|w-k| - |u-k|) / 2,
        P(u) = sgn(u-k) (F(u) - F(k)),

    |rho'_j - k| and the correction fuse into sgn(e) (e + lam F(k) gap_j),
    e = rho'_j - k, for both schemes.  Hilliges-Weidlich takes f(max(w,k)) =
    min(f(w), f(k)) and f(min(w,k)) = max(f(w), f(k)), as f is non-increasing.

    The Lax-Friedrichs residual is written into work, or into a workspace
    built for this call, with out= ufuncs in the order of the broadcast
    expressions above, so every (kappa, j) value keeps its bits.  Each
    kappa row spans the J + 2 ghost-extended cells; the j - 1 and j + 1
    terms read the raveled matrices shifted by one element, so the ghost
    columns of the residual pick up finite junk from the neighbouring row
    and are set to -inf before one np.max.  The Hilliges-Weidlich residual,
    which runs only at record rows, is a broadcast expression.
    """
    rho = np.asarray(rho, dtype=float)
    rho_next = np.asarray(rho_next, dtype=float)
    v_lag = np.asarray(v_lag, dtype=float)
    kap = np.ascontiguousarray(kappas, dtype=float).reshape(-1)
    if scheme == LAX_FRIEDRICHS:
        if alpha is None:
            raise ValueError("the Lax-Friedrichs entropy flux needs alpha")
        if work is None:
            work = EntropyWorkspace(kap.size, rho.size)
        work.set_kappas(kap, sat)
        r = extend3(rho, boundary, out=work.r)
        f_r = sat(r, out=work.f) if f_rho is None else extend3(f_rho, boundary, out=work.f)
        np.multiply(r, f_r, out=work.rf)
        np.multiply(0.5 * lam, v_lag, out=work.hv)
        d, dist, p, res = work.a, work.b, work.c, work.res
        np.subtract(r, work.kap, out=d)
        np.abs(d, out=dist)
        np.subtract(work.rf, work.kap_flux, out=p)
        p *= np.sign(d, out=d)
        p *= work.hv
        # lam (Fk_{j+1/2} - Fk_{j-1/2}) - |rho_j - k|, from the cell-wise
        # P and |r - k| of cells j - 1, j and j + 1: flat neighbours
        flat_dist, flat_p = dist.reshape(-1), p.reshape(-1)
        flat_res = res.reshape(-1)[1:-1]
        np.add(flat_dist[2:], flat_dist[:-2], out=flat_res)
        flat_res *= -0.5 * lam * alpha
        flat_res += flat_p[2:]
        flat_res -= flat_p[:-2]
        dist *= lam * alpha - 1.0
        flat_res += flat_dist[1:-1]
        gap = work.gap[1:-1]
        np.subtract(v_lag[2:], v_lag[:-2], out=gap)
        np.multiply(0.5 * lam, gap, out=gap)
        work.rho_next[1:-1] = rho_next
        e, sign_e, kap_gap = d, dist, p
        np.subtract(work.rho_next, work.kap, out=e)
        np.sign(e, out=sign_e)
        np.multiply(work.kap_flux, work.gap, out=kap_gap)
        e += kap_gap
        e *= sign_e
        flat_res += e.reshape(-1)[1:-1]
        res[:, 0] = -np.inf
        res[:, -1] = -np.inf
        return float(np.max(res))
    if scheme != HILLIGES_WEIDLICH:
        raise ValueError(f"unknown scheme {scheme!r}")
    kap = kap[:, None]
    r = extend3(rho, boundary)
    f_r = sat(r) if f_rho is None else extend3(f_rho, boundary)
    f_kap = sat(kap)
    flux_kap = kap * f_kap
    u, f_w = r[:-1], f_r[1:]
    flux_k = np.maximum(u, kap)
    flux_k *= np.minimum(f_w, f_kap)
    flux_k -= np.minimum(u, kap) * np.maximum(f_w, f_kap)
    flux_k *= lam * v_lag[1:]
    residual = np.subtract(flux_k[:, 1:], flux_k[:, :-1])
    residual -= np.abs(rho - kap)
    gap = lam * (v_lag[2:] - v_lag[1:-1])
    e = rho_next - kap
    sign_e = np.sign(e)
    e += flux_kap * gap
    e *= sign_e
    residual += e
    return float(np.max(residual))


# ---------------------------------------------------------------------------
# time-Lipschitz check


def lipschitz_in_time_check(
    snapshots: Sequence[tuple[float, np.ndarray]], l1_time_rate: float, dx: float
) -> float:
    """Assert ||rho(t_b) - rho(t_a)||_1 <= K (t_b - t_a) for all pairs.

    Returns the worst margin distance - K dt (negative when comfortably
    inside the bound, -inf if every pair is at zero distance and K is
    infinite); raises InvariantViolation when any pair exceeds K dt with
    the slack of the other bounds, K dt (1 + BOUND_TOL) + BOUND_TOL.
    """
    worst = -math.inf
    for i in range(len(snapshots)):
        t_a, lev_a = snapshots[i]
        for t_b, lev_b in snapshots[i + 1 :]:
            dist = l1_distance(lev_b, lev_a, dx)
            gap = abs(t_b - t_a)
            ceiling = 0.0 if gap == 0.0 else l1_time_rate * gap
            if dist > ceiling * (1.0 + BOUND_TOL) + BOUND_TOL:
                raise InvariantViolation(
                    f"L1 time-Lipschitz bound broken between t={t_a} and t={t_b}: "
                    f"distance {dist} exceeds {ceiling}"
                )
            margin = dist - ceiling
            if margin > worst:
                worst = margin
    return worst


# ---------------------------------------------------------------------------
# per-run collector

#: Bytes of each of the collector's block buffers (levels, speed fields
#: and scratch); see block_rows and block_bytes.
BLOCK_BYTES = 1 << 17


def block_rows(n_cells: int) -> int:
    """Steps the collector checks per block: J-cell float64 rows in BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * n_cells))


def asserts_entropy(vel: Velocity, sat: Saturation, scheme: str, thorough: bool) -> bool:
    """Whether a run asserts the entropy inequality on every step: a
    thorough Lax-Friedrichs run with a saturation term and a C^2 velocity."""
    return thorough and sat.kind != SAT_NONE and vel.smooth and scheme == LAX_FRIEDRICHS


def block_bytes(n_cells: int, h: int, n_steps: int, entropy: bool) -> int:
    """Bytes of one collector's buffers, all float64: the (B + 1, J) level
    block, the (B + 1, J + 2) speed block, the (B, J) scratch block, the
    ring of min(h, N_T) + 1 reaches and the KAPPA_COUNT + 2 kappas; with
    the entropy assertion also the EntropyWorkspace of those kappas.  f on
    the levels goes into the scratch block."""
    rows, kappas = block_rows(n_cells), KAPPA_COUNT + 2
    blocks = (2 * rows + 1) * n_cells + (rows + 1) * (n_cells + 2)
    total = (blocks + min(h, n_steps) + 1 + kappas) * 8
    return total + (EntropyWorkspace.bytes_for(kappas, n_cells) if entropy else 0)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics CSV row: level statistics at time t.

    entropy_residual_max is the largest residual of the step that produced
    this level (nan at t = 0 or when the residual was not computed).
    tv_ceiling is the theoretical ceiling for tv (inf when it overflows,
    nan when the constants are unavailable).
    """

    t: float
    l1: float
    linf: float
    minimum: float
    maximum: float
    tv: float
    tv_ceiling: float
    entropy_residual_max: float


class DiagnosticsCollector:
    """Observer for schemes.run: asserts invariants, accumulates records.

    The checks follow from the run's inputs and are exposed as attributes.
    Positivity and the density ceiling (rho_ceiling = R, else None) hold
    only with a saturation term: without one the convolution speeds may
    leave [0, V].  The TV ceiling (tv_ceiling) additionally needs the
    smooth-velocity constants.  The per-step entropy assertion
    (entropy_assert) applies to the Lax-Friedrichs scheme under the same
    hypotheses when thorough; otherwise a smooth-velocity run computes the
    residual at record rows without asserting it (entropy_watch), as the
    Hilliges-Weidlich scheme and auxiliary reference runs do.  Periodic runs
    assert mass conservation (conserve_mass).

    Every step is checked: positivity, the maximum principle, mass
    conservation, the TV ceiling and the asserted entropy residual at each
    one, and the speed adjacent-difference bound once per speed field
    (schemes.run hands the same read-only speed field, with its ghost
    cells, to consecutive steps that read the same lagged level, so a call
    whose speeds are the previous call's object brings no new field).  The
    checks run a block of steps at a time: a call copies its level, and a
    new field whole, into preallocated buffers of block_rows(J) rows, and
    flush() reduces the whole block with one NumPy call per statistic,
    then walks its rows in step order.  A run that
    asserts entropy evaluates f on the block's levels once per flush, into
    the scratch block, and holds one EntropyWorkspace that every step's
    entropy_residual call reuses: the walk changes only the two extrema
    slots of the kappa vector, so only those two rows are rewritten.
    Watch rows build their buffers per call.
    The bound of a field first seen at step n needs sup|rho| of level
    max(n - h, 0): the walk writes each step's max(|min|, |max|) into a
    ring of min(h, n_final) + 1 entries before the row's speed check.  A
    violation therefore surfaces up to a block later than its step, but
    reports its own step with the message a per-step check would give,
    and an earlier step's violation wins.  flush() runs when the block is
    full and at step n_final; a caller that stops before n_final
    (runners.simulate on a StepError) calls it itself.  Calls come with
    n = 0, 1, 2, ... in order, as schemes.run makes them.

    Records are kept at step 0, every ``stride`` steps, and the final step.
    Running maxima (sup TV, sup BV norm, worst entropy residual, mass
    drift) and the space-time variation accumulators are exposed as
    attributes and cover the flushed steps.
    """

    def __init__(
        self,
        grid: Grid,
        weights: KernelWeights,
        vel: Velocity,
        sat: Saturation,
        scheme: str,
        boundary: str,
        constants: BoundConstants | None,
        thorough: bool,
        stride: int,
        n_final: int,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be at least 1")
        self.grid = grid
        self.weights = weights
        self.vel = vel
        self.sat = sat
        self.scheme = scheme
        self.boundary = boundary
        self.constants = constants
        self.stride = stride
        self.n_final = n_final
        saturated = sat.kind != SAT_NONE
        self.positivity = saturated
        self.rho_ceiling = vel.rho_max if saturated else None
        self.conserve_mass = boundary == PERIODIC
        self.tv_ceiling = saturated and vel.smooth and constants is not None
        self.entropy_assert = asserts_entropy(vel, sat, scheme, thorough)
        self.entropy_watch = vel.smooth and not self.entropy_assert
        self.records: list[DiagnosticsRecord] = []
        self.sup_tv = 0.0
        self.sup_bv = 0.0
        self.sup_density = -math.inf
        self.min_density = math.inf
        self.entropy_max = -math.inf
        self.mass_drift_max = 0.0
        self.space_time_tv_space = 0.0
        self.space_time_tv_time = 0.0
        self._mass0: float | None = None
        # levels of the block in rows 1..count and its new speed fields,
        # with their ghost cells, in rows 1..; row 0 carries the last level
        # and the last field of the previous block (zero before step 0, so
        # f on the first block reads defined values)
        rows, cells = block_rows(grid.n_cells), grid.n_cells
        self._levels = np.zeros((rows + 1, cells))
        self._speeds = np.empty((rows + 1, cells + 2))
        self._scratch = np.empty((rows, cells))
        # sup|rho^n| of step n at n mod len; see the class docstring
        self._reach = np.empty(min(grid.delay_steps, n_final) + 1)
        self._count = 0
        self._last_n = -1
        # block row at which each buffered speed field first appears
        self._field_rows: list[int] = []
        self._prev_speeds: np.ndarray | None = None
        # TV of the carry row's step
        self._prev_tv = 0.0
        # default_kappas(R, previous level) up to order and repeats: the
        # walk writes each row's extrema into the last two slots
        self._kappas = np.concatenate([default_kappas(vel.rho_max), [0.0, 0.0]])
        # the kernel's buffers for the per-step assertion; watch rows
        # build theirs per call
        self._entropy_work = None
        if self.entropy_assert:
            self._entropy_work = EntropyWorkspace(len(self._kappas), cells)

    def __call__(self, n: int, level: np.ndarray, speeds: np.ndarray) -> None:
        i = self._count
        self._levels[i + 1] = level
        if speeds is not self._prev_speeds:
            self._speeds[len(self._field_rows) + 1] = speeds
            self._field_rows.append(i)
            self._prev_speeds = speeds
        self._count = i + 1
        self._last_n = n
        if i + 1 == len(self._scratch) or n == self.n_final:
            self.flush()

    def _check_speeds(self, count: int) -> list[float]:
        """Increment gap max|V_{j+1} - V_j| of each of the block's first
        count speed fields; none for a field of fewer than two cells."""
        cells = self._scratch.shape[1]
        if cells < 2:
            return []
        diff = self._scratch[:count, : cells - 1]
        speeds = self._speeds[1 : count + 1, 1:-1]
        np.subtract(speeds[:, 1:], speeds[:, :-1], out=diff)
        return np.maximum.reduce(np.abs(diff, out=diff), axis=1).tolist()

    def flush(self) -> None:
        """Check the buffered steps in step order; raise the first violation."""
        m = self._count
        if m == 0:
            return
        self._count = 0
        field_rows, self._field_rows = self._field_rows, []
        levels = self._levels
        rows = levels[1 : m + 1]
        scratch = self._scratch[:m]
        grid = self.grid
        # one reduction per statistic; each row's sum equals the 1-D sum of
        # its level bit for bit (the same pairwise order along the row)
        lows = np.minimum.reduce(rows, axis=1).tolist()
        highs = np.maximum.reduce(rows, axis=1).tolist()
        masses = (np.add.reduce(rows, axis=1) * grid.dx).tolist()
        diff = scratch[:, : rows.shape[1] - 1]
        np.subtract(rows[:, 1:], rows[:, :-1], out=diff)
        tvs = np.add.reduce(np.abs(diff, out=diff), axis=1)
        if self.boundary != FREE_FLOW:
            tvs += np.abs(rows[:, 0] - rows[:, -1])
        tvs = tvs.tolist()
        l1s = (np.add.reduce(np.abs(rows, out=scratch), axis=1) * grid.dx).tolist()
        np.subtract(rows, levels[:m], out=scratch)
        dists = (np.add.reduce(np.abs(scratch, out=scratch), axis=1) * grid.dx).tolist()
        gaps = self._check_speeds(len(field_rows))
        # f on the levels each step starts from goes into the scratch
        # block, which the distances and the speed gaps above are done with
        f_levels = self.sat(levels[:m], out=scratch) if self.entropy_assert else None

        speeds = self._speeds[0]
        field = 0
        field_row = field_rows[0] if field_rows else -1
        reach, ring, h = self._reach, len(self._reach), grid.delay_steps
        kappas = self._kappas
        for r in range(m):
            n = self._last_n - m + 1 + r
            t = n * grid.dt
            lo, hi = lows[r], highs[r]
            linf = max(abs(lo), abs(hi))
            reach[n % ring] = linf
            new_field = r == field_row
            if new_field and gaps:
                lagged_sup = max(self.vel.rho_max, float(reach[max(n - h, 0) % ring]))
                speed_bound = speed_increment_bound(self.vel, self.weights, lagged_sup)
                if gaps[field] > speed_bound + SPEED_TOL:
                    raise InvariantViolation(
                        f"step {n}: speed increment {gaps[field]} exceeds bound {speed_bound}"
                    )

            self.sup_density = max(self.sup_density, hi)
            self.min_density = min(self.min_density, lo)
            if self.positivity and lo < -LEVEL_TOL:
                raise InvariantViolation(f"step {n}: negative density {lo}")
            ceiling = self.rho_ceiling
            if ceiling is not None and hi > ceiling + LEVEL_TOL:
                raise InvariantViolation(
                    f"step {n}: density {hi} exceeds the ceiling {ceiling}"
                )

            mass = masses[r]
            if self._mass0 is None:
                self._mass0 = mass
            elif self.conserve_mass:
                scale = max(abs(self._mass0), 1.0)
                drift = abs(mass - self._mass0) / scale
                self.mass_drift_max = max(self.mass_drift_max, drift)
                if drift > MASS_TOL:
                    raise InvariantViolation(f"step {n}: relative mass drift {drift}")

            tv, l1 = tvs[r], l1s[r]
            self.sup_tv = max(self.sup_tv, tv)
            self.sup_bv = max(self.sup_bv, tv + l1)
            is_row = n == 0 or n == self.n_final or n % self.stride == 0
            bound = math.nan
            if self.constants is not None and (self.tv_ceiling or is_row):
                bound = self.constants.tv_bound_at(t)
            if self.tv_ceiling and tv > bound * (1.0 + BOUND_TOL) + BOUND_TOL:
                raise InvariantViolation(
                    f"step {n}: total variation {tv} exceeds the ceiling {bound}"
                )

            residual = math.nan
            if n > 0:
                self.space_time_tv_time += dists[r]
                self.space_time_tv_space += grid.dt * self._prev_tv
                if self.entropy_assert or (self.entropy_watch and is_row):
                    residual = entropy_residual(
                        levels[r],
                        levels[r + 1],
                        speeds,
                        grid.lam,
                        self.sat,
                        self.boundary,
                        kappas,
                        scheme=self.scheme,
                        alpha=grid.alpha,
                        f_rho=None if f_levels is None else f_levels[r],
                        work=self._entropy_work,
                    )
                    self.entropy_max = max(self.entropy_max, residual)
                    if self.entropy_assert and residual > ENTROPY_TOL:
                        raise InvariantViolation(
                            f"step {n}: entropy residual {residual} above {ENTROPY_TOL}"
                        )

            if is_row:
                self.records.append(
                    DiagnosticsRecord(
                        t=t,
                        l1=l1,
                        linf=linf,
                        minimum=lo,
                        maximum=hi,
                        tv=tv,
                        tv_ceiling=bound,
                        entropy_residual_max=residual,
                    )
                )

            if new_field:
                field += 1
                speeds = self._speeds[field]
                field_row = field_rows[field] if field < len(field_rows) else -1
            self._prev_tv = tv
            kappas[-2] = lo
            kappas[-1] = hi

        if field_rows:
            self._speeds[0] = speeds
        levels[0] = levels[m]
