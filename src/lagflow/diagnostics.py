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
from .schemes import FREE_FLOW, HILLIGES_WEIDLICH, LAX_FRIEDRICHS, PERIODIC, _fill_ghosts

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


#: Equispaced constants of default_kappas.
KAPPA_COUNT = 17


def default_kappas(rho_ceiling: float, level: np.ndarray | None = None) -> np.ndarray:
    """KAPPA_COUNT = 17 equispaced constants in [0, R], plus the level's
    extrema, sorted and deduplicated.

    No check reads them; the function stays because the benchmark wraps
    it by name.  The entropy check needs no sample: by the monotone-scheme
    lemma (entropy_residual) the residual of every kappa is at most
    max_j (|c_j| + 2 (hi_j - lo_j) m_j), which is the supremum over kappa
    wherever m_j = 0, and 0 for a march that did what the scheme says; on
    a watched run without saturation it may be an upper bound only.
    """
    base = np.linspace(0.0, rho_ceiling, KAPPA_COUNT)
    if level is not None:
        base = np.concatenate([base, [np.min(level), np.max(level)]])
    return np.unique(base)


class EntropyBlock:
    """Buffers of the entropy kernel for up to B steps of J cells.

    Per step it forms, per cell, the defect c_j = rho'_j - H_j(rho) in
    the step's own operation order, lo_j, hi_j and the monotonicity
    defect m_j, and returns max_j (|c_j| + 2 (hi_j - lo_j) m_j): by the
    monotone-scheme lemma (entropy_residual) a bound on the residual of
    every kappa.  It is the supremum over kappa where every m_j = 0 (on
    every step inside the CFL rules with speeds in [0, v_max] and, on
    HW, levels in [0, R]), and 0 for a march that did what the scheme
    says; on a watched run without saturation it may be an upper bound
    only.  An LF block forms lo and hi only when some m_j is not 0.
    (B, J + 2) rows: the ghost-extended level r, f on it (then the
    fluxes) and the speed fields; (B, J) rows: lo, hi, the defect and a
    work row.
    """

    def __init__(self, rows: int, cells: int) -> None:
        self.r, self.f, self.v = np.empty((3, rows, cells + 2))
        self.lo, self.hi, self.c, self.t = np.empty((4, rows, cells))

    @staticmethod
    def bytes_for(rows: int, cells: int) -> int:
        """Bytes of the buffers of a kernel for B rows of J cells."""
        return (3 * rows * (cells + 2) + 4 * rows * cells) * 8

    def residuals(
        self,
        rho: np.ndarray,
        rho_next: np.ndarray,
        speeds: np.ndarray,
        fields: np.ndarray,
        lam: float,
        sat: Saturation,
        boundary: str,
        scheme: str,
        alpha: float | None,
    ) -> np.ndarray:
        """The entropy bound max_j (|c_j| + 2 (hi_j - lo_j) m_j) of each of
        m steps (see entropy_residual).

        Step i goes from rho[i] to rho_next[i] (m x J) and reads the speed
        field speeds[fields[i]] (J + 2 cells).  A step's value is nan when
        it is not finite, and a zero is +0.
        """
        m = len(rho)
        r, f, v = self.r[:m], self.f[:m], self.v[:m]
        lo, hi, c, t = self.lo[:m], self.hi[:m], self.c[:m], self.t[:m]
        r[:, 1:-1] = rho
        _fill_ghosts(r.T, boundary)
        sat(r, out=f)
        np.take(speeds, fields, axis=0, out=v, mode="clip")
        # c = rho' - H(rho), in the step's own operation order
        if scheme == LAX_FRIEDRICHS:
            f *= r
            np.multiply(f[:, 2:], v[:, 2:], out=c)
            c -= np.multiply(f[:, :-2], v[:, :-2], out=t)
            np.multiply(2.0, rho, out=t)
            np.subtract(r[:, 2:], t, out=t)
            t += r[:, :-2]
            t *= alpha
            t -= c
            t *= 0.5 * lam
            t += rho
        else:
            np.multiply(r[:, 1:-1], f[:, 2:], out=c)
            c *= v[:, 2:]
            np.multiply(r[:, :-2], f[:, 1:-1], out=t)
            t *= v[:, 1:-1]
            c -= t
            c *= lam
            np.subtract(rho, c, out=t)
        np.subtract(rho_next, t, out=c)
        np.abs(c, out=c)
        if self._monotonicity_defect(m, rho_next, lam, sat, scheme, alpha):
            hi -= lo
            hi *= t
            hi *= 2.0
            c += hi
        out = np.maximum.reduce(c, axis=1)
        out[~np.isfinite(out)] = np.nan
        return out

    def _monotonicity_defect(self, m, rho_next, lam, sat, scheme, alpha) -> bool:
        """Whether some m_j of the first m steps is not 0; if so, m_j is in
        the work rows t and lo_j, hi_j in lo and hi.  f serves as scratch,
        and r once lo and hi are formed."""
        r, v, lo, hi, t = self.r[:m], self.v[:m], self.lo[:m], self.hi[:m], self.t[:m]
        d = sat.d1_sup
        if scheme == LAX_FRIEDRICHS:
            # max(0, lam alpha - 1) + (lam / 2) sum max(0, Phi |V_{j+-1}| - alpha)
            phi = 1.0 + sat.rho_max * d
            if lam * alpha <= 1.0 and phi * max(v.max(), -v.min()) <= alpha:
                return False
            g = np.abs(v, out=self.f[:m])
            g *= phi
            g -= alpha
            np.maximum(g, 0.0, out=g)
            np.add(g[:, 2:], g[:, :-2], out=t)
            t *= 0.5 * lam
            t += max(0.0, lam * alpha - 1.0)
        np.minimum(r[:, :-2], r[:, 1:-1], out=lo)
        np.minimum(lo, r[:, 2:], out=lo)
        np.minimum(lo, rho_next, out=lo)
        np.maximum(r[:, :-2], r[:, 1:-1], out=hi)
        np.maximum(hi, r[:, 2:], out=hi)
        np.maximum(hi, rho_next, out=hi)
        if scheme == LAX_FRIEDRICHS:
            return True
        v_j, v_next = v[:, 1:-1], v[:, 2:]
        a, b = r[:, 1:-1], self.f[:m, 1:-1]
        # lam max(0, -V_j) + lam d max(0, -lo V_{j+1}, -hi V_{j+1})
        np.minimum(v_j, 0.0, out=t)
        np.multiply(lo, v_next, out=a)
        np.minimum(a, np.multiply(hi, v_next, out=b), out=a)
        np.minimum(a, 0.0, out=a)
        a *= d
        t += a
        t *= -lam
        # max(0, lam max(V_{j+1}, 0) + lam d max(0, lo V_j, hi V_j) - 1)
        np.multiply(lo, v_j, out=a)
        np.maximum(a, np.multiply(hi, v_j, out=b), out=a)
        np.maximum(a, 0.0, out=a)
        a *= d
        a += np.maximum(v_next, 0.0, out=b)
        a *= lam
        a -= 1.0
        np.maximum(a, 0.0, out=a)
        t += a
        # f drops by 1 - f(0) at 0 (the exponential law): lam (1 - f(0))
        # (|V_j| + |V_{j+1}|) on the cells whose [lo, hi] holds 0 and less
        drop = 1.0 - float(sat(0.0))
        if drop > 0.0:
            np.abs(v_j, out=a)
            a += np.abs(v_next, out=b)
            a *= lam * drop
            t += np.where((lo < 0.0) & (hi >= 0.0), a, 0.0)
        return bool(t.any())


def entropy_residual(
    rho: np.ndarray,
    rho_next: np.ndarray,
    v_lag: np.ndarray,
    lam: float,
    sat: Saturation,
    boundary: str,
    scheme: str = LAX_FRIEDRICHS,
    alpha: float | None = None,
) -> float:
    """An upper bound on the discrete entropy production of one step over
    every constant kappa; theory says it is 0.

    v_lag is the speed field the step read, with its ghost cells (J + 2
    cells, as lf_step and hw_step take it).  Freeze it and write the step
    at cell j as rho'_j = H_j(rho_{j-1}, rho_j, rho_{j+1}); F(u) = u f(u).
    For each kappa the residual is

        R_j(kappa) = sgn(rho'_j - kappa) (rho'_j - kappa + F(kappa) g_j)
                     - [H_j(rho v kappa) - H_j(rho ^ kappa)],

    the Kruzkov entropy production of the step with the numerical entropy
    flux G(u v kappa, w v kappa) - G(u ^ kappa, w ^ kappa) and the
    non-local correction F(kappa) g_j, with g_j = (lam/2)(V_{j+1} -
    V_{j-1}) for Lax-Friedrichs and lam (V_{j+1} - V_j) for
    Hilliges-Weidlich, so that H_j(kappa, kappa, kappa) = kappa - F(kappa)
    g_j.  Let c_j = rho'_j - H_j(rho) be the step's defect and lo_j, hi_j
    the least and greatest of rho_{j-1}, rho_j, rho_{j+1} and rho'_j.

    Lemma (Crandall and Majda 1980; the non-local correction as in
    Betancourt, Buerger, Karlsen and Tory 2011).  Below lo_j the residual
    is c_j, above hi_j it is -c_j.  If H_j is non-decreasing in each
    argument on [lo_j, hi_j]^3, then H_j(rho v kappa) - H_j(rho ^ kappa) >=
    |H_j(rho) - H_j(kappa, kappa, kappa)|, so R_j(kappa) <= |c_j| for
    every kappa, and sup_kappa R_j = |c_j| exactly.  If each partial
    derivative of H_j is only >= -m_i there, the same argument loses at
    most 2 (hi_j - lo_j) m_j, m_j = m_1 + m_2 + m_3.

    The value is max_j (|c_j| + 2 (hi_j - lo_j) m_j), an upper bound on
    sup over all real kappa of max_j R_j(kappa); it is that supremum
    wherever m_j = 0.  With f in [0, 1], |F'| <= Phi = 1 + R sup|f'| on
    the whole line (f = 1 below 0, 0 above R) and d = sup|f'|:

        LF  m_j = max(0, lam alpha - 1)
                  + (lam/2) sum_{+-} max(0, Phi |V_{j+-1}| - alpha)
        HW  m_j = lam max(0, -V_j) + lam d max(0, -lo_j V_{j+1}, -hi_j V_{j+1})
                  + max(0, lam max(V_{j+1}, 0)
                           + lam d max(0, lo_j V_j, hi_j V_j) - 1)

    and HW adds lam (1 - f(0)) (|V_j| + |V_{j+1}|) where lo_j < 0 <= hi_j:
    the exponential law's f jumps from 1 to f(0) at 0.  Under the CFL
    rules, with 0 <= V <= v_max (LF) and, for HW, levels in [0, R], every
    m_j is 0, as on every preset step.  c_j is computed in the step's own
    operation order, so a march that did what the scheme says gives
    exactly 0.  A run without a saturation term leaves [0, R] and its
    speeds [0, v_max], so a value watched there may be an upper bound,
    not the supremum.  The value is nan when it is not finite.  The step
    runs on an EntropyBlock of one row built for the call, the kernel a
    collector runs on whole blocks.
    """
    if scheme == LAX_FRIEDRICHS:
        if alpha is None:
            raise ValueError("the Lax-Friedrichs entropy bound needs alpha")
    elif scheme != HILLIGES_WEIDLICH:
        raise ValueError(f"unknown scheme {scheme!r}")
    rho = np.asarray(rho, dtype=float)
    return float(
        EntropyBlock(1, rho.size).residuals(
            rho[None], np.asarray(rho_next, dtype=float)[None],
            np.asarray(v_lag, dtype=float)[None], np.zeros(1, np.intp),
            lam, sat, boundary, scheme, alpha,
        )[0]
    )


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


def asserts_entropy(vel: Velocity, sat: Saturation, scheme: str) -> bool:
    """Whether a run asserts the entropy inequality on every step: a
    Lax-Friedrichs run with a saturation term and a C^2 velocity, the
    hypotheses under which the inequality is proved."""
    return sat.kind != SAT_NONE and vel.smooth and scheme == LAX_FRIEDRICHS


def block_bytes(n_cells: int, h: int, n_steps: int, entropy: bool) -> int:
    """Bytes of one collector's buffers: the (B + 1, J) level block, the
    (B + 1, J + 2) speed block, the (B, J) scratch block and the ring of
    min(h, N_T) + 1 reaches, all float64; with the entropy assertion also
    the EntropyBlock of B rows, three (B, J + 2) and four (B, J) float64
    rows.  They hold no kappa: by the monotone-scheme lemma
    (entropy_residual) max_j (|c_j| + 2 (hi_j - lo_j) m_j) bounds the
    residual of every kappa, is its supremum where m_j = 0 and is 0 for
    a march that did what the scheme says; a watched run without
    saturation, which builds no EntropyBlock here, may see an upper bound
    only."""
    rows = block_rows(n_cells)
    blocks = (2 * rows + 1) * n_cells + (rows + 1) * (n_cells + 2)
    total = (blocks + min(h, n_steps) + 1) * 8
    if entropy:
        total += EntropyBlock.bytes_for(rows, n_cells)
    return total


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics CSV row: level statistics at time t.

    entropy_residual_max is the entropy bound of the step that produced
    this level, over every kappa (nan at t = 0 or when it was not
    computed).
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
    (entropy_assert) applies to the Lax-Friedrichs scheme under the
    hypotheses of its proof, a saturation term and a C^2 velocity; every
    other run with a C^2 velocity (Hilliges-Weidlich, or Lax-Friedrichs
    without saturation) computes the residual at record rows without
    asserting it (entropy_watch).  Periodic runs assert mass conservation
    (conserve_mass).

    Every step is checked: positivity, the maximum principle, mass
    conservation, the TV ceiling and the asserted entropy residual at each
    one, and the speed adjacent-difference bound once per speed field
    (schemes.run hands the same read-only speed field, with its ghost
    cells, to consecutive steps that read the same lagged level, so a call
    whose speeds are the previous call's object brings no new field).  The
    checks run a block of steps at a time: a call copies its level, and a
    new field whole, into preallocated buffers of block_rows(J) rows, and
    flush() reduces the whole block with one NumPy call per statistic,
    computes every entropy value the walk will read, then walks its rows
    in step order.  A run that asserts entropy computes the whole block's
    values with one call of its EntropyBlock, built once per run: for
    each step the bound max_j (|c_j| + 2 (hi_j - lo_j) m_j) on the
    residual of every kappa, c_j = rho' - H_j(rho) the step's defect and
    m_j its monotonicity defect (see entropy_residual).  On a step within
    the CFL rules, with speeds in [0, v_max], every m_j is 0 and the value
    is max_j |c_j|, the exact supremum over kappa, which is 0 for a march
    that did what the scheme says.  A watching run calls entropy_residual
    at its record rows after step 0, which builds its buffers per call,
    and leaves nan on the other rows; without a saturation term its
    levels leave [0, R], so a watched value may be an upper bound, not
    the supremum.  The walk calls no entropy function: it reads each
    step's value and refuses an asserted one unless it is at most
    ENTROPY_TOL.  Every check refuses a value unless it is within its
    bound, so a nan fails each one.
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
        self.entropy_assert = asserts_entropy(vel, sat, scheme)
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
        # the entropy kernel's unread step-0 row reads defined values)
        rows, cells = block_rows(grid.n_cells), grid.n_cells
        self._levels = np.zeros((rows + 1, cells))
        self._speeds = np.zeros((rows + 1, cells + 2))
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
        # the block kernel's buffers for the per-step assertion; watch rows
        # build theirs per call
        self._entropy_work = EntropyBlock(rows, cells) if self.entropy_assert else None

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

    def _residuals(self, m, field_rows, records) -> list[float]:
        """The entropy value of each of the block's m steps that the walk
        reads, nan where the run computes none.

        Step r goes from level row r to row r + 1 and reads the speed
        field of the call before it.  An asserting run evaluates every
        step with its EntropyBlock; a watching run evaluates, with
        entropy_residual, the steps after step 0 that records marks.
        """
        levels, grid = self._levels, self.grid
        # step r reads speed row k, k the number of fields first seen
        # before row r (row 0 is the carry's field)
        if self.entropy_assert:
            fields = np.searchsorted(field_rows, np.arange(m))
            return self._entropy_work.residuals(
                levels[:m], levels[1 : m + 1], self._speeds, fields, grid.lam, self.sat,
                self.boundary, self.scheme, grid.alpha,
            ).tolist()
        residuals = [math.nan] * m
        if self.entropy_watch:
            first = self._last_n - m + 1
            for r in range(max(1 - first, 0), m):
                if records[r]:
                    speeds = self._speeds[np.searchsorted(field_rows, r)]
                    residuals[r] = entropy_residual(
                        levels[r], levels[r + 1], speeds, grid.lam, self.sat,
                        self.boundary, scheme=self.scheme, alpha=grid.alpha,
                    )
        return residuals

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
        first = self._last_n - m + 1
        # a record at step 0, every stride steps and step n_final
        records = [n % self.stride == 0 or n == self.n_final for n in range(first, first + m)]
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
        residuals = self._residuals(m, field_rows, records)

        field = 0
        field_row = field_rows[0] if field_rows else -1
        reach, ring, h = self._reach, len(self._reach), grid.delay_steps
        # each check refuses a value that does not compare true with its
        # bound, so a nan fails it
        for r in range(m):
            n = first + r
            t = n * grid.dt
            lo, hi = lows[r], highs[r]
            linf = max(abs(lo), abs(hi))
            reach[n % ring] = linf
            new_field = r == field_row
            if new_field and gaps:
                lagged_sup = max(self.vel.rho_max, float(reach[max(n - h, 0) % ring]))
                speed_bound = speed_increment_bound(self.vel, self.weights, lagged_sup)
                if not gaps[field] <= speed_bound + SPEED_TOL:
                    raise InvariantViolation(
                        f"step {n}: speed increment {gaps[field]} exceeds bound {speed_bound}"
                    )

            self.sup_density = max(self.sup_density, hi)
            self.min_density = min(self.min_density, lo)
            if self.positivity and not lo >= -LEVEL_TOL:
                raise InvariantViolation(f"step {n}: negative density {lo}")
            ceiling = self.rho_ceiling
            if ceiling is not None and not hi <= ceiling + LEVEL_TOL:
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
                if not drift <= MASS_TOL:
                    raise InvariantViolation(f"step {n}: relative mass drift {drift}")

            tv, l1 = tvs[r], l1s[r]
            self.sup_tv = max(self.sup_tv, tv)
            self.sup_bv = max(self.sup_bv, tv + l1)
            is_row = records[r]
            bound = math.nan
            if self.constants is not None and (self.tv_ceiling or is_row):
                bound = self.constants.tv_bound_at(t)
            if self.tv_ceiling and not tv <= bound * (1.0 + BOUND_TOL) + BOUND_TOL:
                raise InvariantViolation(
                    f"step {n}: total variation {tv} exceeds the ceiling {bound}"
                )

            residual = math.nan
            if n > 0:
                self.space_time_tv_time += dists[r]
                self.space_time_tv_space += grid.dt * self._prev_tv
                # max keeps its first argument against a nan: a row without one
                residual = residuals[r]
                self.entropy_max = max(self.entropy_max, residual)
                if self.entropy_assert and not residual <= ENTROPY_TOL:
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
                field_row = field_rows[field] if field < len(field_rows) else -1
            self._prev_tv = tv

        if field_rows:
            self._speeds[0] = self._speeds[len(field_rows)]
        levels[0] = levels[m]
