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
import operator
from dataclasses import dataclass

import numpy as np

from .discretization import Grid, KernelWeights
from .model_functions import SAT_NONE, Kernel, Saturation, Velocity, flux_speed
from .schemes import (
    BLOCK_BYTES,
    FREE_FLOW,
    HILLIGES_WEIDLICH,
    LAX_FRIEDRICHS,
    PERIODIC,
    speed_rows,
    update,
)

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
    """Total-variation ceiling at time t: tv0 itself where the
    amplification is exactly 1 (t = 0), inf when the factor overflows."""
    if tv0 == 0.0:
        return 0.0
    log_c = log_tv_amplification(t, tau, rate)
    return tv0 if log_c == 0.0 else exp_or_inf(log_c + math.log(tv0))


def speed_increment_bound(vel: Velocity, weights: KernelWeights, rho_sup: float) -> float:
    """Uniform bound 2 sup|v'| sup(omega) rho_sup dx on |V_{j+1} - V_j|.

    A one-cell shift of the window drops w[0] rho_j, adds w[N-1] rho_{j+N}
    and reweights the rest, moving the load by at most dx rho_sup (w[0] +
    sum_k |w[k+1] - w[k]| + w[N-1]), 2 w[0] dx rho_sup for non-increasing w.
    """
    return 2.0 * vel.d1_sup * weights.sup * rho_sup * weights.dx


@dataclass(frozen=True)
class BoundConstants:
    """Growth rates and amplification factors of one run's estimates.

    tv_rate_current / tv_rate_lagged are the TV growth rates G and H fed by
    the current and the lagged level; tv_rate is their maximum M.  The
    amplification C and the L1-in-time rate K live in log space (see the
    module docstring).  tv_bound_at gives the TV ceiling at time t; the
    collector calls it once per block, at its record rows and on each row
    whose TV exceeds the block's bound.
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
        """tv_bound(t, tau, tv_rate, tv0): the run's TV ceiling at time t."""
        return tv_bound(t, self.tau, self.tv_rate, self.tv0)


@np.errstate(all="ignore")
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
    """The growth rates and log-space factors of one run, under an error
    state of its own that ignores every kind; None if v is not C^2."""
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
    it by name.  The entropy check needs no sample: the lemma in
    entropy_residual bounds the residual of every kappa at once.
    """
    base = np.linspace(0.0, rho_ceiling, KAPPA_COUNT)
    if level is not None:
        base = np.concatenate([base, [np.min(level), np.max(level)]])
    return np.unique(base)


class EntropyBlock:
    """Buffers and run constants of the entropy kernel for up to B steps
    of J cells.

    Per step it forms, per cell, the defect c_j = rho'_j - H_j(rho), H from
    schemes.update (which lf_step and hw_step call), and returns the bound
    max_j (|c_j| + 2 (hi_j - lo_j) m_j) of the lemma in entropy_residual.
    A block forms lo, hi and the monotonicity defect m only when a few
    reductions over it cannot prove every m_j to be 0 (see _certified).
    (B, J + 2) rows: the ghost-extended level r and f on it (then the
    fluxes); (B, J) rows: lo, hi, the defect and a work row.
    """

    def __init__(
        self,
        rows: int,
        cells: int,
        lam: float,
        sat: Saturation,
        boundary: str,
        scheme: str,
        alpha: float | None,
    ) -> None:
        if scheme == LAX_FRIEDRICHS:
            if alpha is None:
                raise ValueError("the Lax-Friedrichs entropy bound needs alpha")
        elif scheme != HILLIGES_WEIDLICH:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.lam = lam
        self.sat = sat
        self.boundary = boundary
        self.scheme = scheme
        self.alpha = alpha
        self.r, self.f = np.empty((2, rows, cells + 2))
        self.lo, self.hi, self.c, self.t = np.empty((4, rows, cells))

    @staticmethod
    def bytes_for(rows: int, cells: int) -> int:
        """Bytes of the buffers of a kernel for B rows of J cells."""
        return (2 * rows * (cells + 2) + 4 * rows * cells) * 8

    def residuals(self, rho: np.ndarray, rho_next: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The entropy bound of each of m steps (see entropy_residual).

        Step i goes from rho[i] to rho_next[i] (m x J) and reads the speed
        field v[i] (J + 2 cells), all read in place and never written.  A
        step's value is nan when it is not finite, and a zero is +0.
        """
        m = len(rho)
        c, t = self.c[:m], self.t[:m]
        # c = rho' - H(rho), with H(rho) from the function the march runs
        update(
            self.scheme, rho.T, v.T, self.lam, self.alpha, self.sat, self.boundary,
            self.r[:m].T, self.f[:m].T, c.T, t.T,
        )
        np.subtract(rho_next, t, out=c)
        np.abs(c, out=c)
        if self._monotonicity_defect(rho_next, v):
            hi = self.hi[:m]
            hi -= self.lo[:m]
            hi *= t
            hi *= 2.0
            c += hi
        out = np.maximum.reduce(c, axis=1)
        out[~np.isfinite(out)] = np.nan
        return out

    def _certified(self, rho_next: np.ndarray, v: np.ndarray) -> bool:
        """Whether every m_j of the block's steps is 0, proved from a few
        reductions over it, so that lo, hi and m need not be formed.

        LF: lam alpha <= 1 and Phi max|V| <= alpha make both terms of m_j
        0.  HW: V >= 0 on the cells the step reads (V_j, V_{j+1}), the
        levels and rho' >= 0, and lam (V_top d L_top + V_top) <= 1, with
        V_top = max V and L_top the largest level or rho' value, which is
        lam max V (1 + d max level) <= 1.  Then every m_j is 0:

        - lam max(0, -V_j) = 0, as V_j >= 0;
        - lo_j, hi_j >= 0, so -lo_j V_{j+1} and -hi_j V_{j+1} are <= 0 and
          the second term is 0;
        - lo_j < 0 nowhere, so the jump term of the exponential law is 0;
        - the third term evaluates lam (d max(lo_j V_j, hi_j V_j, 0)
          + max(V_{j+1}, 0)) - 1 with every operand in [0, the matching
          operand of the check]; rounding to nearest is monotone, so each
          cell's value is at most the check's lam (d L_top V_top + V_top)
          - 1, computed in the same order, which is <= 0.

        A nan anywhere fails a comparison, so the block is not certified.
        """
        r = self.r[: len(v)]
        lam, alpha, d = self.lam, self.alpha, self.sat.d1_sup
        if self.scheme == LAX_FRIEDRICHS:
            phi = 1.0 + self.sat.rho_max * d
            return lam * alpha <= 1.0 and phi * max(v.max(), -v.min()) <= alpha
        read = v[:, 1:]
        top = read.max()
        level_top = max(r.max(), rho_next.max())
        return (
            read.min() >= 0.0
            and min(r.min(), rho_next.min()) >= 0.0
            and (level_top * top * d + top) * lam <= 1.0
        )

    def _monotonicity_defect(self, rho_next: np.ndarray, v: np.ndarray) -> bool:
        """Whether some m_j of the block's steps is not 0; if so, m_j is in
        the work rows t and lo_j, hi_j in lo and hi.  f serves as scratch,
        and r once lo and hi are formed."""
        if self._certified(rho_next, v):
            return False
        m = len(v)
        r, lo, hi, t = self.r[:m], self.lo[:m], self.hi[:m], self.t[:m]
        lam, alpha, d = self.lam, self.alpha, self.sat.d1_sup
        if self.scheme == LAX_FRIEDRICHS:
            # max(0, lam alpha - 1) + (lam / 2) sum max(0, Phi |V_{j+-1}| - alpha)
            phi = 1.0 + self.sat.rho_max * d
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
        if self.scheme == LAX_FRIEDRICHS:
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
        drop = 1.0 - float(self.sat(0.0))
        if drop > 0.0:
            np.abs(v_j, out=a)
            a += np.abs(v_next, out=b)
            a *= lam * drop
            t += np.where((lo < 0.0) & (hi >= 0.0), a, 0.0)
        return bool(t.any())


@np.errstate(all="ignore")
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
    m_j is 0, as on every preset step.  H_j(rho) is formed by
    schemes.update, the function both lf_step and hw_step call, so a
    march that did what the scheme says gives exactly 0.  A run without a
    saturation term leaves [0, R] and its speeds [0, v_max], so a value
    reported there may be an upper bound, not the supremum.  The value is
    nan when it is not finite; every kind of floating-point exception is
    ignored, whatever the caller's error state.  The step runs on a
    one-row EntropyBlock, the collector's kernel.
    """
    rho = np.asarray(rho, dtype=float)
    rho_next = np.asarray(rho_next, dtype=float)
    v_lag = np.asarray(v_lag, dtype=float)
    block = EntropyBlock(1, rho.size, lam, sat, boundary, scheme, alpha)
    return float(block.residuals(rho[None], rho_next[None], v_lag[None])[0])


# ---------------------------------------------------------------------------
# per-run collector

def asserts_entropy(vel: Velocity, sat: Saturation, scheme: str) -> bool:
    """Whether a run asserts the entropy inequality on every step: a
    Lax-Friedrichs run under the hypotheses of its proof, a saturation
    term and a C^2 velocity (see DiagnosticsCollector)."""
    return sat.kind != SAT_NONE and vel.smooth and scheme == LAX_FRIEDRICHS


def block_rows(n_cells: int, asserting: bool) -> int:
    """Steps the collector checks per block.

    B0 = BLOCK_BYTES // 8 J J-cell float64 rows, at least one, on a run
    that asserts entropy: its flush touches nine rows per step, the level,
    speed and scratch rows and six of the EntropyBlock.  A run that only
    reports entropy touches three, its kernel rows being the few record
    steps (entropy_rows), and takes B = 2 B0.
    """
    rows = max(1, BLOCK_BYTES // (8 * n_cells))
    return rows if asserting else 2 * rows


def entropy_rows(rows: int, stride: int, asserting: bool) -> int:
    """Rows of the collector's EntropyBlock for blocks of B rows: B on a
    run that asserts entropy, else at most a block's record steps, the
    ceil(B / stride) multiples of stride and step n_final."""
    return rows if asserting else min(rows, -(-rows // stride) + 1)


def block_bytes(n_cells: int, h: int, n_steps: int, stride: int, asserting: bool) -> int:
    """Bytes of one collector's buffers and of the march's live speed
    blocks: the (B + 1, J) level and (B + 1, J + 2) speed blocks, the
    (B, J + 2) scratch block, the N_T + 1 per-step reaches and the
    EntropyBlock of entropy_rows(B, stride, asserting) rows, B =
    block_rows(J, asserting), plus the two (b, J + 2) blocks of speed
    fields schemes.run holds at once, b = schemes.speed_rows(J, h), all
    float64.  They hold no kappa (see entropy_residual)."""
    rows = block_rows(n_cells, asserting)
    blocks = (rows + 1) * n_cells + (2 * rows + 1 + 2 * speed_rows(n_cells, h)) * (n_cells + 2)
    kernel = EntropyBlock.bytes_for(entropy_rows(rows, stride, asserting), n_cells)
    return (blocks + n_steps + 1) * 8 + kernel


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics CSV row: level statistics at time t.

    entropy_residual_max is the entropy bound of the step that produced
    this level (see entropy_residual; nan at t = 0).
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
    other run reports the entropy bound at its record rows without
    asserting it.  The lemma covers a saturated, smooth Hilliges-Weidlich
    run as well, but asserting replays schemes.update on every step, not
    only at the record rows, which would add a large share to simulate
    on perfbench's HW workloads (ROADMAP.md has the measured A/B), so such
    runs report it.  Periodic runs assert mass conservation
    (conserve_mass).

    Every step is checked: positivity, the maximum principle, mass
    conservation, the TV ceiling, the speed adjacent-difference bound on
    the call's speed field and the asserted entropy residual.  Call i of
    a block copies its level into row i + 1 of a buffer of B + 1 rows, B =
    block_rows(J, entropy_assert), and its speed field, with its ghost
    cells, into the next row of a second such buffer unless it is the
    previous call's read-only object (schemes.run hands one read-only
    field to up to h + 1 calls): a writable array is copied on every call,
    and a read-only one is taken to keep its values.  flush() reduces the
    block with one NumPy call per statistic, takes every call's gap from
    its field's row (the level and speed differences each come from one
    flat subtraction over the rows, the speed one over the block's new
    fields only; entries across rows and ghost cells go unread) and runs
    the EntropyBlock (see entropy_residual) once: on every step of a run
    that asserts entropy, else on the record steps after step 0; other
    rows read nan.  It ignores every kind of floating-point exception in
    its own error state, whatever its caller's.

    flush() writes each step's max(|min|, |max|) into its entry of an
    array of n_final + 1 reaches, and then gives one verdict.  Each
    asserted check scans its rows against one bound for the block, which
    is at most each row's own: the TV ceiling of the block's first step
    (tv_bound_at does not decrease in t: log(2 e^x - 1) increases, and the
    windowed product is continuous at the seams q tau, up to jitter far
    below BOUND_TOL), and the speed bound at sup|rho| = R (the field of
    call n has its own at max(R, reach of step max(n - h, 0)), and the
    bound grows with sup|rho|).  Only a row that fails the scan is judged
    against its own bound.  Every comparison refuses a nan and a +inf, so
    a non-finite level, TV value, gap or asserted entropy value fails.  Of
    the checks' first violations the verdict raises the earliest step's,
    and at one step the first in a per-step check's order (speed,
    positivity, ceiling, mass, TV, entropy), with a per-step check's
    message: a violation surfaces up to a block late, but reports its own
    step.  A block that passes is committed in bulk: running maxima,
    accumulators (added in step order) and records, as a per-step check
    leaves them.
    flush() runs when the block is full and at step n_final; a caller that
    stops before n_final (runners.simulate on a StepError) calls it itself.
    Calls come with n = 0, 1, 2, ... in order, as schemes.run makes them.

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
        # call i of a block: its level in level row i + 1, its speed field
        # in speed row _field[i + 1], the block's new fields filling speed
        # rows 1.._fields - 1, so step r reads level rows r, r + 1 and
        # speed row _field[r]; row 0 of both carries the previous block's
        # last call (zero before step 0, so the entropy kernel's unread
        # step-0 row reads defined values)
        rows, cells = block_rows(grid.n_cells, self.entropy_assert), grid.n_cells
        self._levels = np.zeros((rows + 1, cells))
        self._speeds = np.zeros((rows + 1, cells + 2))
        self._scratch = np.empty((rows, cells + 2))
        self._field = [0] * (rows + 1)
        self._fields = 1
        # the last call's speed field if it is read-only, else None
        self._shared = None
        # sup|rho^n| of step n; see the class docstring
        self._reach = np.empty(n_final + 1)
        self._count = 0
        self._last_n = -1
        # TV and speed gap of the carry row's call
        self._prev_tv = 0.0
        self._prev_gap = math.nan
        self._entropy_work = EntropyBlock(
            entropy_rows(rows, stride, self.entropy_assert), cells,
            grid.lam, sat, boundary, scheme, grid.alpha,
        )

    def __call__(self, n: int, level: np.ndarray, speeds: np.ndarray) -> None:
        i = self._count + 1
        self._levels[i] = level
        if speeds is not self._shared:
            self._speeds[self._fields] = speeds
            self._fields += 1
            self._shared = None if speeds.flags.writeable else speeds
        self._field[i] = self._fields - 1
        self._count = i
        self._last_n = n
        if i == len(self._scratch) or n == self.n_final:
            self.flush()

    def _check_speeds(self, m: int) -> list[float]:
        """Increment gap max|V_{j+1} - V_j| of each of the block's m calls'
        speed fields, none below two cells.  Only the block's new speed rows
        are diffed, in one flat difference; a call that shares the carry
        row's field takes the gap its previous block found."""
        cells = self._scratch.shape[1] - 2
        if cells < 2:
            return []
        gaps, new = [self._prev_gap], self._fields - 1
        if new:
            speeds, scratch = self._speeds[1 : new + 1].reshape(-1), self._scratch[:new]
            np.subtract(speeds[1:], speeds[:-1], out=scratch.reshape(-1)[:-1])
            diff = scratch[:, 1:cells]
            gaps += np.maximum.reduce(np.abs(diff, out=diff), axis=1).tolist()
        return [gaps[k] for k in self._field[1 : m + 1]]

    def _residuals(self, m, marks) -> list[float]:
        """The entropy value of each of the block's m steps, nan where the
        run computes none.

        Step r goes from level row r to row r + 1 and reads speed row
        _field[r].  An asserting run evaluates every step, on views of the
        buffers when each of its calls brought a new field (speed row r is
        then step r's), any other run its record rows marks after step 0,
        in one EntropyBlock call, and none when there are no such steps.
        """
        levels, speeds, field = self._levels, self._speeds, self._field
        if self.entropy_assert:
            steps = range(m)
            rho, rho_next = levels[:m], levels[1 : m + 1]
            # _field rises by at most one per row from _field[0] = 0
            v = speeds[:m] if field[m - 1] == m - 1 else speeds[field[:m]]
        else:
            first = self._last_n - m + 1
            steps = [r for r in marks if first + r > 0]
            if not steps:
                return [math.nan] * m
            rho, rho_next = levels[steps], levels[[r + 1 for r in steps]]
            v = speeds[[field[r] for r in steps]]
        values = self._entropy_work.residuals(rho, rho_next, v)
        residuals = [math.nan] * m
        for r, value in zip(steps, values.tolist()):
            residuals[r] = value
        return residuals

    @np.errstate(all="ignore")
    def flush(self) -> None:
        """Check the buffered steps; raise the first violation."""
        m = self._count
        if m == 0:
            return
        self._count = 0
        levels = self._levels
        rows = levels[1 : m + 1]
        scratch = self._scratch.reshape(-1)[: rows.size].reshape(rows.shape)
        grid = self.grid
        first = self._last_n - m + 1
        # the record rows: step 0, every stride steps and step n_final
        marks = list(range(-first % self.stride, m, self.stride))
        if self._last_n == self.n_final and self.n_final % self.stride:
            marks.append(m - 1)
        # one reduction per statistic; each row's sum equals the 1-D sum of
        # its level bit for bit (the same pairwise order along the row)
        lows, highs = np.minimum.reduce(rows, axis=1), np.maximum.reduce(rows, axis=1)
        np.maximum(np.abs(lows), np.abs(highs), out=self._reach[first : first + m])
        lows, highs = lows.tolist(), highs.tolist()
        sums = np.add.reduce(rows, axis=1)
        masses = (sums * grid.dx).tolist()
        gaps = self._check_speeds(m)
        np.subtract(rows.ravel()[1:], rows.ravel()[:-1], out=scratch.reshape(-1)[:-1])
        diff = scratch[:, :-1]
        tvs = np.add.reduce(np.abs(diff, out=diff), axis=1)
        if self.boundary != FREE_FLOW:
            tvs += np.abs(rows[:, 0] - rows[:, -1])
        tvs = tvs.tolist()
        if all(lo >= 0.0 for lo in lows):
            # on rows without a negative cell the l1 sum is the row sum;
            # + 0.0 gives an all-zero row the +0 of the sum of |rho|
            l1s = ((sums + 0.0) * grid.dx).tolist()
        else:
            l1s = (np.add.reduce(np.abs(rows, out=scratch), axis=1) * grid.dx).tolist()
        np.subtract(rows, levels[:m], out=scratch)
        dists = (np.add.reduce(np.abs(scratch, out=scratch), axis=1) * grid.dx).tolist()
        residuals = self._residuals(m, marks)
        # step 0 has no drift, entropy value (its row reads the zeroed carry
        # row) or space-time term
        skip, mass0 = (1, masses[0]) if first == 0 else (0, self._mass0)
        drifts = []
        if self.conserve_mass:
            scale = max(abs(mass0), 1.0)
            drifts = [abs(mass - mass0) / scale for mass in masses[skip:]]
        self._verdict(first, skip, lows, highs, tvs, drifts, gaps, residuals)
        # every row passed: the block's state in bulk; a list's max or min from the
        # running value keeps the first extremum and skips a nan after it,
        # as a per-step check's pairwise max and min do
        self._mass0 = mass0
        self.sup_density = max([self.sup_density, *highs])
        self.min_density = min([self.min_density, *lows])
        self.sup_tv = max([self.sup_tv, *tvs])
        self.sup_bv = max([self.sup_bv, *map(operator.add, tvs, l1s)])
        self.mass_drift_max = max([self.mass_drift_max, *drifts])
        self.entropy_max = max([self.entropy_max, *residuals[skip:]])
        space, span, dt = self.space_time_tv_space, self.space_time_tv_time, grid.dt
        for prev_tv, dist in zip([self._prev_tv, *tvs][skip:m], dists[skip:]):
            span += dist
            space += dt * prev_tv
        self.space_time_tv_space, self.space_time_tv_time = space, span
        self._prev_tv = tvs[-1]
        self._prev_gap = gaps[-1] if gaps else math.nan
        for r in marks:
            n = first + r
            t = n * grid.dt
            ceiling = math.nan if self.constants is None else self.constants.tv_bound_at(t)
            residual = residuals[r] if n > 0 else math.nan
            linf = float(self._reach[n])
            self.records.append(
                DiagnosticsRecord(t, l1s[r], linf, lows[r], highs[r], tvs[r], ceiling, residual)
            )
        if self._field[m]:
            self._speeds[0] = self._speeds[self._field[m]]
        self._fields = 1
        levels[0] = levels[m]
        if self._last_n == self.n_final:
            # no call follows: keep no caller's array past the run
            self._shared = None

    def _verdict(self, first, skip, lows, highs, tvs, drifts, gaps, residuals):
        """Raise the block's first violation, as a per-step check in step
        order would (see the class docstring)."""
        vel, weights, reach, h = self.vel, self.weights, self._reach, self.grid.delay_steps
        dt, ceiling, constants = self.grid.dt, self.rho_ceiling, self.constants

        def speed_row(n, gap):
            lagged_sup = max(vel.rho_max, float(reach[max(n - h, 0)]))
            bound = speed_increment_bound(vel, weights, lagged_sup)
            if not gap <= bound + SPEED_TOL:
                return f"speed increment {gap} exceeds bound {bound}"

        def tv_row(n, tv):
            bound = constants.tv_bound_at(n * dt)
            if not tv <= bound * (1.0 + BOUND_TOL) + BOUND_TOL:
                return f"total variation {tv} exceeds the ceiling {bound}"

        # each asserted check in the per-step order: its first row, its
        # values, a bound at most each row's own, and the judge of a row
        # above it, which gives the message if the row's own bound refuses it
        top = speed_increment_bound(vel, weights, vel.rho_max) + SPEED_TOL
        checks = [(0, gaps, top, speed_row)]
        if self.positivity:
            negated = [-lo for lo in lows]
            checks.append((0, negated, LEVEL_TOL, lambda n, lo: f"negative density {-lo}"))
        if ceiling is not None:
            checks.append((
                0, highs, ceiling + LEVEL_TOL,
                lambda n, hi: f"density {hi} exceeds the ceiling {ceiling}",
            ))
        if self.conserve_mass:
            checks.append((skip, drifts, MASS_TOL, lambda n, d: f"relative mass drift {d}"))
        if self.tv_ceiling:
            checks.append((0, tvs, constants.tv_bound_at(first * dt), tv_row))
        if self.entropy_assert:
            checks.append((
                skip, residuals[skip:], ENTROPY_TOL,
                lambda n, e: f"entropy residual {e} above {ENTROPY_TOL}",
            ))
        found = []
        for order, (start, values, top, judge) in enumerate(checks):
            # a value that does not compare true with a bound fails it, so
            # a nan fails every check
            for n, value in enumerate(values, first + start):
                if not value <= top and (refusal := judge(n, value)):
                    found.append((n, order, refusal))
                    break
        if found:
            n, _, message = min(found)
            raise InvariantViolation(f"step {n}: {message}")
