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
from .schemes import FREE_FLOW, HILLIGES_WEIDLICH, LAX_FRIEDRICHS, PERIODIC, _fill_ghosts, extend3

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


#: (kappa, cell) pairs the Lax-Friedrichs entropy kernel evaluates at a time.
PAIR_CHUNK = 1024

#: Relative slack of the bucket test that preselects the cells whose
#: [lo, hi] may hold a grid kappa (searchsorted then decides exactly); far
#: above the few ulps by which kappa_i and i R / (n - 1) differ.
_BUCKET_SLACK = 1e-9


class EntropyBlock:
    """Buffers of the Lax-Friedrichs entropy kernel for up to B steps of J cells.

    (B, J + 2) rows: the ghost-extended level r, F = r f(r) and the speed
    field each step read.  (B, J) rows: lo and hi, the least and greatest
    of r_{j-1}, r_j, r_{j+1} and rho'_j, the defect c = rho' - LF(rho) and
    a work row, and three boolean masks.  PAIR_CHUNK-long vectors hold the
    queued active (kappa, cell) pairs and their per-pair work.  See
    residuals and entropy_residual.
    """

    #: Per-pair float vectors: kappa, kappa f(kappa) and ten work vectors.
    _PAIR_VECTORS = 12

    def __init__(self, rows: int, cells: int) -> None:
        self.r, self.flux, self.v = np.empty((3, rows, cells + 2))
        self.lo, self.hi, self.c, self.t = np.empty((4, rows, cells))
        self.mask, self.other, self.spread = np.empty((3, rows, cells), dtype=bool)
        self.pair = np.empty((self._PAIR_VECTORS, PAIR_CHUNK))
        self.cells = np.empty(PAIR_CHUNK, dtype=np.intp)

    @classmethod
    def bytes_for(cls, rows: int, cells: int) -> int:
        """Bytes of the buffers of a kernel for B rows of J cells."""
        floats = 3 * rows * (cells + 2) + 4 * rows * cells + cls._PAIR_VECTORS * PAIR_CHUNK
        return floats * 8 + 3 * rows * cells + PAIR_CHUNK * np.dtype(np.intp).itemsize

    def residuals(
        self,
        rho: np.ndarray,
        rho_next: np.ndarray,
        f_rho: np.ndarray,
        speeds: np.ndarray,
        fields: np.ndarray,
        lam: float,
        alpha: float,
        boundary: str,
        kappas: np.ndarray,
        kappa_flux: np.ndarray,
        grid: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Largest Lax-Friedrichs entropy residual of each of m steps.

        Step i goes from rho[i] to rho_next[i] (m x J) with f_rho[i] = f on
        rho[i] and the speed field speeds[fields[i]] (J + 2 cells).  Its
        kappas are row i of kappas, with kappa f(kappa) in kappa_flux (m x
        Q), and the grid (kappas, kappa f(kappa)), n kappas equispaced on
        [0, R] that every step shares.  A flat cell at kappa contributes 0;
        where kappas lie on both sides of the cell its +-c terms already
        reach 0, so the zero is added only for a flat cell at a step's
        lowest or highest kappa, and only to a step whose maximum is
        negative without it.  A step's value is nan when any of its inputs
        is not finite, and a zero is +0.
        """
        m, cells = rho.shape
        r, flux, v = self.r[:m], self.flux[:m], self.v[:m]
        lo, hi, c, t = self.lo[:m], self.hi[:m], self.c[:m], self.t[:m]
        mask, other, spread = self.mask[:m], self.other[:m], self.spread[:m]
        r[:, 1:-1] = rho
        np.multiply(rho, f_rho, out=flux[:, 1:-1])
        _fill_ghosts(r.T, boundary)
        _fill_ghosts(flux.T, boundary)
        np.take(speeds, fields, axis=0, out=v, mode="clip")
        # c = rho' - LF(rho), in lf_step's operation order
        np.multiply(flux[:, 2:], v[:, 2:], out=c)
        c -= np.multiply(flux[:, :-2], v[:, :-2], out=t)
        np.multiply(2.0, rho, out=t)
        np.subtract(r[:, 2:], t, out=t)
        t += r[:, :-2]
        t *= alpha
        t -= c
        t *= 0.5 * lam
        t += rho
        np.subtract(rho_next, t, out=c)
        np.minimum(r[:, :-2], r[:, 1:-1], out=lo)
        np.minimum(lo, r[:, 2:], out=lo)
        np.minimum(lo, rho_next, out=lo)
        np.maximum(r[:, :-2], r[:, 1:-1], out=hi)
        np.maximum(hi, r[:, 2:], out=hi)
        np.maximum(hi, rho_next, out=hi)
        np.less(lo, hi, out=spread)

        # inactive pairs: +c where a kappa lies below lo, -c where one lies
        # above hi; each reduction masks out the cells without one
        k_lo, k_hi = kappas.min(axis=1)[:, None], kappas.max(axis=1)[:, None]
        if grid is not None:
            np.minimum(k_lo, grid[0][0], out=k_lo)
            np.maximum(k_hi, grid[0][-1], out=k_hi)
        np.copyto(t, c)
        np.copyto(t, -np.inf, where=np.less_equal(lo, k_lo, out=mask))
        out = np.maximum.reduce(t, axis=1)
        np.copyto(t, c)
        np.copyto(t, np.inf, where=np.greater_equal(hi, k_hi, out=mask))
        np.maximum(out, np.negative(np.minimum.reduce(t, axis=1)), out=out)

        # active pairs, queued into chunks: (cell index into the m x J
        # rows, kappa, kappa f(kappa))
        queued = 0

        def queue(cells, kap, kap_flux):
            nonlocal queued
            done = 0
            while done < cells.size:
                size = min(PAIR_CHUNK - queued, cells.size - done)
                span, part = slice(queued, queued + size), slice(done, done + size)
                self.cells[span], self.pair[0, span], self.pair[1, span] = (
                    cells[part], kap[part], kap_flux[part]
                )
                queued += size
                done += size
                if queued == PAIR_CHUNK:
                    self._evaluate(queued, out, rho_next, lam, alpha)
                    queued = 0

        if grid is not None:
            kap, kap_flux = grid
            # the bucket test: t is the lowest grid kappa that may lie at or
            # above lo, lowered by the slack
            scale = (kap.size - 1) / kap[-1]
            np.multiply(lo, scale * (1.0 - _BUCKET_SLACK), out=t)
            np.ceil(t, out=t)
            t *= (1.0 - _BUCKET_SLACK) / scale
            np.less_equal(t, hi, out=mask)
            cand = np.flatnonzero(mask & spread)
            first = np.searchsorted(kap, lo.reshape(-1)[cand], side="left")
            count = np.searchsorted(kap, hi.reshape(-1)[cand], side="right") - first
            ends = np.cumsum(count)
            base = ends - count - first
            total = int(ends[-1]) if ends.size else 0
            for start in range(0, total, PAIR_CHUNK):
                pairs = np.arange(start, min(start + PAIR_CHUNK, total))
                owner = np.searchsorted(ends, pairs, side="right")
                index = pairs - base[owner]
                queue(cand[owner], kap[index], kap_flux[index])
        for q in range(kappas.shape[1]):
            k = kappas[:, q, None]
            np.less_equal(lo, k, out=mask)
            mask &= np.less_equal(k, hi, out=other)
            mask &= spread
            hit = np.flatnonzero(mask)
            row = hit // cells
            queue(hit, kappas[row, q], kappa_flux[row, q])
        if queued:
            self._evaluate(queued, out, rho_next, lam, alpha)
        if np.any(out < 0.0):
            for k in (k_lo, k_hi):
                np.equal(lo, k, out=mask)
                mask &= np.equal(hi, k, out=other)
                np.maximum(out, 0.0, out=out, where=np.logical_or.reduce(mask, axis=1))
        out += 0.0
        check = np.add.reduce(c, axis=1)
        check += np.add.reduce(kappas, axis=1)
        out[~np.isfinite(check)] = np.nan
        return out

    def _evaluate(self, n, out, rho_next, lam, alpha) -> None:
        """Residuals of the first n queued pairs, element by element in the
        order of entropy_residual's broadcast expressions, maximized into
        out by row."""
        cells = self.cells[:n]
        row = cells // self.lo.shape[1]
        left = cells + 2 * row
        kap, kap_flux, rl, rc, rr, fl, fr, vl, vr, e, gap, sign = self.pair[:, :n]
        r, flux, v = self.r.reshape(-1), self.flux.reshape(-1), self.v.reshape(-1)
        np.take(r, left, out=rl, mode="clip")
        np.take(r[1:], left, out=rc, mode="clip")
        np.take(r[2:], left, out=rr, mode="clip")
        np.take(flux, left, out=fl, mode="clip")
        np.take(flux[2:], left, out=fr, mode="clip")
        np.take(v, left, out=vl, mode="clip")
        np.take(v[2:], left, out=vr, mode="clip")
        np.take(rho_next.reshape(-1), cells, out=e, mode="clip")
        np.subtract(vr, vl, out=gap)
        gap *= 0.5 * lam
        vl *= 0.5 * lam
        vr *= 0.5 * lam
        # P(r) = sgn(r - k) (F(r) - F(k)) (lam/2) V at j + 1 and j - 1
        for d, p, hv in ((rr, fr, vr), (rl, fl, vl)):
            d -= kap
            p -= kap_flux
            p *= np.sign(d, out=sign)
            p *= hv
            np.abs(d, out=d)
        res = rr
        res += rl
        res *= -0.5 * lam * alpha
        res += fr
        res -= fl
        rc -= kap
        np.abs(rc, out=rc)
        rc *= lam * alpha - 1.0
        res += rc
        e -= kap
        np.sign(e, out=sign)
        gap *= kap_flux
        e += gap
        e *= sign
        res += e
        # unlike np.maximum, its .at form flags a nan it propagates
        with np.errstate(invalid="ignore"):
            np.maximum.at(out, row, res)


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
) -> float:
    """Largest discrete entropy production of one step; theory says <= 0.

    v_lag is the speed field the step read, with its ghost cells (J + 2
    cells, as lf_step and hw_step take it).  For each cell j and constant
    kappa the residual is

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

    f is evaluated on the cells and on the kappas, never on a kappa-by-cell
    array.  Since F(max(u,k)) - F(min(u,k)) = sgn(u-k)(F(u) - F(k)) and
    max(w,k) - min(w,k) = |w-k|, the Lax-Friedrichs flux is

        Fk(u, w) = (P(u) V_j + P(w) V_{j+1}) / 2 - alpha (|w-k| - |u-k|) / 2,
        P(u) = sgn(u-k) (F(u) - F(k)),

    |rho'_j - k| and the correction fuse into sgn(e) (e + lam F(k) gap_j),
    e = rho'_j - k, for both schemes.  Hilliges-Weidlich takes f(max(w,k)) =
    min(f(w), f(k)) and f(min(w,k)) = max(f(w), f(k)), as f is non-increasing.

    The Lax-Friedrichs residual splits the (kappa, j) pairs in two.  Let
    lo_j and hi_j be the least and greatest of rho_{j-1}, rho_j, rho_{j+1}
    and rho'_j.  When kappa lies strictly below lo_j every sign above is
    +1, and the kappa and F(kappa) terms cancel: in exact arithmetic the
    residual is c_j = rho'_j - LF_j(rho), the step's defect against the
    Lax-Friedrichs update; strictly above hi_j it is -c_j.  So only the
    active pairs, lo_j <= kappa <= hi_j with lo_j < hi_j, are evaluated by
    the formula above, element by element in the order of the broadcast
    expressions (each equals a full (kappa, j) evaluation bit for bit);
    every other pair contributes +-c_j, with c_j in lf_step's operation
    order, and a flat cell (lo_j = hi_j) contributes exactly 0 at
    kappa = lo_j.  Since an inactive pair takes c_j, not the formula at its
    kappa, the maximum can differ from a full (kappa, j) evaluation at
    rounding level.  The kappas are still the given sample, not every
    kappa.  The step runs, on an EntropyBlock of one row built for the
    call, the kernel a collector runs on whole blocks
    (EntropyBlock.residuals).  The value is nan when an input is not
    finite.  The Hilliges-Weidlich residual, which a collector computes
    only at record rows, is a broadcast expression.
    """
    rho = np.asarray(rho, dtype=float)
    rho_next = np.asarray(rho_next, dtype=float)
    v_lag = np.asarray(v_lag, dtype=float)
    kap = np.asarray(kappas, dtype=float).reshape(1, -1)
    if scheme == LAX_FRIEDRICHS:
        if alpha is None:
            raise ValueError("the Lax-Friedrichs entropy flux needs alpha")
        return float(
            EntropyBlock(1, rho.size).residuals(
                rho[None], rho_next[None], sat(rho)[None], v_lag[None], np.zeros(1, np.intp),
                lam, alpha, boundary, kap, kap * sat(kap),
            )[0]
        )
    if scheme != HILLIGES_WEIDLICH:
        raise ValueError(f"unknown scheme {scheme!r}")
    kap = kap.reshape(-1, 1)
    r = extend3(rho, boundary)
    f_r = sat(r)
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


def asserts_entropy(vel: Velocity, sat: Saturation, scheme: str) -> bool:
    """Whether a run asserts the entropy inequality on every step: a
    Lax-Friedrichs run with a saturation term and a C^2 velocity, the
    hypotheses under which the inequality is proved."""
    return sat.kind != SAT_NONE and vel.smooth and scheme == LAX_FRIEDRICHS


def block_bytes(n_cells: int, h: int, n_steps: int, entropy: bool) -> int:
    """Bytes of one collector's buffers: the (B + 1, J) level block, the
    (B + 1, J + 2) speed block, the (B, J) scratch block, the ring of
    min(h, N_T) + 1 reaches and the KAPPA_COUNT grid kappas, all float64;
    with the entropy assertion also the EntropyBlock of B rows and
    kappa f(kappa) on the grid kappas.  The EntropyBlock scales with B:
    its (B, J + 2) and (B, J) rows are most of it.  f on the levels goes
    into the scratch block."""
    rows = block_rows(n_cells)
    blocks = (2 * rows + 1) * n_cells + (rows + 1) * (n_cells + 2)
    total = (blocks + min(h, n_steps) + 1 + KAPPA_COUNT) * 8
    if entropy:
        total += EntropyBlock.bytes_for(rows, n_cells) + KAPPA_COUNT * 8
    return total


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
    computes every entropy residual the walk will read, then walks its
    rows in step order.  Each step's kappas are the 17 grid kappas,
    default_kappas(R) once per run, and the extrema of the level it starts
    from, which the block's reduction over its level rows and the carry
    row gives.  A run that asserts entropy computes the whole block's
    residuals with one call of its EntropyBlock, built once per run: f on
    the block's levels goes into the scratch block, and f on the grid
    kappas is evaluated once per run and on the extrema once per flush.
    Only the (kappa, cell) pairs with kappa in [lo_j, hi_j] of a non-flat
    cell are evaluated; the others contribute +-(rho' - LF(rho))_j exactly
    (see entropy_residual), so entropy_max can differ from a full
    (kappa, j) evaluation at rounding level.  The kappas are still that
    19-point sample, not every kappa.  A watching run calls
    entropy_residual at its record rows after step 0, which builds its
    buffers per call, and leaves nan on the other rows.  The walk calls no
    entropy function: it reads each step's residual and refuses an
    asserted one unless it is at most ENTROPY_TOL.  Every check refuses a
    value unless it is within its bound, so a nan fails each one.
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
        self._grid_kappas = default_kappas(vel.rho_max)
        # the block kernel's buffers and kappa f(kappa) on the grid kappas
        # for the per-step assertion; watch rows build theirs per call
        self._entropy_work = None
        if self.entropy_assert:
            self._entropy_work = EntropyBlock(rows, cells)
            self._grid_flux = self._grid_kappas * sat(self._grid_kappas)

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

    def _residuals(self, m, field_rows, lows, highs, records) -> list[float]:
        """The entropy residual of each of the block's m steps that the
        walk reads, nan where the run computes none.

        Step r goes from level row r to row r + 1 and reads the speed
        field of the call before it; its kappas are the grid and the
        extrema lows[r], highs[r] of level row r.  An asserting run
        evaluates every step with its EntropyBlock and writes f on the
        levels into the scratch block, which the distances and the speed
        gaps are done with; a watching run evaluates, with
        entropy_residual, the steps after step 0 that records marks.
        """
        levels, grid = self._levels, self.grid
        # step r reads speed row k, k the number of fields first seen
        # before row r (row 0 is the carry's field)
        if self.entropy_assert:
            extrema = np.stack([lows[:m], highs[:m]], axis=1)
            fields = np.searchsorted(field_rows, np.arange(m))
            return self._entropy_work.residuals(
                levels[:m], levels[1 : m + 1], self.sat(levels[:m], out=self._scratch[:m]),
                self._speeds, fields, grid.lam, grid.alpha, self.boundary,
                extrema, extrema * self.sat(extrema), (self._grid_kappas, self._grid_flux),
            ).tolist()
        residuals = [math.nan] * m
        if self.entropy_watch:
            first = self._last_n - m + 1
            for r in range(max(1 - first, 0), m):
                if records[r]:
                    speeds = self._speeds[np.searchsorted(field_rows, r)]
                    residuals[r] = entropy_residual(
                        levels[r], levels[r + 1], speeds, grid.lam, self.sat,
                        self.boundary, np.concatenate([self._grid_kappas, [lows[r], highs[r]]]),
                        scheme=self.scheme, alpha=grid.alpha,
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
        # its level bit for bit (the same pairwise order along the row).
        # The extrema cover the carry row too: those of level row r are
        # the kappas of the step from row r to row r + 1.
        lows = np.minimum.reduce(levels[: m + 1], axis=1)
        highs = np.maximum.reduce(levels[: m + 1], axis=1)
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
        residuals = self._residuals(m, field_rows, lows, highs, records)
        lows, highs = lows[1:].tolist(), highs[1:].tolist()

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
