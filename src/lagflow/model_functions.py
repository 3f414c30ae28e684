"""Continuous model ingredients: velocity, saturation, look-ahead kernel.

The flux of the model is rho * f(rho) * v((rho * omega)(t - tau, x)), built
from three ingredient families:

  velocity v      non-increasing mean speed, v(0) = V and v(R) = 0
  saturation f    non-increasing free-space factor in [0, 1], f(R) = 0
  kernel omega    non-increasing look-ahead weight on [0, L] with integral 1

Each family exposes the analytic sup-norms of its derivatives as properties,
None where a bound does not exist; every CFL condition and every theoretical
constant reads them from the model objects, never finite-difference
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GREENSHIELDS = "greenshields"
NORMALIZED_GREENSHIELDS = "normalized_greenshields"
CROPPED = "cropped"

SAT_NONE = "none"
SAT_LINEAR = "linear"
SAT_EXPONENTIAL = "exponential"

KERNEL_CONSTANT = "constant"
KERNEL_LINEAR_DECREASING = "linear_decreasing"

VELOCITY_KINDS = (GREENSHIELDS, NORMALIZED_GREENSHIELDS, CROPPED)
SATURATION_KINDS = (SAT_NONE, SAT_LINEAR, SAT_EXPONENTIAL)
KERNEL_KINDS = (KERNEL_CONSTANT, KERNEL_LINEAR_DECREASING)


@dataclass(frozen=True)
class Velocity:
    """Mean-speed law v with maximal speed V attained at density 0.

    Kinds:
      greenshields             v(rho) = V (1 - rho / R)
      normalized_greenshields  v(rho) = 1 - rho  (V = R = 1)
      cropped                  v(rho) = 1 - min(rho, 1); not C^2, so
                               second-derivative bounds are unavailable
    """

    kind: str
    v_max: float = 1.0
    rho_max: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in VELOCITY_KINDS:
            raise ValueError(f"unknown velocity kind {self.kind!r}")
        if self.kind == NORMALIZED_GREENSHIELDS and (self.v_max != 1.0 or self.rho_max != 1.0):
            raise ValueError("normalized_greenshields fixes v_max = rho_max = 1")
        if self.kind == CROPPED and (self.v_max != 1.0 or self.rho_max != 1.0):
            raise ValueError("cropped velocity fixes v_max = rho_max = 1")
        if self.v_max <= 0 or self.rho_max <= 0:
            raise ValueError("v_max and rho_max must be positive")

    @property
    def smooth(self) -> bool:
        """Whether v is C^2 on [0, R] (false only for the cropped law)."""
        return self.kind != CROPPED

    @property
    def d1_sup(self) -> float:
        """sup |v'| on [0, R]."""
        if self.kind == CROPPED:
            return 1.0
        return self.v_max / self.rho_max

    @property
    def d2_sup(self) -> float | None:
        """sup |v''| on [0, R]; None when v is not C^2."""
        if self.kind == CROPPED:
            return None
        return 0.0

    def __call__(self, rho, out=None):
        """v(rho), written into out when it is given."""
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho) if out is None else out
        if self.kind == CROPPED:
            np.minimum(rho, 1.0, out=out)
            return np.subtract(1.0, out, out=out)
        np.divide(rho, self.rho_max, out=out)
        np.subtract(1.0, out, out=out)
        return np.multiply(self.v_max, out, out=out)


@dataclass(frozen=True)
class Saturation:
    """Free-space factor f multiplying the density in the flux.

    Kinds:
      none         f = 1 identically (plain delayed model; the maximum
                   principle is expected to fail by design)
      linear       f(rho) = 1 - rho / R
      exponential  f(rho) = 1 - exp((rho - R) / eps), eps > 0

    Outside [0, R] the linear and exponential laws use the extension
    f(rho) = 1 for rho < 0 and f(rho) = 0 for rho > R.
    """

    kind: str
    rho_max: float = 1.0
    eps: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SATURATION_KINDS:
            raise ValueError(f"unknown saturation kind {self.kind!r}")
        if self.kind == SAT_EXPONENTIAL:
            if self.eps is None or self.eps <= 0:
                raise ValueError("exponential saturation requires eps > 0")
        elif self.eps is not None:
            raise ValueError(f"saturation {self.kind!r} takes no eps")
        if self.rho_max <= 0:
            raise ValueError("rho_max must be positive")

    @property
    def d1_sup(self) -> float:
        """sup |f'| on [0, R]; the exponential law attains 1/eps at rho = R."""
        if self.kind == SAT_NONE:
            return 0.0
        if self.kind == SAT_LINEAR:
            return 1.0 / self.rho_max
        return 1.0 / self.eps

    def __call__(self, rho, out=None):
        """f(rho), written into out when it is given."""
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho) if out is None else out
        if self.kind == SAT_NONE:
            out.fill(1.0)
            return out
        if self.kind == SAT_LINEAR:
            np.divide(rho, self.rho_max, out=out)
            np.subtract(1.0, out, out=out)
            return np.clip(out, 0.0, 1.0, out=out)
        # taken before out is written, which may be rho itself
        below = rho < 0.0
        # above R, min(rho, R) gives 1 - e^0 = 0 exactly
        np.minimum(rho, self.rho_max, out=out)
        np.subtract(out, self.rho_max, out=out)
        np.divide(out, self.eps, out=out)
        np.exp(out, out=out)
        np.subtract(1.0, out, out=out)
        np.copyto(out, 1.0, where=below)
        return out


@dataclass(frozen=True)
class Kernel:
    """Look-ahead weight omega on [0, L], zero beyond L, integral 1.

    Kinds:
      constant           omega(x) = 1/L
      linear_decreasing  omega(x) = (2/L)(1 - x/L)
    """

    kind: str
    length: float

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.length <= 0:
            raise ValueError("kernel length must be positive")

    @property
    def sup(self) -> float:
        """sup omega = omega(0)."""
        if self.kind == KERNEL_CONSTANT:
            return 1.0 / self.length
        return 2.0 / self.length

    @property
    def d1_l1(self) -> float:
        """L1 mass of the derivative of the zero-extended kernel.

        Counts the boundary jumps plus the interior slope; it equals
        2 sup(omega) for both built-in kinds.
        """
        return 2.0 * self.sup

    @property
    def d1_sup(self) -> float:
        """Interior sup |omega'|: 0 for constant, 2/L^2 for linear decreasing."""
        if self.kind == KERNEL_CONSTANT:
            return 0.0
        return 2.0 / self.length**2

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        on = (x >= 0.0) & (x <= self.length)
        if self.kind == KERNEL_CONSTANT:
            return np.where(on, 1.0 / self.length, 0.0)
        return np.where(on, (2.0 / self.length) * (1.0 - x / self.length), 0.0)


def flux_speed(vel: Velocity, sat: Saturation) -> float:
    """V (1 + R sup|f'|), the bound on the wave speed |(rho f(rho))'| v on [0, R].

    Both CFL rules and both time-Lipschitz brackets use it.
    """
    return vel.v_max * (1.0 + vel.rho_max * sat.d1_sup)
