"""Built-in initial density profiles.

Each profile is a vectorized callable that also reports its jump/kink
locations (``breakpoints``, used to split quadrature cells during
projection) and its exact value range (``value_range``, used to validate
the datum against the density ceiling R before a run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Support of the oscillatory sine profile; one full period of sin(8 pi x).
_SIN_SUPPORT = (11.0 / 40.0, 21.0 / 40.0)
#: Support of the oscillatory cosine profile; cos(8 pi (x - 2/5)) >= 0 here.
_COS_SUPPORT = (27.0 / 80.0, 37.0 / 80.0)
_COS_SHIFT = 2.0 / 5.0


@dataclass(frozen=True)
class Riemann:
    """Two-state profile: left for x < position, right from position on.
    No preset or study grid's projection evaluates x = position itself."""

    left: float
    right: float
    position: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x < self.position, self.left, self.right)

    def breakpoints(self) -> list[float]:
        return [self.position]

    def value_range(self) -> tuple[float, float]:
        lo = min(self.left, self.right)
        return lo, max(self.left, self.right)


@dataclass(frozen=True)
class Box:
    """height * indicator([a, b]) on a zero background."""

    height: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.b <= self.a:
            raise ValueError("box needs a < b")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, self.height, 0.0)

    def breakpoints(self) -> list[float]:
        return [self.a, self.b]

    def value_range(self) -> tuple[float, float]:
        return min(0.0, self.height), max(0.0, self.height)


@dataclass(frozen=True)
class OscSin:
    """Sine-bump perturbation of the constant state 1/2.

    1/2 + [3/16 sin(8 pi (x - c)) - 1/16 sin(24 pi (x - c))] on
    [11/40, 21/40], extended by 1/2 outside.  The support spans one full
    period of the base harmonic, so the values cover [1/4, 3/4] for every
    shift c; the profile is continuous exactly when c = 2/5.
    """

    shift: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        theta = 8.0 * np.pi * (x - self.shift)
        bump = (3.0 / 16.0) * np.sin(theta) - (1.0 / 16.0) * np.sin(3.0 * theta)
        lo, hi = _SIN_SUPPORT
        inside = (x >= lo) & (x <= hi)
        return 0.5 + np.where(inside, bump, 0.0)

    def breakpoints(self) -> list[float]:
        return list(_SIN_SUPPORT)

    def value_range(self) -> tuple[float, float]:
        return 0.25, 0.75


@dataclass(frozen=True)
class OscCos:
    """Cosine-bump perturbation of a constant state.

    mean + [3/8 cos(8 pi (x - 2/5)) + 1/8 cos(24 pi (x - 2/5))] on
    [27/80, 37/80], extended by mean outside.  The base harmonic stays
    in the quarter-periods where its cosine is non-negative, so the bump
    lies in [0, 1/2] and the profile is continuous at the support edges.
    """

    mean: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        theta = 8.0 * np.pi * (x - _COS_SHIFT)
        bump = (3.0 / 8.0) * np.cos(theta) + (1.0 / 8.0) * np.cos(3.0 * theta)
        lo, hi = _COS_SUPPORT
        inside = (x >= lo) & (x <= hi)
        return self.mean + np.where(inside, bump, 0.0)

    def breakpoints(self) -> list[float]:
        return list(_COS_SUPPORT)

    def value_range(self) -> tuple[float, float]:
        return self.mean, self.mean + 0.5


@dataclass(frozen=True)
class Constant:
    """Spatially uniform profile."""

    value: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.value)

    def breakpoints(self) -> list[float]:
        return []

    def value_range(self) -> tuple[float, float]:
        return self.value, self.value


#: kind -> (profile, required keys, defaults of the optional keys)
DATUM_KINDS = {
    "riemann_up": (Riemann, (), {"left": 0.3, "right": 1.5, "position": 0.5}),
    "riemann_down": (Riemann, (), {"left": 1.5, "right": 0.3, "position": 0.5}),
    "riemann_small": (Riemann, (), {"left": 0.25, "right": 0.5, "position": 0.2}),
    "box": (Box, ("height", "a", "b"), {}),
    "osc_sin": (OscSin, (), {"shift": 0.5}),
    "osc_cos": (OscCos, (), {"mean": 0.25}),
    "constant": (Constant, ("value",), {}),
}


def make_datum(kind: str, **params):
    """Construct a profile by kind name from its entry in DATUM_KINDS.

    A missing required key, or a key the kind does not take, raises
    TypeError.
    """
    if kind not in DATUM_KINDS:
        raise ValueError(f"unknown initial-datum kind {kind!r}")
    profile, required, defaults = DATUM_KINDS[kind]
    for key in params:
        if key not in required and key not in defaults:
            raise TypeError(f"{kind} datum got an unexpected keyword argument {key!r}")
    missing = [key for key in required if key not in params]
    if missing:
        raise TypeError(f"{kind} datum is missing required keys {', '.join(missing)}")
    return profile(**{**defaults, **params})
