"""Machine speed from a fixed calibration kernel.

The host this benchmark was defined on changes speed by up to 2x over
seconds to minutes: one fixed NumPy loop took anywhere from 81 to 167 ms,
with no CPU time stolen.  Medians of raw wall times over 30-36 s windows
spread by 13-33 % between windows.  So the benchmark runs a fixed kernel
between its samples and rescales each sample's time to a reference speed.
In a 7-minute recording of alternating hw_refine_j4000, lf_box_delay and
hw_stopgo simulates, the medians of six windows spread (quartile distance
over median) by 10 %, 8 % and 14 % raw, and by 5 %, 7 % and 2 % rescaled.

The kernel uses only NumPy, never lagflow, so at a given machine speed a
change to lagflow moves the rescaled times in the same proportion as the
wall times.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one ``calibrate()`` at the reference speed.  The scale is
#: arbitrary and cancels in every comparison; it is about the median time
#: of calibrate() on the 2-core Xeon (KVM) machine the benchmark was
#: defined on, so rescaled times read close to that machine's wall times.
REFERENCE_S = 0.075


def calibrate() -> float:
    """Wall time of a fixed mix of NumPy calls like lagflow's.

    The first loop makes small calls on one level, like a scheme step's;
    the second works on 19 x 1000 arrays, like the entropy check's per-kappa
    temporaries.  The host's swings slow the two by different amounts, and
    the mix tracks both lf_box_delay and hw_stopgo better than either loop
    alone.
    """
    x = np.linspace(0.0, 1.0, 1000)
    kappas = np.linspace(0.0, 1.0, 19)[:, None]
    t0 = time.perf_counter()
    for _ in range(2000):
        y = np.abs(np.diff(x * 0.5 + x[0]))
        float(np.max(y))
        np.concatenate([x[:1], x, x[-1:]])
    for _ in range(150):
        hi = np.maximum(x, kappas)
        lo = np.minimum(x, kappas)
        float(np.max(hi * (1.0 - lo) - 0.5 * (hi - lo)))
    return time.perf_counter() - t0


class Speedometer:
    """Factors that rescale consecutive samples to the reference speed.

    It calibrates once when made and once per ``factor()`` call, which
    follows each sample; a sample's factor is REFERENCE_S over the mean of
    the two calibrations around it.
    """

    def __init__(self) -> None:
        self._last = calibrate()
        self.factors: list[float] = []

    def factor(self) -> float:
        now = calibrate()
        scale = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(scale)
        return scale
