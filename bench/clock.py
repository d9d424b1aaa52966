"""Wall time rescaled to a fixed processor speed.

On a shared machine the speed of one core drifts by ±20 % over tens of
seconds: the same solve, repeated back to back, takes up to 1.5 times as long
in a slow phase, and CPU time drifts with wall time, so the cause is the
processor's speed, not scheduling. A drift that long does not average out
within one run. The clock therefore times a fixed calibration kernel, a mix
of interpreter work and small-array NumPy calls like the solver's, before and
after each timed section, and rescales the section's wall time to what it
would be where the kernel takes ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import numpy as np

# median kernel time on a shared 2-core x86-64 machine (Python 3.11, NumPy 2.4)
REFERENCE_KERNEL_S = 5.5e-4
_ARRAY = np.linspace(0.0, 1.0, 64)


def _kernel_once() -> float:
    t = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    a = _ARRAY
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) - 0.5
    return perf_counter() - t


def kernel_seconds() -> float:
    """Median of three timings of the calibration kernel."""
    return sorted(_kernel_once() for _ in range(3))[1]


def rescale(wall_s: float) -> float:
    """``wall_s`` of a section that has just ended, rescaled by the kernel
    timed now: for a section with no kernel timing before it."""
    return wall_s * REFERENCE_KERNEL_S / kernel_seconds()


class SteadyClock:
    """Wall time and rescaled time of named sections, accumulated."""

    def __init__(self):
        self._before = kernel_seconds()
        self.wall_s: dict = {}
        self.steady_s: dict = {}

    @contextlib.contextmanager
    def section(self, name: str):
        t = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - t
            after = kernel_seconds()
            scale = REFERENCE_KERNEL_S / (0.5 * (self._before + after))
            self._before = after
            self.wall_s[name] = self.wall_s.get(name, 0.0) + wall
            self.steady_s[name] = self.steady_s.get(name, 0.0) + wall * scale
