"""Host speed probe: every reported time is scaled to a reference speed.

The CPU throughput a process gets on a shared host drifts, here by up to
2.5x over tens of seconds, for identical work; CPU time drifts with wall
time, so it is the core, not scheduling.  A run is too short to average
that out.  So the benchmark times a fixed kernel, made of the same kind of
work as the solvers (small NumPy calls and Python loops) and independent of
the package, right before and after each measured call, and reports

    seconds * REFERENCE_KERNEL_S / kernel seconds around the call,

the time the call would have taken at the speed where the kernel takes
REFERENCE_KERNEL_S.  A change to the package leaves the kernel alone, so
the scaling never hides a gain or a loss.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Median kernel time on the 2-vCPU host the benchmark was defined on.
REFERENCE_KERNEL_S = 1.25e-3
_PROBE_REPEATS = 3


def kernel() -> float:
    x = np.linspace(0.1, 0.9, 60).reshape(10, 6)
    acc = 0.0
    for _ in range(100):
        y = np.clip(x * 1.001, 0.1, 0.9)
        s = y.sum(axis=1)
        x = np.where(s[:, None] > 3.0, y, x)
        for j in range(10):
            acc += j * 0.5
    return acc


def probe() -> float:
    """Median seconds of a few kernel runs."""
    samples = []
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return median(samples)


def factor(before: float, after: float) -> float:
    """Scale from measured to reference seconds for work between two probes."""
    return 2.0 * REFERENCE_KERNEL_S / (before + after)
