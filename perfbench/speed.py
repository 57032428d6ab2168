"""CPU speed probe, for timings that hold still while the machine drifts.

On a shared host the speed of one CPU changes by tens of percent within
seconds. The benchmark runs a short fixed probe every ``INTERVAL_S`` on
the CPU that does the timed work, and reports each timed interval in
reference seconds: its duration weighted, moment by moment, by how much
slower or faster than ``REF_S`` the probe ran. A change to the program
moves the timed work but not the probe, so it still shows in full.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.05
# Probe duration at the reference speed (about the fast state of the
# 2-vCPU machine the benchmark was tuned on).
REF_S = 0.35e-3
# Probe samples in the running median that drops samples preempted midway.
SMOOTH = 5

_A = np.random.default_rng(0).standard_normal((8, 8)) / 8.0
_X = np.ones(8)


def probe() -> float:
    """Seconds of a fixed mix of interpreter and small-array work."""
    start = time.perf_counter()
    total = 0
    for i in range(2500):
        total += i * i
    y = _X
    for _ in range(60):
        y = _A @ y + _X
    return time.perf_counter() - start


class SpeedTrace:
    """Probe samples (time, seconds) and the reference time of a window."""

    def __init__(self):
        self.times = []
        self.probes = []

    def sample(self):
        start = time.perf_counter()
        self.probes.append(probe())
        self.times.append(start)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds spent between monotonic clock readings a and b.

        Each probe sample stands for the time from halfway after the
        previous sample to halfway before the next one; the first and
        last extend to cover the whole window.
        """
        t = np.asarray(self.times)
        p = np.asarray(self.probes)
        half = SMOOTH // 2
        padded = np.pad(p, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH),
                           axis=1)
        edges = np.concatenate(([-np.inf], (t[1:] + t[:-1]) / 2.0, [np.inf]))
        spans = np.clip(edges[1:], a, b) - np.clip(edges[:-1], a, b)
        return float(np.sum(spans * REF_S / smooth))
