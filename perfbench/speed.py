"""Host-speed probe: rescales measured seconds to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts
with its neighbours' load, by up to about 2x over minutes.  A drift that
long outlasts a run, so no amount of work inside one run averages it
away.  The probe measures it instead: a fixed kernel of small-array numpy
calls, the mix refinement and initial partitioning spend their time in,
timed between operations of the run.  Its median slowdown against the
reference host (:data:`REFERENCE_S`) is the run's slowdown, and every
timing the benchmark reports is divided by it.

The kernel is the benchmark's own code and never calls the library, so a
change to the library cannot move the probe.  Two other kernels were
tried and left out.  Pure interpreter loops slowed about twice as much as
large_k64's calls under the same contention.  A pass over arrays larger
than the CPU caches ran twice as slowly after library calls as in a fresh
process, following the heap the library had left behind.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

#: The kernel's duration on the reference host, a 2-vCPU Intel Xeon VM:
#: the tenth percentile of 5,600 samples taken over 16 minutes.
REFERENCE_S = 0.0028


class SpeedProbe:
    """Times the kernel on fixed, seeded data."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(0, 1000, size=4000)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        """Sorts, bincounts and scatter-adds on a 4000-element array."""
        a = self._keys.copy()
        for _ in range(10):
            order = np.argsort(a, kind="stable")
            counts = np.bincount(a, minlength=1000)
            np.add.at(counts, a[:500], 1)
            a[order[:10]] += 1

    def sample(self, cpus=None) -> float:
        """Time the kernel once, on *cpus* if given, and keep the sample.
        The garbage collector is held off so that objects the library left
        behind do not bill their collection to the probe."""
        allowed = os.sched_getaffinity(0)
        if cpus:
            os.sched_setaffinity(0, cpus)
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            seconds = time.perf_counter() - t0
        finally:
            gc.enable()
            os.sched_setaffinity(0, allowed)
        self.samples.append(seconds)
        return seconds

    def slowdown(self) -> float:
        """Median sample over the reference: how much slower than the
        reference host this run ran."""
        if not self.samples:
            raise ValueError("no probe samples taken")
        return statistics.median(self.samples) / REFERENCE_S
