"""Machine-speed gauge: a fixed calibration kernel timed between jobs.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of the same code by up to 1.9x within minutes; the
process's CPU time slows with its wall time, so the slowdown is contention,
not preemption.  No amount of work in a 30 s run averages that out.  So the
harness times a small kernel that does the kind of work the library does
(eigenvalues of an 8 x 8 matrix, complex arithmetic in Python, ``expm``,
``svd``, a sort) in slices spread over the run, in proportion to the time
the jobs take, and reports every time of the run scaled by

    factor = REFERENCE_SLICE_S / trimmed mean slice time in the run,

that is, in seconds of a machine on which one slice takes
``REFERENCE_SLICE_S``.  The kernel belongs to the benchmark and calls
nothing of the library, so a change to the library moves the scaled times
exactly as much as the raw ones.  Raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg as sla

# one slice on the machine the benchmark was sized on (2 shared cores,
# Python 3.11, numpy 2.4, scipy 1.17), at its usual speed
REFERENCE_SLICE_S = 0.004
# a slice runs after a job once this much job time has gone by
EVERY_S = 0.25
WARMUP_SLICES = 20
REPS = 100
# untimed repetitions before each timed slice, so the job that ran before
# it does not leave the slice running on cold caches
LEAD_REPS = 10
# the fastest and slowest tenth of the slices are left out of the mean
TRIM = 0.1

_RNG = np.random.default_rng(20120117)
_M8 = _RNG.normal(size=(8, 8))
_EYE8 = np.eye(8)


def kernel(reps: int = REPS) -> float:
    """One slice of fixed work; returns a number so nothing is skipped."""
    acc = 0.0
    memo = {}
    for k in range(reps):
        w = np.linalg.eigvals(_M8 + (0.01 * (k % 6)) * _EYE8)
        s = sum(complex(x) / abs(x) for x in w)
        acc += float(np.angle(s))
        if k % 10 == 0:
            a = sla.expm((0.01 * k) * _M8)
            acc += float(np.linalg.svd(a - _EYE8, compute_uv=False)[-1])
            memo[k] = sorted((round(x.real, 6), round(x.imag, 6))
                             for x in np.linalg.eigvals(a))
    return acc + len(memo)


class Gauge:
    """Slices of the kernel, spread over a run in proportion to job time."""

    def __init__(self):
        for _ in range(WARMUP_SLICES):
            kernel()
        self.samples: list[float] = []
        self._pending = 0.0

    def slice(self, count: int = 1) -> None:
        for _ in range(count):
            kernel(LEAD_REPS)
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def after(self, busy_s: float) -> None:
        """Account ``busy_s`` of job time; slice when enough has gone by."""
        self._pending += busy_s
        if self._pending >= EVERY_S:
            self._pending = 0.0
            self.slice()

    def factor(self) -> float:
        """Reference slice time over the run's trimmed mean slice time."""
        if len(self.samples) < 10:
            self.slice(10 - len(self.samples))
        ordered = sorted(self.samples)
        cut = int(TRIM * len(ordered))
        return REFERENCE_SLICE_S / statistics.fmean(
            ordered[cut:len(ordered) - cut])
