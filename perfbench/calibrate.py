"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed available to one process moves by up to 1.8x
for seconds to minutes at a time (another tenant on the sibling core comes
and goes), and process CPU time moves with it, so raw wall times of separate
runs are not comparable to within a few percent. While a workload runs, a
fixed reference kernel (vectorized numpy on a quadrature-sized grid plus an
interpreter loop, the two kinds of work the library does) is run every
SAMPLE_EVERY_S seconds from a timer signal handled in the main thread, so it
samples the machine in the states the workload runs in, in proportion to
the time spent in each. The handler's time is taken out of the workload's
timings, and calibrated seconds are raw seconds scaled by NOMINAL_S over
the mean reference time of the run. That is why calibrated figures are
means over a run: a median of passes would pick one machine state, while
the reference mean weighs every state by its time.

The kernel does not touch stochgeo, so a change to the library moves
calibrated times exactly as it moves raw times, while a machine that is
uniformly slower for a while does not move them. NOTES.md gives the spreads
this scheme and the alternatives tried gave. A workload whose own pool
workers fill both cores is not calibrated (workloads.POOLED).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Fast-state reference-kernel time on the 2-core reference box; calibrated
# seconds are seconds on a machine where the kernel takes this long.
NOMINAL_S = 0.0039
SAMPLE_EVERY_S = 0.1

_GRID = np.random.default_rng(12345).random((257, 256))


def _kernel() -> float:
    acc = 0.0
    for _ in range(2):
        acc += float(np.trapezoid(np.log1p(_GRID * 3.0) * _GRID, axis=1).sum())
    n = 0
    for i in range(30_000):
        n += i & 7
    return acc + n


def sample() -> float:
    """Median time of three runs of the reference kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the reference kernel every SAMPLE_EVERY_S seconds while entered.

    `spent_s` is the wall time spent in the handler so far; a timed region
    subtracts its growth. `intervals_ns` holds each handler run as
    (start, end) in perf_counter_ns, so that a tracer can keep it out of
    every span's self time (`Tracer.summary(excluded=...)`). Only the main
    thread of a process can use it; a forked pool worker does not inherit
    the timer. A disabled sampler takes no samples and leaves raw times
    unscaled.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.ref_s: list[float] = []
        self.intervals_ns: list[tuple[int, int]] = []
        self.spent_s = 0.0
        self._old_handler = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        _kernel()
        t1 = time.perf_counter_ns()
        self.intervals_ns.append((t0, t1))
        self.ref_s.append((t1 - t0) / 1e9)
        self.spent_s += (t1 - t0) / 1e9

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._old_handler = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def factor(self) -> float:
        """Scale from raw to calibrated seconds for the samples so far."""
        if not (self.enabled and self.ref_s):
            return 1.0
        return NOMINAL_S / statistics.fmean(self.ref_s)
