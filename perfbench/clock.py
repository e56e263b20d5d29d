"""Times normalised to a reference interpreter speed.

The benchmark's CPU runs at a speed that drifts by tens of percent over
seconds, because the host is shared: on a 2-core virtual machine, a fixed
1.3 s sweep repeated for 150 s had an interquartile spread of 16% of its
median, and CPU time tracked wall time, so the drift is not steal time.

A timed interval is therefore cut into segments by a fixed pure-Python
kernel (``calibrate``), and each segment is rescaled by REF_KERNEL_S /
(mean kernel time at its two ends).  The result is in seconds at the speed
at which the kernel takes REF_KERNEL_S, about that machine's typical
speed.  The kernel runs from a SIGALRM handler every SEGMENT_S, inside the
workload's calls, and its own time is never inside a segment.
"""

from __future__ import annotations

import signal
import time

KERNEL_ITERS = 200_000
REF_KERNEL_S = 0.018
SEGMENT_S = 0.25


def calibrate() -> float:
    """Seconds the reference kernel takes on this core now."""
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_ITERS):
        acc += i * i
    return time.perf_counter() - start


def normalise(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REF_KERNEL_S / ((kernel_before + kernel_after) / 2.0)


class Clock:
    """Accumulates normalised time from construction to ``stop()``.

    With ``segments`` false there is one segment, between a kernel run at
    the start and one at the stop; a traced batch uses that, so that no
    kernel runs inside a span.
    """

    def __init__(self, segments: bool = True):
        self.normalised = 0.0
        self.raw = 0.0
        self._segments = segments
        self._kernel = calibrate()
        if segments:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        self._start = time.perf_counter()

    def _tick(self, *_):
        seg = time.perf_counter() - self._start
        kernel = calibrate()
        self.normalised += normalise(seg, self._kernel, kernel)
        self.raw += seg
        self._kernel = kernel
        self._start = time.perf_counter()

    def stop(self):
        """Close the last segment; returns (normalised, raw) seconds."""
        if self._segments:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._tick()
        return self.normalised, self.raw
