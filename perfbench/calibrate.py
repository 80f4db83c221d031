"""Host-speed calibration that keeps timings comparable on a shared machine.

On a host shared with other tenants the same deterministic scan can run up
to twice as fast or slow for seconds at a time, which no run length averages
away. The benchmark therefore runs a small fixed kernel of the same kind of
work (Python float arithmetic and small numpy calls) every TICK_S, during and
between operations, and scales each operation's own time by REFERENCE_S over
the kernel's local median time: a timing is reported in reference seconds,
the time the operation would take on a host that runs the kernel in
REFERENCE_S. The raw wall times are printed beside them. A change to srfolds
moves the operation times and not the kernel, so it shows in full.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# kernel time on an unloaded 2-core Intel Xeon host
REFERENCE_S = 3.3e-4
TICK_S = 0.02
# operations with fewer kernel samples inside use the NEAREST samples around them
NEAREST = 9


def kernel() -> float:
    acc = 0.0
    vec = np.arange(16.0)
    for i in range(300):
        x = i * 0.001
        acc += math.sin(x) * math.sqrt(x + 1.0) + abs(x) ** 1.5
        if i % 10 == 0:
            acc += float(np.linalg.norm(vec * x))
    return acc


class Calibrator:
    """Samples the kernel every TICK_S while entered and scales timings by the local speed.

    The samples come from a SIGALRM handler, so they also land inside long
    operations; the handler's own time is taken out of the operation's.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._previous = None
        kernel()

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.times.append(t0)
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, seconds: float) -> float:
        """Reference seconds of the operation that ran for `seconds` from `start`.

        Kernel samples that fell inside it are subtracted from its time and,
        when there are at least NEAREST of them, give its speed; otherwise the
        NEAREST samples around its midpoint do.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, start + seconds)
        inside = self.samples[lo:hi]
        if len(inside) >= NEAREST:
            kernel_s = statistics.median(inside)
        else:
            mid = start + 0.5 * seconds
            i = bisect.bisect_left(self.times, mid)
            near = sorted(range(max(0, i - NEAREST), min(len(self.times), i + NEAREST)),
                          key=lambda j: abs(self.times[j] - mid))[:NEAREST]
            kernel_s = statistics.median(self.samples[j] for j in near)
        return (seconds - sum(inside)) * REFERENCE_S / kernel_s
