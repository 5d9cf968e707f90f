"""Reference-speed timing for a shared machine whose speed drifts.

On a shared virtual machine with 2 vCPUs (Python 3.11.7), the same
pure-Python work ran anywhere from 1x to 1.9x its fastest time within a
minute, as other tenants contended for the host.  Ten 20 s runs of one
workload then spread by 20-28 % (quartile distance over median), even with
medians taken inside each run.  Timing a fixed calibration kernel right
before and after each measured stretch (one operation, or operations
adding up to CAL_EVERY_S), and rescaling by it, cut that spread to 1-4 %.
A set-up call that runs for seconds is also sampled every CAL_EVERY_S
while it runs.

So every time the benchmark reports is in reference seconds: measured
seconds times CAL_REF_S over the kernel's measured time around them.  On a
machine where the kernel takes CAL_REF_S, reference seconds are seconds.
The kernel does not call galspec, so no change to galspec moves it.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# the kernel's time on the machine above at its quietest
CAL_REF_S = 0.002
CAL_REPS = 3
CAL_EVERY_S = 0.05  # longest measured stretch between two kernel timings


def kernel():
    """Fixed exact-arithmetic work in the style of galspec's inner loops:
    Fraction products and sums, modular integer steps, dict updates."""
    a = [Fraction(i + 1, 3 * i + 2) for i in range(24)]
    s = Fraction(0)
    for x in a:
        for y in a[:12]:
            s += x * y - y / (x + 1)
    m = 1
    for i in range(2000):
        m = (m * 31 + i * i) % 1000003
    d = {}
    for i in range(1000):
        d[i % 97] = d.get(i % 97, 0) + i
    return s, m, d


def calibrate() -> float:
    """Median kernel time over CAL_REPS runs, in seconds."""
    times = []
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Brackets measured stretches with kernel timings.

    factor() returns reference seconds per measured second for the stretch
    since the previous call (or since construction), from the mean of the
    kernel times at its two ends and of any ticks taken inside it.
    """

    def __init__(self):
        self._last = calibrate()
        self.samples = [self._last]

    def factor(self, ticks=()) -> float:
        now = calibrate()
        self.samples.append(now)
        times = [self._last, now, *ticks]
        self._last = now
        return CAL_REF_S / (sum(times) / len(times))

    @contextmanager
    def ticking(self):
        """Also time the kernel every CAL_EVERY_S while the block runs, from
        a SIGALRM handler, so that one long call is rescaled by the speed
        during it and not only at its ends.  Yields the list of tick times;
        the caller subtracts those that fell inside what it measures."""
        ticks = []

        def on_alarm(signum, frame):
            start = time.perf_counter()
            kernel()
            ticks.append(time.perf_counter() - start)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield ticks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
