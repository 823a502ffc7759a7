"""The host's current speed, measured with a fixed pure-Python loop.

The benchmark runs on a shared host whose speed changes by a third or
more from one second to the next, and CPU time moves with wall time, so
neither measures the program alone. A short fixed loop (the probe) run
next to the program slows down with it. Every timed figure is therefore
scaled to the reference speed, at which the probe takes `REFERENCE_S`:

    time at reference speed = wall time * REFERENCE_S / probe time

where the probe time is the mean of the probes taken during and just
before the timed stretch. Both are interpreter-bound Python, so a change
to the program moves the scaled figure while a change in the host's
speed mostly cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 8000
REFERENCE_S = 0.001     # round; the probe takes 0.7-1.3 ms on a 2.1-GHz Xeon
INTERVAL_S = 0.02       # the sampler's period; the probe costs about 5%


def probe() -> float:
    """Wall time of one fixed loop of dictionary updates."""
    t0 = time.perf_counter()
    d = {}
    for i in range(PROBE_ITERATIONS):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter() - t0


def probe_median(n: int = 5) -> float:
    return statistics.median(probe() for _ in range(n))


class Sampler:
    """Runs the probe every INTERVAL_S from a SIGALRM handler, or, with
    `periodic=False`, only when `sample()` is called (between checks, so
    that no probe runs inside a traced span).

    `mark()` before a timed stretch and `scale(mark, wall)` after it give
    the stretch's wall time net of the probes that ran inside it, and the
    same time at reference speed.
    """

    def __init__(self, periodic=True):
        self.periodic = periodic
        self.samples = []   # probe times, in order
        self.spent = 0.0    # wall time spent probing

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        if self.periodic:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        return len(self.samples), self.spent

    def scale(self, mark, wall):
        """(wall net of probes, the same at reference speed)."""
        first, spent = mark
        net = wall - (self.spent - spent)
        around = self.samples[first - 1:]   # the last one before, any inside
        return net, net * REFERENCE_S / (sum(around) / len(around))
