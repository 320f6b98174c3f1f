"""Time the benchmark's calls at a fixed host speed.

The benchmark shares its machine with other tenants, whose load changes
how fast the same code runs by up to about 2x, from one tenth of a second
to the next as well as over minutes. A probe, the same small mix of
interpreted Python and numpy work each time, follows those changes and
nothing else. While a ``HostSpeed`` samples, a wall-clock timer runs the
probe every INTERVAL_S seconds, in between the bytecodes of whatever the
benchmark is running. The time between two samples is scaled by
REFERENCE_S / (mean of the two probe times): what it would have taken at
the host speed at which one probe takes REFERENCE_S. The probes' own
time is left out.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

# About the probe's median time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4); it only sets the scale of the scaled times.
REFERENCE_S = 0.8e-3
INTERVAL_S = 0.025

_BITS = np.random.default_rng(0).integers(0, 2, size=(96, 256), dtype=np.uint8)


def probe() -> float:
    """Seconds one run of the probe work takes now.

    The workloads mix interpreted Python with numpy, and so does the
    probe. A probe of the Python part alone followed the host better on
    ``code-design`` and ``wide-mc`` but worse on ``paper-mc`` and
    ``fault-table``; see README.md.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(2500):  # dict and integer work, as in the pure-Python layers
        acc += i * 3 ^ (i >> 2)
        table[i & 255] = acc
    x = _BITS
    for i in range(6):  # small bit-array work, as in the sampler
        x = (x ^ np.roll(_BITS, i, axis=1)) & 1
        x.sum(axis=0)
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples, in time order: when each ran and what it measured."""

    def __init__(self, clock=time.perf_counter_ns, interval: float = INTERVAL_S):
        self.clock = clock
        self.interval = interval
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.seconds: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            start = self.clock()
            seconds = probe()
            self.starts.append(start)
            self.seconds.append(seconds)
            self.ends.append(self.clock())
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Sample at the start, every ``interval`` seconds and at the end."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def gaps(self, t0: int, t1: int):
        """(seconds, mean probe seconds) of each stretch of [t0, t1]
        between two samples; the samples themselves are left out."""
        k = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < t1:
            lo, hi = max(self.ends[k], t0), min(self.starts[k + 1], t1)
            if hi > lo:
                yield (hi - lo) / 1e9, (self.seconds[k] + self.seconds[k + 1]) / 2
            k += 1

    def work_s(self, t0: int, t1: int) -> float:
        """Seconds of [t0, t1] outside the probes."""
        return sum(s for s, _ in self.gaps(t0, t1))

    def scaled_s(self, t0: int, t1: int) -> float:
        """Seconds [t0, t1] would have taken at the reference speed."""
        return sum(s * REFERENCE_S / p for s, p in self.gaps(t0, t1))
