"""Host-speed sampling: scales job times to reference seconds.

The benchmark host is shared.  Its speed drifts by half or more within a
minute, and it changes within seconds too, so wall-clock job times of the
same code spread wider than any useful regression bound.  While jobs run, a
timer signal interrupts the job every INTERVAL_S of wall time and the handler
does a fixed small piece of reference work: UNIT products of Fractions drawn
from a fixed table.  The time those samples take measures how fast the host
runs right then.  A slice of jobs is scaled by the samples taken during it:

    reference seconds = wall seconds * (products per second) / RATE

so a reference second is the time in which the host does RATE products.  The
handler's own time is taken out of the job time.

Fraction products with six-digit terms slow down with the host the way
qplab's exact arithmetic does (the log job times and log sample times of a
fixed g=4 job correlated at 0.9); a small cache-resident kernel did not.  The
reference work uses only the standard library and this file, which are the
same on every commit, and runs with the garbage collector off, so the size
of the program's heap does not reach it.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

TABLE = 30_000  # Fractions in the table, about 4 MB
UNIT = 300  # products per sample, about 1.5 ms
INTERVAL_S = 0.025  # wall time between samples
RATE = 200_000.0  # products per reference second


class HostSampler:
    """Context manager that samples the host's speed on a timer signal.

    ``totals`` is (products, seconds) over all samples so far, replaced in a
    single assignment so that a signal between two reads cannot tear it;
    ``take()`` returns the part since the previous ``take()``.
    """

    def __init__(self):
        rng = random.Random(20240611)
        self.table = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                      for _ in range(TABLE)]
        self.totals = (0, 0.0)
        self._taken = (0, 0.0)
        self._previous = None

    @property
    def paused(self) -> float:
        """Wall seconds spent in samples so far."""
        return self.totals[1]

    def sample(self, *_):
        """Do UNIT reference products and count their time."""
        table, n = self.table, len(self.table)
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for k in range(UNIT):
            a, b = table[k * 7919 % n], table[k * 104729 % n]
            a * b - b
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        done, seconds = self.totals
        self.totals = (done + UNIT, seconds + dt)

    def take(self):
        """(products, seconds) since the last call; at least one sample."""
        totals = self.totals
        if totals[0] == self._taken[0]:
            self.sample()
            totals = self.totals
        got = totals[0] - self._taken[0], totals[1] - self._taken[1]
        self._taken = totals
        return got

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(done: int, seconds: float) -> float:
    """Reference seconds per wall second, given the reference work done."""
    return done / seconds / RATE
