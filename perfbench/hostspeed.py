"""How fast the host runs right now, from a fixed pure-Python loop.

The test host is a 2-core VM that shares its physical cores with other
tenants.  Its speed moves by up to 2x, in phases from under a second to
many minutes, with no steal time reported and nothing else running in
the container.  Raw times taken in a slow phase and in a fast one then
differ by more than any regression bound worth having.

A ``Sampler`` interrupts the process every ``EVERY_S`` seconds, times one
call of a fixed loop of the interpreter work the package does most
(tuple building and hashing, dict updates, small-integer and
``Fraction`` arithmetic) and records that time over ``REF_S``, the
loop's time on the reference host in a fast phase: the host's slowness
at that moment.  The runner divides each operation's raw time, less the
time spent in samples, by the median slowness sampled around it raised
to the workload's exponent (workloads.Workload.host_exponent: the
package's code slows less than this loop does), which gives seconds at
the reference host's speed.  The loop belongs to the benchmark, not to
the package, so a change to the package moves the scaled times and
leaves the samples alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One call of _loop on the reference host (2-core VM, CPython 3.11) in a
# fast phase.  It only sets the scale; any fixed value would do.
REF_S = 0.00040

# Interval between two samples, in seconds; the set-up, which is short
# and timed once, is sampled more densely.
EVERY_S = 0.025
SETUP_EVERY_S = 0.005


_POINTS = tuple((i % 37, (i * 7) % 41) for i in range(500))
_INDEX = {p: i for i, p in enumerate(_POINTS)}


def _loop() -> int:
    # Every object it makes dies at once, so a sample never holds enough
    # new containers to set off a garbage collection in the process.
    acc = 0
    for x, y in _POINTS:
        key = tuple(sorted(((x, y), (y, -x), (x - y, x + y))))
        acc += _INDEX.get(key[0], 0) + (hash(key) & 0xFF)
    f = Fraction(0)
    for i in range(1, 10):
        f += Fraction(i, 7) * Fraction(3, i + 1) - Fraction(acc % 11, 13)
    return acc + f.numerator % 5


class Sampler:
    """Samples the host's slowness on a timer while it runs.

    Samples run in the main thread, between two bytecodes of whatever runs
    there, so each lies wholly inside or outside a timed interval;
    ``spent_in`` gives the time they took inside one.
    """

    def __init__(self):
        self.at: list[float] = []        # sample start times (perf_counter)
        self.took: list[float] = []      # seconds each sample took
        self.slowness: list[float] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _loop()
        dt = perf_counter() - t0
        self.at.append(t0)
        self.slowness.append(dt / REF_S)
        self.took.append(perf_counter() - t0)

    def start(self, every: float = EVERY_S) -> None:
        """Start sampling every ``every`` seconds, or change the interval."""
        if self._old is None:
            self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def spent_in(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between perf_counter times t0 and t1."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        return sum(self.took[lo:hi])

    def around(self, t0: float, t1: float, pad: float) -> float:
        """Median slowness sampled from ``t0 - pad`` to ``t1 + pad``
        (perf_counter times); widened until it holds a sample."""
        while True:
            lo = bisect.bisect_left(self.at, t0 - pad)
            hi = bisect.bisect_right(self.at, t1 + pad)
            if hi > lo:
                return statistics.median(self.slowness[lo:hi])
            if not self.at:  # a run too short for the timer to fire
                self._sample(None, None)
            pad = max(2 * pad, EVERY_S)
