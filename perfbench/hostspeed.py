"""Host-speed calibration for the benchmark's timings.

Shared virtual machines change speed by up to about 2x within minutes, and
the speed of one CPU moves by a fifth within a second, so raw wall times
of the same code spread far wider run to run than the regressions the
benchmark must catch.  A ``SpeedClock`` therefore samples the host's speed
all the time a benchmark process runs: a timer interrupts the process
every ``INTERVAL_S`` to time one fixed unit of pure-Python work (Fraction
and dict arithmetic, the kind the exact ring does), written with the
standard library only, so that no change to the package moves it.  The
samples' own time is taken out of every reading, and a reported time is
the speed factor integrated over the interval: the time the interval
would take on a host where one unit takes ``REFERENCE_S``.  The two CPUs
change speed independently, so a time is scaled only by samples from its
own process.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.005       # one unit on an unloaded 2-vCPU Intel Xeon VM
UNIT_STEPS = 1000
INTERVAL_S = 0.1


def _unit():
    acc = {}
    for i in range(UNIT_STEPS):
        key = (i % 7, i % 5, i % 3, i % 4)
        acc[key] = acc.get(key, 0) + (Fraction(i + 1, i % 13 + 1)
                                      * Fraction(3, i % 11 + 2))
    return acc


class SpeedClock:
    """A work clock, and the host speed sampled along it.

    ``now()`` reads seconds since ``start()`` (``time.monotonic``, which
    every process shares), less the time the samples took.  ``to_ref(t)``
    is the work from the start to work-clock time ``t`` at reference host
    speed: the speed factor, linear between samples and constant beyond
    the first and the last, integrated up to ``t``.
    """

    def __init__(self):
        self.started_at = None    # time.monotonic() at start
        self._busy = 0.0          # seconds spent sampling
        self._samples = []        # (work-clock time, speed factor)
        self._sampling = False
        self._table = None

    def start(self):
        self.started_at = time.monotonic()
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        # a sample may land between the two reads; read again if it did
        while True:
            busy = self._busy
            t = time.monotonic()
            if busy == self._busy:
                return t - self.started_at - busy

    def sample(self):
        """Time one unit now (the timer also calls this)."""
        if self._sampling:
            return
        self._sampling = True
        at = self.now()
        began = time.monotonic()
        _unit()
        took = time.monotonic() - began
        self._samples.append((at, REFERENCE_S / took))
        self._busy += took
        self._table = None
        self._sampling = False

    def to_ref(self, t):
        if self._table is None:
            xs = [x for x, _ in self._samples]
            fs = [f for _, f in self._samples]
            cum = [xs[0] * fs[0]]
            for i in range(1, len(xs)):
                cum.append(cum[-1] + (xs[i] - xs[i - 1])
                           * (fs[i - 1] + fs[i]) / 2)
            self._table = xs, fs, cum
        xs, fs, cum = self._table
        i = bisect.bisect_right(xs, t)
        if i == 0:
            return t * fs[0]
        x0, f0 = xs[i - 1], fs[i - 1]
        if i == len(xs):
            return cum[-1] + (t - x0) * f0
        f_t = f0 + (fs[i] - f0) * (t - x0) / (xs[i] - x0)
        return cum[i - 1] + (t - x0) * (f0 + f_t) / 2

    def ref(self, start, end):
        """Seconds at reference host speed between two ``now()`` readings;
        call ``sample()`` first if ``end`` is the present."""
        return self.to_ref(end) - self.to_ref(start)
