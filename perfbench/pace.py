"""Host-speed reference for the benchmark's timed units.

The benchmark runs on shared hosts whose speed drifts: the same pass in the
same process can run 45 % slower for half a minute, then fast again, and the
state can change within a pass. So a fixed reference kernel, a chain of small
`rng.choice(n, p=row)` calls, is timed again and again while the benchmark
runs, in the benchmark's own thread. It is interpreter-bound like the episode
sampler, the TD critic and the simplex, and slows with them.

One measurement takes about 8 ms. `measure` takes one at once; between
`start` and `stop` a SIGALRM timer takes one every `INTERVAL_S` seconds of
wall time, in the middle of whatever Python code is running. The kernel uses
its own generator and arrays, so it changes no state of the code it
interrupts.

A timed unit (a set-up or a pass) from `t0` to `t1` is slowed by the mean of
`kernel_s / NOMINAL_S` over the measurements made inside it plus the last one
before and the first one after it. The measurements are evenly spaced in
time, so their mean follows the host's speed over the whole unit. The unit's
wall time, less the kernel time inside it, divided by that factor is its time
in seconds on a host where the kernel takes `NOMINAL_S`.

The kernel is the benchmark's own code and calls numpy only, so no change to
metasrl can change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.008           # a round figure of the kernel's time on a 2-core Xeon host
INTERVAL_S = 0.25
CHAIN_STEPS = 500


class Pace:
    """Times the reference kernel; scales wall times to the nominal speed.

    Use it as a context manager: it owns SIGALRM while entered and gives it
    back, with the timer stopped, when it exits.
    """

    def __init__(self):
        self.rows = np.random.default_rng(5).dirichlet(np.ones(17), size=17)
        self.samples = []           # (start, end) of every measurement, in time order
        self._busy = False
        self._saved_handler = None

    def __enter__(self):
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.measure()              # warm-up, not kept
        self.samples.clear()
        return self

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGALRM, self._saved_handler)
        return False

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _on_alarm(self, signum, frame):
        if not self._busy:          # a late alarm never nests a measurement
            self.measure()

    def measure(self):
        """Time the kernel once; keeps and returns its seconds."""
        self._busy = True
        try:
            rng = np.random.default_rng(0)
            t0 = time.perf_counter()
            s = 0
            for _ in range(CHAIN_STEPS):
                s = rng.choice(17, p=self.rows[s])
            t1 = time.perf_counter()
            self.samples.append((t0, t1))
        finally:
            self._busy = False
        return t1 - t0

    def _inside(self, t0, t1):
        """Index range of the measurements that start in [t0, t1)."""
        starts = [s[0] for s in self.samples]
        return bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)

    def kernel_seconds(self, t0, t1):
        """Seconds spent in the kernel between t0 and t1."""
        lo, hi = self._inside(t0, t1)
        return sum(b - a for a, b in self.samples[lo:hi])

    def slowdown(self, t0, t1):
        """The host's slowdown over [t0, t1], from the measurements around it."""
        lo, hi = self._inside(t0, t1)
        return statistics.mean((b - a) / NOMINAL_S
                               for a, b in self.samples[max(lo - 1, 0):hi + 1])

    def scaled(self, t0, t1):
        """Seconds of work from t0 to t1, at the nominal host speed."""
        return (t1 - t0 - self.kernel_seconds(t0, t1)) / self.slowdown(t0, t1)
