"""Machine-speed sampling for the qladder benchmark.

On a shared host the same instructions take different times as neighbours
come and go: on a 2-vCPU x86-64 cloud VM a fixed pure-Python loop switches
between two speeds 1.5 to 1.8 times apart, each held for seconds to minutes, with
no steal time and process CPU time equal to wall time.  A 35 s run can sit
wholly in either state, so raw wall times of the same code differ by up to
80% between runs.

The probe is a fixed piece of interpreter work shaped like qladder's hot
loops (scalar complex and float arithmetic, calls, a small dict), written
here so that no change to qladder moves it.  ``Meter`` times one call: it
runs the probe just before and just after the call, and once every
``TICK_S`` during it from a SIGALRM handler, whose time it takes out of the
call's wall time.  The call's wall time scaled by ``REFERENCE_S / mean
probe time`` is its wall time on a machine where one probe takes
``REFERENCE_S``, close to wall time in that VM's fast state.  Raw wall
times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import signal
import time

# median probe time in the fast state of a 2-vCPU x86-64 cloud VM,
# Python 3.11; only a unit, so that scaled times read as milliseconds
REFERENCE_S = 0.0004
TICK_S = 0.025
REPS = 7  # odd, so the median is one of the runs


def _kernel() -> float:
    acc = 0.0
    table = {}
    z = complex(0.3, 0.1)
    for i in range(150):
        w = complex(1.0)
        a = z
        while abs(a) > 1e-3:
            w *= 1.0 - 2.0 * a * 0.7 + a * a
            a *= 0.5
        acc += abs(w) + math.sqrt(i + 1.0)
        table[i & 63] = acc
    return acc


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of one probe: the median of REPS back-to-back kernel runs."""
    return sorted(_timed_kernel() for _ in range(REPS))[REPS // 2]


class Meter:
    """Context manager timing the code inside it.  Afterwards ``wall`` holds
    its wall seconds without the probe ticks, ``scaled`` the same at the
    reference speed and ``samples`` the probe seconds taken.  Uses SIGALRM
    and the real interval timer, so it runs in the main thread only."""

    def __enter__(self):
        self.samples = [probe()]
        self._paused = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()  # refills the caches the interrupted code evicted
        self.samples.append(_timed_kernel())
        self._paused += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._t0 - self._paused
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())
        self.scaled = self.wall * REFERENCE_S / (sum(self.samples) / len(self.samples))
        return False
