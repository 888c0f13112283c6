"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host's vCPUs are shared with other tenants, which slow every
process on them by up to 2x for minutes at a time without any steal time
showing in the guest.  No statistic over a run's own samples recovers the
uncontended cost when a whole window is slow, so each sample is divided by
the time this kernel took while (or right after) the sample ran, and
multiplied by ``REF_S``:

    normalized = sample_s * REF_S / reference_s

The kernel does the kinds of work vvtheta does (exact ``Fraction``
arithmetic, tuple keys into a dict, small dot products, complex
exponentials) and never calls vvtheta, so it runs the same on every commit.
It needs only ``fractions`` and ``cmath``, so it can run during
``import vvtheta`` without importing anything vvtheta imports later.
A normalized time reads in seconds at the host speed at which the kernel
takes ``REF_S``; a change that makes vvtheta faster shows in it by the same
factor as in wall time.

Two ways to time the kernel:

- ``measure``: many calls in a row, e.g. right after a set-up.
- ``Sampler``: one call every ``SAMPLE_PERIOD_S`` of wall time *during* a
  timed region, from a ``SIGALRM`` handler, so the kernel sees the same
  moments of contention as the region itself; the time spent in the
  handler is taken out of the region's time.
"""

from __future__ import annotations

import cmath
import gc
import signal
import time
from fractions import Fraction

#: the normalization's fixed scale: about one kernel call's time (s) on the
#: 2-vCPU Xeon host the benchmark was tuned on, when other tenants left it
#: quiet (see bench/README.md)
REF_S = 0.001
#: loop trips of one kernel call
REF_TRIPS = 150
#: wall seconds between two kernel calls of a ``Sampler``
SAMPLE_PERIOD_S = 0.1

_M = tuple(tuple(0.1 * (4 * i + j) for j in range(4)) for i in range(4))


def kernel(trips: int = REF_TRIPS) -> complex:
    acc = 0j
    table = {}
    for i in range(1, trips):
        x = Fraction(i % 97, 7 + i % 13) * Fraction(3, 5 + i % 11)
        v = (float(x), 1.0, -0.5, float(i % 5))
        q = sum(v[a] * _M[a][b] * v[b] for a in range(4) for b in range(4))
        acc += cmath.exp(2j * cmath.pi * q / (1 + i % 7)) * (q * 0.01)
        table[(i % 31, i % 17)] = x
    return acc


def measure(calls: int) -> float:
    """Mean wall seconds of one kernel call over ``calls`` calls in a row.

    Pending garbage is collected and one untimed call warms the code paths
    first, so a fresh interpreter reads the same as a warm one.
    """
    gc.collect()
    kernel()
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - t0) / calls


class Sampler:
    """Times a region and samples the kernel inside it.

    ``with sampler: work()`` sets ``wall_s`` (the region's wall time),
    ``net_s`` (``wall_s`` less the time spent in kernel calls) and
    ``samples`` (each kernel call's time).  Only for the main thread.
    """

    def __init__(self, period_s: float = SAMPLE_PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._starts: list[float] = []
        self.wall_s = self.net_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self._starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.samples, self._starts = [], []
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # an alarm taken after t1, before the timer stopped, is not inside
        self.samples = [s for s, t in zip(self.samples, self._starts) if t < t1]
        self.wall_s = t1 - self._t0
        self.net_s = self.wall_s - sum(self.samples)

    def reference_s(self) -> float:
        """Mean kernel time inside the region (``nan`` without a sample)."""
        return sum(self.samples) / len(self.samples) if self.samples else float("nan")
