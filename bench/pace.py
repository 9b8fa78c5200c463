"""Host-speed reference for the ncdeform benchmark.

The benchmark's host is a shared machine whose CPU speed drifts by up to
a factor of two over a few seconds, for every program on it alike.  A time
measured in one run then says as much about the neighbours as about
ncdeform.  ``Pacer`` takes the drift out: while a workload runs, a SIGALRM
timer interrupts it every ``INTERVAL_S`` seconds and times ``kernel()``, a
fixed piece of pure-Python work of the same kind as the engine's inner
loops (Fraction products and sums into a dict with tuple keys).  The kernel
uses nothing from ncdeform, so a change to the engine never changes it.

``Pacer.scaled(a, b)`` is the time the program spent between two clock
readings ``a`` and ``b``, without the kernel runs in between, at the
reference speed: each stretch between two kernel runs is multiplied by
``REF_KERNEL_S`` over the mean time of those two runs.  A program that does
half the work reports half the time; a host that runs everything at half
speed does not change the figure.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

#: Time between two kernel runs while a workload runs.
INTERVAL_S = 0.25
#: The kernel's time at the reference speed: its median over 20 s on a
#: 2-vCPU Intel Xeon (2.1 GHz) VM with Python 3.11.7.  Scaled times are
#: seconds on that machine at its median speed.
REF_KERNEL_S = 0.0080

clock = time.perf_counter


def kernel() -> dict:
    """Fixed work: about 8 ms of Fraction arithmetic and dict updates."""
    out: dict = {}
    third = Fraction(3, 7)
    for i in range(1, 1300):
        key = ((i % 13, i % 7), (i % 3,))
        v = out.get(key, 0) + Fraction(i % 11 + 1, i % 9 + 1) * third
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def kernel_seconds(runs: int) -> float:
    """Median time of ``runs`` kernel runs, for a one-off measurement."""
    times = []
    for _ in range(runs):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return statistics.median(times)


class Pacer:
    """Times ``kernel()`` every ``INTERVAL_S`` seconds between start() and
    stop(), and scales intervals measured with ``clock`` in between."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self) -> None:
        t0 = clock()
        kernel()
        self.starts.append(t0)
        self.ends.append(clock())

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        # One-shot timer, armed again after the sample: a slow sample can
        # never be interrupted by the next one.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, a: float, b: float) -> float:
        """Program time in [a, b] at the reference speed.  a and b are
        ``clock`` readings between the first and the last sample."""
        starts, ends = self.starts, self.ends
        if not starts[0] <= a <= b <= ends[-1]:
            raise ValueError("interval outside the paced run")
        total = 0.0
        # Stretch i runs from the end of sample i to the start of sample
        # i + 1; the first one that can overlap [a, b] ends after a.
        i = max(bisect.bisect_right(starts, a) - 1, 0)
        while i + 1 < len(starts) and ends[i] < b:
            lo, hi = max(a, ends[i]), min(b, starts[i + 1])
            if hi > lo:
                mean = (ends[i] - starts[i] + ends[i + 1] - starts[i + 1]) / 2
                total += (hi - lo) * REF_KERNEL_S / mean
            i += 1
        return total
