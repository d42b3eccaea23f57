"""Machine-speed gauge: wall times rescaled to a fixed reference speed.

On a shared machine the speed of interpreter-bound code swings by tens of
percent from one second to the next and drifts over minutes, for greenroute
and for any other pure-Python code alike; process CPU time swings with it,
since little of the loss is time stolen from the process. While a run
works, a timer signal interrupts it 10 times a second to time a small fixed
kernel that does what the routers' inner loops do: allocate tuples, fill a
dict, push and pop a heap, and search a graph with a set. ``Gauge.timed``
multiplies a call's wall time by ``REFERENCE_S`` over the mean kernel time
of the samples taken during the call (the last two, for a call shorter than
two ticks): the result is the wall time the call would have taken on a
machine where the kernel takes ``REFERENCE_S``. Each tick runs the kernel
once to warm the cache the interrupted work displaced, then twice more and
keeps the shorter time, so that a sample during which the process lost the
CPU (a few per thousand) does not read as a slow machine. The kernel is not greenroute code, so
no change to greenroute moves it, and time spent in the signal handler is
left out of every timed region by ``Gauge.now``.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

# About the kernel's time on the machine the bounds were set on (2 vCPUs,
# Python 3.11) at its faster moments, so rescaled times read close to the
# wall times seen then.
REFERENCE_S = 400e-6
INTERVAL_S = 0.1


class Gauge:
    """Kernel samples taken from a timer signal while the gauge is entered."""

    def __init__(self):
        rng = random.Random(5)
        self._adj = [sorted(rng.sample(range(100), 5)) for _ in range(100)]
        self.samples: list[float] = []
        self._handler_s = 0.0
        self._previous = None

    def kernel(self) -> float:
        """Seconds taken by one run of the reference kernel."""
        start = time.perf_counter()
        heap: list[tuple] = []
        table = {}
        for i in range(200):
            item = (i * 7919 % 211, i, (i, i + 1))
            table[item[0]] = item
            heapq.heappush(heap, item)
        while heap:
            heapq.heappop(heap)
        adj = self._adj
        for source in range(0, 100, 10):
            seen = {source}
            stack = [source]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(min(self.kernel(), self.kernel()))
        self._handler_s += time.perf_counter() - start

    def now(self) -> float:
        """A clock in seconds that stands still while the signal handler runs."""
        return time.perf_counter() - self._handler_s

    def timed(self, fn, *args):
        """Call ``fn(*args)``; return its result and its time at reference speed."""
        first = len(self.samples)
        start = self.now()
        result = fn(*args)
        elapsed = self.now() - start
        last = len(self.samples)
        return result, elapsed * self.factor(max(0, min(first, last - 2)), last)

    def __enter__(self) -> "Gauge":
        self._tick(None, None)  # so that a call timed at once has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, first: int = 0, stop: int | None = None) -> float:
        """Multiplier from raw wall time to time at reference speed, from ``samples[first:stop]``."""
        return REFERENCE_S / statistics.fmean(self.samples[first:stop])
