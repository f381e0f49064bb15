"""Machine-speed calibration: a fixed pure-Python kernel timed beside the
workload, so that timings can be scaled to one reference speed.

The shared machine the benchmark runs on changes speed by up to about
2.5x, sometimes for minutes, longer than a run, sometimes from one second
to the next, and every timing of the program moves with it.  ``kernel``
does a fixed amount of work of the kinds the program does (list-of-lists
integer arithmetic, tuple and set work on permutations, big-integer
products and quotients, small method calls) without touching dualkit.  A
run samples it every ``EVERY_S`` seconds between jobs; a job's time is
scaled by ``REF_S`` over the median of the samples taken nearest to it.
A reported time is thus the time the job would take on a machine where
the kernel takes ``REF_S`` seconds: a change to dualkit moves it, a
change of the machine's speed mostly does not (code that starts processes
slows less than the kernel, so its scaled times still move somewhat).
"""

from __future__ import annotations

import statistics
import time

# kernel time that scaled timings refer to, close to its median on the
# 2-vCPU machine the benchmark was tuned on
REF_S = 0.0016
EVERY_S = 0.025
NEAREST = 9
ROUNDS = 4


class _Acc:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, x):
        self.total += x
        return self


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def _closure(gens):
    seen = {tuple(range(len(gens[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def kernel() -> int:
    """A fixed amount of work; returns a checksum so it cannot be skipped."""
    return sum(_round(r) for r in range(ROUNDS))


def _round(r: int) -> int:
    a = [[(i * 7 + j * 3 + r) % 11 - 5 for j in range(10)]
         for i in range(10)]
    m = _matmul(_matmul(a, a), a)
    n = _closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    big = 3 ** 400 + 1
    acc = _Acc()
    for k in range(1, 40):
        _, rem = divmod(big * (k + 12345), 987654321 + k)
        acc.add(rem & 0xFFFF)
    counts: dict = {}
    for i in range(600):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return m[3][4] + n + acc.total + len(counts)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speed:
    """Kernel samples taken through a run, every ``EVERY_S`` seconds at
    most, between jobs.  ``mark`` takes a sample when one is due and
    returns the index of the latest sample; ``scale(i)`` is ``REF_S`` over
    the median of the ``NEAREST`` samples around index ``i``."""

    def __init__(self):
        self.samples: list = []
        self._last = 0.0
        for _ in range(NEAREST):
            self._take()

    def _take(self):
        self.samples.append(sample())
        self._last = time.perf_counter()

    def mark(self) -> int:
        if time.perf_counter() - self._last >= EVERY_S:
            self._take()
        return len(self.samples) - 1

    def finish(self):
        """Samples after the last job, so that its window is centred."""
        for _ in range(NEAREST // 2):
            self._take()

    def scale(self, i: int) -> float:
        lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
        return REF_S / statistics.median(self.samples[lo:lo + NEAREST])

    def median(self) -> float:
        return statistics.median(self.samples)


def scale_here(repeats: int = 2 * NEAREST + 1) -> tuple:
    """(scale, median kernel time) from ``repeats`` samples taken now, for a
    measurement made just before in the same process."""
    kernel()
    med = statistics.median(sample() for _ in range(repeats))
    return REF_S / med, med
