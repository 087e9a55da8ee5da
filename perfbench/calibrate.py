"""Calibration kernel: follows the machine's speed, so times can be scaled to a reference speed.

On a shared VM the same operations run up to 2.4 times slower from one
minute to the next, and CPU time moves with wall time. A fixed piece of
pure-Python work that does what the library does (big-integer elimination,
Fraction arithmetic, dict updates, a JSON round trip) slows down with it.
`Speedometer` times this kernel after every EVERY_S seconds of operation
time, and scales each operation's time by REFERENCE_S over the median of the
kernel times taken around it. The kernel never calls forms4d, so a change to
the library moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from fractions import Fraction

# Median kernel time on the 2-core x86 VM the bounds were set on: scaled
# times are the times that machine would show at that speed.
REFERENCE_S = 0.0015
EVERY_S = 0.025  # operation time between two kernel timings
WINDOW = 2  # kernel samples on each side of an operation's own in its median

_rng = random.Random("calibration")
_SQUARE = [[_rng.randint(-9, 9) for _ in range(14)] for _ in range(14)]
_NESTED = [[_rng.randint(-10**6, 10**6) for _ in range(30)] for _ in range(30)]


def _bareiss(rows: list[list[int]]) -> int:
    a = [row[:] for row in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _fractions_and_dicts() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    buckets: dict[int, int] = {}
    for i in range(3000):
        buckets[i % 97] = buckets.get(i % 97, 0) + i
    return total


def kernel_seconds() -> float:
    """Time of one run of the kernel, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _bareiss(_SQUARE)
        _fractions_and_dicts()
        json.loads(json.dumps(_NESTED))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_median(samples: int) -> float:
    kernel_seconds()  # first run pays for cold caches
    return statistics.median(kernel_seconds() for _ in range(samples))


class Speedometer:
    """Kernel timings interleaved with a sequence of operations."""

    def __init__(self) -> None:
        self.kernel: list[float] = []
        self._next: list[int] = []  # per operation: index of the kernel timing after it
        self._since = 0.0
        kernel_seconds()

    def after_op(self, elapsed: float) -> None:
        self._next.append(len(self.kernel))
        self._since += elapsed
        if self._since >= EVERY_S:
            self.kernel.append(kernel_seconds())
            self._since = 0.0

    def factors(self) -> list[float]:
        """Per operation so far: REFERENCE_S over the local median kernel time."""
        if not self.kernel or self._next[-1] == len(self.kernel):
            self.kernel.append(kernel_seconds())
            self._since = 0.0
        k = self.kernel
        local = [REFERENCE_S / statistics.median(k[max(0, j - WINDOW):j + WINDOW + 1])
                 for j in range(len(k))]
        return [local[j] for j in self._next]
