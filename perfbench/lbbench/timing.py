"""Timings corrected for host-speed drift, and the statistics reported.

The benchmark host is shared: the same pure-Python loop can take 50%
longer in one process than in the next, and the speed drifts within a
process too.  Every timed region is therefore bracketed by readings of a
small calibration kernel (:func:`kernel_ms`), and each raw duration is
scaled by ``REFERENCE_MS / reading``, with ``reading`` the mean of the
readings taken just before and just after it.  A reported duration is
thus "how long this would take on a host where the kernel takes
``REFERENCE_MS``".  The kernel runs pure bytecode over small cached ints,
so it allocates nothing and measures interpreter speed alone.

Readings are taken between operations, never inside one, at most every
:data:`CALIBRATE_EVERY_S` seconds; an operation's bracket is the last
reading before it and the first after it.
"""

from __future__ import annotations

import math
import statistics
import time
from itertools import repeat

#: Loop steps of one kernel run.
KERNEL_STEPS = 20_000
#: Kernel runs per reading; the reading is their median.
KERNEL_REPEATS = 5
#: The kernel time that corrected durations are expressed at.
REFERENCE_MS = 0.5
#: Seconds between readings while operations run.
CALIBRATE_EVERY_S = 0.2


def _kernel(steps: int) -> int:
    # An 8-bit Galois LFSR: every value stays in CPython's small-int cache.
    x = 1
    for _ in repeat(None, steps):
        x = (x >> 1) ^ 0xB8 if x & 1 else x >> 1
    return x


def kernel_ms() -> float:
    """One calibration reading: median kernel time in milliseconds."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel(KERNEL_STEPS)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class DriftClock:
    """Times regions and corrects them by the bracketing readings.

    :meth:`record` takes a raw duration measured after the latest reading;
    :meth:`maybe_calibrate` takes a new reading when enough time has
    passed; :meth:`corrected` resolves every recorded duration once the
    closing reading exists.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last_reading_at = 0.0
        #: (raw seconds, index of the reading before it)
        self._raw: list[tuple[float, int]] = []

    def calibrate(self) -> None:
        self.readings.append(kernel_ms())
        self._last_reading_at = time.perf_counter()

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self._last_reading_at >= CALIBRATE_EVERY_S:
            self.calibrate()

    def record(self, seconds: float) -> int:
        """Record a raw duration measured after the latest reading;
        returns its handle for :meth:`corrected`."""
        if not self.readings:
            raise RuntimeError("calibrate() before recording a duration")
        self._raw.append((seconds, len(self.readings) - 1))
        return len(self._raw) - 1

    def factor(self, before: int) -> float:
        after = min(before + 1, len(self.readings) - 1)
        reading = (self.readings[before] + self.readings[after]) / 2
        return REFERENCE_MS / reading

    def corrected(self, handle: int) -> float:
        seconds, before = self._raw[handle]
        return seconds * self.factor(before)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]
