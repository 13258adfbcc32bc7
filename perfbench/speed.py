"""Host-speed probe, so times stay comparable on a shared host whose speed drifts.

On a machine shared with other tenants, the speed of one core drifts by tens
of percent within a minute, and every timing moves with it. The probe is a
fixed pure-Python loop of modular multiply-adds (the same kind of work as
modconv's kernels) that does not touch modconv. It is sampled between timed
calls, never inside one. A call's time at reference speed is its raw time
times REFERENCE_S over the median of the probes within WINDOW_S of the call,
always including the nearest probe on each side; the benchmark's end-to-end
times are in those reference seconds.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_S = 0.009  # median probe time on the 2-core x86-64 host the bounds were set on
WINDOW_S = 0.25
_P = 2305843009213704193
_RNG = random.Random(0)
_XS = [_RNG.randrange(1, _P) for _ in range(2048)]


def probe() -> float:
    t0 = time.perf_counter()
    acc = 1
    for _ in range(15):
        for v in _XS:
            acc = (acc * v + 1) % _P
    return time.perf_counter() - t0


class Sampler:
    """Probe samples, taken at least `interval` seconds apart, with their times."""

    def __init__(self, interval: float = 0.0):
        self.interval = interval
        self.samples: list[float] = []
        self.at: list[float] = []  # perf_counter() at the end of each sample
        self._last = float("-inf")

    def maybe(self, count: int = 1) -> None:
        """Take `count` samples if `interval` has passed since the last ones."""
        if time.perf_counter() - self._last >= self.interval:
            for _ in range(count):
                self.samples.append(probe())
                self._last = time.perf_counter()
                self.at.append(self._last)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for a call that ran from start to end."""
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S), max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(bisect.bisect_right(self.at, end + WINDOW_S), bisect.bisect_left(self.at, end) + 1)
        return REFERENCE_S / statistics.median(self.samples[lo:hi] or self.samples)
