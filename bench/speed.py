"""Host speed, sampled beside the timed work.

On a shared host, other processes slow this one by 30-75% for seconds to
minutes at a time, through shared cores and caches rather than by taking
its CPU away: the CPU time of a pass rises with its wall time, so neither
is steady.  ``Speedometer`` runs a daemon thread that times a fixed
pure-Python loop every ``INTERVAL`` seconds.  The loop slows down with
the work, so a span of wall time divided by the median loop time during
that span moves far less with host load.  ``scaled`` multiplies that
quotient by ``REF_LOOP_S`` to give seconds at one fixed reference speed.

The loop touches no defalg code, so a change to defalg moves scaled times
as much as it moves wall times.  The thread costs the timed work about 1%.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

INTERVAL = 0.05  # seconds between loop samples
LOOP = 5000  # iterations of the timed loop
# Scaled seconds are seconds at the speed where the loop takes this long,
# about its time on a quiet 2-vCPU x86-64 host with Python 3.11.
REF_LOOP_S = 3e-4
MIN_SAMPLES = 3  # a shorter span borrows the samples nearest to it


def _loop() -> int:
    acc = 0
    for i in range(LOOP):
        acc += (i * i) % 7
    return acc


def _timed_loop() -> Tuple[float, float]:
    start = time.perf_counter()
    _loop()
    return start, time.perf_counter() - start


class Speedometer:
    """Loop samples taken while the context is open; ``scaled`` reads them."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Speedometer":
        self.samples.append(_timed_loop())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL):
            self.samples.append(_timed_loop())

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end`` (``time.perf_counter``
        readings) at the reference speed."""
        samples = list(self.samples)
        starts = [s for s, _ in samples]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        loop_s = statistics.median(d for _, d in samples[lo:hi])
        return (end - start) * REF_LOOP_S / loop_s

    def loop_stats(self) -> dict:
        loops = [d for _, d in self.samples]
        return {"samples": len(loops), "median_s": statistics.median(loops),
                "min_s": min(loops), "max_s": max(loops)}
