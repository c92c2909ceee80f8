"""The host's speed, sampled while the work runs, to scale times by it.

The benchmark runs on shared hosts whose speed drifts by up to 2x
within minutes and changes within a second as well.  ``SpeedSampler``
times a short reference loop every few milliseconds, from a timer
signal, between two bytecodes of whatever the process is doing.  A
stretch of work is then scaled by the speed the samples taken during
it show.  The loop touches no hom3lie code, so a change to hom3lie
still moves the scaled times in full.

This module imports only what a fresh interpreter needs to sample
itself (``load_inputs.py`` does), so that it adds little to the set-up
time it helps to measure.
"""

from __future__ import annotations

import contextlib
import gc
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter
from typing import Any, Iterator

# Nominal duration of the reference loop, the default interval at which
# it is timed, and the fewest samples that set the speed of a stretch.
REF_SECONDS = 0.001
SAMPLE_INTERVAL = 0.02
MIN_SPEED_SAMPLES = 10

_REF_KEYS = [(i % 97, i % 89, i % 83) for i in range(300)]


def time_reference() -> float:
    """Time a fixed loop of Fraction arithmetic and dict updates, about 1 ms.

    The loop is like the jobs but touches no hom3lie code, so its time
    follows only the speed the host gives this process at that moment.
    It runs with the collector off, so that it never pays for collecting
    the work's garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict[tuple[int, int, int], Fraction] = {}
    for i, key in enumerate(_REF_KEYS):
        table[key] = table.get(key, 0) + Fraction(i % 13 - 6, i % 7 + 1)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the host's speed while ``running``.

    A stretch of work from ``start`` to ``end`` is scaled by the samples
    taken during it, or by the MIN_SPEED_SAMPLES nearest to it if it had
    fewer: its time, less the time spent sampling inside it, times
    REF_SECONDS over the mean reference time of those samples (the
    highest and lowest fifth left out).
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # handler entry, exit, loop time

    def _sample(self, signum: int, frame: Any) -> None:
        entry = perf_counter()
        loop = time_reference()
        self.samples.append((entry, perf_counter(), loop))

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedSampler"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sampling_seconds(self, start: float, end: float) -> float:
        """Time spent sampling between ``start`` and ``end``."""
        entries = [entry for entry, _, _ in self.samples]
        inside = self.samples[bisect_left(entries, start):bisect_left(entries, end)]
        return sum(exit - entry for entry, exit, _ in inside)

    def reference(self, start: float, end: float) -> float:
        """Mean reference time of the samples that set the speed of a stretch."""
        entries = [entry for entry, _, _ in self.samples]
        near = self.samples[bisect_left(entries, start):bisect_left(entries, end)]
        if len(near) < MIN_SPEED_SAMPLES:
            mid = (start + end) / 2
            i = bisect_left(entries, mid)
            around = self.samples[max(0, i - MIN_SPEED_SAMPLES):i + MIN_SPEED_SAMPLES]
            near = sorted(around, key=lambda s: abs(s[0] - mid))[:MIN_SPEED_SAMPLES]
        loops = sorted(loop for _, _, loop in near)
        cut = len(loops) // 5
        kept = loops[cut:len(loops) - cut]
        return sum(kept) / len(kept)

    def job_time(self, start: float, end: float) -> tuple[float, float]:
        """A stretch's time less sampling, as measured and as scaled."""
        seconds = end - start - self.sampling_seconds(start, end)
        return seconds, seconds * REF_SECONDS / self.reference(start, end)
