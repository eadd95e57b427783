"""Wall time scaled to a fixed CPU speed.

The processors this benchmark was built on switch every few seconds
between a fast state and one about 1.5 to 1.8 times slower, apparently
another tenant on the same physical core. That spreads raw wall times of
one and the same round by about 25 %. A :class:`SpeedSampler` measures
that speed while the program runs: a timer signal every 20 ms runs a fixed
slice of interpreter work between two bytecodes of the main thread and
records how long it took. An interval's reference seconds are its wall
time without the slices, times the mean ratio of the reference slice time
to the measured ones.
"""

from __future__ import annotations

import signal
import time

# one slice's duration at the reference speed: about its median in the fast
# state of the machine the figures in README.md come from, so that reference
# seconds equal wall seconds in that state
REF_SLICE_S = 1.0e-4
SLICE_STEPS = 600
INTERVAL_S = 0.02


class SpeedSampler:
    """Samples this process's CPU speed from construction until :meth:`stop`."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        counts: dict[tuple, int] = {}
        for i in range(SLICE_STEPS):
            key = (i % 7, "slice")
            counts[key] = counts.get(key, 0) + 1
        self.starts.append(start)
        self.durations.append(time.monotonic() - start)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] of ``time.monotonic()`` in reference
        seconds; its wall time when no slice fell into it."""
        taken = [d for t, d in zip(self.starts, self.durations) if start <= t < end]
        if not taken:
            return end - start
        factor = sum(REF_SLICE_S / d for d in taken) / len(taken)
        return (end - start - sum(taken)) * factor
