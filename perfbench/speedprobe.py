"""Machine-speed probe: a fixed reference loop timed while an operation runs.

On a shared host the wall time of identical work drifts by up to 1.8x, in
phases lasting from seconds to minutes (README.md, "Why operation time is
normalised"). The probe times a fixed loop of interpreted arithmetic and
small-array numpy calls, the two kinds of work that dominate the workloads'
operations, from a SIGALRM handler every `INTERVAL_S` seconds of wall time
while an operation runs, so the samples come from the same seconds as the
operation. An
operation's normalised cost is its wall time over the mean sample: the
operation's duration in reference loops. The loop lives here, not in
`src/`, so a change to the program moves the operation and never the loop.

The handler runs in the main thread between bytecodes; a long native call
delays a sample, it does not drop it. The garbage collector is held off while
a sample runs, so a collection of the operation's objects is not charged to
the loop.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
_ARRAY = np.arange(64.0)


def reference_loop() -> int:
    """Fixed interpreter and small-array numpy work, 0.3 to 0.5 ms on a 2.1 GHz vCPU."""
    total = 0
    for i in range(2000):
        total += i & 7
    a = _ARRAY
    for _ in range(150):
        a = a * 1.0001 + 0.5
    return total


class SpeedProbe:
    """Context manager that samples `reference_loop` while its block runs."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_loop()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._sample()

    def loop_s(self) -> float:
        """Mean seconds of one reference loop over the block."""
        return statistics.fmean(self.samples)
