"""Machine-speed reference for the timed metrics on a drifting host.

On a shared virtual machine the speed of the same code drifts by 15-35 %
over seconds to minutes: on the 2-vCPU machine this benchmark was written
on, a fixed pure-Python loop took 0.26-0.46 s within 30 s, and two sets of
scan runs 25 minutes apart differed by 37 % in median.  A short
reference loop, timed between requests, slows down with the host: over
65 passes of the same 88 query requests, pass times varied with a
coefficient of variation of 15 %, the reference loop with 14 %, and their
ratio with 4 %.  The gated latencies and work rates are therefore in
*reference seconds*: ``wall seconds * NOMINAL_S / reference duration``,
the time a request would have taken on a host where the reference loop
takes ``NOMINAL_S``.  The loop shares no code with the program, so a change
to the program moves reference seconds exactly as it moves wall time.  The
wall-clock values are reported next to them.
"""
from __future__ import annotations

import time

import numpy as np

# Duration of one reference loop on the machine that defined the benchmark
# (about its median there); a constant, so reference seconds compare across
# commits and runs.
NOMINAL_S = 0.0018

_X = np.linspace(-9.3, 9.3, 361)


def _loop() -> float:
    """Interpreted Python plus small NumPy calls, like the program's kernel."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(160):
        y = np.tanh(_X * (1.0 + k * 1e-3))
        total += float(y @ y)
    for i in range(16000):
        total += i * 0.5
    return time.perf_counter() - t0


def sample() -> float:
    """Current reference duration: the fastest of three loops, so a single
    preemption does not count as a slow machine."""
    return min(_loop() for _ in range(3))


class Track:
    """Reference samples taken between requests, at most every ``every`` s."""

    def __init__(self, every: float = 0.25) -> None:
        self.every = every
        self.samples = [sample()]
        self._last = time.perf_counter()

    def between_requests(self) -> int:
        """Sample if due; return the index of the latest sample."""
        if time.perf_counter() - self._last >= self.every:
            self.samples.append(sample())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        """A last sample, so the last request is bracketed too."""
        self.samples.append(sample())

    def factor(self, before: int) -> float:
        """Scale for a request that ran after sample ``before`` and before
        the next one (the last sample when none followed)."""
        after = min(before + 1, len(self.samples) - 1)
        reference = 0.5 * (self.samples[before] + self.samples[after])
        return NOMINAL_S / reference
