"""How fast the CPU is running right now, from a fixed probe.

On a shared host the same run can take anywhere from 1x to 2x its idle
time, for tens of seconds at a stretch, because other tenants contend
for the core and its caches.  Neither the median nor the best of a
run's repetitions removes that: a whole run can land in a slow stretch.

``Pace`` samples the host's speed while the workload runs.  Every
``INTERVAL_S`` a timer signal runs a fixed probe between two bytecodes
of the workload and records how long it took.  The probe is one sparse
Life step over a fixed cell set, written here rather than imported, so
no change to the program can change it; it slows down under contention
much as the workloads do.  ``paced`` takes the probes' own time out of
a wall time and scales the rest to the speed at which the probe takes
``REFERENCE_S``, so that runs made in slow and fast stretches agree.

Uses only the standard library, so a process can start it before
importing anything else.
"""

from __future__ import annotations

import signal
import time
from collections import Counter

# About 200 live cells in a 32 x 32 square.
_CELLS = frozenset((x, y) for x in range(32) for y in range(32) if (7 * x + 13 * y) % 5 == 0)
_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)


def _probe() -> frozenset:
    counts: Counter = Counter()
    for x, y in _CELLS:
        for dx, dy in _OFFSETS:
            counts[(x + dx, y + dy)] += 1
    return frozenset(c for c, n in counts.items() if n == 3 or (n == 2 and c in _CELLS))


class Pace:
    """Probe samples taken while the ``with`` block runs."""

    INTERVAL_S = 0.025
    # The probe's time on an idle 2-vCPU Xeon VM; it only sets the scale.
    REFERENCE_S = 500e-6

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Pace":
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def paced(wall: float, samples: list[float]) -> float:
    """``wall`` without the probes' time, at the reference speed."""
    if not samples:
        return wall
    probes = sum(samples)
    return (wall - probes) * Pace.REFERENCE_S * len(samples) / probes
