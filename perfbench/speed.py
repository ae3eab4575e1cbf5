"""Host-speed probe: times a fixed piece of work while a workload runs.

On a shared host the core under the benchmark runs at full speed for a
while, then 1.5-2.5x slower for anything from a fraction of a second to
tens of minutes, as other tenants come and go.  No estimator over a
run's samples removes a slowdown that lasts the whole run, so each
timed operation is instead scaled by the host's speed while it ran.

:class:`SpeedProbe` interrupts the process every :data:`PERIOD_S` with
``SIGALRM`` and, in the handler, times a fixed piece of pure-Python work
(:func:`probe_work`) on the same thread.  The handler runs between
two bytecodes of whatever the program is doing, so it samples the core
the program is on, at that moment.  :meth:`SpeedProbe.normalise` turns
the raw seconds of an operation into *reference seconds*: its time
with the probes' own time taken out, times the host's mean speed over
it, where the speed at one probe is :data:`REF_S` over its duration.
A reference second is a second on a host where the probe takes
:data:`REF_S`.

This module imports only the standard library, so it can start before
``import repro.cli`` and cover set-up too.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from typing import List, Sequence, Tuple

#: Interval between probes (about 1% of the time goes to probing).
PERIOD_S = 0.02
#: Probe duration that defines a reference second: about the probe's
#: duration inside a workload at full speed on a 2-vCPU KVM guest (Intel
#: Xeon, CPython 3.11), so there a reference second is about a second.
REF_S = 1.0e-4
#: Probes this far either side of a short operation also describe it.
WINDOW_S = 0.1


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float) -> None:
        self.x = x
        self.y = x


_TABLE = {i * 7919 % 65521: i * 0.37 % 1.0 for i in range(8192)}
_KEYS = list(_TABLE)
_CELLS = [_Cell(float(i)) for i in range(2048)]


def probe_work(offset: int) -> None:
    """The probe: dict lookups, heap pushes and pops and attribute
    updates over a ~1 MB working set, the kinds of step the event kernel
    is made of.  (A plain arithmetic loop slows less than the program
    when the core is contended.)"""
    heap: list = []
    for i in range(150):
        key = _KEYS[(offset + i * 7) & 8191]
        heapq.heappush(heap, (_TABLE[key], i))
        cell = _CELLS[(offset + i) & 2047]
        cell.y = cell.x * 1.0001 + cell.y * 0.5
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    """Samples host speed on the process's main thread."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        probe_work(len(self.starts) * 613)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, a: float, b: float) -> Tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def speed(self, a: float, b: float) -> float:
        """Mean of :data:`REF_S` over each probe's duration, for the
        probes that started in ``[a, b]``; for an interval too short to
        hold three, for those within :data:`WINDOW_S` of it.  Probes are
        evenly spaced in time, so this is the time-averaged speed (1.0 at
        reference speed, 0.5 at half of it); 1.0 when no probe ran near."""
        i, j = self._between(a, b)
        if j - i < 3:
            i, j = self._between(a - WINDOW_S, b + WINDOW_S)
        if j == i:
            return 1.0
        return sum(REF_S / d for d in self.durations[i:j]) / (j - i)

    def normalise(self, intervals: Sequence[Tuple[float, float]]) -> float:
        """Reference seconds of an operation that ran over ``intervals``
        (``(start, end)`` pairs on the ``perf_counter`` clock): each
        interval's time without the probes in it, times the speed over
        it."""
        total = 0.0
        for a, b in intervals:
            i, j = self._between(a, b)
            busy = sum(self.durations[i:j])
            total += (b - a - busy) * self.speed(a, b)
        return total


def seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Raw seconds covered by ``intervals``."""
    return sum(b - a for a, b in intervals)
