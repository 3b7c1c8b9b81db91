"""The host's speed, measured between operations, so it can be taken out of
the reported times.

On a shared host the same pure-Python work runs up to ±25% faster or slower
from one second to the next, and the slow swings last from a second to
minutes.  The process's CPU time moves with its wall time, so this is not
time the hypervisor takes away; it is the work itself running slower, the
way it does when neighbours contend for caches and memory bandwidth.  A run
of round medians carries that drift whole: ten 40-second runs of the same
code spread their round median by 14–26% (first to third quartile, over the
median).

A :class:`SpeedProbe` runs a fixed reference task, which imports nothing
from ``repro``, between the benchmark's operations, never inside one.  The
mean time of the task over a window, divided by :data:`REFERENCE_TASK_S`, is
how much slower than the reference speed the host ran in that window, and a
time measured in the window divided by that factor is the time at the
reference speed.  A change to the program moves the measured time and not
the task's, so it still shows in full.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, FrozenSet, List

from measure import mean

#: Seconds the reference task takes at the reference speed: its median on a
#: 2-core 2.0 GHz Xeon host under Python 3.11.  Times reported "at the
#: reference speed" are what that host measures when it runs at its median.
REFERENCE_TASK_S = 0.011

#: A probe samples after an operation once this long has passed since its
#: last sample, so the samples spread evenly over a round's time whatever
#: the lengths of its operations.
PROBE_EVERY_S = 0.15

_KEYS = 2048
_FANOUT = 8


def _reference_table() -> Dict[int, FrozenSet[int]]:
    rng = random.Random(0)
    return {key: frozenset(rng.randrange(_KEYS) for _ in range(_FANOUT)) for key in range(_KEYS)}


def reference_task(table: Dict[int, FrozenSet[int]]) -> int:
    """A fixed join over a table of sets: the lookups, set intersections,
    tuple allocations and sorting the coordinator's joins are made of."""
    found = []
    for key, neighbours in table.items():
        for other in neighbours:
            common = neighbours & table[other]
            if common:
                found.append((key, other, len(common)))
    found.sort()
    return len(found)


class SpeedProbe:
    """Times :func:`reference_task` when asked, and turns the samples of a
    window into a slowdown factor."""

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self._table = _reference_table()
        self._expected = reference_task(self._table)
        self._every_s = every_s
        self._last = float("-inf")
        #: Seconds of each run of the reference task, in order.
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the task once; return the seconds this call took in all.

        The collector is held off while the task runs, so the task's time
        does not depend on how many objects the program keeps alive.
        """
        called = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            result = reference_task(self._table)
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
        if result != self._expected:
            raise RuntimeError("the reference task gave a different result")
        self._last = time.perf_counter()
        return self._last - called

    def due(self) -> float:
        """Sample if :data:`PROBE_EVERY_S` has passed since the last sample;
        return the seconds this call took."""
        if time.perf_counter() - self._last < self._every_s:
            return 0.0
        return self.sample()

    def mark(self) -> int:
        """The position to pass to :meth:`factor` for a window starting now."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """How many times slower than the reference speed the host ran in the
        window of samples from ``since`` on."""
        return mean(self.samples[since:]) / REFERENCE_TASK_S
