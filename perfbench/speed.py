"""Host-speed probe: rescales host timings to one reference speed.

The shared 2-vCPU box the benchmark's bounds were set on switches
between a fast and a slow state (about 1.7x apart) several times a
second, and the share of time spent slow differs from run to run by
far more than any bound the benchmark may set.  CPU time drifts with
wall time, so the drift is not descheduling.

So a run times a fixed kernel (:func:`probe`, ~1 ms) at points spread
through its work: between cycles, and -- where the cycle runs in this
process -- every :data:`PROBE_INTERVAL_S` at a node-activation
boundary inside the cycle.  Each stretch of work between two probes
is rescaled by the mean of the two probe times around it, so a cycle
that spent half its time slow is corrected by that half.  Probe time
is subtracted from the timed cycle.

The kernel mixes the kinds of work a cycle does (bytecode, dictionary
lookups, blake2b) over a table small enough to stay in the core's own
caches, so the program's memory footprint moves it little: a probe
taken mid-cycle read 2-15 % slower than one at a cycle boundary,
where a table larger than L2 read 40 % slower mid-cycle.  It
allocates nothing the garbage collector tracks, so the program's
collections fall where they would without it, and it runs no
``repro`` code: a change that makes a cycle 10 % faster reads about
10 % faster.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Any, Callable, Iterable, List, Tuple

#: What one probe takes at the reference speed: about its fast-state
#: time on the 2-vCPU box the bounds were set on.
REFERENCE_PROBE_S = 0.00105
#: Kernel iterations per probe.
PROBE_ITERATIONS = 1500
#: Probes, median taken, at a cycle boundary or around a set-up.
BOUNDARY_PROBES = 9
#: Shortest stretch of work between two probes inside a cycle.
PROBE_INTERVAL_S = 0.02
#: Entries in the kernel's lookup table.
TABLE_SIZE = 128

_table = {i * 7919: (i, bytes(8) + i.to_bytes(8, "big")) for i in range(TABLE_SIZE)}


def probe() -> float:
    """Seconds for one fixed run of the kernel."""
    table = _table
    blake2b = hashlib.blake2b
    start = time.perf_counter()
    x = acc = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFF
        key, data = table[(x % TABLE_SIZE) * 7919]
        acc += key ^ blake2b(data, digest_size=16).digest()[0]
    return time.perf_counter() - start


def boundary() -> float:
    """Median probe time at one instant."""
    return statistics.median(probe() for _ in range(BOUNDARY_PROBES))


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work between two probe times, at reference speed."""
    return seconds * REFERENCE_PROBE_S * 2 / (before + after)


class CycleTimer:
    """Times cycles and rescales each to the reference speed.

    :meth:`install` adds the in-cycle probes by wrapping ``run_cycle``
    on the given node classes; without it only the cycle boundaries
    are probed (the sharded workload, whose cycles run in workers).
    """

    def __init__(self) -> None:
        self.last_boundary = boundary()
        #: Every probe time seen inside cycles, and at their boundaries.
        self.in_cycle: List[float] = []
        self.boundaries = [self.last_boundary]
        # This cycle's probes: (clock when taken, clock after, probe time).
        self._marks: List[Tuple[float, float, float]] = []
        self._mark_start = 0.0
        self._spent = 0.0
        self._patches: List[Tuple[Any, Any]] = []

    def install(self, classes: Iterable[type]) -> None:
        for cls in classes:
            if "run_cycle" in cls.__dict__:
                original = cls.__dict__["run_cycle"]
                self._patches.append((cls, original))
                setattr(cls, "run_cycle", self._wrap(original))

    def uninstall(self) -> None:
        for cls, original in reversed(self._patches):
            setattr(cls, "run_cycle", original)
        self._patches.clear()

    def _wrap(self, fn: Callable) -> Callable:
        timer = self
        clock = time.perf_counter

        def run_cycle(*args: Any, **kwargs: Any) -> Any:
            now = clock()
            if now - timer._mark_start >= PROBE_INTERVAL_S:
                seconds = probe()
                resumed = clock()
                timer._marks.append((now, resumed, seconds))
                timer._spent += resumed - now
                timer._mark_start = resumed
            return fn(*args, **kwargs)

        run_cycle.__wrapped__ = fn
        return run_cycle

    def run(self, step: Callable[[], Any]) -> Tuple[float, float]:
        """Run one cycle: (host seconds net of probes, reference seconds)."""
        self._marks = []
        self._spent = 0.0
        start = self._mark_start = time.perf_counter()
        step()
        end = time.perf_counter()
        after = boundary()
        self.boundaries.append(after)
        self.in_cycle += [seconds for _, _, seconds in self._marks]
        reference = 0.0
        previous_time, previous_probe = start, self.last_boundary
        for mark, resumed, seconds in self._marks:
            reference += at_reference(mark - previous_time, previous_probe, seconds)
            previous_time, previous_probe = resumed, seconds
        reference += at_reference(end - previous_time, previous_probe, after)
        self.last_boundary = after
        return end - start - self._spent, reference
