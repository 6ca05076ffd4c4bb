"""Machine-speed normalization for timings on a shared host.

On a host whose cores are shared with other tenants, the same interpreter
work can take 1.5 to 2.5 times longer for tens of seconds at a time, which
no number of repetitions inside a short run averages out.  `Speedometer`
times a fixed pure-Python probe (a mix of the interpreter work the library
does) every ``PERIOD_S`` of process CPU time, from a
``SIGVTALRM`` handler, and reports measured intervals in *reference
seconds*: the samples cut an interval into pieces, each piece loses the
probe time inside it and is scaled by ``PROBE_REF_S`` over the median of
the three probe times around it.  The speed also changes within a tenth of
a second, so a wider window misjudges ops of a few milliseconds.  On a
machine where the probe takes ``PROBE_REF_S`` a reference second is a
second.

The probe allocates no cyclic garbage and runs with the collector off, so the
library's heap size cannot change its time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from operator import itemgetter
from time import perf_counter

PERIOD_S = 0.05
# Probe time of the reference machine: a 2.1 GHz Xeon vCPU running Python
# 3.11 in its fast phase.
PROBE_REF_S = 0.0005


# a small multigraph (edge id -> ends) for the probe's cycle walk
_PROBE_GRAPH = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)]
_PROBE_ADJ = {v: [(e, w) for e, (a, b) in enumerate(_PROBE_GRAPH)
                  for x, w in ((a, b), (b, a)) if x == v] for v in range(4)}


def _walk(cycles, path, seen, v, start):
    for e, w in _PROBE_ADJ[v]:
        if path and e == path[-1][0]:
            continue
        if w == start and path:
            cycles.add(tuple(sorted(path + [(e, w)])))
        elif w not in seen and w > start:
            _walk(cycles, path + [(e, w)], seen | {w}, w, start)


def probe() -> int:
    """A fixed mix of the interpreter work the library does: exact fraction
    sums, tuple-keyed dicts, a recursive walk over tuples and sets, sorting,
    and plain integer arithmetic."""
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 1)
    table = {}
    for i in range(400):
        table[(i, i + 1)] = (i, total)
    cycles: set = set()
    for v in range(4):
        _walk(cycles, [], {v}, v, v)
    rows = sorted((i * 7919 % 257, str(i)) for i in range(300))
    keys = {x for x, _ in rows}
    acc = 0
    for i in range(3000):
        acc += i * i
    return len(table) + len(cycles) + len(keys) + acc % 7


class Speedometer:
    def __init__(self):
        # (probe start time, probe time) per sample; one append per sample,
        # so a signal handler never sees half a sample
        self.samples: list[tuple[float, float]] = []
        self.previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        try:
            probe()
        finally:
            end = perf_counter()
            if collecting:
                gc.enable()
            self.samples.append((start, end - start))

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGVTALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.previous)

    @staticmethod
    def mark() -> float:
        return perf_counter()

    def _factor(self, i: int) -> float:
        """Reference seconds per second around sample ``i``."""
        window = self.samples[max(0, i - 1):i + 2]
        return PROBE_REF_S / statistics.median(d for _, d in window)

    def ref_seconds(self, start: float, end: float) -> float:
        """The interval between two marks, without probe time, in
        reference seconds."""
        samples = self.samples
        lo = bisect.bisect_right(samples, start, key=itemgetter(0))
        hi = bisect.bisect_left(samples, end, key=itemgetter(0))
        total = 0.0
        piece_start, i = start, max(lo - 1, 0)
        for j in range(lo, hi):
            stamp, took = samples[j]
            total += (stamp - piece_start) * self._factor(i)
            piece_start, i = stamp + took, j
        return total + (end - piece_start) * self._factor(i)
