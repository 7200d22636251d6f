"""A fixed piece of work that times the host's current speed.

The host the benchmark was built on (2-core VM, Python 3.11.7) runs
Python at two speeds that alternate in spells from seconds to minutes,
the slow one up to twice the fast one, as other tenants load it.  No steal
time shows and CPU time slows with wall time.  The benchmark divides each
latency by the time of this reference, taken between operations close to
it, and reports it at the reference's fast-spell time (NOMINAL_SECONDS).

The reference mixes the kinds of work the workloads do: float formatting,
JSON, small objects with math, and small numpy arrays.  Over four minutes
of both spells, batch latency divided by it varied 4.5% (interquartile
range over median, 6-second windows) where raw latency varied 38%; a tight
integer loop slowed 1.6x where the batches slowed 2.2x.  Nothing here
imports hardylane, so no change to the program moves the reference.
"""

import json
import math
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

#: Seconds reference() takes in the fast spells of that host.
NOMINAL_SECONDS = 4.2e-3

#: A latency is divided by the median of the reference samples taken
#: within WINDOW seconds of its operation, or of the NEAREST samples
#: nearest to it if fewer fall in that window.
WINDOW = 0.5
NEAREST = 5

#: Most samples taken in one gap between operations.
BURST = 8

_RECORDS = [{"p": i * 0.37, "q": i / 7.0, "name": f"pt{i}", "tags": [i, i + 1]}
            for i in range(300)]
_GRID = np.linspace(0.1, 8.0, 1024)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference():
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    json.loads(json.dumps(_RECORDS))
    ",".join(f"{i * 0.37:.17g}" for i in range(2000))
    acc = 0.0
    for i in range(3000):
        pair = _Pair(i * 0.5, i + 1.0)
        acc += math.sqrt(pair.a + pair.b)
    for _ in range(40):
        (_GRID * _GRID + 2.0 * _GRID - 1.0).sum()
        np.where(_GRID > 3.0, _GRID, -_GRID)
    return perf_counter() - t0


class Clock:
    """Reference samples taken between operations.

    A gap between operations gets one sample per `every` seconds since the
    last sample, at most BURST, so a long operation has samples close to
    it on both sides.
    """

    def __init__(self, every):
        self.every = every
        self.times, self.seconds = [], []

    def tick(self):
        since = perf_counter() - self.times[-1] if self.times else self.every
        for _ in range(min(BURST, int(since / self.every))):
            self.seconds.append(reference())
            self.times.append(perf_counter())

    def factor(self, start, end):
        """NOMINAL_SECONDS over the reference time around [start, end]."""
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_left(self.times, end + WINDOW)
        if hi - lo < NEAREST:
            k = bisect_left(self.times, (start + end) / 2.0)
            lo = max(0, min(k - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return NOMINAL_SECONDS / statistics.median(self.seconds[lo:hi])
