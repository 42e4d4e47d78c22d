"""The machine's current speed, from a fixed reference computation.

This machine's speed drifts with the load other tenants put on the host:
the same computation takes from 1x to 2x its best time, in phases that can
last a whole run.  No statistic within a run removes a phase that covers
the run.  So the benchmark times a fixed reference unit of pure-Python work
of the kinds the program does (integer convolution, and small objects
holding coefficient tuples) alongside the program, and scales every time
it reports by

    REFERENCE_MS / (median time of the unit, measured in the same period).

A reported time is therefore the time the program would take on this
machine at the speed where the unit takes REFERENCE_MS.  The unit runs no
ramibound code, so a change to the program moves the reported times and
never the scale.  Changing this file changes every reported time: keep it
as it is, or re-measure the parent with the same file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# About the unit's median time on a 2-vCPU Xeon at 2.0 GHz (CPython 3.11.7)
# when this file was written: 1.7-1.9 ms in loaded periods, the best single
# units near 1.0 ms.  Reported times are in seconds at that speed.
REFERENCE_MS = 1.6

_N = 84
_A = tuple((7 * i * i + 3) % 251 for i in range(_N))
_B = tuple((5 * i + 11) % 241 for i in range(_N))


class _Term:
    __slots__ = ("coeffs", "weight")

    def __init__(self, coeffs, weight):
        self.coeffs = coeffs
        self.weight = weight


def unit() -> int:
    """One reference unit; its result is fixed, so nothing can skip it.

    Two parts: a convolution of two long integer lists, and a chain of
    small objects holding coefficient tuples, multiplied pairwise mod 2^8
    (allocation and attribute access, as in the program's series ring)."""
    out = [0] * _N
    for i, a in enumerate(_A):
        for j in range(_N - i):
            out[i + j] += a * _B[j]
    seen: dict[int, int] = {}
    for x in tuple(x % 65536 for x in out):
        seen[x & 15] = seen.get(x & 15, 0) + 1
    terms = [_Term(tuple((i * k) % 256 for k in range(12)), i) for i in range(80)]
    chain = []
    for x, y in zip(terms, terms[1:]):
        c = [0] * 12
        for i, a in enumerate(x.coeffs):
            if a:
                for j in range(12 - i):
                    c[i + j] += a * y.coeffs[j]
        chain.append(_Term(tuple(v % 256 for v in c), x.weight + y.weight))
    return len(seen) + sum(t.coeffs[3] for t in chain)


_EXPECTED = unit()


def time_unit() -> float:
    """Seconds taken by one reference unit."""
    start = time.perf_counter()
    got = unit()
    elapsed = time.perf_counter() - start
    if got != _EXPECTED:
        raise RuntimeError("the reference unit gave a different result")
    return elapsed


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside `samples` (unit times,
    in seconds) into times at the reference speed."""
    return REFERENCE_MS / (statistics.median(samples) * 1e3)


class Sampler:
    """Times one reference unit every `every` seconds of wall time, from a
    SIGALRM handler, so that the samples cover long operations as well as
    the gaps between them.  `spent` is the time taken by the handler so
    far; a caller subtracts its growth from the time of what it measures."""

    def __init__(self, every: float):
        self.every = every
        self.stamps: list[float] = []  # when each unit started
        self.times: list[float] = []  # and how long it took
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while a unit runs is dropped
            return
        self._busy = True
        start = time.perf_counter()
        try:
            took = time_unit()
        finally:
            self._busy = False
        self.stamps.append(start)
        self.times.append(took)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_at(self, start: float, end: float, margin: float) -> float:
        """scale() of the units run from `margin` seconds before `start` to
        `margin` seconds after `end`."""
        lo = bisect.bisect_left(self.stamps, start - margin)
        hi = bisect.bisect_right(self.stamps, end + margin)
        return scale(self.times[lo:hi] or self.times)
