"""Host speed, read from a fixed reference kernel timed through a run.

The machines this benchmark runs on are shared, and their speed moves in
modes tens of seconds long.  On a 2-vCPU Xeon VM the same paper search
took 4.3 ms in its fast mode and 8-9 ms in its slow one; over 200 s the
middle half of 25-second windows of raw search latency spread by 61% of
their median.  No number of repeats inside a run of the same code
removes that: it is the run's share of slow modes.

So every time a workload reports is scaled to one host speed.  Short
probes of :func:`kernel`, the benchmark's own code doing the program's
kind of work (an interpreter loop over a dict, sorting tuples, numpy set
operations on sorted integer arrays), are timed between the measured
operations.  Over 150 s on that VM, 5-second medians of the kernel's
time and of paper search latency correlated at 0.87, and search latency
divided by kernel time spread by 9% where raw latency spread by 20%.  A
measured time ``t`` is reported as ``t / slowdown``, where ``slowdown``
is the median probe time around the measurement divided by
:data:`REFERENCE_MS`: it reads as the time on a host where the kernel
takes ``REFERENCE_MS``.  The kernel does not call the program, so a
change to the program moves the scaled times as it moves the raw ones;
the raw times and the slowdown are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter as clock

import numpy as np

#: The kernel's time on the reference host: roughly its median in the
#: fast mode of a 2-vCPU Xeon VM.  It only sets the scale of the
#: reported times.
REFERENCE_MS = 1.0
#: A slowdown is the median of at least this many probes ...
MIN_PROBES = 5
#: ... taken within this many seconds of the measurement, the window
#: doubling until it holds enough probes.
PAD_S = 0.25
#: Probes taken just before and just after a one-shot operation.
BURST = 3

_RNG = np.random.default_rng(1811)
_LEFT = np.unique(_RNG.integers(0, 1 << 20, 24_000))
_RIGHT = np.unique(_RNG.integers(0, 1 << 20, 24_000))
_KEYS = _RIGHT[::16].copy()
_PAIRS = [(int(d) % 251, int(p) % 97) for d, p in zip(_LEFT[:1500], _RIGHT[:1500])]
_ROWS = [(-(d * 7919 % 1009) / 1009.0, d, p) for d, p in _PAIRS]


def kernel() -> int:
    """A fixed piece of work of the program's kind (about 1 ms)."""
    both = np.intersect1d(_LEFT, _RIGHT, assume_unique=True)
    at = np.searchsorted(_LEFT, _KEYS)
    sums: dict[int, int] = {}
    for doc, pos in _PAIRS:
        sums[doc] = sums.get(doc, 0) + pos
    ranked = sorted(_ROWS)
    return len(both) + int(at[-1]) + len(sums) + ranked[0][1]


class HostSpeed:
    """Probes of :func:`kernel` through a run, and the slowdown they show."""

    def __init__(self):
        #: Start and duration (seconds) of every probe, in time order.
        self.starts: list[float] = []
        self.costs: list[float] = []
        for _ in range(3):
            kernel()  # warm, untimed

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            kernel()
            cost = clock() - t0
            self.starts.append(t0)
            self.costs.append(cost)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time around ``[start, end]`` over :data:`REFERENCE_MS`."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.starts, start - pad)
            hi = bisect.bisect_right(self.starts, end + pad)
            if hi - lo >= min(MIN_PROBES, len(self.costs)) or pad > 1e6:
                break
            pad *= 2.0
        if hi <= lo:
            raise RuntimeError("no host-speed probe was taken")
        return statistics.median(self.costs[lo:hi]) * 1000.0 / REFERENCE_MS

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at the reference speed."""
        return seconds / self.slowdown(start, end)

    def timed(self, fn) -> tuple[object, float, float]:
        """Run ``fn()`` between two bursts of probes; returns its result
        and its time in seconds, raw and at the reference speed."""
        self.probe(BURST)
        t0 = clock()
        result = fn()
        t1 = clock()
        self.probe(BURST)
        return result, t1 - t0, self.scaled(t1 - t0, t0, t1)

    def overall(self) -> float:
        """The run's median slowdown, for the report."""
        return statistics.median(self.costs) * 1000.0 / REFERENCE_MS
