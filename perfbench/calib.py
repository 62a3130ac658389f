"""Machine-speed calibration: timings in reference seconds.

The benchmark runs on a shared host whose single-core speed drifts by tens
of percent over minutes (see README.md, "Machine").  A pass therefore
interleaves a fixed pure-Python burst, which is benchmark code and never
calls srlab, with the program: `Calibration.start()` runs one burst at once
and then one every PERIOD_S of wall time from a SIGALRM handler, until
`stop()`.  Make one `Calibration` per process: it owns the handler.

- `clock()` is `time.perf_counter()` minus the time spent in bursts, so an
  interval measured with it holds only the program's own time.
- `scale(t0, t1)` turns such an interval into reference seconds:
  REF_BURST_S times the mean of 1 / burst time over the bursts run inside
  the interval or within MARGIN_S of it, and the nearest burst on each
  side.  The margin gives a request of a few milliseconds about ten bursts
  instead of two, so one burst slowed by a context switch moves it little.
  A program that is twice as fast in reference seconds is twice as fast on
  any machine whose speed moves the bursts and the program alike.

Signals reach Python only in the main thread, between bytecodes; a burst
waits for a long C call (numpy, a big-int operation) to return.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.1
MARGIN_S = 0.5
BURST_ITERATIONS = 3_000
# Median burst time of this host in a fast period (2-vCPU Xeon VM, Python
# 3.11.7).  A constant: it only sets the unit of the reference seconds.
REF_BURST_S = 0.002

_TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]


class _Acc:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mix(self, x):
        return _Acc(((self.v << 3) ^ (x * 40503) ^ (self.v >> 7)) & 0xFFFFFFFF)


def _burst():
    """Small-int arithmetic, list indexing, attribute access, method calls
    and short-lived objects: what srlab's pure-Python paths spend time on.

    Every object it makes dies at once; the collector is paused meanwhile,
    so a burst never collects the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    table = _TABLE
    acc = _Acc(1)
    for i in range(BURST_ITERATIONS):
        row = [table[(acc.v ^ i) & 255], i]
        acc = acc.mix(row[0] + row[1])
    if enabled:
        gc.enable()
    return acc.v


class Calibration:
    def __init__(self):
        self.stolen = 0.0  # seconds spent in bursts so far
        self.stamps = []  # clock() at the start of each burst
        self.rates = []  # 1 / seconds of each burst
        self.busy = False  # a burst is running

    def _sample(self, *_):
        if self.busy:  # a burst stalled for a whole period; do not nest another
            return
        self.busy = True
        start = time.perf_counter()
        _burst()
        seconds = time.perf_counter() - start
        self.stamps.append(start - self.stolen)
        self.rates.append(1.0 / seconds)
        self.stolen += seconds
        self.busy = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def clock(self):
        """perf_counter() seconds not spent in bursts."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:  # no burst ran between the two reads
                return now - stolen

    def scale(self, t0, t1):
        """Reference seconds per clock() second over [t0, t1]; call after stop()."""
        lo = max(0, bisect.bisect_right(self.stamps, t0 - MARGIN_S) - 1)
        hi = min(len(self.stamps), bisect.bisect_left(self.stamps, t1 + MARGIN_S) + 1)
        rates = self.rates[lo:hi]
        return REF_BURST_S * sum(rates) / len(rates)
