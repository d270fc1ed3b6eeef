"""Timing in reference seconds.

On a shared machine the speed of one core drifts: on a 2-vCPU virtual
machine (Intel Xeon, Python 3.11) a fixed pure-Python loop took anywhere
from 0.07 s to 0.15 s within fifteen seconds, and identical 0.35 s engine
runs spread by 40% between their quartiles.  Timing alone cannot tell such
drift from a change in the program.  So while a segment runs, an interval
timer interrupts it every SAMPLE_EVERY_S to run a fixed reference loop, and
one more loop runs just before and just after it.  The segment's time, less
the time spent in those interruptions, is also reported in reference
seconds:

    reference seconds = seconds * REF_LOOP_S / (mean duration of its loops)

that is, the time the segment would take on a machine that runs the loop in
exactly REF_LOOP_S.  Loops sampled through the segment follow the drift
within it; on that machine they halved the spread of normalized engine
runs compared with loops run only before and after.  The loop allocates and
pattern-matches small tuples, dicts and lists, as the engine does, and
shares no code with stationflow, so a change to the package cannot change
it.  It runs with the garbage collector off, so the size of the package's
heap does not leak into it.  Raw seconds are kept alongside and printed too.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter

LOOP_N = 2_000
# close to the loop's median duration on the machine the benchmark was
# defined on, so reference seconds read like that machine's typical seconds
REF_LOOP_S = 0.0009
SAMPLE_EVERY_S = 0.025


def reference_loop() -> float:
    """Duration of one fixed pass of pure-Python work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(LOOP_N):
            node = (i, (i * 7) % 13, ("k", i & 15))
            d = {"a": node, "b": [node, i]}
            match d["b"]:
                case [(_, p, _), j]:
                    acc += p + j
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Span:
    raw_s: float = 0.0
    ref_s: float = 0.0


class RefClock:
    """Measures spans in raw and in reference seconds; accumulates the
    segments and keeps each segment's reference time in order."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.segments: list[float] = []
        for _ in range(5):  # the first passes also warm the interpreter up
            reference_loop()
        self._last = reference_loop()
        self._last_end = perf_counter()
        self._samples: list[float] = []
        self._interrupted_s = 0.0

    def _calibrate(self) -> float:
        # a loop that ended just now still describes the machine
        if perf_counter() - self._last_end > 1e-3:
            self._last = reference_loop()
            self._last_end = perf_counter()
        return self._last

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self._samples.append(reference_loop())
        self._interrupted_s += perf_counter() - t0

    @contextmanager
    def measure(self):
        """Time the block; the yielded Span is filled in when it ends."""
        span = Span()
        self._samples = [self._calibrate()]
        self._interrupted_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            span.raw_s = perf_counter() - t0 - self._interrupted_s
            signal.signal(signal.SIGALRM, previous)
            self._last = reference_loop()
            self._last_end = perf_counter()
            self._samples.append(self._last)
            span.ref_s = span.raw_s * REF_LOOP_S / fmean(self._samples)

    @contextmanager
    def segment(self):
        """A timed part of the workload: counted into raw_s, ref_s and
        segments."""
        with self.measure() as span:
            yield
        self.raw_s += span.raw_s
        self.ref_s += span.ref_s
        self.segments.append(span.ref_s)
