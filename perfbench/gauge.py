"""Machine-speed gauge: scales measured times to a fixed reference speed.

On a shared host the same pure-Python work takes from 1x to almost 2x as
long from one second to the next, in phases that last from under a
second to minutes (neighbours on the physical core, host scheduling).
No statistic over a 20-second run removes that, so every end-to-end
time is scaled by the speed the machine had while it was measured.

A daemon thread runs a fixed reference job every :data:`PERIOD_S`
seconds and records how long it took.  The job is pure-Python
Levenshtein distances between fixed short words: the kind of work the
program's text kernels do, so the host slows both alike, but it is the
benchmark's own code, so no change to the program moves it.  The whole
benchmark, service included, is pinned to one CPU (see
:func:`common.pin_cpu`), so the gauge times the CPU the measured work
ran on.  A time measured over ``[start, end]`` is multiplied by the mean
of ``REFERENCE_S / probe`` over the probes taken in that interval: the
time the work would have taken at the reference speed.  The gauge costs
about 2% of the CPU, the same in every run.
"""

from __future__ import annotations

import bisect
import random
import threading
import time

#: Seconds between the end of one probe and the start of the next.
PERIOD_S = 0.02
#: Duration of one probe at the reference speed (about a probe's length
#: in the fast phase of the 2-CPU machine the benchmark was defined on,
#: while the measured work runs).  Scaled times read as times at this
#: speed.
REFERENCE_S = 0.0003
#: Word pairs compared by one probe.
PAIRS = 12
#: Fewest probes a scale factor is taken over; shorter intervals widen.
MIN_PROBES = 5

_LETTERS = "abcdefghijkl"
_rng = random.Random(20190326)
_WORDS = tuple(
    "".join(_rng.choice(_LETTERS) for _ in range(_rng.randint(4, 9)))
    for _ in range(4096)
)


def _levenshtein(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, left in enumerate(a, 1):
        current = [i]
        for j, right in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (left != right)))
        previous = current
    return previous[-1]


def reference_job(offset: int) -> int:
    """One probe's fixed work; ``offset`` walks through the word list."""
    total = 0
    for k in range(offset, offset + PAIRS):
        total += _levenshtein(_WORDS[k % len(_WORDS)], _WORDS[(k + 7) % len(_WORDS)])
    return total


class Gauge:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, daemon=True)

    def _probe(self) -> None:
        offset = 0
        while not self._stop.wait(PERIOD_S):
            started = time.perf_counter()
            reference_job(offset)
            self.durations.append(time.perf_counter() - started)
            self.starts.append(started)
            offset = (offset + PAIRS) % len(_WORDS)

    def start(self) -> "Gauge":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean of ``REFERENCE_S / probe`` over the probes started in
        ``[start, end]``, widened symmetrically to at least
        :data:`MIN_PROBES` probes."""
        starts = self.starts[:]
        count = len(starts)
        durations = self.durations[:count]
        if not count:
            raise RuntimeError("the speed gauge has taken no probe yet")
        pad = 0.0
        while True:
            low = bisect.bisect_left(starts, start - pad)
            high = bisect.bisect_right(starts, end + pad)
            if high - low >= min(MIN_PROBES, count):
                break
            pad = max(2.0 * pad, PERIOD_S)
        window = durations[low:high]
        return REFERENCE_S * sum(1.0 / d for d in window) / len(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``end - start`` at the reference speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> dict:
        ordered = sorted(self.durations)
        return {
            "probes": len(ordered),
            "probe_p50_ms": 1000.0 * ordered[len(ordered) // 2] if ordered else None,
            "reference_ms": 1000.0 * REFERENCE_S,
        }


_active: Gauge | None = None


def start() -> Gauge:
    global _active
    if _active is None:
        _active = Gauge().start()
    return _active


def stop() -> None:
    global _active
    if _active is not None:
        _active.stop()
        _active = None


def active() -> Gauge:
    if _active is None:
        raise RuntimeError("the speed gauge is not running")
    return _active
