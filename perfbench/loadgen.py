"""Open-loop HTTP load generator.

Requests are sent on a fixed schedule whatever the service's speed:
each has a due time, and its latency runs from that due time to the end
of its response, so a stall (in the service or in the generator) also
delays every request due behind it.  How late the generator itself sent
each request is recorded too, which tells whether a figure reflects the
service or an overloaded client.  The generator uses at most ``nproc``
threads, each with at most one open connection.
"""

from __future__ import annotations

import http.client
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass

@dataclass
class Request:
    route: str
    path: str
    #: Entity id a point lookup must return (``None`` for lists).
    expect_id: str | None = None


@dataclass
class Outcome:
    request: Request
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Anything but a 200 fails, refusals (408, 413, 503) included."""
        return self.error is None and self.status == 200

    @property
    def latency_ms(self) -> float:
        """From due time to response end; a failure misses every limit."""
        return (self.done - self.due) * 1000.0 if self.ok else float("inf")

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0


#: Seconds a request may take before it counts as failed.
TIMEOUT = 30.0


def generator_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def schedule(rate: float, seconds: float, pick, seed: int) -> list[tuple[float, Request]]:
    """Evenly spaced due offsets at ``rate`` per second for ``seconds``.

    ``pick(rng)`` draws the next request; the mix is fixed by the seed.
    """
    rng = random.Random(seed)
    count = max(1, int(rate * seconds))
    return [(i / rate, pick(rng)) for i in range(count)]


class StallPlan:
    """Freezes the generator for ``seconds`` once ``after`` seconds have
    passed (used only by the self-checks)."""

    def __init__(self, after: float, seconds: float) -> None:
        self.after = after
        self.seconds = seconds
        self._lock = threading.Lock()
        self._until: float | None = None

    def wait(self, start: float) -> None:
        now = time.perf_counter()
        if now - start < self.after:
            return
        with self._lock:
            if self._until is None:
                self._until = now + self.seconds
        if now < self._until:
            time.sleep(self._until - now)


def run(host: str, port: int, plan, stall: StallPlan | None = None,
        stop: threading.Event | None = None) -> list[Outcome]:
    """Send ``plan`` (``[(offset_s, Request)]``) open loop; returns outcomes.

    Each request opens its own connection, as the program's own
    ``ServiceClient`` does.  ``stop`` ends the run early; requests never
    sent stay ``None``.
    """
    headers = {"Connection": "close"}
    threads = generator_threads()
    outcomes: list = [None] * len(plan)
    next_index = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT)
        try:
            while True:
                with lock:
                    index = next(next_index)
                if index >= len(plan) or (stop is not None and stop.is_set()):
                    return
                offset, request = plan[index]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    if stop is not None:
                        if stop.wait(delay):
                            return
                    else:
                        time.sleep(delay)
                if stall is not None:
                    stall.wait(start)
                sent = time.perf_counter()
                try:
                    connection.request("GET", request.path, headers=headers)
                    response = connection.getresponse()
                    body = response.read()
                    connection.close()
                    outcomes[index] = Outcome(
                        request, due, sent, time.perf_counter(), response.status, body
                    )
                except (OSError, http.client.HTTPException) as error:
                    outcomes[index] = Outcome(
                        request, due, sent, time.perf_counter(), 0, b"",
                        f"{type(error).__name__}: {error}",
                    )
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT)
        finally:
            connection.close()

    workers = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return outcomes


def backlog_grew(outcomes: list[Outcome]) -> bool:
    """True when the last quarter's median latency is well above the
    first quarter's: the service fell behind the offered rate."""
    n = len(outcomes)
    if n < 8:
        return False
    quarter = n // 4
    def med(part):
        values = sorted(o.latency_ms for o in part)
        return values[len(values) // 2]
    first, last = med(outcomes[:quarter]), med(outcomes[-quarter:])
    return last > 2.0 * first + 5.0
