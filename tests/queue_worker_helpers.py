"""Picklable batch functions and worker fleets for the queue-executor tests.

Queue tasks travel to worker processes as pickles, which serialize
functions *by module reference* — so every batch function the tests
submit must live in an importable module, not in a test body.  Worker
subprocesses are launched with this directory on ``PYTHONPATH`` so they
can resolve these names.

The control-file functions coordinate the worker-kill choreography:
items are ``(value, control_dir)`` pairs, and the batch announces
itself by creating ``started-<pid>`` in the control directory, then
holds until the ``hold`` marker disappears.  That lets a test wait
until a *specific* worker owns the chunk, kill it mid-execution, and
release the retry to run to completion elsewhere.

The fleets drain a spool either from threads of the test process
(:func:`worker_threads`) or from ``python -m repro worker`` subprocesses
(:func:`worker_processes`); only the latter cross a process boundary,
so tests about what a chunk ships back to its driver use them.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"


def square_batch(chunk: list[int]) -> list[int]:
    return [value * value for value in chunk]


def bad_count_batch(chunk: list[int]) -> list[int]:
    return chunk[:-1]  # one result short


def count_items_batch(chunk: list[int]) -> list[int]:
    from repro.perf.counters import bump

    bump("test.chunk_items", len(chunk))
    return chunk


def explode_on_seven(chunk: list[int]) -> list[int]:
    for value in chunk:
        if value == 7:
            raise ValueError("seven is right out")
    return chunk


def timed_square(chunk: list[int]) -> tuple[dict, list[int]]:
    """Spool-protocol shape (``meta, results``) for direct enqueueing.

    ``run_worker`` unpickles ``(callable, chunk)`` and expects the
    callable to return a ``(meta, results)`` pair the way the executor's
    timing wrapper does; tests that drive the spool without a
    ``QueueExecutor`` (the chaos suite) enqueue this instead.  The meta
    is empty on purpose: the chaos suite compares whole result pickles
    byte for byte across a crash-and-retry, so nothing process-specific
    may leak into them.
    """
    return {}, [value * value for value in chunk]


def timed_holding(chunk: list[tuple[int, str]]) -> tuple[dict, list[int]]:
    """``holding_batch`` in the spool-protocol ``(meta, results)`` shape."""
    return {}, holding_batch(chunk)


def holding_batch(chunk: list[tuple[int, str]]) -> list[int]:
    """Announce, wait out the ``hold`` marker, then square the values."""
    control_dir = Path(chunk[0][1])
    started = control_dir / f"started-{os.getpid()}"
    started.write_text(str(os.getpid()), encoding="utf-8")
    deadline = time.monotonic() + 60.0
    while (control_dir / "hold").exists():
        if time.monotonic() > deadline:  # pragma: no cover - safety net
            raise RuntimeError("hold marker never released")
        time.sleep(0.02)
    return [value * value for value, _ in chunk]


@contextlib.contextmanager
def worker_threads(spool, count=2, **kwargs):
    """In-process worker fleet over a spool; stops and joins on exit."""
    from repro.parallel import run_worker

    stop = threading.Event()
    options = {"stop": stop, "poll_interval": 0.01, **kwargs}
    threads = [
        threading.Thread(
            target=run_worker,
            args=(spool,),
            kwargs=options,
            name=f"test-worker-{index}",
            daemon=True,
        )
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    try:
        yield stop
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)


def spawn_worker_process(spool, *, lease="1.0"):
    """One ``python -m repro worker`` subprocess draining ``spool``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(TESTS_DIR), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            str(spool),
            "--lease",
            lease,
            "--poll",
            "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@contextlib.contextmanager
def worker_processes(spool, count=2):
    """A fleet of worker subprocesses over a spool; stopped on exit."""
    fleet = [spawn_worker_process(spool) for __ in range(count)]
    try:
        yield fleet
    finally:
        for worker in fleet:
            worker.terminate()
        for worker in fleet:
            try:
                worker.wait(timeout=30.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
                worker.kill()
                worker.wait()
