"""Chunked parallel execution with deterministic result ordering.

The pipeline's hot loops — per-table correspondence scoring, block-local
pairwise row similarity, per-entity detection feature extraction — are
embarrassingly parallel: every item is processed by a pure function of
the item and some shared read-only context.  :class:`Executor` captures
exactly that shape behind one call, :meth:`Executor.map_batches`:

* the input sequence is split into contiguous chunks,
* a **batch function** (``func(list_of_items) -> list_of_results``) runs
  on each chunk — serially, on a process pool, or on a worker fleet,
* the per-chunk result lists are reassembled **in input order**, no
  matter in which order chunks complete.

The determinism contract is therefore: for a pure batch function,
``map_batches`` returns the same list for every executor and every
worker count.  Process pools additionally require the batch function and
the items to be picklable — the pipeline's batch functions are
module-level callable classes holding only picklable state (KB, models,
metric bundles).

Failures are wrapped in :class:`ExecutorError`, which names the task,
the failing chunk, and the labels of the items it held (table ids,
entity ids, ...), so a crash deep inside a worker still points at the
originating input.

:class:`ExecutorObserver` receives per-chunk progress and timing events;
:class:`repro.obs.TracingObserver` implements it, so in-worker chunk
seconds land in the run's span log as children of the stage span.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, Future, wait
from typing import Callable, Iterable, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Recognized executor names, in documentation order.  ``queue`` is the
#: distributed backend (:mod:`repro.parallel.workqueue`): chunks are
#: spooled to a shared directory and executed by external ``repro
#: worker`` processes, possibly on other hosts.
EXECUTOR_NAMES = ("serial", "process", "queue")

#: Environment variables driving the *default* executor configuration —
#: a test/CI matrix can flip the whole suite onto a process pool without
#: touching any call site.
EXECUTOR_ENV = "REPRO_EXECUTOR"
WORKERS_ENV = "REPRO_WORKERS"


def default_executor_name() -> str:
    """The executor name configured via ``REPRO_EXECUTOR`` (default serial)."""
    name = os.environ.get(EXECUTOR_ENV, "").strip().lower() or "serial"
    if name not in EXECUTOR_NAMES:
        known = ", ".join(EXECUTOR_NAMES)
        raise ValueError(
            f"invalid {EXECUTOR_ENV}={name!r}; expected one of: {known}"
        )
    return name


def default_worker_count() -> int:
    """Worker count from ``REPRO_WORKERS``, else the CPUs this process may use.

    The fallback counts the process's CPU affinity where the platform
    exposes it, so a pinned or cgroup-limited process never starts more
    workers than it can run at once.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"invalid {WORKERS_ENV}={raw!r}; must be an integer >= 1"
            ) from None
        if workers < 1:
            raise ValueError(f"invalid {WORKERS_ENV}={raw!r}; must be >= 1")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ExecutorError(RuntimeError):
    """A batch function failed; carries chunk provenance for debugging.

    ``__cause__`` is the original worker exception; ``item_labels`` are
    the labels of the items in the failing chunk (bounded to the first
    few), derived by the ``label=`` callable passed to ``map_batches``.
    """

    def __init__(
        self,
        task_name: str,
        chunk_index: int,
        item_labels: Sequence[str],
        cause: BaseException,
    ) -> None:
        self.task_name = task_name
        self.chunk_index = chunk_index
        self.item_labels = tuple(item_labels)
        shown = ", ".join(self.item_labels[:5])
        if len(self.item_labels) > 5:
            shown += f", ... ({len(self.item_labels)} items)"
        super().__init__(
            f"task {task_name!r} failed in chunk {chunk_index} "
            f"[{shown}]: {type(cause).__name__}: {cause}"
        )


class ExecutorObserver:
    """Per-chunk progress/timing hooks; subclass and override what you need.

    ``seconds`` on :meth:`on_chunk_finished` is the in-worker compute
    time of that chunk (not queue time).  Chunk events fire in completion
    order, which is nondeterministic under real parallelism — aggregate,
    don't sequence-match.

    The two tracing hooks carry per-chunk *span records* for
    :mod:`repro.obs`: an observer that returns a context from
    :meth:`chunk_trace_context` opts the task into in-worker span
    recording, and receives the records — reassembled in chunk-index
    order regardless of completion order — via :meth:`on_chunk_spans`
    after the map completes.
    """

    def on_map_started(
        self, task_name: str, n_items: int, n_chunks: int
    ) -> None:
        pass

    def on_chunk_finished(
        self, task_name: str, chunk_index: int, n_items: int, seconds: float
    ) -> None:
        pass

    def chunk_trace_context(self, task_name: str) -> dict | None:
        """``{"trace": ..., "parent": ...}`` to record chunk spans, else None."""
        return None

    def on_chunk_spans(self, task_name: str, records: list[dict]) -> None:
        pass


class _TimedBatch:
    """Wraps a batch function to measure in-worker compute seconds.

    Module-level class so the wrapper pickles whenever the wrapped
    function does.  Returns ``(meta, results)`` — ``meta`` carries the
    wall-clock start, compute seconds, and the worker pid/host, which is
    all the provenance a chunk span needs (host matters once chunks run
    on queue workers that may live on other machines).
    """

    def __init__(self, func: Callable[[list], list]) -> None:
        self.func = func

    def __call__(self, chunk: list) -> tuple[dict, list]:
        started_wall = time.time()
        started = time.perf_counter()
        results = self.func(chunk)
        meta = {
            "seconds": time.perf_counter() - started,
            "ts": started_wall,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
        return meta, results


class _TracedBatch(_TimedBatch):
    """A timed batch that additionally builds a chunk span record.

    The trace id and **parent span id travel with the pickled batch
    function** into pool workers, so the record a worker ships back is
    already correctly parented — the observer side only assigns span
    ids, in deterministic chunk-index order.
    """

    def __init__(
        self,
        func: Callable[[list], list],
        task_name: str,
        trace_id: str,
        parent: str | None,
    ) -> None:
        super().__init__(func)
        self.task_name = task_name
        self.trace_id = trace_id
        self.parent = parent

    def __call__(self, chunk: list) -> tuple[dict, list]:
        meta, results = super().__call__(chunk)
        meta["span_record"] = {
            "trace": self.trace_id,
            "parent": self.parent,
            "name": f"chunk:{self.task_name}",
            "kind": "chunk",
            "ts": meta["ts"],
            "dur": meta["seconds"],
            "attrs": {"pid": meta["pid"], "host": meta["host"]},
        }
        return meta, results


def _chunk(items: list, chunk_size: int) -> list[list]:
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


class Executor:
    """Base class: chunking, ordering, observers, failure wrapping.

    Subclasses implement :meth:`_submit_chunks`, mapping a timed batch
    function over chunks and yielding ``(chunk_index, meta, results)``
    in any order; the base class reassembles input order.
    """

    name: str = "base"

    def __init__(
        self,
        workers: int = 1,
        observers: Iterable[ExecutorObserver] = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.observers: list[ExecutorObserver] = list(observers)

    # -- public API -----------------------------------------------------
    def map_batches(
        self,
        func: Callable[[list[ItemT]], list[ResultT]],
        items: Sequence[ItemT],
        *,
        chunk_size: int | None = None,
        task_name: str = "map",
        label: Callable[[ItemT], str] | None = None,
    ) -> list[ResultT]:
        """Apply a batch function to ``items``, preserving input order.

        ``func`` receives a contiguous sub-list and must return one
        result per input item, in order.  ``chunk_size`` defaults to an
        even split into :meth:`_default_chunk_count` chunks — ``4 ×
        workers`` for pools, a single chunk for the serial executor.
        ``label`` renders an item for :class:`ExecutorError` provenance.
        """
        items = list(items)
        if not items:
            return []
        if chunk_size is None:
            chunk_size = max(1, -(-len(items) // self._default_chunk_count()))
        chunks = _chunk(items, chunk_size)
        for observer in self.observers:
            observer.on_map_started(task_name, len(items), len(chunks))
        trace_context = None
        for observer in self.observers:
            trace_context = observer.chunk_trace_context(task_name)
            if trace_context is not None:
                break
        if trace_context is not None:
            timed: _TimedBatch = _TracedBatch(
                func,
                task_name,
                trace_context["trace"],
                trace_context.get("parent"),
            )
        else:
            timed = _TimedBatch(func)
        gathered: list[list[ResultT] | None] = [None] * len(chunks)
        metas: list[dict | None] = [None] * len(chunks)
        try:
            for chunk_index, meta, results in self._submit_chunks(
                timed, chunks
            ):
                if len(results) != len(chunks[chunk_index]):
                    raise ValueError(
                        f"batch function returned {len(results)} results "
                        f"for {len(chunks[chunk_index])} items in task "
                        f"{task_name!r} chunk {chunk_index}"
                    )
                gathered[chunk_index] = results
                metas[chunk_index] = meta
                for observer in self.observers:
                    observer.on_chunk_finished(
                        task_name, chunk_index, len(results), meta["seconds"]
                    )
        except _ChunkFailure as failure:
            chunk = chunks[failure.chunk_index]
            labels = [
                label(item) if label is not None else repr(item)[:80]
                for item in chunk
            ]
            raise ExecutorError(
                task_name, failure.chunk_index, labels, failure.cause
            ) from failure.cause
        flattened: list[ResultT] = []
        for results in gathered:
            assert results is not None
            flattened.extend(results)
        if trace_context is not None:
            # The deterministic-merge half of in-worker tracing: span
            # records are delivered in chunk-index (= input) order, so
            # the ids the consumer assigns don't depend on completion
            # order.
            span_records = []
            for chunk_index, meta in enumerate(metas):
                assert meta is not None
                record = dict(meta["span_record"])
                record["attrs"] = {
                    **record.get("attrs", {}),
                    "chunk_index": chunk_index,
                    "n_items": len(chunks[chunk_index]),
                }
                span_records.append(record)
            for observer in self.observers:
                observer.on_chunk_spans(task_name, span_records)
        return flattened

    def close(self) -> None:
        """Release pooled workers (no-op for poolless executors)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"

    # -- subclass hooks -------------------------------------------------
    def _default_chunk_count(self) -> int:
        """How many chunks to target when ``chunk_size`` is unspecified.

        Pooled executors use ``4 × workers`` (smaller chunks smooth load
        imbalance); the serial executor uses one chunk, since splitting
        buys nothing in-process and per-chunk batch-function setup
        (matcher construction, cache warm-up) would repeat.
        """
        return self.workers * 4

    def _submit_chunks(
        self, timed: _TimedBatch, chunks: list[list]
    ) -> Iterable[tuple[int, float, list]]:
        raise NotImplementedError


class _ChunkFailure(Exception):
    """Internal: a chunk's exception plus which chunk raised it."""

    def __init__(self, chunk_index: int, cause: BaseException) -> None:
        self.chunk_index = chunk_index
        self.cause = cause
        super().__init__(str(cause))


class SerialExecutor(Executor):
    """In-process, in-order execution — the default and the baseline.

    ``workers`` is accepted (and ignored) so executor configurations are
    interchangeable.  It holds no pool and no per-run state, so one
    instance can serve as a shared default argument.
    """

    name = "serial"

    def _default_chunk_count(self) -> int:
        return 1

    def _submit_chunks(self, timed, chunks):
        for chunk_index, chunk in enumerate(chunks):
            try:
                meta, results = timed(chunk)
            except Exception as error:
                raise _ChunkFailure(chunk_index, error) from error
            yield chunk_index, meta, results


def _exit_with_driver(parent_pid: int) -> None:
    """Pool-worker initializer: a worker never outlives its driver.

    A SIGKILLed driver cannot shut its pool down, and its idle workers
    would block on the call queue forever, holding the driver's pipes.
    On Linux the kernel delivers SIGKILL to the worker when its parent
    dies; the ``getppid`` check covers a parent that died between the
    fork and ``prctl``.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        pr_set_pdeathsig = 1
        # A refused prctl leaves a working, merely unprotected, worker.
        prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != parent_pid:
        os._exit(1)


class ProcessExecutor(Executor):
    """Process-pool execution — true CPU parallelism.

    The batch function and items cross process boundaries, so both must
    be picklable and the function must be **pure**: worker-side caches
    or mutations never flow back.  Per-chunk overhead is the pickled
    context, so prefer few large chunks over many small ones.

    The pool is created lazily on first use and reused across
    ``map_batches`` calls until :meth:`close` — one pipeline run spawns
    its workers once, not once per stage.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        observers: Iterable[ExecutorObserver] = (),
    ) -> None:
        super().__init__(
            workers if workers is not None else default_worker_count(),
            observers,
        )
        self._pool = None

    def _submit_chunks(self, timed, chunks):
        if len(chunks) == 1 or self.workers == 1:
            # No parallelism to gain; skip pool overhead and run
            # in-process — but still probe that the batch function plus
            # one representative item pickle, so a small test input
            # cannot mask a batch function (lambda, handle, lock) that
            # would crash at production scale.
            import pickle

            pickle.dumps((timed, chunks[0][:1]))
            yield from SerialExecutor._submit_chunks(self, timed, chunks)
            return
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Fork (the Linux default before Python 3.14, pinned here)
            # makes the driver each worker's parent, which
            # _exit_with_driver checks.  A fork pool starts every worker
            # from the thread making the first submit, which is the
            # thread calling map_batches (the writer thread under `repro
            # serve`).  PDEATHSIG fires when that *thread* exits, and the
            # pool never outlives it: the executor lives exactly as long
            # as one run's stage loop, which closes it on the same thread.
            context = (
                multiprocessing.get_context("fork")
                if sys.platform.startswith("linux")
                else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_exit_with_driver,
                initargs=(os.getpid(),),
            )
        futures: dict[Future, int] = {
            self._pool.submit(timed, chunk): chunk_index
            for chunk_index, chunk in enumerate(chunks)
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    chunk_index = futures[future]
                    error = future.exception()
                    if error is not None:
                        raise _ChunkFailure(chunk_index, error) from error
                    meta, results = future.result()
                    yield chunk_index, meta, results
        finally:
            for future in pending:
                future.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


def dispatch_dirty(
    func: Callable[[list[ItemT]], list[ResultT]],
    items: Sequence[ItemT],
    cached: Sequence[ResultT | None],
    *,
    executor: Executor = SerialExecutor(),
    task_name: str = "map",
    label: Callable[[ItemT], str] | None = None,
) -> list[ResultT]:
    """Run a batch function over the *dirty subset* of an item sequence.

    The incremental engine resolves most work from caches; only the
    items whose cached result is ``None`` (the dirty set) are dispatched
    through ``executor``, and the results are merged back into input
    order.  With an all-dirty cache row this degenerates to a plain
    ``map_batches`` call, and with an all-clean one the executor is never
    touched, so cache-hit runs pay zero dispatch overhead.

    ``cached`` must align with ``items``; ``None`` is therefore not a
    representable cached value (no pipeline unit produces bare ``None``).
    """
    items = list(items)
    if len(items) != len(cached):
        raise ValueError(
            f"dispatch_dirty: {len(items)} items but {len(cached)} cached "
            f"slots for task {task_name!r}"
        )
    dirty_positions = [
        position for position, value in enumerate(cached) if value is None
    ]
    merged: list[ResultT | None] = list(cached)
    if dirty_positions:
        dirty_items = [items[position] for position in dirty_positions]
        fresh = executor.map_batches(
            func, dirty_items, task_name=task_name, label=label
        )
        for position, result in zip(dirty_positions, fresh):
            merged[position] = result
    return merged  # type: ignore[return-value]


def make_executor(
    name: str | None = None,
    workers: int | None = None,
    observers: Iterable[ExecutorObserver] = (),
    *,
    queue_dir: str | os.PathLike | None = None,
) -> Executor:
    """Build an executor from a configuration string.

    ``name=None`` resolves via ``REPRO_EXECUTOR`` (default ``serial``);
    ``workers=None`` resolves via ``REPRO_WORKERS`` (default: the CPUs
    this process may use).
    ``queue_dir`` is the spool directory for the ``queue`` backend
    (``None`` falls back to ``REPRO_QUEUE_DIR``); ignored by the
    in-process executors.
    """
    resolved = name.strip().lower() if name is not None else default_executor_name()
    resolved_workers = workers if workers is not None else default_worker_count()
    if resolved == "serial":
        return SerialExecutor(max(1, resolved_workers), observers)
    if resolved == "process":
        return ProcessExecutor(resolved_workers, observers)
    if resolved == "queue":
        from repro.parallel.workqueue import QueueExecutor, resolve_queue_dir

        return QueueExecutor(
            resolve_queue_dir(queue_dir), resolved_workers, observers
        )
    known = ", ".join(EXECUTOR_NAMES)
    raise ValueError(f"unknown executor {name!r}; expected one of: {known}")
