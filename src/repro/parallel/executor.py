"""Batch execution with deterministic result ordering.

The pipeline's hot loops — per-table correspondence scoring and
per-entity detection feature extraction — apply a pure function to
every item of a list, given some shared read-only context.
:class:`SerialExecutor` captures exactly that shape behind one call,
:meth:`SerialExecutor.map_batches`: a **batch function**
(``func(list_of_items) -> list_of_results``) runs once, in this
process, over the whole list and must return one result per item, in
input order.

Failures are wrapped in :class:`ExecutorError`, which names the task
and the labels of the items the batch held (table ids, entity ids,
...), so a crash deep inside a batch function still points at the
originating input.

:class:`ExecutorObserver` receives per-batch progress and timing events;
:class:`repro.obs.TracingObserver` implements it, so batch seconds land
in the run's span log as children of the stage span.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Recognized executor names.
EXECUTOR_NAMES = ("serial",)


class ExecutorError(RuntimeError):
    """A batch function failed; carries batch provenance for debugging.

    ``__cause__`` is the original exception; ``item_labels`` are the
    labels of the items in the failing batch, derived by the ``label=``
    callable passed to ``map_batches``.  ``chunk_index`` is the batch's
    index among the task's dispatches (always 0: one batch per call).
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
    """Per-batch progress/timing hooks; subclass and override what you need.

    Every ``map_batches`` call with items fires :meth:`on_map_started`
    and then one :meth:`on_chunk_finished` (``chunk_index`` 0) carrying
    the batch function's compute seconds.
    """

    def on_map_started(
        self, task_name: str, n_items: int, n_chunks: int
    ) -> None:
        pass

    def on_chunk_finished(
        self, task_name: str, chunk_index: int, n_items: int, seconds: float
    ) -> None:
        pass


class SerialExecutor:
    """In-process, in-order execution of one batch per call.

    ``workers`` is validated (``>= 1``) and otherwise unused.  The
    executor holds no pool and no per-run state, so one instance can
    serve as a shared default argument.
    """

    name = "serial"

    def __init__(
        self,
        workers: int = 1,
        observers: Iterable[ExecutorObserver] = (),
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.observers: list[ExecutorObserver] = list(observers)

    def map_batches(
        self,
        func: Callable[[list[ItemT]], list[ResultT]],
        items: Sequence[ItemT],
        *,
        task_name: str = "map",
        label: Callable[[ItemT], str] | None = None,
    ) -> list[ResultT]:
        """Apply a batch function to ``items``, preserving input order.

        ``func`` receives the whole list and must return one result per
        input item, in order.  ``label`` renders an item for
        :class:`ExecutorError` provenance.
        """
        items = list(items)
        if not items:
            return []
        for observer in self.observers:
            observer.on_map_started(task_name, len(items), 1)
        started = time.perf_counter()
        try:
            results = func(items)
        except Exception as error:
            labels = [
                label(item) if label is not None else repr(item)[:80]
                for item in items
            ]
            raise ExecutorError(task_name, 0, labels, error) from error
        seconds = time.perf_counter() - started
        if len(results) != len(items):
            raise ValueError(
                f"batch function returned {len(results)} results "
                f"for {len(items)} items in task {task_name!r}"
            )
        for observer in self.observers:
            observer.on_chunk_finished(task_name, 0, len(results), seconds)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


def dispatch_dirty(
    func: Callable[[list[ItemT]], list[ResultT]],
    items: Sequence[ItemT],
    cached: Sequence[ResultT | None],
    *,
    executor: SerialExecutor = SerialExecutor(),
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
    name: str = "serial",
    workers: int = 1,
    observers: Iterable[ExecutorObserver] = (),
) -> SerialExecutor:
    """Build an executor from a configuration string."""
    if name.strip().lower() == "serial":
        return SerialExecutor(workers, observers)
    known = ", ".join(EXECUTOR_NAMES)
    raise ValueError(f"unknown executor {name!r}; expected one of: {known}")
