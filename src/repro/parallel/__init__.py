"""Parallel execution engine for the pipeline's embarrassingly parallel
hot paths (schema matching, block-local row similarity, new-detection
feature extraction).  See :mod:`repro.parallel.executor`; the
distributed ``queue`` backend lives in :mod:`repro.parallel.workqueue`."""

from repro.parallel.executor import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorError,
    ExecutorObserver,
    SerialExecutor,
    default_worker_count,
    dispatch_dirty,
    make_executor,
)
from repro.parallel.workqueue import (
    QUEUE_DIR_ENV,
    QUEUE_DIRNAME,
    QueueExecutor,
    WorkQueue,
    WorkerTaskError,
    queue_stats,
    resolve_queue_dir,
    run_worker,
)

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorError",
    "ExecutorObserver",
    "QUEUE_DIRNAME",
    "QUEUE_DIR_ENV",
    "QueueExecutor",
    "SerialExecutor",
    "WorkQueue",
    "WorkerTaskError",
    "default_worker_count",
    "dispatch_dirty",
    "make_executor",
    "queue_stats",
    "resolve_queue_dir",
    "run_worker",
]
