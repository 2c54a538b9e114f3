"""Batch execution for the pipeline's per-item hot paths (schema
matching, new-detection feature extraction): one in-process executor
with observer hooks and failure provenance.  See
:mod:`repro.parallel.executor`."""

from repro.parallel.executor import (
    EXECUTOR_NAMES,
    ExecutorError,
    ExecutorObserver,
    SerialExecutor,
    dispatch_dirty,
    make_executor,
)

__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorError",
    "ExecutorObserver",
    "SerialExecutor",
    "dispatch_dirty",
    "make_executor",
]
