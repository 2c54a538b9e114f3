"""A filesystem + SQLite work queue: the ``queue`` executor backend.

The serial executor stops at one process.  :class:`QueueExecutor` fans
the same chunked batch contract out across *independent worker
processes* — started with ``repro worker`` on this host or on any host
that shares the spool directory (NFS, bind mount, ...):

* the **driver** (the pipeline run) pickles each ``(batch_function,
  chunk)`` pair into a payload file and enqueues one task row per chunk
  in ``queue.sqlite``;
* **workers** claim tasks with a lease (an atomic ``BEGIN IMMEDIATE``
  update), execute the chunk, write the result file atomically and mark
  the task done.  A keeper thread extends the lease while the chunk
  computes, so a lease only expires when the worker process is actually
  gone;
* the driver polls for finished tasks, **expires dead workers' leases**
  (re-queueing their chunks, bounded by ``max_attempts``) and yields
  results to the base :class:`~repro.parallel.executor.Executor`, which
  reassembles chunk-index order — output stays byte-identical to the
  serial executor, per the determinism contract.

Failure semantics mirror the serial executor: an exception *raised by
the batch function* is deterministic and fails the run immediately (no
retry — rerunning a crashing chunk three times just crashes three
times), while a **vanished worker** (SIGKILL, OOM, power loss) is a
transient fault: its lease expires, the chunk goes back to pending and
another worker retries it, up to ``max_attempts`` total claims.  Both
paths surface as :class:`~repro.parallel.executor.ExecutorError` with
task/chunk provenance.

Spool layout (conventionally ``<corpus-store>/queue``)::

    queue/
      queue.sqlite          # tasks / workers / batches / counters
      payloads/<batch>-<chunk>.pkl
      results/<task-id>.pkl

Everything in the directory is transient coordination state: it can be
deleted wholesale between runs without losing any pipeline data.
"""

from __future__ import annotations

import os
import pickle
import socket
import sqlite3
import threading
import time
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro import faults
from repro.parallel.executor import (
    Executor,
    ExecutorObserver,
    _ChunkFailure,
    _TimedBatch,
)

__all__ = [
    "QUEUE_DIRNAME",
    "QUEUE_DIR_ENV",
    "QueueExecutor",
    "WorkQueue",
    "WorkerTaskError",
    "queue_stats",
    "resolve_queue_dir",
    "run_worker",
]

#: Conventional spool location under a corpus store directory.
QUEUE_DIRNAME = "queue"

#: Environment fallback for the spool directory when neither the config
#: nor the session provides one.
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"

#: A worker whose heartbeat is older than this is not counted as live.
_LIVE_WORKER_WINDOW = 30.0

#: Workers skip tasks whose driver batch stopped heartbeating this long
#: ago — a killed driver must not leave workers grinding through chunks
#: nobody will ever collect.
_STALE_BATCH_SECONDS = 60.0

#: How long opening a spool keeps retrying the switch to WAL mode.
_WAL_SWITCH_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    batch_id TEXT NOT NULL,
    task_name TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    owner TEXT,
    lease_expires REAL,
    payload_path TEXT NOT NULL,
    result_path TEXT,
    error TEXT,
    error_traceback TEXT,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_tasks_status ON tasks (status);
CREATE INDEX IF NOT EXISTS idx_tasks_batch ON tasks (batch_id);
CREATE TABLE IF NOT EXISTS batches (
    batch_id TEXT PRIMARY KEY,
    driver_pid INTEGER NOT NULL,
    driver_host TEXT NOT NULL,
    created_at REAL NOT NULL,
    heartbeat REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS workers (
    worker_id TEXT PRIMARY KEY,
    pid INTEGER NOT NULL,
    host TEXT NOT NULL,
    started_at REAL NOT NULL,
    heartbeat REAL NOT NULL,
    tasks_done INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
"""


class WorkerTaskError(RuntimeError):
    """A chunk failed on a remote worker; carries the remote provenance.

    ``remote_type`` is the exception class name raised in the worker (or
    a synthetic marker like ``LeaseExpired`` for presumed-dead workers);
    ``worker_id`` names the worker that reported — or abandoned — the
    chunk, and ``remote_traceback`` holds the worker-side traceback text
    when one was captured.
    """

    def __init__(
        self,
        message: str,
        *,
        remote_type: str = "Exception",
        worker_id: str | None = None,
        remote_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback


def resolve_queue_dir(queue_dir: str | os.PathLike | None = None) -> Path:
    """The spool directory: explicit argument, else ``REPRO_QUEUE_DIR``.

    The ``queue`` executor cannot guess where its spool lives — raises a
    :class:`ValueError` spelling out the three ways to provide one when
    neither source is set.
    """
    if queue_dir is not None:
        return Path(queue_dir)
    from_env = os.environ.get(QUEUE_DIR_ENV, "").strip()
    if from_env:
        return Path(from_env)
    raise ValueError(
        "executor 'queue' needs a spool directory: set "
        "PipelineConfig.queue_dir, run from a corpus store (the session "
        f"uses <store>/{QUEUE_DIRNAME}), or export {QUEUE_DIR_ENV}"
    )


@dataclass(frozen=True)
class ClaimedTask:
    """What a worker receives from :meth:`WorkQueue.claim`."""

    task_id: int
    batch_id: str
    task_name: str
    chunk_index: int
    attempts: int
    payload_path: str


@dataclass(frozen=True)
class FinishedTask:
    """A terminal task row the driver collects."""

    task_id: int
    chunk_index: int
    status: str
    result_path: str | None
    error: str | None
    error_traceback: str | None
    owner: str | None
    attempts: int


class WorkQueue:
    """SQLite-backed task spool shared by one driver and many workers.

    One instance owns one connection and must stay on the thread that
    created it; background threads (lease keepers) open their own
    instance.  All multi-writer races are resolved by SQLite itself:
    claims run under ``BEGIN IMMEDIATE``, completion/failure updates are
    guarded by ``WHERE owner = ? AND status = 'running'`` so a worker
    whose lease was expired and reassigned cannot overwrite the retry's
    result.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.payload_dir = self.directory / "payloads"
        self.result_dir = self.directory / "results"
        for path in (self.directory, self.payload_dir, self.result_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.database_path = self.directory / "queue.sqlite"
        self._conn = sqlite3.connect(
            self.database_path, timeout=30.0, isolation_level=None
        )
        self._enable_wal()
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)

    def _enable_wal(self) -> None:
        """Switch the spool to WAL mode, retrying while it is locked.

        When several processes or threads open a fresh spool at once,
        SQLite can answer this pragma with ``database is locked``
        without calling the busy handler, so the connection timeout
        does not cover it.
        """
        deadline = time.monotonic() + _WAL_SWITCH_TIMEOUT
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transactions ---------------------------------------------------
    def _immediate(self):
        """An IMMEDIATE transaction context (write lock on entry)."""
        return _ImmediateTransaction(self._conn)

    # -- driver side ----------------------------------------------------
    def create_batch(self, batch_id: str) -> None:
        now = time.time()
        self._conn.execute(
            "INSERT OR REPLACE INTO batches "
            "(batch_id, driver_pid, driver_host, created_at, heartbeat) "
            "VALUES (?, ?, ?, ?, ?)",
            (batch_id, os.getpid(), socket.gethostname(), now, now),
        )

    def touch_batch(self, batch_id: str) -> None:
        self._conn.execute(
            "UPDATE batches SET heartbeat = ? WHERE batch_id = ?",
            (time.time(), batch_id),
        )

    def enqueue(
        self,
        batch_id: str,
        task_name: str,
        chunk_index: int,
        payload_path: str | os.PathLike,
        *,
        max_attempts: int = 3,
    ) -> int:
        cursor = self._conn.execute(
            "INSERT INTO tasks (batch_id, task_name, chunk_index, status, "
            "max_attempts, payload_path, created_at) "
            "VALUES (?, ?, ?, 'pending', ?, ?, ?)",
            (
                batch_id,
                task_name,
                chunk_index,
                max_attempts,
                str(payload_path),
                time.time(),
            ),
        )
        return int(cursor.lastrowid)

    def fetch_finished(self, batch_id: str) -> list[FinishedTask]:
        rows = self._conn.execute(
            "SELECT id, chunk_index, status, result_path, error, "
            "error_traceback, owner, attempts FROM tasks "
            "WHERE batch_id = ? AND status IN ('done', 'failed') "
            "ORDER BY chunk_index",
            (batch_id,),
        ).fetchall()
        return [FinishedTask(*row) for row in rows]

    def expire_leases(self) -> int:
        """Reclaim chunks from workers that stopped extending their lease.

        Expired tasks with attempts left go back to ``pending`` for
        another worker; tasks that already burned ``max_attempts`` claims
        become ``failed`` with a presumed-dead error.  Returns the number
        of leases expired (also accumulated in the ``lease_expiries``
        counter for ``/metrics``).
        """
        now = time.time()
        with self._immediate():
            rows = self._conn.execute(
                "SELECT id, attempts, max_attempts, owner FROM tasks "
                "WHERE status = 'running' AND lease_expires < ?",
                (now,),
            ).fetchall()
            for task_id, attempts, max_attempts, owner in rows:
                if attempts >= max_attempts:
                    self._conn.execute(
                        "UPDATE tasks SET status = 'failed', error = ?, "
                        "lease_expires = NULL WHERE id = ?",
                        (
                            f"LeaseExpired: worker {owner!r} presumed dead; "
                            f"chunk abandoned after {attempts} attempt(s)",
                            task_id,
                        ),
                    )
                else:
                    self._conn.execute(
                        "UPDATE tasks SET status = 'pending', owner = NULL, "
                        "lease_expires = NULL WHERE id = ?",
                        (task_id,),
                    )
            if rows:
                self._bump_counter("lease_expiries", len(rows))
        return len(rows)

    def remove_batch(self, batch_id: str) -> None:
        """Drop a batch's rows and spool files (driver-side cleanup)."""
        rows = self._conn.execute(
            "SELECT payload_path, result_path FROM tasks WHERE batch_id = ?",
            (batch_id,),
        ).fetchall()
        self._conn.execute("DELETE FROM tasks WHERE batch_id = ?", (batch_id,))
        self._conn.execute(
            "DELETE FROM batches WHERE batch_id = ?", (batch_id,)
        )
        for payload_path, result_path in rows:
            for path in (payload_path, result_path):
                if path:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    # -- worker side ----------------------------------------------------
    def register_worker(self, worker_id: str) -> None:
        now = time.time()
        self._conn.execute(
            "INSERT OR REPLACE INTO workers "
            "(worker_id, pid, host, started_at, heartbeat, tasks_done) "
            "VALUES (?, ?, ?, ?, ?, 0)",
            (worker_id, os.getpid(), socket.gethostname(), now, now),
        )

    def heartbeat_worker(self, worker_id: str) -> None:
        self._conn.execute(
            "UPDATE workers SET heartbeat = ? WHERE worker_id = ?",
            (time.time(), worker_id),
        )

    def deregister_worker(self, worker_id: str) -> None:
        self._conn.execute(
            "DELETE FROM workers WHERE worker_id = ?", (worker_id,)
        )

    def claim(
        self,
        worker_id: str,
        lease_seconds: float,
        *,
        stale_batch_seconds: float = _STALE_BATCH_SECONDS,
    ) -> ClaimedTask | None:
        """Atomically claim the oldest pending task of a live batch."""
        now = time.time()
        with self._immediate():
            row = self._conn.execute(
                "SELECT tasks.id, tasks.batch_id, tasks.task_name, "
                "tasks.chunk_index, tasks.attempts, tasks.payload_path "
                "FROM tasks JOIN batches "
                "ON tasks.batch_id = batches.batch_id "
                "WHERE tasks.status = 'pending' AND batches.heartbeat >= ? "
                "ORDER BY tasks.id LIMIT 1",
                (now - stale_batch_seconds,),
            ).fetchone()
            if row is None:
                return None
            task_id, batch_id, task_name, chunk_index, attempts, payload = row
            self._conn.execute(
                "UPDATE tasks SET status = 'running', owner = ?, "
                "attempts = attempts + 1, lease_expires = ? WHERE id = ?",
                (worker_id, now + lease_seconds, task_id),
            )
        # A crash here is the worst worker death: the claim transaction
        # committed, so the task sits 'running' under a lease nobody will
        # serve until lease expiry re-queues it.
        faults.check("queue.claim")
        return ClaimedTask(
            task_id, batch_id, task_name, chunk_index, attempts + 1, payload
        )

    def extend_lease(
        self, task_id: int, worker_id: str, lease_seconds: float
    ) -> bool:
        # A fault here models a stalled keeper thread: the lease lapses
        # under a live worker and the task gets re-queued elsewhere (the
        # owner guard in complete() keeps the outcome single-writer).
        faults.check("queue.lease_renew")
        cursor = self._conn.execute(
            "UPDATE tasks SET lease_expires = ? "
            "WHERE id = ? AND owner = ? AND status = 'running'",
            (time.time() + lease_seconds, task_id, worker_id),
        )
        return cursor.rowcount > 0

    def complete(
        self, task_id: int, worker_id: str, result_path: str | os.PathLike
    ) -> bool:
        """Mark a claimed task done; False if the lease was lost meanwhile."""
        # A crash here leaves the result pickle on disk but the task row
        # 'running' — recovery must re-run the task, and the rewritten
        # result must be byte-identical.
        faults.check("queue.complete")
        with self._immediate():
            cursor = self._conn.execute(
                "UPDATE tasks SET status = 'done', result_path = ?, "
                "lease_expires = NULL "
                "WHERE id = ? AND owner = ? AND status = 'running'",
                (str(result_path), task_id, worker_id),
            )
            if cursor.rowcount > 0:
                self._conn.execute(
                    "UPDATE workers SET tasks_done = tasks_done + 1, "
                    "heartbeat = ? WHERE worker_id = ?",
                    (time.time(), worker_id),
                )
        return cursor.rowcount > 0

    def fail(
        self,
        task_id: int,
        worker_id: str,
        error: str,
        error_traceback: str | None = None,
    ) -> bool:
        """Mark a claimed task failed (deterministic in-worker error)."""
        cursor = self._conn.execute(
            "UPDATE tasks SET status = 'failed', error = ?, "
            "error_traceback = ?, lease_expires = NULL "
            "WHERE id = ? AND owner = ? AND status = 'running'",
            (error, error_traceback, task_id, worker_id),
        )
        return cursor.rowcount > 0

    # -- observability --------------------------------------------------
    def live_workers(self, window: float = _LIVE_WORKER_WINDOW) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM workers WHERE heartbeat >= ?",
            (time.time() - window,),
        ).fetchone()
        return int(count)

    def stats(self) -> dict:
        """Queue-depth / worker / counter snapshot for ``/metrics``."""
        by_status = dict(
            self._conn.execute(
                "SELECT status, COUNT(*) FROM tasks GROUP BY status"
            ).fetchall()
        )
        counters = dict(
            self._conn.execute("SELECT name, value FROM counters").fetchall()
        )
        workers = self._conn.execute(
            "SELECT worker_id, pid, host, heartbeat, tasks_done FROM workers "
            "ORDER BY worker_id"
        ).fetchall()
        now = time.time()
        return {
            "depth": int(
                by_status.get("pending", 0) + by_status.get("running", 0)
            ),
            "pending": int(by_status.get("pending", 0)),
            "running": int(by_status.get("running", 0)),
            "done": int(by_status.get("done", 0)),
            "failed": int(by_status.get("failed", 0)),
            "active_workers": self.live_workers(),
            "lease_expiries": int(counters.get("lease_expiries", 0)),
            "workers": [
                {
                    "worker_id": worker_id,
                    "pid": pid,
                    "host": host,
                    "heartbeat_age": max(0.0, now - heartbeat),
                    "tasks_done": tasks_done,
                }
                for worker_id, pid, host, heartbeat, tasks_done in workers
            ],
        }

    def _bump_counter(self, name: str, delta: int) -> None:
        self._conn.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, delta),
        )


class _ImmediateTransaction:
    """``BEGIN IMMEDIATE`` … commit/rollback as a context manager."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self.conn.execute("BEGIN IMMEDIATE")
        return self.conn

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")


def queue_stats(directory: str | os.PathLike) -> dict | None:
    """Read-only queue snapshot, ``None`` when no spool exists there."""
    database_path = Path(directory) / "queue.sqlite"
    if not database_path.exists():
        return None
    with WorkQueue(directory) as queue:
        return queue.stats()


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    temp_path = path.with_name(path.name + f".{uuid.uuid4().hex[:8]}.tmp")
    temp_path.write_bytes(blob)
    os.replace(temp_path, path)


class QueueExecutor(Executor):
    """Executor that spools chunks to external ``repro worker`` processes.

    There is deliberately no in-process shortcut for single-chunk
    inputs: routing compute elsewhere is the whole point, and a shortcut
    would hide spool/pickling failures until production scale.  If no
    worker shows a live heartbeat for ``no_worker_timeout`` seconds
    while chunks are pending, the run fails with an error naming the
    spool directory and the command that starts a worker — rather than
    hanging forever.
    """

    name = "queue"

    def __init__(
        self,
        directory: str | os.PathLike,
        workers: int | None = None,
        observers: Iterable[ExecutorObserver] = (),
        *,
        poll_interval: float = 0.05,
        lease_seconds: float = 15.0,
        max_attempts: int = 3,
        no_worker_timeout: float = 60.0,
    ) -> None:
        super().__init__(workers if workers is not None else 1, observers)
        self.directory = Path(directory)
        self.poll_interval = poll_interval
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.no_worker_timeout = no_worker_timeout

    def _submit_chunks(self, timed: _TimedBatch, chunks: list[list]):
        queue = WorkQueue(self.directory)
        batch_id = uuid.uuid4().hex
        try:
            queue.create_batch(batch_id)
            for chunk_index, chunk in enumerate(chunks):
                payload_path = (
                    queue.payload_dir / f"{batch_id}-{chunk_index}.pkl"
                )
                _atomic_write_bytes(
                    payload_path, pickle.dumps((timed, chunk))
                )
                queue.enqueue(
                    batch_id,
                    getattr(timed, "task_name", "map"),
                    chunk_index,
                    payload_path,
                    max_attempts=self.max_attempts,
                )
            yield from self._collect(queue, batch_id, len(chunks))
        finally:
            try:
                queue.remove_batch(batch_id)
            finally:
                queue.close()

    def _collect(self, queue: WorkQueue, batch_id: str, n_chunks: int):
        pending = set(range(n_chunks))
        last_progress = time.monotonic()
        while pending:
            queue.touch_batch(batch_id)
            queue.expire_leases()
            progressed = False
            for finished in queue.fetch_finished(batch_id):
                if finished.chunk_index not in pending:
                    continue
                if finished.status == "failed":
                    raise _ChunkFailure(
                        finished.chunk_index,
                        self._remote_error(finished),
                    )
                with open(finished.result_path, "rb") as handle:
                    meta, results = pickle.load(handle)
                pending.discard(finished.chunk_index)
                progressed = True
                yield finished.chunk_index, meta, results
            now = time.monotonic()
            if progressed:
                last_progress = now
            elif (
                queue.live_workers() == 0
                and now - last_progress > self.no_worker_timeout
            ):
                raise _ChunkFailure(
                    min(pending),
                    WorkerTaskError(
                        f"no live worker registered on queue "
                        f"{self.directory} for {self.no_worker_timeout:.0f}s "
                        f"({len(pending)} chunk(s) still pending); start one "
                        f"with: repro worker --queue {self.directory}",
                        remote_type="NoWorkers",
                    ),
                )
            if pending:
                time.sleep(self.poll_interval)

    @staticmethod
    def _remote_error(finished: FinishedTask) -> WorkerTaskError:
        message = finished.error or "worker reported failure without detail"
        remote_type = "Exception"
        if ": " in message:
            remote_type = message.split(": ", 1)[0]
        if finished.owner:
            message = f"{message} (on worker {finished.owner!r})"
        return WorkerTaskError(
            message,
            remote_type=remote_type,
            worker_id=finished.owner,
            remote_traceback=finished.error_traceback,
        )


def _keep_lease(
    directory: Path,
    task_id: int,
    worker_id: str,
    lease_seconds: float,
    stop: threading.Event,
) -> None:
    """Extend a running task's lease until told to stop (keeper thread)."""
    with WorkQueue(directory) as queue:
        interval = max(0.05, lease_seconds / 3.0)
        while not stop.wait(interval):
            queue.heartbeat_worker(worker_id)
            if not queue.extend_lease(task_id, worker_id, lease_seconds):
                return  # lease lost (expired & reassigned) — stop renewing


def run_worker(
    directory: str | os.PathLike,
    *,
    worker_id: str | None = None,
    poll_interval: float = 0.1,
    lease_seconds: float = 15.0,
    idle_timeout: float | None = None,
    max_tasks: int | None = None,
    stop: threading.Event | None = None,
) -> int:
    """Claim-and-execute loop of one queue worker; returns tasks done.

    Runs until ``stop`` is set, ``max_tasks`` tasks completed, or the
    queue stays empty for ``idle_timeout`` seconds (``None`` = serve
    forever).  A keeper thread extends the active task's lease, so a
    long chunk on a healthy worker never gets re-queued; when this
    process dies instead, the lease runs out and the driver re-queues
    the chunk — that is the crash-recovery path, not an error here.
    """
    directory = Path(directory)
    if worker_id is None:
        worker_id = (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
    tasks_done = 0
    with WorkQueue(directory) as queue:
        queue.register_worker(worker_id)
        idle_since = time.monotonic()
        try:
            while True:
                if stop is not None and stop.is_set():
                    break
                queue.heartbeat_worker(worker_id)
                task = queue.claim(worker_id, lease_seconds)
                if task is None:
                    if (
                        idle_timeout is not None
                        and time.monotonic() - idle_since > idle_timeout
                    ):
                        break
                    time.sleep(poll_interval)
                    continue
                _execute_task(
                    queue, directory, task, worker_id, lease_seconds
                )
                idle_since = time.monotonic()
                tasks_done += 1
                if max_tasks is not None and tasks_done >= max_tasks:
                    break
        finally:
            queue.deregister_worker(worker_id)
    return tasks_done


def _execute_task(
    queue: WorkQueue,
    directory: Path,
    task: ClaimedTask,
    worker_id: str,
    lease_seconds: float,
) -> None:
    """Run one claimed chunk under a lease keeper and report the outcome."""
    stop = threading.Event()
    keeper = threading.Thread(
        target=_keep_lease,
        args=(directory, task.task_id, worker_id, lease_seconds, stop),
        name=f"lease-keeper-{task.task_id}",
        daemon=True,
    )
    keeper.start()
    try:
        try:
            with open(task.payload_path, "rb") as handle:
                timed, chunk = pickle.load(handle)
            meta, results = timed(chunk)
        except Exception as error:
            queue.fail(
                task.task_id,
                worker_id,
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
            return
        result_path = queue.result_dir / f"{task.task_id}.pkl"
        _atomic_write_bytes(result_path, pickle.dumps((meta, results)))
        if not queue.complete(task.task_id, worker_id, result_path):
            # The lease expired mid-compute and the chunk was reassigned;
            # drop this result — the retry's bytes are identical anyway
            # (pure batch functions), but only one result row may win.
            try:
                os.unlink(result_path)
            except OSError:
                pass
    finally:
        stop.set()
        keeper.join(timeout=5.0)
