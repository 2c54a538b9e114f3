"""The distributed queue executor: spool mechanics, crash recovery,
failure provenance, and byte-equality with the serial executor.

Most tests run workers as in-process threads (``run_worker`` is just a
claim-and-execute loop over the shared spool — the protocol is identical
whether the loop lives in a thread or another process).  The crash test
is the exception: it launches a real ``python -m repro worker``
subprocess and SIGKILLs it mid-chunk, proving the lease-expiry path
against an actual vanished process.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import threading
import time

import pytest

from queue_worker_helpers import (
    explode_on_seven,
    holding_batch,
    spawn_worker_process,
    square_batch,
    worker_threads,
)
from repro.api import RunSession
from repro.parallel import (
    ExecutorError,
    QueueExecutor,
    WorkQueue,
    queue_stats,
    run_worker,
)
from repro.pipeline.pipeline import PipelineConfig
from repro.webtables import TableCorpus


def fast_queue_executor(spool, **kwargs):
    options = {
        "poll_interval": 0.01,
        "lease_seconds": 5.0,
        "no_worker_timeout": 30.0,
        **kwargs,
    }
    return QueueExecutor(spool, workers=2, **options)


# -- the spool protocol, driven directly --------------------------------
class TestWorkQueue:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        with WorkQueue(tmp_path) as queue:
            queue.create_batch("batch-1")
            payload = queue.payload_dir / "batch-1-0.pkl"
            payload.write_bytes(b"payload")
            task_id = queue.enqueue("batch-1", "demo", 0, payload)
            queue.register_worker("w1")
            claimed = queue.claim("w1", lease_seconds=30.0)
            assert claimed is not None
            assert claimed.task_id == task_id
            assert claimed.task_name == "demo"
            assert claimed.chunk_index == 0
            assert claimed.attempts == 1
            # Nothing else to claim while the task is running.
            assert queue.claim("w1", lease_seconds=30.0) is None
            result = queue.result_dir / f"{task_id}.pkl"
            result.write_bytes(b"result")
            assert queue.complete(task_id, "w1", result)
            finished = queue.fetch_finished("batch-1")
            assert [f.status for f in finished] == ["done"]
            assert finished[0].result_path == str(result)
            stats = queue.stats()
            assert stats["done"] == 1
            assert stats["depth"] == 0
            assert stats["workers"][0]["tasks_done"] == 1

    def test_claim_skips_stale_batches(self, tmp_path):
        with WorkQueue(tmp_path) as queue:
            queue.create_batch("orphaned")
            payload = queue.payload_dir / "p.pkl"
            payload.write_bytes(b"payload")
            queue.enqueue("orphaned", "demo", 0, payload)
            queue.register_worker("w1")
            # The driver stopped heartbeating long ago: nobody will ever
            # collect this chunk, so the worker must not grind on it.
            queue._conn.execute(
                "UPDATE batches SET heartbeat = heartbeat - 3600"
            )
            assert queue.claim("w1", lease_seconds=30.0) is None
            # A heartbeat revives the batch.
            queue.touch_batch("orphaned")
            assert queue.claim("w1", lease_seconds=30.0) is not None

    def test_expired_lease_requeues_then_exhausts(self, tmp_path):
        with WorkQueue(tmp_path) as queue:
            queue.create_batch("batch-1")
            payload = queue.payload_dir / "p.pkl"
            payload.write_bytes(b"payload")
            queue.enqueue("batch-1", "demo", 0, payload, max_attempts=2)
            queue.register_worker("dying")
            # First claim: lease runs out, chunk goes back to pending.
            assert queue.claim("dying", lease_seconds=0.0) is not None
            assert queue.expire_leases() == 1
            (status,) = queue._conn.execute(
                "SELECT status FROM tasks"
            ).fetchone()
            assert status == "pending"
            # Second (= max_attempts'th) claim: expiry is terminal.
            assert queue.claim("dying", lease_seconds=0.0) is not None
            assert queue.expire_leases() == 1
            finished = queue.fetch_finished("batch-1")
            assert [f.status for f in finished] == ["failed"]
            assert "presumed dead" in finished[0].error
            assert "2 attempt(s)" in finished[0].error
            assert queue.stats()["lease_expiries"] == 2

    def test_stale_owner_cannot_overwrite_reassigned_task(self, tmp_path):
        with WorkQueue(tmp_path) as queue:
            queue.create_batch("batch-1")
            payload = queue.payload_dir / "p.pkl"
            payload.write_bytes(b"payload")
            task_id = queue.enqueue("batch-1", "demo", 0, payload)
            queue.register_worker("slow")
            queue.register_worker("fast")
            assert queue.claim("slow", lease_seconds=0.0) is not None
            queue.expire_leases()
            claimed = queue.claim("fast", lease_seconds=30.0)
            assert claimed is not None and claimed.attempts == 2
            # The presumed-dead worker wakes up and tries to report.
            assert not queue.extend_lease(task_id, "slow", 30.0)
            assert not queue.complete(task_id, "slow", "stale.pkl")
            assert not queue.fail(task_id, "slow", "stale error")
            # The task still belongs to the retry.
            (status,) = queue._conn.execute(
                "SELECT status FROM tasks"
            ).fetchone()
            assert status == "running"

    def test_queue_stats_without_spool(self, tmp_path):
        assert queue_stats(tmp_path / "never-created") is None

    def test_concurrent_first_open_of_a_fresh_spool(self, tmp_path):
        """SQLite answers the switch to WAL mode with ``database is
        locked``, without waiting on the busy handler, while another
        connection holds a write lock; several first opens racing that
        writer must wait it out, not crash."""
        spool = tmp_path / "spool"
        spool.mkdir()
        writer = sqlite3.connect(spool / "queue.sqlite", isolation_level=None)
        writer.execute("BEGIN IMMEDIATE")
        opened = threading.Barrier(5, timeout=30)
        errors: list[Exception] = []

        def open_spool():
            opened.wait()
            try:
                WorkQueue(spool).close()
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=open_spool) for _ in range(4)]
        for thread in threads:
            thread.start()
        opened.wait()
        time.sleep(0.3)
        writer.execute("COMMIT")
        writer.close()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        with WorkQueue(spool) as queue:
            (mode,) = queue._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"


# -- the executor against an in-process fleet ---------------------------
class TestQueueExecutor:
    def test_results_in_input_order(self, tmp_path):
        executor = fast_queue_executor(tmp_path)
        items = list(range(57))
        with worker_threads(tmp_path, count=2):
            results = executor.map_batches(
                square_batch, items, chunk_size=5, task_name="squares"
            )
        assert results == [value * value for value in items]
        stats = queue_stats(tmp_path)
        assert stats["depth"] == 0
        assert stats["lease_expiries"] == 0

    def test_deterministic_error_fails_fast_with_provenance(self, tmp_path):
        """An exception *in* the batch function is not retried — it
        surfaces once, as ``ExecutorError`` naming task, chunk, items,
        and the worker that reported it."""
        executor = fast_queue_executor(tmp_path)
        with worker_threads(tmp_path, count=1):
            with pytest.raises(ExecutorError) as caught:
                executor.map_batches(
                    explode_on_seven,
                    list(range(12)),
                    chunk_size=4,
                    task_name="demo",
                    label=lambda value: f"item-{value}",
                )
        error = caught.value
        assert error.task_name == "demo"
        assert error.chunk_index == 1  # 7 lives in [4, 5, 6, 7]
        assert "item-7" in error.item_labels
        assert "seven is right out" in str(error)
        assert "on worker" in str(error.__cause__)
        assert error.__cause__.remote_type == "ValueError"
        assert "explode_on_seven" in error.__cause__.remote_traceback

    def test_no_workers_fails_with_actionable_error(self, tmp_path):
        executor = fast_queue_executor(tmp_path, no_worker_timeout=0.2)
        with pytest.raises(ExecutorError) as caught:
            executor.map_batches(square_batch, [1, 2, 3], chunk_size=1)
        message = str(caught.value.__cause__)
        assert "no live worker" in message
        assert "repro worker --queue" in message
        assert str(tmp_path) in message

    def test_pipeline_bytes_identical_to_serial(self, tmp_path, tiny_world):
        """The acceptance criterion: a full pipeline run routed through
        the queue matches the serial run byte for byte."""
        table_ids = tiny_world.tables_of_class("Song")[:6]
        corpus = TableCorpus(
            [tiny_world.corpus.get(table_id) for table_id in table_ids]
        )
        blobs = {}
        spool = tmp_path / "queue"
        for name in ("serial", "queue"):
            session = RunSession(
                knowledge_base=tiny_world.knowledge_base,
                corpus=corpus,
                config=PipelineConfig(
                    executor=name, workers=2, queue_dir=str(spool)
                ),
            )
            if name == "queue":
                with worker_threads(spool, count=2):
                    blobs[name] = session.run(
                        "Song", use_cache=False
                    ).canonical_json()
            else:
                blobs[name] = session.run(
                    "Song", use_cache=False
                ).canonical_json()
        assert blobs["serial"] == blobs["queue"]

    def test_chunks_ship_the_kb_with_its_label_index(
        self, tmp_path, tiny_world, monkeypatch
    ):
        """No chunk carries a KB whose label index its worker must build:
        the first dispatch happens before the driver has searched the KB."""
        from repro.kb.knowledge_base import KnowledgeBase

        shipped_indexes = []

        def recording_setstate(kb, state):
            shipped_indexes.append(state["_label_index"])
            kb.__dict__.update(state)

        monkeypatch.setattr(
            KnowledgeBase, "__setstate__", recording_setstate, raising=False
        )
        table_ids = tiny_world.tables_of_class("Song")[:6]
        corpus = TableCorpus(
            [tiny_world.corpus.get(table_id) for table_id in table_ids]
        )
        spool = tmp_path / "queue"
        session = RunSession(
            knowledge_base=tiny_world.knowledge_base,
            corpus=corpus,
            config=PipelineConfig(executor="queue", workers=1, queue_dir=str(spool)),
        )
        with worker_threads(spool, count=1):
            session.run("Song", use_cache=False)
        assert shipped_indexes  # the worker unpickled KB-carrying chunks
        assert all(index is not None for index in shipped_indexes)

    def test_worker_idle_timeout_and_max_tasks(self, tmp_path):
        # An idle worker with a timeout returns instead of spinning.
        assert run_worker(tmp_path, idle_timeout=0.05, poll_interval=0.01) == 0
        # max_tasks bounds a drain-style worker.
        executor = fast_queue_executor(tmp_path)
        collected = {}

        def drive():
            collected["results"] = executor.map_batches(
                square_batch, list(range(6)), chunk_size=2
            )

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        done = 0
        deadline = time.monotonic() + 30.0
        while done < 3 and time.monotonic() < deadline:
            done += run_worker(
                tmp_path, max_tasks=1, idle_timeout=0.2, poll_interval=0.01
            )
        driver.join(timeout=30.0)
        assert done == 3
        assert collected["results"] == [v * v for v in range(6)]


# -- crash recovery against a real killed process -----------------------
class TestWorkerCrashRecovery:
    def test_killed_worker_chunk_is_released_and_retried(self, tmp_path):
        """SIGKILL a worker mid-chunk: the lease expires, the chunk is
        re-queued, a second worker completes it, and the driver's output
        is exactly what an uninterrupted run produces."""
        spool = tmp_path / "queue"
        control = tmp_path / "control"
        control.mkdir()
        (control / "hold").touch()
        items = [(value, str(control)) for value in range(4)]
        executor = fast_queue_executor(
            spool, lease_seconds=1.0, no_worker_timeout=120.0
        )
        outcome = {}

        def drive():
            try:
                outcome["results"] = executor.map_batches(
                    holding_batch, items, chunk_size=len(items)
                )
            except BaseException as error:  # pragma: no cover - diagnostics
                outcome["error"] = error

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        victim = spawn_worker_process(spool, lease="1.0")
        try:
            deadline = time.monotonic() + 60.0
            started = None
            while time.monotonic() < deadline:
                started = next(control.glob("started-*"), None)
                if started is not None:
                    break
                time.sleep(0.05)
            assert started is not None, "worker never started the chunk"
            assert int(started.read_text()) == victim.pid
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30.0)
            started.unlink()
            (control / "hold").unlink()
            # A healthy worker picks up the re-queued chunk.
            with worker_threads(spool, count=1, lease_seconds=1.0):
                driver.join(timeout=120.0)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
            driver.join(timeout=5.0)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["results"] == [value * value for value in range(4)]
        # The retry ran in this (test) process, not the killed one.
        retried = next(control.glob("started-*"))
        assert int(retried.read_text()) == os.getpid()
        # Counters survive batch cleanup: the expiry is on the record.
        assert queue_stats(spool)["lease_expiries"] >= 1

    def test_exhausted_retries_surface_with_provenance(self, tmp_path):
        """When every allowed claim dies, the driver raises
        ``ExecutorError`` naming the task, the chunk, and the presumed
        dead worker — it does not hang."""
        spool = tmp_path / "queue"
        executor = fast_queue_executor(
            spool, lease_seconds=0.1, max_attempts=1, no_worker_timeout=120.0
        )
        stop = threading.Event()

        def zombie():
            # Claims the chunk, heartbeats (so the driver sees a live
            # worker), but never extends the lease or reports a result —
            # an OOM-stalled or wedged process, as seen from the spool.
            with WorkQueue(spool) as queue:
                queue.register_worker("zombie")
                claimed = None
                while claimed is None and not stop.is_set():
                    queue.heartbeat_worker("zombie")
                    claimed = queue.claim("zombie", lease_seconds=0.1)
                    time.sleep(0.01)
                while not stop.is_set():
                    queue.heartbeat_worker("zombie")
                    time.sleep(0.05)

        wedged = threading.Thread(target=zombie, daemon=True)
        wedged.start()
        try:
            with pytest.raises(ExecutorError) as caught:
                executor.map_batches(
                    square_batch,
                    [1, 2, 3],
                    chunk_size=3,
                    task_name="doomed",
                    label=lambda value: f"item-{value}",
                )
        finally:
            stop.set()
            wedged.join(timeout=10.0)
        error = caught.value
        assert error.task_name == "doomed"
        assert error.chunk_index == 0
        assert "item-1" in error.item_labels
        cause = error.__cause__
        assert "presumed dead" in str(cause)
        assert "'zombie'" in str(cause)
        assert cause.remote_type == "LeaseExpired"
