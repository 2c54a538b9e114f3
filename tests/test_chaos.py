"""The chaos matrix: SIGKILL a real process at every injection point.

For each point in :data:`repro.faults.POINTS`, this suite arms
``REPRO_FAULTS`` in a real subprocess (``repro ingest`` / ``repro run``
/ ``repro worker`` / ``repro serve``), lets the ``crash`` action
SIGKILL it at exactly that boundary, and then proves the recovery
contract end to end:

1. **fsck after the crash** — the surviving on-disk state verifies
   clean (at most warnings; ``--repair`` where the crash strands
   quarantinable leftovers);
2. **recovery is complete** — re-ingest / rerun / lease expiry /
   journal restart resumes the interrupted work;
3. **byte equality** — the recovered output is byte-identical to the
   committed golden fixtures (``tests/golden/expected_Song.json``) or,
   for the spool legs, to the uninterrupted task results.

A final completeness check asserts the matrix names every registered
injection point, so adding a ``faults.check`` call site without a chaos
leg fails this file.
"""

from __future__ import annotations

import json
import pickle
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from queue_worker_helpers import timed_holding, timed_square
from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.faults import POINTS
from repro.fsck import run_fsck
from repro.parallel import WorkQueue, run_worker
from repro.serve import ServiceClient
from test_signals import ServeProcess, make_golden_store, subprocess_env

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"

#: ``crash`` is SIGKILL (or ``os._exit(137)`` where signals are absent).
SIGKILLED = (-signal.SIGKILL, 137)

#: injection point -> the chaos leg that kills a process there.
MATRIX = {
    "corpus.shard_write": "TestIngestCrash",
    "artifacts.put": "TestRunCrash",
    "queue.claim": "TestWorkerCrash",
    "queue.complete": "TestWorkerCrash",
    "queue.lease_renew": "TestWorkerCrash",
    "serve.writer": "TestServeCrash",
    "serve.request": "TestServeCrash",
}


def test_matrix_covers_every_registered_point():
    assert set(MATRIX) == set(POINTS)


@pytest.fixture(scope="module")
def expected_song() -> str:
    return (GOLDEN_DIR / "expected_Song.json").read_text(encoding="utf-8")


def run_cli(args, *, faults: str | None = None, timeout: float = 300.0):
    extra = {"REPRO_FAULTS": faults} if faults else {}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=subprocess_env(**extra),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def session_canonical(store_dir: Path) -> str:
    store = CorpusStore.open(store_dir)
    try:
        session = RunSession.from_corpus_store(store)
        return session.run("Song").canonical_json()
    finally:
        store.close()


# -- corpus.shard_write: repro ingest killed mid-write ------------------
class TestIngestCrash:
    def test_crash_between_shards_then_reingest_matches_golden(
        self, tmp_path, expected_song
    ):
        store_dir = tmp_path / "store"
        corpus_jsonl = GOLDEN_DIR / "world" / "corpus.jsonl"
        ingest_args = [
            "ingest", str(corpus_jsonl),
            "--store", str(store_dir), "--shards", "2",
        ]
        killed = run_cli(
            ingest_args, faults="corpus.shard_write:crash@2"
        )
        assert killed.returncode in SIGKILLED, killed.stderr
        assert "crashing process" in killed.stderr
        # The crash fell before the second shard's transaction commit:
        # that sub-batch is lost, but nothing is torn.
        report = run_fsck(store_dir)
        assert report.clean, [f.detail for f in report.findings]
        # Ingest is idempotent — rerunning it restores the lost rows.
        recovered = run_cli(ingest_args)
        assert recovered.returncode == 0, recovered.stderr
        assert run_fsck(store_dir).clean
        (store_dir / "knowledge_base.json").write_bytes(
            (GOLDEN_DIR / "world" / "knowledge_base.json").read_bytes()
        )
        assert session_canonical(store_dir) == expected_song


# -- artifacts.*: repro run --store killed mid-publish ------------------
class TestRunCrash:
    @pytest.mark.parametrize(
        "spec",
        ["artifacts.put:crash@3"],
    )
    def test_crash_mid_store_write_then_rerun_matches_golden(
        self, tmp_path, expected_song, spec
    ):
        store_dir = make_golden_store(tmp_path / "store")
        killed = run_cli(
            ["run", "Song", "--store", str(store_dir), "--quiet"],
            faults=spec,
        )
        assert killed.returncode in SIGKILLED, killed.stderr
        # The interrupted writer strands exactly one orphan temp file —
        # never a torn object (writes land via atomic rename).
        report = run_fsck(store_dir)
        assert report.clean, [f.detail for f in report.findings]
        orphans = [f for f in report.findings if f.kind == "orphan_tmp"]
        assert len(orphans) == 1
        repaired = run_fsck(store_dir, repair=True)
        assert repaired.clean
        assert all(f.repaired for f in repaired.findings)
        assert run_fsck(store_dir).findings == []
        # The rerun reuses every artifact the crashed run completed and
        # recomputes the rest — to the committed bytes.
        assert session_canonical(store_dir) == expected_song


# -- queue.*: repro worker killed around the claim/complete/renew edges -
class TestWorkerCrash:
    def _spool_with_task(self, directory, function, items):
        spool = directory / "queue"
        queue = WorkQueue(spool)
        queue.create_batch("batch-1")
        payload = queue.payload_dir / "chunk-0.pkl"
        payload.write_bytes(pickle.dumps((function, items)))
        task_id = queue.enqueue("batch-1", "chaos", 0, payload)
        return spool, queue, task_id

    def _spawn_victim(self, spool, faults):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--queue", str(spool), "--lease", "1.0", "--poll", "0.05",
            ],
            env=subprocess_env(REPRO_FAULTS=faults),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _recover(self, queue, spool):
        """Wait out the dead worker's lease, then drain with a clean one."""
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            queue.touch_batch("batch-1")
            if queue.expire_leases() or queue.stats()["pending"]:
                break
            time.sleep(0.1)
        done = run_worker(
            spool, max_tasks=1, idle_timeout=10.0, poll_interval=0.01
        )
        assert done == 1

    @pytest.mark.parametrize(
        "spec", ["queue.claim:crash@1", "queue.complete:crash@1"]
    )
    def test_killed_worker_lease_expires_and_retry_is_identical(
        self, tmp_path, spec
    ):
        items = list(range(5))
        spool, queue, task_id = self._spool_with_task(
            tmp_path, timed_square, items
        )
        victim = self._spawn_victim(spool, spec)
        try:
            assert victim.wait(timeout=120.0) in SIGKILLED
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
        # Between death and recovery the spool verifies clean: the task
        # sits 'running' under a lease nobody serves (at most a
        # stale-lease *warning* once it lapses).
        report = run_fsck(spool)
        assert report.clean, [f.detail for f in report.findings]
        stale_result = None
        if spec.startswith("queue.complete"):
            # The crash fell after the result write, before the done
            # update — the result pickle is already on disk.
            result_path = spool / "results" / f"{task_id}.pkl"
            assert result_path.exists()
            stale_result = result_path.read_bytes()
        self._recover(queue, spool)
        finished = queue.fetch_finished("batch-1")
        assert [task.status for task in finished] == ["done"]
        assert finished[0].attempts == 2
        with open(finished[0].result_path, "rb") as handle:
            __, results = pickle.load(handle)
        assert results == [value * value for value in items]
        if stale_result is not None:
            # The retry recomputed the result byte-identically.
            assert Path(
                finished[0].result_path
            ).read_bytes() == stale_result
        assert run_fsck(spool).clean
        queue.close()

    def test_killed_lease_keeper_releases_the_chunk(self, tmp_path):
        control = tmp_path / "control"
        control.mkdir()
        (control / "hold").touch()
        items = [(value, str(control)) for value in range(4)]
        spool, queue, __ = self._spool_with_task(
            tmp_path, timed_holding, items
        )
        victim = self._spawn_victim(spool, "queue.lease_renew:crash@1")
        try:
            # The worker claims, starts the chunk, and dies at its first
            # lease renewal (~lease/3 in) while the chunk still holds.
            assert victim.wait(timeout=120.0) in SIGKILLED
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
        started = next(control.glob("started-*"), None)
        assert started is not None, "victim died before starting the chunk"
        assert int(started.read_text()) == victim.pid
        started.unlink()
        (control / "hold").unlink()
        assert run_fsck(spool).clean
        self._recover(queue, spool)
        finished = queue.fetch_finished("batch-1")
        assert [task.status for task in finished] == ["done"]
        with open(finished[0].result_path, "rb") as handle:
            __, results = pickle.load(handle)
        assert results == [value * value for value in range(4)]
        queue.close()


# -- serve.*: repro serve killed, restarted, resumed --------------------
class TestServeCrash:
    def test_writer_crash_restart_resumes_run_to_golden_bytes(
        self, tmp_path, expected_song
    ):
        store_dir = make_golden_store(tmp_path / "store")
        journal = (
            store_dir / "artifacts" / "service" / "pending_runs.json"
        )
        victim = ServeProcess(
            store_dir,
            env=subprocess_env(REPRO_FAULTS="serve.writer:crash@1"),
        )
        try:
            url = victim.await_url()
            # The writer dequeues the submitted run and dies; the HTTP
            # reply may or may not make it out first — the *journal* is
            # the durable record either way.
            try:
                ServiceClient(url, timeout=60).submit_run("Song")
            except Exception:
                pass
            assert victim.proc.wait(timeout=120.0) in SIGKILLED
        finally:
            victim.cleanup()
        owed = json.loads(journal.read_text())["runs"]
        assert len(owed) == 1
        run_id = owed[0]["run_id"]
        report = run_fsck(store_dir)
        assert report.clean, [f.detail for f in report.findings]
        # Restart without faults: the journal re-queues the owed run.
        restarted = ServeProcess(store_dir)
        try:
            url = restarted.await_url()
            assert any(
                "recovered 1 pending run" in line
                for line in restarted.stderr_lines
            )
            client = ServiceClient(url, timeout=120)
            document = client.wait_for_run(run_id, timeout=240.0)
            assert document["status"] == "done"
            assert document.get("recovered") is True
            assert client.run_canonical(run_id) == expected_song
            # The debt is paid: nothing left to resume.
            assert json.loads(journal.read_text())["runs"] == []
            assert restarted.terminate_and_wait() == 143
        finally:
            restarted.cleanup()
        assert run_fsck(store_dir).clean

    def test_request_crash_restart_serves_golden_bytes(
        self, tmp_path, expected_song
    ):
        store_dir = make_golden_store(tmp_path / "store")
        victim = ServeProcess(
            store_dir,
            env=subprocess_env(REPRO_FAULTS="serve.request:crash@1"),
        )
        try:
            url = victim.await_url()
            # The handler dies mid-request: the connection drops with no
            # reply and the whole process goes down.
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                urllib.request.urlopen(f"{url}/health", timeout=30)
            assert victim.proc.wait(timeout=60.0) in SIGKILLED
        finally:
            victim.cleanup()
        assert run_fsck(store_dir).clean
        restarted = ServeProcess(store_dir)
        try:
            url = restarted.await_url()
            client = ServiceClient(url, timeout=120)
            run_id = client.submit_run("Song")["run_id"]
            client.wait_for_run(run_id, timeout=240.0)
            assert client.run_canonical(run_id) == expected_song
            assert restarted.terminate_and_wait() == 143
        finally:
            restarted.cleanup()
