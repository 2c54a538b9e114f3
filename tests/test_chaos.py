"""The chaos matrix: SIGKILL a real process at every injection point.

For each point in :data:`repro.faults.POINTS`, this suite arms
``REPRO_FAULTS`` in a real subprocess (``repro ingest`` / ``repro run``
/ ``repro serve``), lets the ``crash`` action
SIGKILL it at exactly that boundary, and then proves the recovery
contract end to end:

1. **fsck after the crash** — the surviving on-disk state verifies
   clean (at most warnings; ``--repair`` where the crash strands
   quarantinable leftovers);
2. **recovery is complete** — re-ingest / rerun / journal restart
   resumes the interrupted work;
3. **byte equality** — the recovered output is byte-identical to the
   committed golden fixtures (``tests/golden/expected_Song.json``).

A final completeness check asserts the matrix names every registered
injection point, so adding a ``faults.check`` call site without a chaos
leg fails this file.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.faults import POINTS
from repro.fsck import run_fsck
from repro.serve import PendingRunJournal, ServiceClient
from test_signals import ServeProcess, make_golden_store, subprocess_env

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"

#: ``crash`` is SIGKILL (or ``os._exit(137)`` where signals are absent).
SIGKILLED = (-signal.SIGKILL, 137)

#: injection point -> the chaos leg that kills a process there.
MATRIX = {
    "corpus.shard_write": "TestIngestCrash",
    "artifacts.put": "TestRunCrash",
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
        # The killed put's transaction never committed: it leaves no
        # row, torn or whole, and nothing for fsck to find.
        report = run_fsck(store_dir)
        assert report.findings == [], [f.detail for f in report.findings]
        assert report.checked["artifacts"]["objects"] == 2
        # The rerun reuses every artifact the crashed run completed and
        # recomputes the rest — to the committed bytes.
        assert session_canonical(store_dir) == expected_song


# -- serve.*: repro serve killed, restarted, resumed --------------------
class TestServeCrash:
    def test_writer_crash_restart_resumes_run_to_golden_bytes(
        self, tmp_path, expected_song
    ):
        store_dir = make_golden_store(tmp_path / "store")
        journal = PendingRunJournal(store_dir / "artifacts")
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
        owed = journal.entries()
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
            assert journal.entries() == []
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
