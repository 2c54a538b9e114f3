"""SIGTERM contracts of the long-lived commands, against real processes.

``repro serve``: stop accepting, drain every queued writer job, release
the port, exit 143.  This is proven here with actual subprocesses and
actual signals — a handler that only works in-process is not a shutdown
contract.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.corpus.store import CorpusStore
from repro.io import load_world_directory, save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.serve import PendingRunJournal

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"
GOLDEN_DIR = TESTS_DIR / "golden"


def subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.update(extra)
    return env


def make_golden_store(directory: Path) -> Path:
    knowledge_base, corpus = load_world_directory(GOLDEN_DIR / "world")
    store = CorpusStore.create(directory, shards=2)
    store.ingest(iter(corpus))
    save_knowledge_base(knowledge_base, store.directory / WORLD_KB_FILE)
    store.close()
    return store.directory


class ServeProcess:
    """A real ``repro serve`` subprocess with its stderr tailed live."""

    def __init__(self, store: Path, *, env: dict | None = None, args=()):
        env = dict(env or subprocess_env())
        # Lets terminate_and_wait make a hung server print every
        # thread's stack (faulthandler dumps them on SIGABRT).
        env["PYTHONFAULTHANDLER"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store), "--port", "0", "--quiet", *args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines: list[str] = []
        self._reader = threading.Thread(target=self._tail, daemon=True)
        self._reader.start()

    def _tail(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line)

    def await_url(self, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.stderr_lines):
                if " on http://" in line:
                    return "http://" + line.split(" on http://", 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"serve exited with {self.proc.returncode} before "
                    f"publishing its URL; stderr: {''.join(self.stderr_lines)}"
                )
            time.sleep(0.05)
        raise AssertionError("serve never published its URL")

    def terminate_and_wait(self, timeout: float = 240.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass  # cleanup() kills it
            self._reader.join(timeout=10.0)
            tail = "".join(self.stderr_lines[-200:])
            pytest.fail(
                f"repro serve still running {timeout:g} s after SIGTERM; "
                f"stderr after SIGABRT (thread stacks):\n{tail}"
            )
        self._reader.join(timeout=10.0)
        return code

    def cleanup(self) -> None:
        if self.proc.poll() is None:  # pragma: no cover - test failed
            self.proc.kill()
            self.proc.wait(timeout=30.0)


@pytest.fixture(scope="module")
def golden_store_dir(tmp_path_factory) -> Path:
    return make_golden_store(tmp_path_factory.mktemp("signals") / "store")


class TestServeSigterm:
    def test_sigterm_exits_143_cleanly(self, golden_store_dir):
        serve = ServeProcess(golden_store_dir)
        try:
            url = serve.await_url()
            with urllib.request.urlopen(f"{url}/health", timeout=30) as reply:
                assert json.load(reply)["status"] == "ok"
            code = serve.terminate_and_wait()
        finally:
            serve.cleanup()
        assert code == 143
        stderr = "".join(serve.stderr_lines)
        assert "terminated" in stderr

    def test_sigterm_during_request_dispatch_still_stops_serving(self):
        """The SIGTERM handler's exception escapes request dispatch.

        ``repro serve`` unwinds on SIGTERM by raising from the signal
        handler; when the signal lands while the accept loop is starting
        a handler thread, ``socketserver`` must not swallow it.
        """
        from repro.cli import _Terminated

        class Server(socketserver.TCPServer):
            def process_request(self, request, client_address):
                raise _Terminated()

        server = Server(("127.0.0.1", 0), socketserver.BaseRequestHandler)
        with server, socket.create_connection(
            server.server_address, timeout=10
        ):
            with pytest.raises(_Terminated):
                server.handle_request()

    def test_sigint_stops_a_serve_started_with_sigint_ignored(
        self, golden_store_dir
    ):
        """A shell's background job starts with SIGINT ignored (the CI
        smoke job's ``repro serve &``); ``kill -INT`` still stops it."""
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            serve = ServeProcess(golden_store_dir)
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            serve.await_url()
            serve.proc.send_signal(signal.SIGINT)
            code = serve.proc.wait(timeout=60.0)
        finally:
            serve.cleanup()
        assert code == 130

    def test_sigterm_drains_a_queued_run_before_exiting(
        self, golden_store_dir
    ):
        """A run accepted before the signal finishes; the pending-run
        journal is empty on exit — nothing was owed, nothing was lost."""
        serve = ServeProcess(golden_store_dir)
        try:
            url = serve.await_url()
            request = urllib.request.Request(
                f"{url}/runs",
                data=json.dumps({"class_name": "Song"}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                run_id = json.load(reply)["run_id"]
            assert run_id
            # The journal owes the run until its terminal status.
            journal = PendingRunJournal(golden_store_dir / "artifacts")
            assert journal.entries()
            code = serve.terminate_and_wait()
        finally:
            serve.cleanup()
        assert code == 143
        # close() drained the writer: the run reached its terminal
        # status and was journal-removed before the process exited.
        assert journal.entries() == []
