"""SIGTERM contracts of the long-lived commands, against real processes.

``repro serve``: stop accepting, drain every queued writer job, release
the port, exit 143.  ``repro worker``: finish the chunk in hand (its
lease keeper stays alive throughout), deregister from the spool, exit
143.  Both are proven here with actual subprocesses and actual signals —
a handler that only works in-process is not a shutdown contract.

A ``ProcessExecutor`` driver killed outright (SIGKILL, no handler runs)
must not leave its pool workers behind: they die with it.
"""

from __future__ import annotations

import json
import os
import pickle
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
from repro.parallel import WorkQueue

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"
GOLDEN_DIR = TESTS_DIR / "golden"


def subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(TESTS_DIR), env.get("PYTHONPATH", "")]
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
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store), "--port", "0", "--quiet", *args,
            ],
            env=env or subprocess_env(),
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
        code = self.proc.wait(timeout=timeout)
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
            journal = (
                golden_store_dir / "artifacts" / "service"
                / "pending_runs.json"
            )
            assert json.loads(journal.read_text())["runs"]
            code = serve.terminate_and_wait()
        finally:
            serve.cleanup()
        assert code == 143
        # close() drained the writer: the run reached its terminal
        # status and was journal-removed before the process exited.
        assert json.loads(journal.read_text())["runs"] == []


class TestWorkerSigterm:
    def test_sigterm_finishes_the_held_chunk_then_exits_143(self, tmp_path):
        spool = tmp_path / "queue"
        control = tmp_path / "control"
        control.mkdir()
        (control / "hold").touch()
        queue = WorkQueue(spool)
        queue.create_batch("batch-1")
        from queue_worker_helpers import timed_holding

        items = [(value, str(control)) for value in range(3)]
        payload = queue.payload_dir / "chunk-0.pkl"
        payload.write_bytes(pickle.dumps((timed_holding, items)))
        task_id = queue.enqueue("batch-1", "held", 0, payload)
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--queue", str(spool), "--lease", "2.0", "--poll", "0.05",
            ],
            env=subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if next(control.glob("started-*"), None) is not None:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("worker never started the chunk")
            # SIGTERM lands mid-chunk: the worker must keep going (and
            # keep renewing its lease) until the chunk completes.
            worker.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            assert worker.poll() is None, "worker abandoned its chunk"
            (control / "hold").unlink()
            code = worker.wait(timeout=60.0)
            stderr = worker.stderr.read()
        finally:
            if worker.poll() is None:  # pragma: no cover - test failed
                worker.kill()
                worker.wait(timeout=30.0)
        assert code == 143
        assert "terminated" in stderr
        assert "after 1 task(s)" in stderr
        finished = queue.fetch_finished("batch-1")
        assert [task.status for task in finished] == ["done"]
        with open(finished[0].result_path, "rb") as handle:
            __, results = pickle.load(handle)
        assert results == [value * value for value in range(3)]
        assert finished[0].task_id == task_id
        # Graceful exit deregistered the worker from the spool.
        assert queue.live_workers() == 0
        queue.close()

    def test_idle_worker_sigterm_exits_143_promptly(self, tmp_path):
        WorkQueue(tmp_path / "queue").close()
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--queue", str(tmp_path / "queue"), "--poll", "0.05",
            ],
            env=subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            time.sleep(1.0)  # let it enter the poll loop
            worker.send_signal(signal.SIGTERM)
            code = worker.wait(timeout=30.0)
            stderr = worker.stderr.read()
        finally:
            if worker.poll() is None:  # pragma: no cover - test failed
                worker.kill()
                worker.wait(timeout=30.0)
        assert code == 143
        assert "after 0 task(s)" in stderr


POOL_DRIVER = """
import sys, time
from pathlib import Path
from queue_worker_helpers import square_batch
from repro.parallel import ProcessExecutor

executor = ProcessExecutor(2)
assert executor.map_batches(square_batch, [1, 2, 3, 4], chunk_size=2) == [
    1, 4, 9, 16,
]
Path(sys.argv[1]).write_text(" ".join(map(str, executor._pool._processes)))
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc; PDEATHSIG"
)
class TestProcessPoolDriverKill:
    def test_sigkilled_driver_takes_its_pool_workers_down(self, tmp_path):
        pid_file = tmp_path / "pool-pids"
        with open(tmp_path / "driver.err", "w") as stderr:
            driver = subprocess.Popen(
                [sys.executable, "-c", POOL_DRIVER, str(pid_file)],
                env=subprocess_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while not pid_file.exists() or not pid_file.read_text():
                assert driver.poll() is None, (
                    (tmp_path / "driver.err").read_text()
                )
                assert time.monotonic() < deadline, "pool never started"
                time.sleep(0.05)
            workers = [int(pid) for pid in pid_file.read_text().split()]
            assert len(workers) == 2 and all(map(_running, workers))
            driver.kill()
            driver.wait(timeout=30.0)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in workers if _running(pid)]
            assert not survivors, f"pool workers outlived the driver: {survivors}"
        finally:
            if driver.poll() is None:  # pragma: no cover - test failed
                driver.kill()
                driver.wait(timeout=30.0)
            for pid in workers:
                if _running(pid):  # pragma: no cover - test failed
                    os.kill(pid, signal.SIGKILL)
