"""Start ``repro serve`` with the benchmark's span recorder installed.

Usage: ``python3 perfbench/launcher.py SPANS_FILE -- <repro serve args>``

The traced runs of the service workloads start the service through this
launcher, so the same wrappers as in the batch workload run inside the
service process.  ``SIGUSR1`` turns recording on and ``SIGUSR2`` turns
it off (the benchmark measures tracing overhead by switching).  The
spans are written to ``SPANS_FILE`` when the service exits.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE -- <serve args>")
    common.prepare_environment()
    from repro import cli
    from repro.corpus.view import StoredCorpusView
    from repro.serve.service import KBService

    recorder = tracing.SpanRecorder(enabled=True)
    tracing.install(recorder)

    views: list = []
    view_init = StoredCorpusView.__init__

    def remember_view(self, *args, **kwargs):
        view_init(self, *args, **kwargs)
        views.append(self)

    StoredCorpusView.__init__ = remember_view

    record_request = KBService.record_request

    def timed_request(self, endpoint, status, seconds):
        if recorder.enabled:
            end = time.perf_counter()
            recorder.complete(f"serve.request:{endpoint}", end - seconds, end)
        return record_request(self, endpoint, status, seconds)

    KBService.record_request = timed_request

    def switch(enabled: bool):
        def handler(signum, frame):
            recorder.enabled = enabled
        return handler

    signal.signal(signal.SIGUSR1, switch(True))
    signal.signal(signal.SIGUSR2, switch(False))
    try:
        return cli.main(["serve", *serve_args])
    finally:
        hits = sum(view.cache_info()["hits"] for view in views)
        misses = sum(view.cache_info()["misses"] for view in views)
        recorder.write(
            spans_file,
            {"view_cache_hits": hits, "view_cache_misses": misses},
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
