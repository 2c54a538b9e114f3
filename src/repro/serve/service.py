"""`KBService` — the long-lived knowledge-base service core.

One instance owns a persistent :class:`~repro.api.RunSession` (knowledge
base + corpus + kernel caches + artifact store) for its whole lifetime
and mediates all access to it:

* **One writer.**  A single daemon thread drains a FIFO job queue of
  ingests and pipeline runs.  Ingests mutate the corpus store; runs go
  through :meth:`RunSession.run` (so the corpus-epoch guard and the
  content-keyed artifact store from the batch engine do the
  invalidation work) and end by *publishing*: building an
  immutable :class:`~repro.serve.snapshot.ClassView` and swapping the
  service's :class:`~repro.serve.snapshot.Snapshot` reference.  Because
  ingest and run jobs share the queue, a run triggered after an ingest
  always sees the fully applied delta.
* **Many readers.**  Every read method resolves ``self._snapshot``
  exactly once and serves from that immutable object — a reader is
  wait-free with respect to the writer and can never observe a
  half-applied ingest or a partially swapped result.

The service is transport-agnostic: :mod:`repro.serve.http` maps HTTP
requests onto these methods, and the tests exercise them directly.
Errors raise :class:`ServiceError` carrying the HTTP status the
transport should answer with.
"""

from __future__ import annotations

import os
import queue
import re
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro import faults
from repro.api import RunSession
from repro.corpus.readers import table_from_record
from repro.corpus.store import CorpusStore
from repro.obs import Tracer, new_trace_id, trace_summary
from repro.perf.percentiles import percentile_summary
from repro.serve.journal import PendingRunJournal
from repro.serve.runs import RunRecord, RunRegistry
from repro.serve.snapshot import Snapshot, build_class_view
from repro.webtables.table import WebTable

__all__ = ["KBService", "ServiceError", "sanitize_trace_id"]

#: Conflict policies POST /ingest accepts (mirrors ``repro ingest``).
INGEST_CONFLICT_POLICIES = ("skip", "replace", "error")

#: What a client-supplied ``X-Repro-Trace`` id must look like; anything
#: else is silently replaced by a generated id (a header is propagation
#: convenience, never a failure surface — and never a path component an
#: attacker controls, since event-log filenames embed the run id, not
#: the trace id).
_TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def sanitize_trace_id(candidate: str | None) -> str:
    """A safe trace id: the client's if well-formed, a fresh one otherwise."""
    if candidate is not None and _TRACE_ID_PATTERN.match(candidate):
        return candidate
    return new_trace_id()


class ServiceError(Exception):
    """A client-visible failure with an HTTP status code.

    ``retry_after`` (seconds) rides along on backpressure rejections so
    the transport can answer with a ``Retry-After`` header.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class _IngestJob:
    """One enqueued ingest: parsed tables in, report document out.

    The submitting thread blocks on :attr:`done` — ingest is synchronous
    for the caller (the endpoint answers with the
    :class:`~repro.corpus.store.IngestReport`) but strictly serialized
    through the writer thread with every other mutation.
    """

    tables: list[WebTable]
    on_conflict: str
    done: threading.Event = field(default_factory=threading.Event)
    report: dict | None = None
    error: ServiceError | None = None


@dataclass
class _RunJob:
    record: RunRecord


class _StopJob:
    """Sentinel draining the writer thread at shutdown."""


class KBService:
    """The service core over one persistent session.

    ``session`` is any :class:`~repro.api.RunSession`; ``store`` (a
    :class:`~repro.corpus.store.CorpusStore`) enables ``POST /ingest``
    and is normally the store the session was constructed from.  The
    conventional constructor is :meth:`from_store`, which wires both
    plus the persistent artifact store in one call — what ``repro
    serve`` uses.
    """

    #: Default bound on queued-but-unstarted writer jobs; past it the
    #: service answers 503 + ``Retry-After`` instead of queueing without
    #: limit (a stuck writer must not grow memory unboundedly).
    DEFAULT_MAX_QUEUE_DEPTH = 256
    #: The ``Retry-After`` hint (seconds) on backpressure rejections.
    RETRY_AFTER_SECONDS = 1.0

    def __init__(
        self,
        session: RunSession,
        *,
        store: CorpusStore | None = None,
        request_history: int = 4096,
        max_queue_depth: int | None = None,
    ) -> None:
        self.session = session
        self.store = store
        self.started_at = time.time()
        #: Store shape cached off the hot read path (refreshed by the
        #: writer after each ingest): handler threads answering /health
        #: must not open per-request SQLite connections.
        self._store_stats = (
            {"tables": len(store), "rows": store.total_rows()}
            if store is not None
            else None
        )
        self.runs = RunRegistry()
        #: Per-run NDJSON event logs (``GET /runs/<id>/events``): next to
        #: the artifacts when the artifact store has a directory, in a
        #: service-owned temp directory otherwise — in-memory services
        #: stream all the same.
        artifacts_dir = session.artifact_store.directory
        if artifacts_dir is not None:
            self._traces_dir = artifacts_dir / "traces"
        else:
            self._traces_dir = Path(tempfile.mkdtemp(prefix="repro-traces-"))
        self._traces_dir.mkdir(parents=True, exist_ok=True)
        self._snapshot = Snapshot(version=0, published_at=self.started_at)
        # The queue object itself stays unbounded so close()'s stop
        # sentinel and journal recovery can never block; the *client*
        # bound is enforced explicitly in the submit paths (see
        # ``_admit``), which also lets rejections carry a 503.
        self._queue: "queue.Queue[object]" = queue.Queue()
        if max_queue_depth is None:
            max_queue_depth = self.DEFAULT_MAX_QUEUE_DEPTH
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        self._rejected_jobs = 0
        self._writer: threading.Thread | None = None
        self._closed = threading.Event()
        #: Rolling request telemetry fed by the transport layer.
        self._telemetry_lock = threading.Lock()
        self._request_counts: dict[str, int] = {}
        self._status_counts: dict[int, int] = {}
        self._latencies: list[float] = []
        self._request_history = request_history
        #: Stage seconds and kernel counters summed over every run's
        #: span log (``/metrics``), folded in by the writer thread.
        self._stage_seconds: Counter = Counter()
        self._kernel_counters: Counter = Counter()
        #: Durable pending-run journal, one file per owed run
        #: (:class:`~repro.serve.journal.PendingRunJournal`): an entry is
        #: written at submit time and unlinked at the run's terminal
        #: status, so a killed service re-queues exactly the runs it
        #: still owed on restart.  No transition rewrites a shared file.
        #: Only meaningful with a persistent artifact store — an
        #: in-memory service has nothing durable to resume against.
        self._journal = (
            PendingRunJournal(artifacts_dir)
            if artifacts_dir is not None
            else None
        )
        self._recover_pending_runs()

    @classmethod
    def from_store(
        cls,
        store: CorpusStore | str,
        *,
        kb_path: str | None = None,
        config=None,
        **kwargs,
    ) -> "KBService":
        """The production constructor: session and store off one directory."""
        if not isinstance(store, CorpusStore):
            store = CorpusStore.open(store)
        session = RunSession.from_corpus_store(
            store, kb_path=kb_path, config=config
        )
        return cls(session, store=store, **kwargs)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "KBService":
        """Start the writer thread (idempotent)."""
        if self._writer is None or not self._writer.is_alive():
            self._writer = threading.Thread(
                target=self._drain, name="kb-service-writer", daemon=True
            )
            self._writer.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting jobs, join the writer thread, and close the
        artifact store's connections (a later run reopens them)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_StopJob())
        if self._writer is not None and self._writer.is_alive():
            self._writer.join(timeout=timeout)
        if self._writer is None or not self._writer.is_alive():
            self.session.artifact_store.close()

    def __enter__(self) -> "KBService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- write path (handler side) --------------------------------------
    def ingest_tables(
        self, records: Sequence[object], *, on_conflict: str = "skip"
    ) -> dict:
        """Parse, enqueue, and wait out one ingest; returns the report.

        Parsing happens *before* enqueueing, on the calling thread: a
        malformed payload is rejected as a whole with a 400 naming the
        offending record (``body.tables[i]: ...``, the service-side
        analogue of the readers' ``file:line`` messages) and the store
        is never touched.
        """
        if self.store is None:
            raise ServiceError(
                409,
                "this service has no corpus store attached; "
                "ingest is only available when serving a store "
                "(repro serve --store ...)",
            )
        if on_conflict not in INGEST_CONFLICT_POLICIES:
            raise ServiceError(
                400,
                f"unknown on_conflict policy {on_conflict!r}; expected one "
                f"of: {', '.join(INGEST_CONFLICT_POLICIES)}",
            )
        if not isinstance(records, (list, tuple)):
            raise ServiceError(
                400,
                "ingest body must carry a JSON array under 'tables', got "
                f"{type(records).__name__}",
            )
        tables: list[WebTable] = []
        for position, record in enumerate(records):
            try:
                tables.append(table_from_record(record))
            except ValueError as error:
                raise ServiceError(
                    400, f"body.tables[{position}]: {error}"
                ) from None
        self._require_open()
        self._admit()
        job = _IngestJob(tables=tables, on_conflict=on_conflict)
        self._queue.put(job)
        job.done.wait()
        if job.error is not None:
            raise job.error
        assert job.report is not None
        return job.report

    def submit_run(
        self,
        class_name: str,
        *,
        incremental: bool = True,
        trace_id: str | None = None,
    ) -> dict:
        """Enqueue one pipeline run; returns the queued run document.

        ``incremental=False`` runs with ``use_cache=False``: nothing is
        reused from or stored in the artifact store.  ``trace_id``
        propagates a client-supplied id (``X-Repro-Trace``)
        into the run's trace; malformed ids are replaced, never
        rejected.  The event-log path is fixed here, at submit time, so
        ``GET /runs/<id>/events`` can attach to a run that is still
        sitting in the queue.
        """
        if not class_name or not isinstance(class_name, str):
            raise ServiceError(
                400, "run request needs a non-empty string 'class_name'"
            )
        self._require_open()
        self._admit()
        record = self.runs.create(
            class_name, incremental, trace_id=sanitize_trace_id(trace_id)
        )
        events_path = self._traces_dir / f"{record.run_id}.ndjson"
        self.runs.update(record, events_path=str(events_path))
        # A restarted service numbers runs from run-0001 again when
        # nothing was owed; the tracer appends, so a log an earlier
        # process left under this id must go before this run's events.
        events_path.unlink(missing_ok=True)
        # Journal before enqueueing: once the client holds a run id, a
        # crash must not lose the run (the restart re-queues it).
        self._journal_add(record)
        self._queue.put(_RunJob(record))
        return record.document()

    # -- read path (wait-free over the snapshot) ------------------------
    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    def run_document(self, run_id: str) -> dict:
        document = self.runs.document(run_id)
        if document is None:
            raise ServiceError(404, f"no run {run_id!r}")
        return document

    def run_documents(self) -> list[dict]:
        return self.runs.documents()

    def run_events_record(self, run_id: str) -> RunRecord:
        """The live record backing ``GET /runs/<id>/events``.

        The streaming transport tails ``record.events_path`` and polls
        ``record.status`` for its termination condition (the writer
        completes the event log *before* flipping a terminal status).
        """
        record = self.runs.get(run_id)
        if record is None:
            raise ServiceError(404, f"no run {run_id!r}")
        if record.events_path is None:  # pragma: no cover - defensive
            raise ServiceError(409, f"run {run_id!r} has no event log")
        return record

    def run_canonical(self, run_id: str) -> str:
        """The published canonical JSON of one finished run.

        Serves the byte-equality witness: the exact string a batch
        ``repro run --store`` would produce for the same store
        state (``tests/test_serve.py`` and the CI smoke job compare the
        two byte for byte).
        """
        document = self.run_document(run_id)
        if document["status"] != "done":
            raise ServiceError(
                409,
                f"run {run_id!r} is {document['status']}; canonical output "
                "exists only for runs with status 'done'",
            )
        snapshot = self._snapshot
        view = snapshot.classes.get(document["class_name"])
        if view is None or view.run_id != run_id:
            raise ServiceError(
                409,
                f"run {run_id!r} is no longer the published view of class "
                f"{document['class_name']!r} (superseded by a later run)",
            )
        return view.canonical_json

    def list_entities(
        self,
        *,
        class_name: str | None = None,
        status: str | None = None,
        offset: int = 0,
        limit: int | None = None,
    ) -> dict:
        """Entities of the current snapshot, optionally filtered/paged."""
        snapshot = self._snapshot
        views = self._resolve_views(snapshot, class_name)
        if status is not None and status not in (
            "new", "existing", "unclassified"
        ):
            raise ServiceError(
                400,
                f"unknown status filter {status!r}; expected new, existing "
                "or unclassified",
            )
        entities: list[dict] = []
        for view in views:
            entities.extend(
                document
                for document in view.entities
                if status is None or document["status"] == status
            )
        total = len(entities)
        if offset:
            entities = entities[offset:]
        if limit is not None:
            entities = entities[:limit]
        return {
            "snapshot_version": snapshot.version,
            "total": total,
            "offset": offset,
            "count": len(entities),
            "entities": entities,
        }

    def get_entity(self, class_name: str, entity_id: str) -> dict:
        snapshot = self._snapshot
        view = snapshot.classes.get(class_name)
        if view is None:
            raise ServiceError(
                404,
                f"no published results for class {class_name!r} in snapshot "
                f"version {snapshot.version} (published classes: "
                f"{', '.join(sorted(snapshot.classes)) or 'none'})",
            )
        document = view.entity(entity_id)
        if document is None:
            raise ServiceError(
                404,
                f"no entity {entity_id!r} in class {class_name!r} at "
                f"snapshot version {snapshot.version}",
            )
        return {"snapshot_version": snapshot.version, "entity": document}

    def list_facts(
        self,
        *,
        class_name: str | None = None,
        entity_id: str | None = None,
        property_name: str | None = None,
        offset: int = 0,
        limit: int | None = None,
    ) -> dict:
        """Fused facts with provenance from the current snapshot."""
        snapshot = self._snapshot
        views = self._resolve_views(snapshot, class_name)
        facts: list[dict] = []
        for view in views:
            facts.extend(
                document
                for document in view.facts
                if (entity_id is None or document["entity_id"] == entity_id)
                and (
                    property_name is None
                    or document["property"] == property_name
                )
            )
        total = len(facts)
        if offset:
            facts = facts[offset:]
        if limit is not None:
            facts = facts[:limit]
        return {
            "snapshot_version": snapshot.version,
            "total": total,
            "offset": offset,
            "count": len(facts),
            "facts": facts,
        }

    def health(self) -> dict:
        snapshot = self._snapshot
        writer = self._writer
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "writer_alive": bool(writer is not None and writer.is_alive()),
            "queue_depth": self._queue.qsize(),
            "snapshot": snapshot.describe(),
            "store": (
                {"directory": str(self.store.directory), **self._store_stats}
                if self.store is not None
                else None
            ),
        }

    def metrics(self) -> dict:
        """Operational statistics: runs, requests, caches, stage timings."""
        with self._telemetry_lock:
            requests = {
                "total": sum(self._request_counts.values()),
                "by_endpoint": dict(sorted(self._request_counts.items())),
                "by_status": {
                    str(status): count
                    for status, count in sorted(self._status_counts.items())
                },
                "latency_ms": percentile_summary(self._latencies),
            }
            stage_seconds = {
                name: round(seconds, 4)
                for name, seconds in sorted(self._stage_seconds.items())
            }
            kernel_counters = dict(sorted(self._kernel_counters.items()))
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "writer_queue": {
                "depth": self._queue.qsize(),
                "max_depth": self.max_queue_depth,
                "rejected_jobs": self._rejected_jobs,
            },
            "faults": faults.fault_stats(),
            "snapshot_version": self._snapshot.version,
            "snapshot": self._snapshot.describe(),
            "runs": self.runs.counts(),
            "requests": requests,
            "stage_seconds": stage_seconds,
            "kernel_counters": kernel_counters,
            "session": self.session.service_stats(),
        }

    # -- transport telemetry --------------------------------------------
    def record_request(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        """Fold one served request into the rolling telemetry."""
        with self._telemetry_lock:
            self._request_counts[endpoint] = (
                self._request_counts.get(endpoint, 0) + 1
            )
            self._status_counts[status] = (
                self._status_counts.get(status, 0) + 1
            )
            self._latencies.append(seconds * 1000.0)
            if len(self._latencies) > self._request_history:
                del self._latencies[: -self._request_history]

    # -- the writer thread ----------------------------------------------
    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            try:
                # The single writer dying with work queued is exactly
                # what the pending-run journal recovers from; a 'raise'
                # fault here kills only this thread (readers stay up).
                faults.check("serve.writer")
                if isinstance(job, _StopJob):
                    return
                if isinstance(job, _IngestJob):
                    self._do_ingest(job)
                elif isinstance(job, _RunJob):
                    self._do_run(job.record)
            finally:
                self._queue.task_done()

    def _do_ingest(self, job: _IngestJob) -> None:
        try:
            report = self.store.ingest(job.tables, on_conflict=job.on_conflict)
            self._store_stats = {
                "tables": len(self.store),
                "rows": self.store.total_rows(),
            }
            job.report = {
                "store": str(self.store.directory),
                **self._store_stats,
                "report": report.to_dict(),
            }
        except ValueError as error:
            job.error = ServiceError(409, f"ingest failed: {error}")
        except Exception as error:  # noqa: BLE001 - surfaced to the client
            job.error = ServiceError(
                500, f"ingest failed: {type(error).__name__}: {error}"
            )
        finally:
            job.done.set()

    def _do_run(self, record: RunRecord) -> None:
        started_at = time.time()
        tracer = Tracer(path=record.events_path, trace_id=record.trace_id)
        root = tracer.begin(
            f"service_run:{record.run_id}",
            "service",
            attrs={
                "run_id": record.run_id,
                "class": record.class_name,
                "incremental": record.incremental,
            },
        )
        # Queue wait is over the moment the writer picks the job up —
        # recorded retroactively as a complete span so a live stream
        # shows it first.
        tracer.span(
            "queue_wait",
            "service",
            parent=root.span_id,
            ts=record.submitted_at,
            dur=max(0.0, started_at - record.submitted_at),
        )
        # The pipeline's run span parents itself here via default_parent.
        tracer.default_parent = root.span_id
        self.runs.update(record, status="running", started_at=started_at)
        try:
            try:
                result = self.session.run(
                    record.class_name,
                    use_cache=record.incremental,
                    trace=tracer,
                )
            finally:
                # Before any terminal status: a client that sees the
                # run finish reads /metrics totals that include it.
                self._fold_timings(tracer.events())
            publish = tracer.begin("publish", "service", parent=root.span_id)
            view = build_class_view(
                record.class_name, result, record.run_id
            )
            published_at = time.time()
            # The publish: build the new immutable snapshot off to the
            # side, then swap the reference in one assignment.
            self._snapshot = self._snapshot.with_class(view, published_at)
            tracer.end(
                publish, {"snapshot_version": self._snapshot.version}
            )
            report = self.session.last_incremental_report
            tracer.end(root, {"status": "done"})
            # Close before flipping the terminal status: consumers treat
            # "terminal status + drained file" as end-of-stream, so the
            # log must be complete first.
            tracer.close()
            self.runs.update(
                record,
                status="done",
                finished_at=published_at,
                summary=dict(result.summary_dict()),
                incremental_report=(
                    report.to_dict() if report is not None else None
                ),
                snapshot_version=self._snapshot.version,
                canonical_sha256=view.canonical_sha256,
            )
            # Journal removal comes *after* the terminal status: a crash
            # between the two re-runs a finished run on restart, which
            # republishes byte-identical output — never loses one.
            self._journal_remove(record)
        except Exception as error:  # noqa: BLE001 - surfaced via the record
            detail = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            tracer.end(root, {"status": "failed", "error": detail})
            tracer.close()
            self.runs.update(
                record,
                status="failed",
                finished_at=time.time(),
                error=detail,
            )
            self._journal_remove(record)

    def _fold_timings(self, events: list[dict]) -> None:
        """Add one run's stage seconds and kernel counters to the totals."""
        timings = trace_summary(events)
        with self._telemetry_lock:
            self._stage_seconds.update(timings["stage_seconds"])
            self._kernel_counters.update(timings["kernel_counters"])

    # -- pending-run journal (crash-safe restart) ------------------------
    def _journal_add(self, record: RunRecord) -> None:
        if self._journal is not None:
            self._journal.add(
                {
                    "run_id": record.run_id,
                    "class_name": record.class_name,
                    "incremental": record.incremental,
                    "trace_id": record.trace_id,
                    "submitted_at": record.submitted_at,
                }
            )

    def _journal_remove(self, record: RunRecord) -> None:
        if self._journal is not None:
            self._journal.remove(record.run_id)

    def _recover_pending_runs(self) -> None:
        """Re-queue runs the previous process died owing (constructor).

        Entries come back in submission order; a journal left by an
        older version is migrated first.  Recovered jobs enter the queue
        directly — the admission bound applies to new client traffic,
        never to owed work.  Re-running a
        run whose crash fell between publish and journal removal is
        safe: the artifact store serves the same artifacts and the
        published canonical output is byte-identical.
        """
        if self._journal is None:
            return
        self._journal.migrate_legacy()
        for entry in self._journal.entries():
            run_id = entry["run_id"]
            class_name = entry["class_name"]
            try:
                submitted_at = float(entry.get("submitted_at"))
            except (TypeError, ValueError):
                submitted_at = time.time()
            trace_id = entry.get("trace_id")
            record = RunRecord(
                run_id=run_id,
                class_name=class_name,
                incremental=bool(entry.get("incremental", True)),
                trace_id=trace_id if isinstance(trace_id, str) else None,
                events_path=str(self._traces_dir / f"{run_id}.ndjson"),
                submitted_at=submitted_at,
                recovered=True,
            )
            # Drop any partial event log from the killed attempt — the
            # rerun's tracer starts its sequence numbers from scratch.
            try:
                os.unlink(record.events_path)
            except OSError:
                pass
            self.runs.restore(record)
            self._queue.put(_RunJob(record))

    # -- internals ------------------------------------------------------
    def _admit(self) -> None:
        """Enforce the writer-queue bound on client submissions."""
        if self._queue.qsize() >= self.max_queue_depth:
            with self._telemetry_lock:
                self._rejected_jobs += 1
            raise ServiceError(
                503,
                f"service writer queue is full "
                f"({self.max_queue_depth} jobs pending); retry shortly",
                retry_after=self.RETRY_AFTER_SECONDS,
            )

    def _require_open(self) -> None:
        if self._closed.is_set():
            raise ServiceError(503, "service is shutting down")
        if self._writer is None or not self._writer.is_alive():
            raise ServiceError(
                503,
                "service writer thread is not running; "
                "call KBService.start() first",
            )

    def _resolve_views(self, snapshot: Snapshot, class_name: str | None):
        if class_name is None:
            return [
                snapshot.classes[name] for name in sorted(snapshot.classes)
            ]
        view = snapshot.classes.get(class_name)
        if view is None:
            raise ServiceError(
                404,
                f"no published results for class {class_name!r} in snapshot "
                f"version {snapshot.version} (published classes: "
                f"{', '.join(sorted(snapshot.classes)) or 'none'})",
            )
        return [view]
