"""Hierarchical run tracing: spans, events, and the NDJSON event log.

One pipeline run produces one **trace**: a tree of :class:`Span`s
(run → iteration → stage → executor chunk) plus point events, recorded
as an append-only sequence of JSON objects — one per line — into an
:class:`EventLog`.  The log lives next to the run's artifacts
(``<artifact-store>/traces/<id>.ndjson`` by convention), which makes a
finished run auditable after the fact (``repro trace``) and a *live* run
followable line by line (``GET /runs/<id>/events``).

Event records share one flat schema::

    {"seq": 7,                  # log-assigned, strictly increasing
     "trace": "tr-5f3a...",     # the trace id every record shares
     "type": "begin",           # begin | end | span | point
     "span": "s0003",           # span id ("point" may omit it)
     "parent": "s0002",         # parent span id, null at the root
     "name": "cluster",         # human name
     "kind": "stage",           # hierarchy level (run/stage/chunk/...)
     "ts": 1754640000.123,      # wall-clock seconds (time.time())
     "dur": 1.234,              # seconds; end/span records only
     "attrs": {...}}            # structured attributes (optional)

``begin``/``end`` pairs bracket live spans (the streaming consumer sees
the begin the moment a stage starts); ``span`` records are *complete*
spans recorded after the fact — the shape executor chunks use, because
their timings are known only once the batch function returns.
Durations come from ``time.perf_counter`` (monotonic); ``ts`` is
wall-clock so independent traces can be aligned.

Everything here is stdlib-only and thread-safe: the service's writer
thread, HTTP handler threads, and in-process executor callbacks may all
append to one log concurrently.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "EVENT_TYPES",
    "EventLog",
    "Span",
    "Tracer",
    "new_trace_id",
    "read_events",
    "tail_events",
]

#: Record types an event log may contain (heartbeats are a transport
#: artifact of the streaming endpoint — they are never logged).
EVENT_TYPES = ("begin", "end", "span", "point")


def new_trace_id() -> str:
    """A fresh globally-unique trace id (``tr-`` + 16 hex chars)."""
    return f"tr-{uuid.uuid4().hex[:16]}"


@dataclass
class Span:
    """An open span handle; close it through :meth:`Tracer.end`."""

    span_id: str
    name: str
    kind: str
    parent: str | None
    started_wall: float
    started_mono: float


class EventLog:
    """A thread-safe append-only event sink with sequence numbering.

    Events are always mirrored in memory (traces are bounded — a run
    emits tens to hundreds of records, not millions); ``path`` adds the
    durable NDJSON file, flushed line by line so a concurrent reader
    (the streaming endpoint, ``tail -f``) sees every record as soon as
    it is appended.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._seq = 0
        self._events: list[dict] = []
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> int:
        """Assign the next sequence number and persist one record."""
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._events.append(record)
            if self._handle is not None:
                self._handle.write(
                    json.dumps(record, sort_keys=True, default=repr) + "\n"
                )
                self._handle.flush()
            return self._seq

    def events(self) -> list[dict]:
        """A snapshot of every record appended so far."""
        with self._lock:
            return list(self._events)

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Tracer:
    """Records one trace into an :class:`EventLog`.

    Span ids are allocated sequentially under a lock, so ids are
    deterministic for a deterministic call sequence.
    ``default_parent`` lets an outer owner (the service's per-run job
    span) adopt spans opened by code that doesn't know about it
    (:meth:`repro.api.RunSession.run` parents its root span there).
    """

    def __init__(
        self,
        log: EventLog | None = None,
        *,
        path: str | Path | None = None,
        trace_id: str | None = None,
    ) -> None:
        if log is None:
            log = EventLog(path)
        elif path is not None:
            raise ValueError("pass either log= or path=, not both")
        self.log = log
        self.trace_id = trace_id or new_trace_id()
        self.default_parent: str | None = None
        self._lock = threading.Lock()
        self._next_span = 0

    # -- span lifecycle -------------------------------------------------
    def new_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"s{self._next_span:04d}"

    def begin(
        self,
        name: str,
        kind: str,
        *,
        parent: str | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Open a span and emit its ``begin`` record immediately."""
        span = Span(
            span_id=self.new_span_id(),
            name=name,
            kind=kind,
            parent=parent if parent is not None else self.default_parent,
            started_wall=time.time(),
            started_mono=time.perf_counter(),
        )
        self._emit(
            {
                "type": "begin",
                "span": span.span_id,
                "parent": span.parent,
                "name": name,
                "kind": kind,
                "ts": span.started_wall,
            },
            attrs,
        )
        return span

    def end(self, span: Span, attrs: dict | None = None) -> float:
        """Close a span; returns its duration in seconds."""
        duration = time.perf_counter() - span.started_mono
        self._emit(
            {
                "type": "end",
                "span": span.span_id,
                "parent": span.parent,
                "name": span.name,
                "kind": span.kind,
                "ts": time.time(),
                "dur": duration,
            },
            attrs,
        )
        return duration

    def span(
        self,
        name: str,
        kind: str,
        *,
        parent: str | None = None,
        ts: float | None = None,
        dur: float = 0.0,
        attrs: dict | None = None,
    ) -> str:
        """Record a *complete* span after the fact; returns its id.

        The shape for timings measured elsewhere — executor chunks are
        recorded once their batch function returns, the service turns a
        run's queue wait into a span once the writer picks the job up.
        """
        span_id = self.new_span_id()
        self._emit(
            {
                "type": "span",
                "span": span_id,
                "parent": parent if parent is not None else self.default_parent,
                "name": name,
                "kind": kind,
                "ts": ts if ts is not None else time.time(),
                "dur": dur,
            },
            attrs,
        )
        return span_id

    def point(
        self,
        name: str,
        kind: str,
        *,
        parent: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record an instantaneous event."""
        self._emit(
            {
                "type": "point",
                "parent": parent if parent is not None else self.default_parent,
                "name": name,
                "kind": kind,
                "ts": time.time(),
            },
            attrs,
        )

    def events(self) -> list[dict]:
        return self.log.events()

    def close(self) -> None:
        self.log.close()

    # -- internals ------------------------------------------------------
    def _emit(self, record: dict, attrs: dict | None) -> None:
        record["trace"] = self.trace_id
        if attrs:
            record["attrs"] = attrs
        self.log.append(record)


# ---------------------------------------------------------------------------
# Reading persisted logs
# ---------------------------------------------------------------------------

def read_events(
    path: str | Path, *, after_seq: int = 0
) -> Iterator[dict]:
    """Parse a persisted NDJSON event log, oldest first.

    ``after_seq`` resumes past already-consumed records (the streaming
    endpoint's ``?after_seq=`` maps straight onto it).  Trailing partial
    lines — a log being written right now — are silently skipped; a
    *malformed complete* line raises ``ValueError`` naming the line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.endswith("\n"):
                return  # partial trailing line of a live log
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: malformed event record ({error})"
                ) from None
            if record.get("seq", 0) > after_seq:
                yield record


def tail_events(
    path: str | Path,
    *,
    after_seq: int = 0,
    poll: float = 0.05,
    done: Callable[[], bool] = lambda: False,
    timeout: float | None = None,
) -> Iterator[dict | None]:
    """Follow a live event log, yielding records as they are appended.

    Yields each parsed record once; yields ``None`` on every empty poll
    so transports can emit heartbeats and enforce deadlines.  Ends when
    ``done()`` reports the producer finished *and* a final read pass
    found nothing new (producers must complete the file before flipping
    their terminal state), or when ``timeout`` elapses.  The file may
    not exist yet — a queued run's log appears when the writer starts.
    """
    path = Path(path)
    position = 0
    buffer = b""
    last_seq = after_seq
    deadline = (
        time.monotonic() + timeout if timeout is not None else None
    )
    while True:
        produced = False
        if path.exists():
            with open(path, "rb") as handle:
                handle.seek(position)
                data = handle.read()
            position += len(data)
            buffer += data
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    continue  # torn write of a live log; next poll reparses
                seq = record.get("seq", 0)
                if seq <= last_seq:
                    continue
                last_seq = seq
                produced = True
                yield record
        if not produced:
            if done():
                # The producer is finished; one read already ran after
                # the terminal flip, so the log is fully drained.
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            yield None
            time.sleep(poll)


def span_index(events: Iterable[dict]) -> dict[str, dict]:
    """Collapse begin/end pairs into one merged record per span id.

    Complete ``span`` records pass through; a ``begin`` without its
    ``end`` (a crashed or still-running trace) keeps ``dur`` absent.
    ``attrs`` merge with the later record winning key conflicts.
    """
    spans: dict[str, dict] = {}
    for record in events:
        span_id = record.get("span")
        if span_id is None or record.get("type") == "point":
            continue
        merged = spans.get(span_id)
        if merged is None:
            spans[span_id] = merged = dict(record)
            merged.setdefault("attrs", {})
            merged["attrs"] = dict(merged["attrs"])
            continue
        if record.get("type") == "end":
            merged["dur"] = record.get("dur")
        merged["attrs"].update(record.get("attrs", {}))
    return spans
