"""HTTP transport for :class:`~repro.serve.service.KBService`.

A stdlib-only threaded server (:class:`http.server.ThreadingHTTPServer`
— one thread per connection, no new dependencies) that maps a small REST
surface onto the service core:

======  ============================  =======================================
Method  Path                          Meaning
======  ============================  =======================================
GET     ``/health``                   liveness + snapshot overview
GET     ``/metrics``                  runs, request latencies, caches, stages
POST    ``/ingest``                   tables in → ``IngestReport`` out
POST    ``/runs``                     trigger a (default store-served) run
GET     ``/runs``                     all runs, submission order
GET     ``/runs/<id>``                poll one run's status/stats
GET     ``/runs/<id>/canonical``      the run's canonical JSON (byte witness)
GET     ``/runs/<id>/events``         stream the run's trace as live NDJSON
GET     ``/entities``                 published entities (filter + paging)
GET     ``/entities/<class>/<id>``    one entity document
GET     ``/facts``                    fused facts with provenance
======  ============================  =======================================

All bodies are JSON (canonical output is served as ``application/json``
verbatim — it *is* the byte witness, re-encoding would defeat it).
Errors are ``{"error": ..., "status": ...}`` with the matching HTTP
status.  Every request is folded into the service's telemetry, which
``GET /metrics`` reports back with exact p50/p99 latencies.

**Tracing.**  Every request gets a trace id — the client's
``X-Repro-Trace`` header when well-formed, generated otherwise — echoed
back on the response.  ``POST /runs`` threads it into the run's event
log, so a client can stamp its own correlation id across submit, stream,
and poll.  ``GET /runs/<id>/events`` is the one streaming route: a
chunked ``application/x-ndjson`` body that follows the run's event log
live (heartbeat lines roughly every second while idle; ``?after_seq=N``
resumes past already-seen records) and ends when the run reaches a
terminal status and the log is drained.
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from repro import faults
from repro.obs import tail_events
from repro.serve.service import KBService, ServiceError, sanitize_trace_id

__all__ = ["KBServer", "KBRequestHandler", "make_server"]

#: Default cap on request bodies (64 MiB — generous for table batches, a
#: guard against unbounded allocation).  Per-server override:
#: ``make_server(..., max_body_bytes=...)``.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default per-request socket read timeout (seconds): a client that
#: stops sending mid-request gets a 408 instead of pinning a handler
#: thread forever.  Per-server override: ``make_server(...,
#: request_timeout=...)``.
REQUEST_TIMEOUT_SECONDS = 30.0

#: Hard ceiling on one ``/runs/<id>/events`` stream (an abandoned run
#: must not pin a handler thread forever).
STREAM_TIMEOUT_SECONDS = 3600.0

#: Idle interval between heartbeat lines on an event stream.
HEARTBEAT_SECONDS = 1.0


class KBServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`KBService`."""

    daemon_threads = True
    #: Quick rebinds between test runs.
    allow_reuse_address = True

    def __init__(
        self,
        address,
        service: KBService,
        *,
        quiet: bool = True,
        access_log: bool = False,
        request_timeout: float | None = REQUEST_TIMEOUT_SECONDS,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.service = service
        self.quiet = quiet
        #: One structured line per served request on stderr (``repro
        #: serve --access-log``); off by default so tests stay silent.
        self.access_log = access_log
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive or None, got "
                f"{request_timeout}"
            )
        if max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        super().__init__(address, KBRequestHandler)


def _int_param(params: dict, name: str, default: int | None) -> int | None:
    values = params.get(name)
    if not values:
        return default
    try:
        value = int(values[0])
    except ValueError:
        raise ServiceError(
            400, f"query parameter {name!r} must be an integer, got "
            f"{values[0]!r}"
        ) from None
    if value < 0:
        raise ServiceError(400, f"query parameter {name!r} must be >= 0")
    return value


def _str_param(params: dict, name: str) -> str | None:
    values = params.get(name)
    return values[0] if values else None


class KBRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the service; one instance per request."""

    server: KBServer
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        # StreamRequestHandler honors ``self.timeout`` as the socket
        # timeout — set per-server so a hung client's read raises
        # TimeoutError in the handler instead of blocking forever.
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_payload(
        self,
        status: int,
        payload: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Repro-Trace", self._trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        document: object,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_payload(
            status,
            json.dumps(document, sort_keys=True).encode("utf-8"),
            "application/json; charset=utf-8",
            headers,
        )

    def _read_json_body(self) -> object:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header else 0
        except ValueError:
            raise ServiceError(
                400, f"invalid Content-Length {length_header!r}"
            ) from None
        limit = self.server.max_body_bytes
        if length > limit:
            raise ServiceError(
                413, f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit"
            )
        if length == 0:
            raise ServiceError(400, "request needs a JSON body")
        blob = self.rfile.read(length)
        try:
            return json.loads(blob)
        except json.JSONDecodeError as error:
            raise ServiceError(
                400, f"request body is not valid JSON ({error})"
            ) from None

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        started = time.perf_counter()
        parsed = urlparse(self.path)
        endpoint = f"{method} {parsed.path}"
        #: The request's trace id: propagated from a well-formed
        #: ``X-Repro-Trace`` header, generated otherwise; echoed on
        #: every response and threaded into submitted runs.
        self._trace_id = sanitize_trace_id(self.headers.get("X-Repro-Trace"))
        status = 500
        try:
            # Chaos hook for the transport layer: a 'raise' here lands in
            # the generic 500 handler, latency models a slow backend.
            faults.check("serve.request")
            segments = [
                unquote(segment)
                for segment in parsed.path.split("/")
                if segment
            ]
            if (
                method == "GET"
                and len(segments) == 3
                and segments[0] == "runs"
                and segments[2] == "events"
            ):
                # Streaming breaks the single-payload contract of
                # _route — it owns the socket until the run finishes.
                endpoint = f"{method} /runs/<id>/events"
                status = self._stream_events(
                    segments[1], parse_qs(parsed.query)
                )
            else:
                route, payload, content_type = self._route(
                    method, parsed.path, parse_qs(parsed.query)
                )
                endpoint = f"{method} {route}"
                status = 200 if method == "GET" else 202
                if method == "POST" and route == "/ingest":
                    status = 200
                self._send_payload(status, payload, content_type)
        except ServiceError as error:
            status = error.status
            headers = None
            if error.retry_after is not None:
                headers = {"Retry-After": f"{error.retry_after:g}"}
            self._send_json(
                error.status,
                {"error": error.message, "status": error.status},
                headers,
            )
        except (BrokenPipeError, ConnectionResetError):
            # pragma: no cover - client went away
            status = 499
            self.close_connection = True
        except TimeoutError:
            # The socket read timed out mid-request (slow/hung client).
            # Best-effort 408, then drop the connection — the client may
            # already be gone.
            status = 408
            self.close_connection = True
            try:
                self._send_json(
                    408,
                    {
                        "error": "timed out reading the request body",
                        "status": 408,
                    },
                )
            except OSError:  # pragma: no cover - client gone
                pass
        except Exception as error:  # noqa: BLE001 - last-resort surface
            status = 500
            self._send_json(
                500,
                {
                    "error": f"internal error: {type(error).__name__}: "
                    f"{error}",
                    "status": 500,
                },
            )
        finally:
            elapsed = time.perf_counter() - started
            service.record_request(endpoint, status, elapsed)
            if self.server.access_log:
                print(
                    json.dumps(
                        {
                            "method": method,
                            "path": parsed.path,
                            "status": status,
                            "ms": round(elapsed * 1000.0, 2),
                            "trace": self._trace_id,
                        },
                        sort_keys=True,
                    ),
                    file=sys.stderr,
                    flush=True,
                )

    def _stream_events(self, run_id: str, params: dict) -> int:
        """``GET /runs/<id>/events``: live chunked-NDJSON event stream.

        Chunked transfer-encoding is hand-rolled (``http.server`` only
        does fixed-length bodies); ``http.client`` — and therefore
        urllib and :class:`~repro.serve.client.ServiceClient` — decodes
        it transparently.  The stream ends with the terminal zero chunk
        once the run's status is terminal and its log fully drained, so
        a well-behaved client simply reads lines until EOF.
        """
        service = self.server.service
        record = service.run_events_record(run_id)
        after_seq = _int_param(params, "after_seq", 0) or 0
        self.send_response(200)
        self.send_header(
            "Content-Type", "application/x-ndjson; charset=utf-8"
        )
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Repro-Trace", record.trace_id or self._trace_id)
        self.end_headers()

        def write_chunk(payload: bytes) -> None:
            self.wfile.write(f"{len(payload):X}\r\n".encode("ascii"))
            self.wfile.write(payload)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        last_write = time.monotonic()
        for event in tail_events(
            record.events_path,
            after_seq=after_seq,
            done=lambda: record.status in ("done", "failed"),
            timeout=STREAM_TIMEOUT_SECONDS,
        ):
            if event is None:
                if time.monotonic() - last_write >= HEARTBEAT_SECONDS:
                    write_chunk(
                        json.dumps(
                            {"type": "heartbeat", "ts": time.time()}
                        ).encode("utf-8")
                        + b"\n"
                    )
                    last_write = time.monotonic()
                continue
            write_chunk(
                json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
            )
            last_write = time.monotonic()
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()
        return 200

    # -- routing --------------------------------------------------------
    def _route(
        self, method: str, path: str, params: dict
    ) -> tuple[str, bytes, str]:
        """Resolve one request → (telemetry route, body, content type)."""
        service = self.server.service
        segments = [
            unquote(segment) for segment in path.split("/") if segment
        ]
        json_type = "application/json; charset=utf-8"

        def as_json(route: str, document: object) -> tuple[str, bytes, str]:
            return (
                route,
                json.dumps(document, sort_keys=True).encode("utf-8"),
                json_type,
            )

        if method == "GET":
            if segments == ["health"]:
                return as_json("/health", service.health())
            if segments == ["metrics"]:
                return as_json("/metrics", service.metrics())
            if segments == ["runs"]:
                return as_json("/runs", {"runs": service.run_documents()})
            if len(segments) == 2 and segments[0] == "runs":
                return as_json(
                    "/runs/<id>", service.run_document(segments[1])
                )
            if (
                len(segments) == 3
                and segments[0] == "runs"
                and segments[2] == "canonical"
            ):
                blob = service.run_canonical(segments[1])
                return (
                    "/runs/<id>/canonical",
                    blob.encode("utf-8"),
                    json_type,
                )
            if segments == ["entities"]:
                return as_json(
                    "/entities",
                    service.list_entities(
                        class_name=_str_param(params, "class"),
                        status=_str_param(params, "status"),
                        offset=_int_param(params, "offset", 0) or 0,
                        limit=_int_param(params, "limit", None),
                    ),
                )
            if len(segments) == 3 and segments[0] == "entities":
                return as_json(
                    "/entities/<class>/<id>",
                    service.get_entity(segments[1], segments[2]),
                )
            if segments == ["facts"]:
                return as_json(
                    "/facts",
                    service.list_facts(
                        class_name=_str_param(params, "class"),
                        entity_id=_str_param(params, "entity"),
                        property_name=_str_param(params, "property"),
                        offset=_int_param(params, "offset", 0) or 0,
                        limit=_int_param(params, "limit", None),
                    ),
                )
        elif method == "POST":
            if segments == ["ingest"]:
                body = self._read_json_body()
                if not isinstance(body, dict) or "tables" not in body:
                    raise ServiceError(
                        400,
                        "ingest body must be a JSON object with a 'tables' "
                        "array (optional: 'on_conflict')",
                    )
                return as_json(
                    "/ingest",
                    service.ingest_tables(
                        body["tables"],
                        on_conflict=body.get("on_conflict", "skip"),
                    ),
                )
            if segments == ["runs"]:
                body = self._read_json_body()
                if not isinstance(body, dict):
                    raise ServiceError(
                        400, "run body must be a JSON object"
                    )
                incremental = body.get("incremental", True)
                if not isinstance(incremental, bool):
                    raise ServiceError(
                        400, "'incremental' must be a boolean when present"
                    )
                return as_json(
                    "/runs",
                    service.submit_run(
                        body.get("class_name", ""),
                        incremental=incremental,
                        trace_id=self._trace_id,
                    ),
                )
        raise ServiceError(404, f"no route for {method} {path}")

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


def make_server(
    service: KBService, host: str = "127.0.0.1", port: int = 0, *,
    quiet: bool = True, access_log: bool = False,
    request_timeout: float | None = REQUEST_TIMEOUT_SECONDS,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> KBServer:
    """Bind a threaded server to a started service.

    ``port=0`` binds an ephemeral port (tests, benchmarks); read the
    actual one from ``server.server_address[1]``.  ``access_log`` prints
    one structured JSON line per request to stderr.  ``request_timeout``
    (seconds, ``None`` disables) bounds each socket read; requests whose
    declared body exceeds ``max_body_bytes`` are answered 413 unread.
    """
    return KBServer(
        (host, port),
        service,
        quiet=quiet,
        access_log=access_log,
        request_timeout=request_timeout,
        max_body_bytes=max_body_bytes,
    )
