"""Workloads ``serve-read`` and ``refresh-longtail``: ``repro serve`` over HTTP.

The service runs as its own process over a corpus store the benchmark
builds.  Set-up (timed, repeated, median kept) builds the inputs and the
store, starts the service and publishes the three classes.  Untraced
runs start ``python -m repro serve``; traced runs start it through
``launcher.py`` so the benchmark's span wrappers run in the service
process.  Executor, worker count and candidate mode are pinned: the
command line passes ``--executor serial --workers 1`` and the
candidate mode is the program default, ``exact``, which no environment
variable can change.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import batch
import common
import gauge
import inputs
import layers
import loadgen
import tracing

SERVE_SETUPS = 2
REFRESH_SETUPS = 2
# The traffic below is an assumption of the benchmark, not a measured
# or published load: the repository holds no request log.  The README
# gives the reason for each figure.
#: Long-tail filler tables in the refresh workload's store.
FILLER_TABLES = 2000
#: Offered read rates (requests/s) of ``serve-read``; latency figures
#: are reported at the reference rate.
READ_RATES = (25, 100, 200, 400)
REFERENCE_RATE = 100
#: Share of the measuring time read at the reference rate: the longer
#: that phase, the more of the host's slow and fast phases it averages.
REFERENCE_SHARE = 0.7
#: Tail latency limit a rate must meet to count as sustained.
READ_LIMIT_MS = 25.0
#: Routes of ``serve-read``, drawn with equal shares.
READ_MIX = ("entity", "entities", "facts")
LIST_LIMIT = 20
#: Reads per second offered while the refresh cycles run.
REFRESH_READ_RATE = 10
#: Expected length of one refresh cycle; fixes the cycle count per run.
CYCLE_SECONDS = 1.25
POLL_SECONDS = 0.02
#: A read's speed-gauge factor is taken over its own time plus this much
#: on either side (a read is far shorter than the gauge's period).
GAUGE_PAD_S = 0.25
START_TIMEOUT = 120.0
RUN_TIMEOUT = 150.0
_READY = re.compile(r"on http://([0-9.]+):([0-9]+)")


class Service:
    """One ``repro serve`` process and a control connection to it."""

    def __init__(self, store_dir: Path, spans_file: Path | None = None) -> None:
        serve_args = [
            "--store", str(store_dir), "--port", "0",
            "--executor", common.EXECUTOR, "--workers", str(common.WORKERS),
        ]
        if spans_file is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "launcher.py"
            command = [sys.executable, str(launcher), str(spans_file), "--", *serve_args]
        self.process = subprocess.Popen(
            command, cwd=common.ROOT, env=common.service_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        lines: queue.Queue = queue.Queue()

        def drain() -> None:
            for line in self.process.stderr:
                self.stderr.append(line)
                lines.put(line)
            lines.put(None)

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("service did not start: " + "".join(self.stderr[-20:]))
            found = _READY.search(line)
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                break
        self._connection = http.client.HTTPConnection(self.host, self.port, timeout=60)

    def request(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, body=None) -> dict:
        status, blob = self.request(method, path, body)
        if status not in (200, 202):
            raise RuntimeError(f"{method} {path} -> {status}: {blob[:300]!r}")
        return json.loads(blob)

    def submit_runs(self) -> list[str]:
        return [
            self.json("POST", "/runs", {"class_name": name})["run_id"]
            for name in inputs.CLASSES
        ]

    def wait_runs(self, run_ids: list[str]) -> list[dict]:
        """Poll until every run is done (the writer runs them in order)."""
        deadline = time.monotonic() + RUN_TIMEOUT
        for run_id in run_ids:
            while True:
                document = self.json("GET", f"/runs/{run_id}")
                if document["status"] == "done":
                    break
                if document["status"] == "failed" or time.monotonic() > deadline:
                    raise RuntimeError(f"run {run_id} did not finish: {document}")
                time.sleep(POLL_SECONDS)
        return [self.json("GET", f"/runs/{run_id}") for run_id in run_ids]

    def run_events(self, run_id: str) -> list[dict]:
        """The run's own event records (``GET /runs/<id>/events``)."""
        status, blob = self.request("GET", f"/runs/{run_id}/events")
        if status != 200:
            raise RuntimeError(f"events of {run_id} -> {status}")
        return [json.loads(line) for line in blob.decode("utf-8").splitlines() if line.strip()]

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.process.pid)

    def send(self, signum: int) -> None:
        self.process.send_signal(signum)
        time.sleep(0.6)  # the serve loop handles signals between polls

    def stop(self) -> None:
        connection = getattr(self, "_connection", None)
        if connection is not None:
            connection.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._drain.join(timeout=30)


def build_store(store_dir: Path, tables: list, knowledge_base) -> None:
    from repro.corpus.store import CorpusStore
    from repro.io.serialize import WORLD_KB_FILE, save_knowledge_base

    store = CorpusStore.create(store_dir, shards=4)
    try:
        store.ingest(tables)
    finally:
        store.close()
    save_knowledge_base(knowledge_base, store_dir / WORLD_KB_FILE)


def set_up(seed: int, setups: int, work_dir: Path, make_tables, spans_file):
    """Timed set-ups; the last one's service stays up and is returned."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    times, service = [], None
    for number in range(setups):
        if service is not None:
            service.stop()
            shutil.rmtree(store_dir)
        store_dir = work_dir / f"store-{number}"
        started = time.perf_counter()
        workload_inputs = inputs.build_inputs(seed)
        tables, extra = make_tables(workload_inputs)
        build_store(store_dir, tables, workload_inputs.knowledge_base)
        service = Service(store_dir, spans_file if number == setups - 1 else None)
        published = service.wait_runs(service.submit_runs())
        times.append(gauge.active().scaled(started, time.perf_counter()))
    return service, store_dir, workload_inputs, extra, published, times


def describe(workload_inputs, tables: int, rows: int, **extra) -> dict:
    return {
        "seed": workload_inputs.seed,
        "world_scale": inputs.WORLD_SCALE,
        "tables": tables,
        "rows": rows,
        "classes": list(inputs.CLASSES),
        **extra,
    }


def read_stats(outcomes: list) -> dict:
    latencies = [o.latency_ms for o in outcomes]
    summary = common.timing_summary(latencies, "ms")
    summary["late_ms"] = sum(o.late_ms for o in outcomes) / len(outcomes)
    summary["failed"] = sum(not o.ok for o in outcomes)
    summary["backlog_grew"] = loadgen.backlog_grew(outcomes)
    routes: dict = {}
    for outcome in outcomes:
        routes.setdefault(outcome.request.route, []).append(outcome.latency_ms)
    summary["by_route"] = {
        route: common.timing_summary(values, "ms") for route, values in sorted(routes.items())
    }
    return summary


def scaled_latencies(outcomes: list) -> list[float]:
    """Each read's latency in ms at the speed gauge's reference speed."""
    speed = gauge.active()
    return [
        o.latency_ms * speed.factor(o.due - GAUGE_PAD_S, o.done + GAUGE_PAD_S)
        for o in outcomes
    ]


def check_reads(outcomes: list, phase: str, version: int | None) -> int:
    """Gate: every response is 200 and parses, a point lookup returns
    the id asked for, and one phase sees one snapshot version (``None``
    skips the version check, for reads taken while refreshes publish)."""
    versions = set()
    for number, outcome in enumerate(outcomes):
        where = f"{phase}: request {number} {outcome.request.path}"
        if not outcome.ok:
            raise common.GateFailure(
                f"{where} failed: status {outcome.status} {outcome.error or ''}"
            )
        try:
            document = json.loads(outcome.body)
        except ValueError as error:
            raise common.GateFailure(f"{where}: response does not parse ({error})")
        if outcome.request.expect_id is not None:
            got = document.get("entity", {}).get("id")
            if got != outcome.request.expect_id:
                raise common.GateFailure(
                    f"{where}: asked for {outcome.request.expect_id!r}, got {got!r}"
                )
        versions.add(document.get("snapshot_version"))
    if version is not None and versions != {version}:
        raise common.GateFailure(
            f"{phase}: responses name snapshot versions {sorted(versions)}, "
            f"expected only {version}"
        )
    return len(outcomes)


def check_published(seed: int, published: list[dict], expected: dict | None) -> None:
    """Gate: the published classes equal the batch digests for the seed."""
    if expected is None:
        return
    for document in published:
        name = document["class_name"]
        if document["canonical_sha256"] != expected[name]:
            raise common.GateFailure(
                f"seed {seed}: published {name} digest "
                f"{document['canonical_sha256']} != recorded {expected[name]}"
            )


# -- serve-read ---------------------------------------------------------

def read_picker(ids: dict):
    pairs = [(name, entity) for name in inputs.CLASSES for entity in ids[name]]

    def pick(rng):
        route = rng.choice(READ_MIX)
        if route == "entity":
            name, entity = rng.choice(pairs)
            return loadgen.Request("entity", f"/entities/{name}/{entity}", entity)
        name = rng.choice(inputs.CLASSES)
        if route == "entities":
            status = rng.choice(("new", "existing"))
            offset = rng.randrange(max(1, len(ids[name]) // 4))
            return loadgen.Request(
                "entities",
                f"/entities?class={name}&status={status}&offset={offset}&limit={LIST_LIMIT}",
            )
        offset = rng.randrange(max(1, len(ids[name])))
        return loadgen.Request(
            "facts", f"/facts?class={name}&offset={offset}&limit={LIST_LIMIT}"
        )

    return pick


def list_picker():
    def pick(rng):
        name = rng.choice(inputs.CLASSES)
        if rng.random() < 0.5:
            return loadgen.Request("entities", f"/entities?class={name}&limit={LIST_LIMIT}")
        return loadgen.Request("facts", f"/facts?class={name}&limit={LIST_LIMIT}")

    return pick


def serve_read(seed: int, seconds: float, spans_file: Path | None = None,
               tamper=None) -> dict:
    traced = spans_file is not None
    work_dir = common.OUT / "serve-read"
    service, store_dir, workload_inputs, _, published, setup_times = set_up(
        seed, 1 if traced else SERVE_SETUPS, work_dir,
        lambda w: (w.tables, None), spans_file,
    )
    try:
        check_published(seed, published, batch.recorded_digests(seed))
        ids = {
            name: [e["id"] for e in service.json("GET", f"/entities?class={name}")["entities"]]
            for name in inputs.CLASSES
        }
        version = service.json("GET", "/health")["snapshot"]["version"]
        pick = read_picker(ids)
        phases: dict = {}
        attempted = 0
        windows = {}
        for label, rate, share, switch in read_phases(traced):
            if switch is not None:
                service.send(switch)
            plan = loadgen.schedule(rate, seconds * share, pick, seed * 1000 + rate)
            started = time.perf_counter()
            outcomes = loadgen.run(service.host, service.port, plan)
            windows[label] = (started, time.perf_counter())
            if tamper is not None:
                tamper(outcomes)
            attempted += check_reads(outcomes, f"serve-read {label}", version)
            phases[label] = (rate, outcomes)
        peak_rss = service.peak_rss_mb()
        metrics_doc = service.json("GET", "/metrics")
    finally:
        service.stop()
    shutil.rmtree(work_dir, ignore_errors=True)
    info = describe(
        workload_inputs, len(workload_inputs.tables), workload_inputs.rows,
        entities=sum(len(v) for v in ids.values()),
        offered_rates=list(READ_RATES),
        reference_rate=REFERENCE_RATE, read_limit_ms=READ_LIMIT_MS,
        read_mix={route: round(1 / len(READ_MIX), 3) for route in READ_MIX},
        generator_threads=loadgen.generator_threads(),
    )
    stats = {label: read_stats(outcomes) for label, (_, outcomes) in phases.items()}
    if traced:
        spans, _, summary = tracing.read_spans(spans_file)
        window = windows["traced"]
        outcomes = phases["traced"][1]
        serve = route_times(spans, window, outcomes)
        serve["rejected_jobs"] = metrics_doc["writer_queue"]["rejected_jobs"]
        values = layers.derive(
            *tracing.self_times(spans, *window), units=1,
            view_cache=(summary["view_cache_hits"], summary["view_cache_misses"]),
            serve=serve, late_ms=stats["traced"]["late_ms"],
            trace={"overhead_pct": 100.0 * (
                common.median(scaled_latencies(phases["traced"][1]))
                / common.median(scaled_latencies(phases["untraced"][1])) - 1.0
            )},
        )
        return {"workload": "serve-read", "inputs": info, "gate": {"gate": "pass"},
                "attempted": attempted, "failed": 0, "per_layer": values,
                "spans_file": str(spans_file), "phases": stats}
    by_route: dict = {}
    reference = phases[f"{REFERENCE_RATE}/s"][1]
    for outcome, latency in zip(reference, scaled_latencies(reference)):
        by_route.setdefault(outcome.request.route, []).append(latency)
    sustained = [
        rate for label, (rate, _) in phases.items()
        if label.endswith("/s") and stats[label].get("tail", float("inf")) <= READ_LIMIT_MS
        and not stats[label]["backlog_grew"]
    ]
    return {
        "workload": "serve-read",
        "inputs": info,
        "gate": {"gate": "pass", "snapshot_version": version,
                 "digest_recorded": batch.recorded_digests(seed) is not None},
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            "setup_s": setup_times,
            "peak_rss_mb": peak_rss,
            # Every route's lower quartile moves the metric by its own
            # change; the lower quartile is the latency of the reads the
            # machine slowed least (see the README).
            "op_ms": sum(common.percentile(v, 25.0) for v in by_route.values()),
        },
        "op": f"one read of each route at {REFERENCE_RATE}/s (sum of route lower quartiles)",
        "op_summary": {
            "scaled": {route: common.timing_summary(v, "ms") for route, v in sorted(by_route.items())},
            "measured": stats[f"{REFERENCE_RATE}/s"]["by_route"],
        },
        "phases": stats,
        "read_max_rps": max(sustained, default=0),
    }


def read_phases(traced: bool) -> list[tuple]:
    """``(label, rate, share of the measuring time, signal)``.

    The untraced run gives the reference rate :data:`REFERENCE_SHARE` of
    the time and shares the rest among the other rates.  The traced run reads at the reference
    rate with recording off, then on.
    """
    if traced:
        return [("untraced", REFERENCE_RATE, 0.5, signal.SIGUSR2),
                ("traced", REFERENCE_RATE, 0.5, signal.SIGUSR1)]
    share = (1.0 - REFERENCE_SHARE) / (len(READ_RATES) - 1)
    return [
        (f"{rate}/s", rate, REFERENCE_SHARE if rate == REFERENCE_RATE else share, None)
        for rate in READ_RATES
    ]


def route_times(spans, window, outcomes) -> dict:
    """Median server-side and client-side milliseconds per read route."""
    server: dict = {route: [] for route in layers.READ_ROUTES}
    for _id, _parent, _op, name, start, end in spans:
        if name.startswith("serve.request:") and window[0] <= start < window[1]:
            endpoint = name[len("serve.request:"):]
            for route, pattern in layers.READ_ROUTES.items():
                if endpoint == pattern:
                    server[route].append((end - start) * 1000.0)
    client: dict = {route: [] for route in layers.READ_ROUTES}
    for outcome in outcomes:
        client[outcome.request.route].append((outcome.done - outcome.sent) * 1000.0)
    values = {}
    for route in layers.READ_ROUTES:
        values[f"server_ms.{route}"] = common.median(server[route]) if server[route] else 0.0
        values[f"client_ms.{route}"] = common.median(client[route]) if client[route] else 0.0
    return values


# -- refresh-longtail -----------------------------------------------------

def refresh_cycles(seconds: float) -> int:
    return max(3, round(seconds / CYCLE_SECONDS))


def refresh_longtail(seed: int, seconds: float, spans_file: Path | None = None,
                     tamper=None) -> dict:
    traced = spans_file is not None
    cycles = refresh_cycles(seconds)
    work_dir = common.OUT / "refresh-longtail"

    def make_tables(workload_inputs):
        plan = inputs.refresh_plan(workload_inputs, FILLER_TABLES, cycles)
        return plan.initial, plan

    service, store_dir, workload_inputs, plan, _, setup_times = set_up(
        seed, 1 if traced else REFRESH_SETUPS, work_dir, make_tables, spans_file,
    )
    stop_reads = threading.Event()
    reads: list = []
    reader = None
    try:
        # Scheduled far past the cycles' expected length; the stream is
        # stopped when the last cycle ends.
        read_plan = loadgen.schedule(
            REFRESH_READ_RATE, cycles * CYCLE_SECONDS * 20, list_picker(), seed * 1000 + 7
        )
        reader = threading.Thread(
            target=lambda: reads.extend(
                loadgen.run(service.host, service.port, read_plan, stop=stop_reads)
            ),
            daemon=True,
        )
        reader.start()
        refresh_ms, measured_ms, traced_windows, documents = [], [], [], []
        kernel: dict = {}
        rejected = 0
        for number, tables in enumerate(plan.cycles):
            measured = not traced or number % 2 == 0
            if traced:
                service.send(signal.SIGUSR1 if measured else signal.SIGUSR2)
                before = service.json("GET", "/metrics")
            started_wall, started = time.time(), time.perf_counter()
            service.json("POST", "/ingest", {
                "tables": [inputs.table_record(t) for t in tables],
                "on_conflict": "replace",
            })
            done = service.wait_runs(service.submit_runs())
            finished = time.perf_counter()
            visible_ms = (max(d["finished_at"] for d in done) - started_wall) * 1000.0
            measured_ms.append(visible_ms)
            refresh_ms.append(visible_ms * gauge.active().factor(started, finished))
            if traced and measured:
                after = service.json("GET", "/metrics")
                traced_windows.append((started, finished))
                for name, value in after["kernel_counters"].items():
                    kernel[name] = kernel.get(name, 0) + value - before["kernel_counters"].get(name, 0)
                rejected += (after["writer_queue"]["rejected_jobs"]
                             - before["writer_queue"]["rejected_jobs"])
                for document in done:
                    document["events"] = service.run_events(document["run_id"])
                documents.extend(done)
        stop_reads.set()
        reader.join(timeout=60)
        final_runs = {d["class_name"]: d["run_id"] for d in done}
        served = {}
        for name, run_id in final_runs.items():
            status, blob = service.request("GET", f"/runs/{run_id}/canonical")
            if status != 200:
                raise common.GateFailure(f"canonical of {name} -> {status}")
            served[name] = blob
        peak_rss = service.peak_rss_mb()
    finally:
        stop_reads.set()
        if reader is not None:
            reader.join(timeout=60)
        service.stop()
    reads = [o for o in reads if o is not None]
    check_reads(reads, "refresh-longtail reads", None)
    if tamper is not None:
        served = tamper(served)
    gate = check_refresh(store_dir, served)
    shutil.rmtree(work_dir, ignore_errors=True)
    info = describe(
        workload_inputs, len(plan.initial), sum(t.n_rows for t in plan.initial),
        filler_tables=FILLER_TABLES, cycles=cycles,
        cycle_mix={"held_back": inputs.HELD_PER_CYCLE,
                   "replaced": inputs.REPLACED_PER_CYCLE,
                   "filler": inputs.FILLER_PER_CYCLE},
        offered_rates=[REFRESH_READ_RATE], generator_threads=loadgen.generator_threads(),
    )
    attempted = cycles + len(reads)
    if traced:
        return traced_refresh(spans_file, traced_windows, documents, kernel, rejected,
                              refresh_ms, reads, info, gate, attempted)
    return {
        "workload": "refresh-longtail",
        "inputs": info,
        "gate": gate,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            "setup_s": setup_times,
            "peak_rss_mb": peak_rss,
            "op_ms": common.median(refresh_ms),
        },
        "op_summary": {"scaled": common.timing_summary(refresh_ms, "ms"),
                       "measured": common.timing_summary(measured_ms, "ms")},
        "op": "one refresh cycle, ingest to all three classes visible (refresh_p50_s)",
        "phases": {"reads_under_refresh": read_stats(reads)},
    }


def check_refresh(store_dir: Path, served: dict) -> dict:
    """Gate: each class's served canonical JSON equals a from-scratch
    serial batch run over the final store state."""
    from repro.api import RunSession

    session = RunSession.from_corpus_store(
        store_dir, artifacts=False, config=common.pipeline_config()
    )
    for name in inputs.CLASSES:
        expected = session.run(name, use_cache=False).canonical_json().encode("utf-8")
        if served[name] != expected:
            raise common.GateFailure(
                f"refresh-longtail: served {name} canonical "
                f"{hashlib.sha256(served[name]).hexdigest()[:16]} differs from a "
                f"from-scratch run {hashlib.sha256(expected).hexdigest()[:16]}"
            )
    return {"gate": "pass", "classes_compared": len(inputs.CLASSES)}


def traced_refresh(spans_file, windows, documents, kernel, rejected,
                   refresh_ms, reads, info, gate, attempted) -> dict:
    spans, marks, summary = tracing.read_spans(spans_file)
    seconds_by_name: dict = {}
    calls: dict = {}
    tables_seen, table_calls, artifact_hits, chunks, chunk_seconds = set(), 0, 0, 0, 0.0
    for window in windows:
        part_seconds, part_calls = tracing.self_times(spans, *window)
        for name, value in part_seconds.items():
            seconds_by_name[name] = seconds_by_name.get(name, 0.0) + value
        for name, value in part_calls.items():
            calls[name] = calls.get(name, 0) + value
        tally = tracing.tally_marks(marks, *window)
        tables_seen |= tally.get("table", {}).get("distinct", set())
        artifact_hits += tally.get("artifact_hit", {}).get("count", 0)
        chunks += tally.get("chunk", {}).get("count", 0)
        chunk_seconds += tally.get("chunk", {}).get("sum", 0.0)
    units = len(windows)
    incremental = {
        field: sum(d.get("incremental_report", {}).get(field, 0) for d in documents)
        for field in layers.INCREMENTAL_FIELDS
    }
    serve = {
        "writer_wait_s": sum(d["started_at"] - d["submitted_at"] for d in documents) / units,
        "run_s": sum(d["finished_at"] - d["started_at"] for d in documents) / units,
        "publish_s": sum(
            event["dur"]
            for d in documents
            for event in d["events"]
            if event.get("name") == "publish" and event.get("type") == "end"
        ) / units,
        "rejected_jobs": rejected,
    }
    traced_ms = [refresh_ms[i] for i in range(0, len(refresh_ms), 2)]
    untraced_ms = [refresh_ms[i] for i in range(1, len(refresh_ms), 2)]
    values = layers.derive(
        seconds_by_name, calls, units=units, kernel=kernel,
        tables_matched=len(tables_seen),
        artifact_hits=artifact_hits, chunks=chunks, chunk_seconds=chunk_seconds,
        view_cache=(summary["view_cache_hits"], summary["view_cache_misses"]),
        incremental=incremental, serve=serve,
        late_ms=read_stats(reads)["late_ms"],
        trace={
            "overhead_pct": 100.0 * (common.median(traced_ms) / common.median(untraced_ms) - 1.0),
            "stage_crosscheck_pct": batch.stage_crosscheck(
                spans, windows, [event for d in documents for event in d["events"]]
            ),
        },
    )
    return {"workload": "refresh-longtail", "inputs": info, "gate": gate,
            "attempted": attempted, "failed": 0, "per_layer": values,
            "spans_file": str(spans_file), "traced_units": units}
