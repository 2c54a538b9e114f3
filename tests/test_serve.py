"""The `repro serve` subsystem: service core, HTTP transport, client.

The load-bearing claims under test:

* **byte-equality** — `GET /runs/<id>/canonical` serves exactly the
  bytes a batch ``repro run --store`` over the same store state
  produces (the service adds no semantics of its own);
* **snapshot isolation** — concurrent readers never observe a
  partially-updated snapshot, before, during, or after ingests and
  store-served runs;
* **error contract** — malformed ingest payloads answer 400 naming the
  offending record, unknown ids answer 404, and writer-thread failures
  surface in ``GET /runs/<id>`` instead of hanging the service.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.io import save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.serve import (
    KBService,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    make_server,
)
from repro.synthesis.api import build_world
from repro.synthesis.profiles import WorldScale
from repro.webtables.table import WebTable

CLASS_NAME = "Song"

#: Tables ingested at service start; the rest arrive as deltas.
N_BASE = 16


def table_record(table: WebTable) -> dict:
    """The jsonl-style wire form `POST /ingest` accepts."""
    return {
        "table_id": table.table_id,
        "header": list(table.header),
        "rows": [list(row) for row in table.rows],
        "url": table.url,
    }


def batch_canonical(store: CorpusStore) -> str:
    """The oracle: a fresh from-scratch run over the store's current state."""
    session = RunSession.from_corpus_store(store, artifacts=False)
    result = session.run(CLASS_NAME, use_cache=False, executor="serial")
    return result.canonical_json()


@pytest.fixture(scope="module")
def song_world():
    return build_world(seed=11, scale=WorldScale(0.08), classes=[CLASS_NAME])


@pytest.fixture(scope="module")
def world_tables(song_world):
    return list(song_world.corpus)


class Served:
    """One live service + HTTP server + client over a fresh store."""

    def __init__(self, directory, world, tables):
        self.store = CorpusStore.create(directory / "store", shards=2)
        save_knowledge_base(
            # The KB is looked up by convention inside the store directory.
            world.knowledge_base,
            self.store.directory / WORLD_KB_FILE,
        )
        if tables:
            self.store.ingest(tables)
        self.service = KBService.from_store(self.store).start()
        self.server = make_server(self.service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self.client = ServiceClient(self.base_url, timeout=120)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.store.close()


@pytest.fixture(scope="module")
def served(song_world, world_tables, tmp_path_factory):
    box = Served(
        tmp_path_factory.mktemp("serve"), song_world, world_tables[:N_BASE]
    )
    yield box
    box.close()


@pytest.fixture(scope="module")
def first_run(served):
    """The first published run — shared by the read-path tests."""
    run_id = served.client.submit_run(CLASS_NAME)["run_id"]
    return served.client.wait_for_run(run_id)


class TestLifecycleEquivalence:
    """ingest → run → delta ingest → run, byte-checked at each step."""

    def test_first_run_matches_batch(self, served, first_run):
        assert first_run["status"] == "done"
        assert first_run["incremental"] is True
        assert first_run["incremental_report"] is not None
        canonical = served.client.run_canonical(first_run["run_id"])
        assert canonical == batch_canonical(served.store)
        assert (
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            == first_run["canonical_sha256"]
        )
        assert first_run["snapshot_version"] >= 1

    def test_delta_ingest_then_run_matches_batch(
        self, served, first_run, world_tables
    ):
        delta = world_tables[N_BASE : N_BASE + 4]
        report = served.client.ingest([table_record(t) for t in delta])
        assert report["report"]["inserted"] == len(delta)
        assert sorted(report["report"]["inserted_ids"]) == sorted(
            t.table_id for t in delta
        )
        assert report["tables"] == N_BASE + len(delta)

        document = served.client.wait_for_run(
            served.client.submit_run(CLASS_NAME)["run_id"]
        )
        assert document["status"] == "done"
        reuse = document["incremental_report"]
        # The delta engine recomputed only the new tables' analyses.
        assert reuse["analyses_loaded"] > 0
        assert served.client.run_canonical(
            document["run_id"]
        ) == batch_canonical(served.store)
        assert document["snapshot_version"] > first_run["snapshot_version"]

    def test_superseded_run_canonical_conflicts(self, served, first_run):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.run_canonical(first_run["run_id"])
        assert excinfo.value.status == 409
        assert "superseded" in str(excinfo.value)


class TestReadEndpoints:
    def test_health(self, served, first_run):
        health = served.client.health()
        assert health["status"] == "ok"
        assert health["writer_alive"] is True
        assert health["store"]["tables"] >= N_BASE
        assert health["snapshot"]["classes"]

    def test_entities_listing_and_paging(self, served, first_run):
        full = served.client.entities(class_name=CLASS_NAME)
        assert full["count"] == full["total"] > 0
        page = served.client.entities(
            class_name=CLASS_NAME, offset=1, limit=3
        )
        assert page["count"] == min(3, full["total"] - 1)
        assert page["entities"] == full["entities"][1:4]
        new_only = served.client.entities(
            class_name=CLASS_NAME, status="new"
        )
        assert all(e["status"] == "new" for e in new_only["entities"])

    def test_entity_roundtrip_with_facts(self, served, first_run):
        listing = served.client.entities(class_name=CLASS_NAME, limit=1)
        entity = listing["entities"][0]
        fetched = served.client.entity(CLASS_NAME, entity["id"])
        assert fetched["entity"] == entity
        facts = served.client.facts(
            class_name=CLASS_NAME, entity_id=entity["id"]
        )
        assert facts["total"] == len(entity["facts"])
        for fact in facts["facts"]:
            assert fact["entity_id"] == entity["id"]
            assert fact["provenance"], "every served fact carries provenance"
            for source in fact["provenance"]:
                assert {"table_id", "row_index", "column"} <= source.keys()

    def test_facts_property_filter(self, served, first_run):
        facts = served.client.facts(class_name=CLASS_NAME)
        assert facts["total"] > 0
        one_property = facts["facts"][0]["property"]
        filtered = served.client.facts(
            class_name=CLASS_NAME, property_name=one_property
        )
        assert 0 < filtered["total"] <= facts["total"]
        assert all(
            f["property"] == one_property for f in filtered["facts"]
        )

    def test_metrics_shape(self, served, first_run):
        metrics = served.client.metrics()
        assert metrics["runs"]["done"] >= 1
        latency = metrics["requests"]["latency_ms"]
        assert latency["count"] > 0
        assert latency["min"] <= latency["p50"] <= latency["p99"]
        assert metrics["stage_seconds"], "pipeline stage timings exposed"
        assert metrics["kernel_counters"], "kernel counters exposed"
        assert "kernel_cache" in metrics["session"]

    def test_keep_alive_requests_do_not_stall(self, served):
        # Headers and body leave in separate sends; with Nagle's
        # algorithm on, the client's delayed ACK holds the body back
        # ~40 ms on every response of a persistent connection.
        host, port = served.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            elapsed_ms = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                elapsed_ms.append((time.perf_counter() - started) * 1000.0)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(elapsed_ms) < 20.0


class TestErrorPaths:
    def test_malformed_ingest_names_the_record(self, served, world_tables):
        records = [table_record(world_tables[0])]
        records.append({"header": ["a"], "rows": [["1"]]})
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.ingest(records)
        assert excinfo.value.status == 400
        assert "body.tables[1]" in str(excinfo.value)
        assert "table_id" in str(excinfo.value)

    def test_ingest_body_must_be_object_with_tables(self, served):
        request = urllib.request.Request(
            served.base_url + "/ingest",
            data=json.dumps([1, 2]).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_ingest_rejects_non_json_body(self, served):
        request = urllib.request.Request(
            served.base_url + "/ingest",
            data=b"header,rows\n",
            headers={"Content-Type": "text/csv"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_entity_404(self, served, first_run):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.entity(CLASS_NAME, "no-such-entity")
        assert excinfo.value.status == 404
        assert "no entity" in str(excinfo.value)

    def test_unknown_class_404(self, served, first_run):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.entities(class_name="Nope")
        assert excinfo.value.status == 404

    def test_unknown_run_404(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.run("run-9999")
        assert excinfo.value.status == 404

    def test_unknown_route_404(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404

    def test_bad_status_filter_400(self, served, first_run):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.entities(class_name=CLASS_NAME, status="bogus")
        assert excinfo.value.status == 400

    def test_bad_run_submission_400(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            served.client._request(
                "POST", "/runs", payload={"class_name": ""}
            )
        assert excinfo.value.status == 400


class TestWriterFailures:
    """A run that blows up inside the writer thread must not hang."""

    def test_failure_surfaces_in_run_document(self, song_world, monkeypatch):
        session = RunSession(world=song_world)
        with KBService(session) as service:
            monkeypatch.setattr(
                service.session,
                "run",
                lambda *a, **k: (_ for _ in ()).throw(
                    RuntimeError("kernel exploded")
                ),
            )
            run_id = service.submit_run(CLASS_NAME)["run_id"]
            document = _wait(service, run_id)
            assert document["status"] == "failed"
            assert "RuntimeError" in document["error"]
            assert "kernel exploded" in document["error"]
            # The writer thread survived the failure...
            monkeypatch.undo()
            run_id = service.submit_run(CLASS_NAME)["run_id"]
            assert _wait(service, run_id)["status"] == "done"

    def test_ingest_without_store_conflicts(self, song_world):
        with KBService(RunSession(world=song_world)) as service:
            with pytest.raises(ServiceError) as excinfo:
                service.ingest_tables([])
            assert excinfo.value.status == 409

    def test_metrics_reads_race_timing_folds(self, song_world):
        # Writer-side folds grow the timing dicts while /metrics handler
        # threads read them; the lock must keep every read whole and
        # every fold counted.
        service = KBService(RunSession(world=song_world))
        n_folders, n_folds = 4, 400

        def stage_end(folder: int, fold: int) -> list[dict]:
            return [{
                "type": "end", "kind": "stage", "name": "cluster",
                "dur": 0.5,
                "attrs": {"kernels": {"shared": 1, f"k{folder}.{fold}": 1}},
            }]

        errors: list[BaseException] = []
        folding_done = threading.Event()

        def fold(folder: int) -> None:
            for number in range(n_folds):
                service._fold_timings(stage_end(folder, number))

        def read() -> None:
            try:
                while not folding_done.is_set():
                    service.metrics()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            folders = [
                threading.Thread(target=fold, args=(number,))
                for number in range(n_folders)
            ]
            for thread in readers + folders:
                thread.start()
            for thread in folders:
                thread.join(timeout=60)
            folding_done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in readers + folders)
        assert errors == []
        metrics = service.metrics()
        total = n_folders * n_folds
        assert metrics["kernel_counters"]["shared"] == total
        assert len(metrics["kernel_counters"]) == total + 1
        assert metrics["stage_seconds"] == {"cluster": total * 0.5}

    def test_submit_before_start_rejected(self, song_world):
        service = KBService(RunSession(world=song_world))
        with pytest.raises(ServiceError) as excinfo:
            service.submit_run(CLASS_NAME)
        assert excinfo.value.status == 503


def _wait(service: KBService, run_id: str, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        document = service.run_document(run_id)
        if document["status"] in ("done", "failed"):
            return document
        time.sleep(0.01)
    raise AssertionError(f"run {run_id} did not finish")


class TestSnapshotConsistency:
    """Readers racing the writer must always see internally consistent
    snapshots, and each reader's view must move monotonically forward."""

    def test_concurrent_readers_never_see_partial_snapshots(
        self, served, first_run, world_tables
    ):
        service = served.service
        stop = threading.Event()
        failures: list[str] = []
        observed: dict[int, tuple] = {}
        observed_lock = threading.Lock()

        def reader():
            last_version = -1
            while not stop.is_set():
                listing = service.list_entities(class_name=CLASS_NAME)
                version = listing["snapshot_version"]
                if version < last_version:
                    failures.append(
                        f"snapshot went backwards: {last_version}→{version}"
                    )
                    return
                last_version = version
                if listing["count"] != listing["total"]:
                    failures.append("unpaged listing count != total")
                    return
                key = (version, listing["total"])
                with observed_lock:
                    seen = observed.setdefault(version, key)
                if seen != key:
                    failures.append(
                        f"version {version} served two shapes: {seen} vs {key}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            # Churn the store and republish while the readers hammer away.
            for step, table in enumerate(world_tables[N_BASE + 4 :][:3]):
                served.client.ingest([table_record(table)])
                document = served.client.wait_for_run(
                    served.client.submit_run(CLASS_NAME)["run_id"]
                )
                assert document["status"] == "done"
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        # The final state is still byte-equal to a fresh batch rebuild.
        runs = [d for d in service.run_documents() if d["status"] == "done"]
        last = max(runs, key=lambda d: d["snapshot_version"])
        assert service.run_canonical(
            last["run_id"]
        ) == batch_canonical(served.store)


class TestRunTracing:
    """The observability surface: trace ids, live event streaming, and
    the supporting client/metrics/access-log machinery."""

    def test_trace_id_propagates_from_header_to_run(self, served):
        client = ServiceClient(served.base_url, trace_id="tr-e2e-test01")
        document = client.submit_run(CLASS_NAME)
        assert document["trace_id"] == "tr-e2e-test01"
        assert served.client.run(document["run_id"])["trace_id"] == (
            "tr-e2e-test01"
        )
        client.wait_for_run(document["run_id"])

    def test_trace_header_echoed_and_sanitized(self, served):
        request = urllib.request.Request(
            served.base_url + "/health",
            headers={"X-Repro-Trace": "tr-echo-42"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Repro-Trace"] == "tr-echo-42"
        request = urllib.request.Request(
            served.base_url + "/health",
            headers={"X-Repro-Trace": "not valid !!"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            fresh = response.headers["X-Repro-Trace"]
        assert fresh != "not valid !!" and fresh.startswith("tr-")

    def test_stream_events_follows_a_live_run(self, served):
        events = []
        status_at_first_stage = None
        # A run served from the store can finish before the reader sees
        # its first stage event; a pause at the corpus-snapshot save,
        # which every run passes after its last stage, keeps it live.
        with faults.armed("artifacts.meta_save:latency:2"):
            run_id = served.client.submit_run(CLASS_NAME)["run_id"]
            for record in served.client.stream_events(run_id):
                events.append(record)
                if (
                    status_at_first_stage is None
                    and record.get("kind") == "stage"
                ):
                    # The whole point of streaming: stage events arrive
                    # while the run document still says running, not
                    # after.
                    status_at_first_stage = served.client.run(
                        run_id
                    )["status"]
        assert status_at_first_stage in ("queued", "running")
        sequences = [record["seq"] for record in events]
        assert sequences == sorted(sequences)
        assert len(sequences) == len(set(sequences)), "no duplicates"
        names = {record.get("name") for record in events}
        assert f"service_run:{run_id}" in names
        assert "queue_wait" in names
        kinds = {record.get("kind") for record in events}
        assert {"service", "run", "pipeline", "stage"} <= kinds
        # The stream terminated because the run did.
        final = served.client.run(run_id)
        assert final["status"] == "done"

        # The persisted log replays the exact same records.
        from repro.obs import read_events

        record = served.service.run_events_record(run_id)
        assert list(read_events(record.events_path)) == events

    def test_stream_resumes_after_seq(self, served):
        document = served.client.wait_for_run(
            served.client.submit_run(CLASS_NAME)["run_id"]
        )
        run_id = document["run_id"]
        full = list(served.client.stream_events(run_id))
        cut = full[len(full) // 2]["seq"]
        tail = list(served.client.stream_events(run_id, after_seq=cut))
        assert tail == [r for r in full if r["seq"] > cut]

    def test_stream_unknown_run_404(self, served):
        with pytest.raises(ServiceClientError) as excinfo:
            list(served.client.stream_events("run-nope"))
        assert excinfo.value.status == 404

    def test_stream_heartbeats_keep_quiet_connections_alive(self, served):
        # A forged queued record that no writer will ever pick up: the
        # stream has nothing to send, so the transport emits heartbeats.
        record = served.service.runs.create(CLASS_NAME, True)
        served.service.runs.update(
            record,
            events_path=str(
                served.service._traces_dir / f"{record.run_id}.ndjson"
            ),
        )
        stream = served.client.stream_events(
            record.run_id, heartbeats=True
        )
        first = next(stream)
        stream.close()
        assert first["type"] == "heartbeat"
        assert first["ts"] > 0

    def test_wait_for_run_timeout_names_last_state(self, served):
        # Same forged never-running record: deterministic timeout.
        record = served.service.runs.create(CLASS_NAME, True)
        with pytest.raises(ServiceClientError) as excinfo:
            served.client.wait_for_run(record.run_id, timeout=0.2)
        message = str(excinfo.value)
        assert record.run_id in message
        assert "'queued'" in message

    def test_metrics_observability_fields(self, served):
        metrics = served.client.metrics()
        assert metrics["uptime_s"] > 0
        assert "uptime_seconds" not in metrics
        assert "queue_depth" not in metrics
        assert metrics["writer_queue"]["depth"] == 0
        assert metrics["snapshot_version"] >= 1

    def test_access_log_line_per_request(
        self, song_world, world_tables, tmp_path, capfd
    ):
        box = Served(tmp_path, song_world, world_tables[:4])
        try:
            box.server.access_log = True
            client = ServiceClient(box.base_url, trace_id="tr-log-1")
            client.health()
        finally:
            box.close()
        lines = [
            json.loads(line)
            for line in capfd.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        entry = next(line for line in lines if line["path"] == "/health")
        assert entry["method"] == "GET"
        assert entry["status"] == 200
        assert entry["ms"] >= 0
        assert entry["trace"] == "tr-log-1"
