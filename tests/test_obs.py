"""The tracing subsystem: spans, event logs, exporters, and threading.

The load-bearing claims under test:

* **byte-neutrality** — a traced run's canonical JSON is byte-identical
  to an untraced one (the observer only reads pipeline state);
* **chunk spans** — every batch the executor dispatches lands as one
  ``chunk:<task>`` span under the stage that dispatched it, and the
  trace readers count it;
* **streaming contract** — ``tail_events`` yields each record exactly
  once, survives partial trailing lines, and terminates only after a
  read pass that ran *after* the producer flipped its terminal state.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.obs import (
    EventLog,
    Tracer,
    TracingObserver,
    new_trace_id,
    read_events,
    render_tree,
    span_index,
    tail_events,
    to_chrome_trace,
    trace_summary,
)
from repro.serve.service import sanitize_trace_id

CLASS_NAME = "Song"


# -- Tracer / EventLog mechanics ----------------------------------------
class TestTracer:
    def test_begin_end_schema(self):
        tracer = Tracer(trace_id="tr-test")
        span = tracer.begin("outer", "run", attrs={"class": CLASS_NAME})
        inner = tracer.begin("inner", "stage", parent=span.span_id)
        tracer.end(inner)
        tracer.end(span, {"status": "ok"})
        events = tracer.events()
        assert [e["type"] for e in events] == ["begin", "begin", "end", "end"]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert all(e["trace"] == "tr-test" for e in events)
        assert events[0]["parent"] is None
        assert events[1]["parent"] == span.span_id
        assert events[2]["dur"] >= 0.0
        assert events[3]["attrs"] == {"status": "ok"}

    def test_span_ids_sequential(self):
        tracer = Tracer()
        ids = [tracer.begin(f"s{i}", "stage").span_id for i in range(3)]
        assert ids == ["s0001", "s0002", "s0003"]
        assert tracer.span("retro", "chunk") == "s0004"

    def test_default_parent_adopts_orphans(self):
        tracer = Tracer()
        tracer.default_parent = "s9999"
        span = tracer.begin("adopted", "run")
        assert span.parent == "s9999"
        explicit = tracer.begin("explicit", "stage", parent=span.span_id)
        assert explicit.parent == span.span_id

    def test_retro_span_keeps_given_timing(self):
        tracer = Tracer()
        tracer.span("chunk:x", "chunk", ts=123.5, dur=0.25)
        [event] = tracer.events()
        assert event["ts"] == 123.5
        assert event["dur"] == 0.25
        assert event["type"] == "span"

    def test_point_has_no_span_id(self):
        tracer = Tracer()
        tracer.point("marker", "incremental", attrs={"n": 1})
        [event] = tracer.events()
        assert event["type"] == "point"
        assert "span" not in event

    def test_log_and_path_conflict(self):
        with pytest.raises(ValueError, match="either log= or path="):
            Tracer(EventLog(), path="/tmp/x.ndjson")

    def test_trace_id_shape(self):
        assert new_trace_id().startswith("tr-")
        assert new_trace_id() != new_trace_id()


class TestEventLogPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        tracer = Tracer(path=path, trace_id="tr-rt")
        span = tracer.begin("run", "run")
        tracer.point("mark", "note")
        tracer.end(span)
        tracer.close()
        replayed = list(read_events(path))
        assert replayed == tracer.events()

    def test_read_after_seq(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        tracer = Tracer(path=path)
        for index in range(5):
            tracer.point(f"p{index}", "note")
        tracer.close()
        tail = list(read_events(path, after_seq=3))
        assert [event["seq"] for event in tail] == [4, 5]

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text(
            json.dumps({"seq": 1, "type": "point", "name": "a"}) + "\n"
            + '{"seq": 2, "type": "poi'  # torn mid-write
        )
        events = list(read_events(path))
        assert [event["seq"] for event in events] == [1]

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text('{"seq": 1}\nnot json at all\n')
        with pytest.raises(ValueError, match="trace.ndjson:2"):
            list(read_events(path))

    def test_appends_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        tracer = Tracer(path=path)
        tracer.point("live", "note")
        # Visible to a concurrent reader before close().
        assert [event["name"] for event in read_events(path)] == ["live"]
        tracer.close()


class TestTailEvents:
    def test_follows_live_writes_and_terminates(self, tmp_path):
        path = tmp_path / "live.ndjson"
        finished = threading.Event()

        def producer():
            tracer = Tracer(path=path)
            for index in range(4):
                tracer.point(f"p{index}", "note")
                time.sleep(0.01)
            tracer.close()
            finished.set()  # terminal flip AFTER the log is complete

        thread = threading.Thread(target=producer)
        thread.start()
        seen = [
            record
            for record in tail_events(
                path, poll=0.005, done=finished.is_set, timeout=30.0
            )
            if record is not None
        ]
        thread.join()
        assert [record["seq"] for record in seen] == [1, 2, 3, 4]

    def test_yields_none_on_empty_polls(self, tmp_path):
        path = tmp_path / "missing.ndjson"
        ticks = list(tail_events(path, poll=0.001, timeout=0.02))
        assert ticks and all(tick is None for tick in ticks)

    def test_resumes_after_seq(self, tmp_path):
        path = tmp_path / "live.ndjson"
        tracer = Tracer(path=path)
        for index in range(6):
            tracer.point(f"p{index}", "note")
        tracer.close()
        seen = [
            record
            for record in tail_events(
                path, after_seq=4, done=lambda: True
            )
            if record is not None
        ]
        assert [record["seq"] for record in seen] == [5, 6]


# -- exporters ----------------------------------------------------------
def small_trace() -> Tracer:
    tracer = Tracer(trace_id="tr-small")
    run = tracer.begin("run:Song", "run")
    stage = tracer.begin("cluster", "stage", parent=run.span_id)
    tracer.point("map:score", "executor", parent=stage.span_id)
    tracer.span(
        "chunk:score", "chunk", parent=stage.span_id,
        ts=time.time(), dur=0.1, attrs={"chunk_index": 0, "n_items": 4},
    )
    tracer.end(stage, {"kernels": {"calls": 3}})
    tracer.end(run)
    return tracer


class TestExport:
    def test_span_index_merges_begin_end(self):
        spans = span_index(small_trace().events())
        assert len(spans) == 3
        stage = spans["s0002"]
        assert stage["attrs"]["kernels"] == {"calls": 3}
        assert stage["dur"] is not None

    def test_span_index_keeps_open_spans(self):
        tracer = Tracer()
        tracer.begin("crashed", "run")
        [span] = span_index(tracer.events()).values()
        assert "dur" not in span

    def test_render_tree_structure(self):
        tree = render_tree(small_trace().events())
        lines = tree.splitlines()
        assert lines[0].startswith("run:Song (run,")
        assert any("└─" in line or "├─" in line for line in lines)
        assert any("· map:score" in line for line in lines)
        assert any("kernels=" in line and "cluster" in line
                   for line in lines)

    def test_render_tree_open_span_and_empty(self):
        tracer = Tracer()
        tracer.begin("running", "run")
        assert "(run, open)" in render_tree(tracer.events())
        assert render_tree([]) == "(empty trace)"

    def test_chrome_trace_shape(self):
        document = to_chrome_trace(small_trace().events())
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["trace"] == "tr-small"
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 3 and len(instants) == 1
        # Timestamps are microseconds relative to the earliest event.
        assert min(e["ts"] for e in document["traceEvents"]) == 0
        chunk = next(e for e in complete if e["name"] == "chunk:score")
        assert chunk["args"]["n_items"] == 4

    def test_trace_summary_counts(self):
        events = small_trace().events()
        summary = trace_summary(events)
        assert summary["spans"] == 3
        assert summary["by_kind"]["chunk"] == {"count": 1, "seconds": 0.1}
        stage_end = next(
            e for e in events if e["type"] == "end" and e["kind"] == "stage"
        )
        assert summary["stage_seconds"] == {"cluster": stage_end["dur"]}
        assert summary["kernel_counters"] == {"calls": 3}


# -- chunk spans --------------------------------------------------------
class TestChunkSpans:
    def test_observer_records_a_chunk_span_under_its_parent(self):
        from repro.parallel import SerialExecutor

        tracer = Tracer(trace_id="tr-map")
        observer = TracingObserver(tracer, parent="s7777")
        executor = SerialExecutor(observers=[observer])
        before = time.time()
        results = executor.map_batches(
            lambda chunk: [value * value for value in chunk],
            list(range(24)),
            task_name="square",
        )
        assert results == [value * value for value in range(24)]
        point, chunk = tracer.events()
        assert point["type"] == "point" and point["name"] == "map:square"
        assert point["attrs"] == {"items": 24, "chunks": 1}
        assert chunk["type"] == "span" and chunk["kind"] == "chunk"
        assert chunk["name"] == "chunk:square"
        # No pipeline/stage span is open: the constructor's parent wins.
        assert chunk["parent"] == "s7777"
        assert chunk["attrs"] == {"chunk_index": 0, "n_items": 24}
        assert before <= chunk["ts"] <= chunk["ts"] + chunk["dur"]
        assert chunk["ts"] + chunk["dur"] <= time.time()

    def test_traced_run_has_one_chunk_span_per_map(
        self, tiny_world, tmp_path, capsys
    ):
        from repro import cli

        session = RunSession(world=tiny_world)
        path = tmp_path / "run.ndjson"
        session.run(CLASS_NAME, use_cache=False, trace=path)
        events = list(read_events(path))
        spans = span_index(events)
        stage_ids = {
            span_id for span_id, span in spans.items()
            if span["kind"] == "stage"
        }
        maps = [e for e in events if e["type"] == "point"
                and e["name"].startswith("map:")]
        chunks = [s for s in spans.values() if s["kind"] == "chunk"]
        # Schema matching and detection dispatch in both iterations.
        assert len(maps) >= 4
        assert sorted(c["name"] for c in chunks) == sorted(
            "chunk:" + m["name"][len("map:"):] for m in maps
        )
        for chunk in chunks:
            assert chunk["parent"] in stage_ids
            assert chunk["dur"] >= 0.0
        # Each chunk sits under the stage span that dispatched its map.
        assert sorted(c["parent"] for c in chunks) == sorted(
            m["parent"] for m in maps
        )
        summary = trace_summary(events)
        assert summary["by_kind"]["chunk"]["count"] == len(maps)
        # `repro trace --summary` reads the same spans from the log.
        capsys.readouterr()
        assert cli.main(["trace", str(path), "--summary"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["by_kind"]["chunk"] == summary["by_kind"]["chunk"]


# -- whole-pipeline tracing ---------------------------------------------
class TestTracedRuns:
    def test_traced_run_is_byte_identical(self, tiny_world, tmp_path):
        session = RunSession(world=tiny_world)
        baseline = session.run(CLASS_NAME, use_cache=False)
        path = tmp_path / "run.ndjson"
        traced = session.run(CLASS_NAME, use_cache=False, trace=path)
        assert traced.canonical_json() == baseline.canonical_json()
        events = list(read_events(path))
        assert events == session.last_trace.events()
        kinds = {event.get("kind") for event in events}
        assert {"run", "pipeline", "iteration", "stage"} <= kinds

    def test_trace_hierarchy_and_status(self, tiny_world):
        session = RunSession(world=tiny_world)
        session.run(CLASS_NAME, trace=True)
        events = session.last_trace.events()
        spans = span_index(events)
        run_span = next(
            span for span in spans.values() if span["kind"] == "run"
        )
        assert run_span["attrs"]["status"] == "ok"
        assert run_span["attrs"]["class"] == CLASS_NAME
        pipeline = next(
            span for span in spans.values() if span["kind"] == "pipeline"
        )
        assert pipeline["parent"] == run_span["span"]
        stages = [s for s in spans.values() if s["kind"] == "stage"]
        iteration_ids = {
            s["span"] for s in spans.values() if s["kind"] == "iteration"
        }
        assert stages and all(s["parent"] in iteration_ids for s in stages)
        # At least one stage carries a kernel-counter delta.
        assert any("kernels" in s.get("attrs", {}) for s in stages)

    def test_summary_of_concatenated_runs_sums(self, tiny_world):
        # Span ids restart at s0001 in every trace, so the summary of
        # several runs' concatenated events must still add up.
        session = RunSession(world=tiny_world)
        summaries, events = [], []
        for class_name in (CLASS_NAME, "Settlement"):
            session.run(class_name, use_cache=False, trace=True)
            run_events = session.last_trace.events()
            summaries.append(trace_summary(run_events))
            events.extend(run_events)
        first, second = summaries
        combined = trace_summary(events)
        assert set(combined["stage_seconds"]) == (
            set(first["stage_seconds"]) | set(second["stage_seconds"])
        )
        for name, seconds in combined["stage_seconds"].items():
            assert seconds == pytest.approx(
                first["stage_seconds"].get(name, 0.0)
                + second["stage_seconds"].get(name, 0.0)
            )
        assert first["kernel_counters"] and second["kernel_counters"]
        assert combined["kernel_counters"] == {
            name: first["kernel_counters"].get(name, 0)
            + second["kernel_counters"].get(name, 0)
            for name in (
                set(first["kernel_counters"]) | set(second["kernel_counters"])
            )
        }

    def test_error_run_closes_span_with_status(self, tiny_world):
        class BoomStage:
            name = "boom"

            def run(self, state):
                raise ValueError("boom")

        session = RunSession(world=tiny_world)
        with pytest.raises(ValueError, match="boom"):
            session.run(
                CLASS_NAME, stages=[BoomStage()], trace=True,
                use_cache=False,
            )
        events = session.last_trace.events()
        run_end = next(
            e for e in events
            if e["type"] == "end" and e["kind"] == "run"
        )
        assert run_end["attrs"]["status"] == "error"
        assert "ValueError" in run_end["attrs"]["error"]

    def test_traced_incremental_stays_byte_identical(
        self, tiny_world, tmp_path
    ):
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest(list(tiny_world.corpus))
        session = RunSession.from_corpus_store(
            store, knowledge_base=tiny_world.knowledge_base
        )
        full = session.run(CLASS_NAME, use_cache=False)
        traced = session.run(CLASS_NAME, trace=True)
        assert traced.canonical_json() == full.canonical_json()
        events = session.last_trace.events()
        run_end = next(
            e for e in events
            if e["type"] == "end" and e["kind"] == "run"
        )
        assert "stage_hits" in run_end["attrs"]
        # trace=True with an attached store lands next to the artifacts.
        logs = list(
            (session.artifact_store.directory / "traces").glob("*.ndjson")
        )
        assert logs
        store.close()

    def test_run_span_counts_its_own_artifact_traffic(
        self, tiny_world, tmp_path
    ):
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest(list(tiny_world.corpus))
        session = RunSession.from_corpus_store(
            store, knowledge_base=tiny_world.knowledge_base
        )
        artifacts = session.artifact_store

        def traced_run() -> dict:
            before = artifacts.stats()
            session.run(CLASS_NAME, trace=True)
            after = artifacts.stats()
            (run_end,) = [
                e for e in session.last_trace.events()
                if e["type"] == "end" and e["kind"] == "run"
            ]
            counts = run_end["attrs"]["artifacts"]
            assert counts["hits"] == after["hits"] - before["hits"]
            assert counts["puts"] == after["writes"] - before["writes"]
            assert counts["gets"] == counts["hits"] + (
                after["misses"] - before["misses"]
            )
            assert counts["get_s"] >= 0 and counts["put_s"] >= 0
            return counts

        cold = traced_run()
        assert cold["puts"] > 0 and cold["put_s"] > 0
        # The rerun is served from the store: its span shows only its
        # own reads, none of the first run's writes.
        warm = traced_run()
        assert warm["puts"] == 0 and warm["put_s"] == 0
        assert warm["gets"] == warm["hits"] > 0
        store.close()


# -- ingest spans -------------------------------------------------------
class TestIngestTracing:
    def test_shard_spans(self, tiny_world, tmp_path):
        tracer = Tracer()
        store = CorpusStore.create(tmp_path / "store", shards=3)
        report = store.ingest(list(tiny_world.corpus), tracer=tracer)
        spans = span_index(tracer.events())
        batch = next(
            span for span in spans.values() if span["kind"] == "ingest"
        )
        assert batch["attrs"]["inserted"] == report.inserted
        shards = [s for s in spans.values() if s["kind"] == "shard"]
        assert [s["name"] for s in shards] == [
            "shard-000", "shard-001", "shard-002"
        ]
        assert all(s["parent"] == batch["span"] for s in shards)
        assert sum(s["attrs"]["tables"] for s in shards) == report.inserted
        store.close()


# -- service helpers ----------------------------------------------------
class TestSanitizeTraceId:
    def test_wellformed_pass_through(self):
        assert sanitize_trace_id("tr-abc123") == "tr-abc123"
        assert sanitize_trace_id("A.b_c-9") == "A.b_c-9"

    @pytest.mark.parametrize("bad", [
        None, "", "-leading-dash", "has space", "x" * 65,
        "évil", "a\nb", "a;b",
    ])
    def test_malformed_regenerated(self, bad):
        produced = sanitize_trace_id(bad)
        assert produced != bad
        assert produced.startswith("tr-")
