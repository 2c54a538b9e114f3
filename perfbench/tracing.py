"""Span recorder for the traced run, and the wrappers that feed it.

Spans are recorded from the benchmark's own files: :func:`install`
replaces each layer's public entry points with a thin wrapper that times
the call.  The program's code is not changed.  A span records its name,
start, end, parent span and the id of the outermost span of its thread
(the operation it belongs to).  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
part of that interval covered by its child spans.

Timestamps are ``time.perf_counter()`` values, which on Linux read the
system-wide monotonic clock, so spans recorded in the service process
line up with phase boundaries taken in the benchmark process.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

#: Spans recorded from pipeline observer hooks, one per stage.
STAGE_PREFIX = "pipeline."


class SpanRecorder:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        #: Point events counted per phase: ``(time, kind, value)``.
        self.marks: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent, op = (stack[-1][0], stack[-1][1]) if stack else (0, span_id)
        stack.append((span_id, op))
        return span_id, parent, op, name, time.perf_counter()

    def end(self, opened: tuple) -> None:
        self._stack().pop()
        self.spans.append((*opened, time.perf_counter()))

    def complete(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. the service's own request time)."""
        span_id = next(self._ids)
        self.spans.append((span_id, 0, span_id, name, start, end))

    def mark(self, kind: str, value) -> None:
        self.marks.append((time.perf_counter(), kind, value))

    def wrap(self, owner, attribute: str, name: str, on_call=None) -> None:
        """Replace ``owner.attribute`` with a wrapper recording span ``name``;
        ``on_call(args, result)`` may count outcomes."""
        static = inspect.getattr_static(owner, attribute)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        original = static.__func__ if kind else static
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            opened = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(opened)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(owner, attribute, kind(wrapper) if kind else wrapper)

    def write(self, path, extra: dict | None = None) -> None:
        """Write every span as one JSON line, then an optional summary line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
            for at, kind, value in self.marks:
                handle.write(json.dumps({"mark": kind, "at": at, "value": value}) + "\n")
            if extra is not None:
                handle.write(json.dumps({"summary": extra}) + "\n")


def read_spans(path) -> tuple[list[tuple], list[tuple], dict]:
    spans, marks, summary = [], [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
            elif "mark" in record:
                marks.append((record["at"], record["mark"], record["value"]))
            else:
                spans.append(
                    (record["id"], record["parent"], record["op"],
                     record["name"], record["start"], record["end"])
                )
    return spans, marks, summary


def tally_marks(marks, start: float = float("-inf"), end: float = float("inf")) -> dict:
    """Per kind: count, sum of values and distinct values, inside a window."""
    tally: dict = {}
    for at, kind, value in marks:
        if start <= at < end:
            entry = tally.setdefault(kind, {"count": 0, "sum": 0.0, "distinct": set()})
            entry["count"] += 1
            if isinstance(value, (int, float)):
                entry["sum"] += value
            else:
                entry["distinct"].add(value)
    return tally


def self_times(spans, start: float = float("-inf"), end: float = float("inf")):
    """Total self seconds and call count per span name.

    Only spans that begin inside ``[start, end)`` count.  Children run on
    their parent's thread, so their intervals never overlap each other;
    they are merged anyway before being subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[4], span[5]))
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _parent, _op, name, begin, finish in spans:
        if not start <= begin < end:
            continue
        covered, last = 0.0, begin
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, last)
            if child_end > child_start:
                covered += child_end - child_start
                last = child_end
        seconds[name] += (finish - begin) - covered
        calls[name] += 1
    return dict(seconds), dict(calls)


def _stage_observer(recorder: SpanRecorder):
    """A pipeline + executor observer that opens one span per stage."""
    from repro.parallel import ExecutorObserver
    from repro.pipeline.stages import PipelineObserver

    class StageSpans(PipelineObserver, ExecutorObserver):
        def __init__(self) -> None:
            self.open: list = []

        def on_stage_started(self, class_name, iteration, stage_name):
            if recorder.enabled:
                self.open.append(recorder.begin(STAGE_PREFIX + stage_name))

        def on_stage_finished(self, class_name, iteration, stage_name, seconds):
            if self.open:
                recorder.end(self.open.pop())

        def on_chunk_finished(self, task_name, chunk_index, n_items, seconds):
            if recorder.enabled:
                recorder.mark("chunk", seconds)

    return StageSpans()


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points.

    Module-level functions are replaced where the calling module looked
    them up (``from x import f`` binds ``f`` in the caller).
    """
    import repro.api as api
    import repro.clustering.clusterer as clusterer
    import repro.pipeline.artifacts as artifacts
    from repro.api import RunSession
    from repro.clustering.context import RowMetricContext
    from repro.corpus.store import CorpusStore
    from repro.fusion.fuser import EntityCreator
    from repro.kb.knowledge_base import KnowledgeBase
    from repro.matching.attribute_property import AttributePropertyMatcher
    from repro.matching.table_class import TableClassMatcher
    from repro.newdetect.candidates import CandidateSelector
    from repro.newdetect.detector import NewDetector

    observer = _stage_observer(recorder)

    run = RunSession.run

    @functools.wraps(run)
    def traced_run(self, class_name, *args, **kwargs):
        if not recorder.enabled:
            return run(self, class_name, *args, **kwargs)
        kwargs["observers"] = [*kwargs.get("observers", ()), observer]
        opened = recorder.begin(f"api.run:{class_name}")
        try:
            return run(self, class_name, *args, **kwargs)
        finally:
            if observer.open:  # a stage that raised never finished
                observer.open.clear()
            recorder.end(opened)

    RunSession.run = traced_run

    def matched(args, result):
        recorder.mark("table", args[1].table_id)

    def artifact_hit(args, result):
        if result is not None:
            recorder.mark("artifact_hit", 1)

    recorder.wrap(TableClassMatcher, "match", "matching.table_class", matched)
    recorder.wrap(AttributePropertyMatcher, "match_table", "matching.attribute")
    recorder.wrap(KnowledgeBase, "candidates_by_label", "kb.candidates_by_label")
    recorder.wrap(RowMetricContext, "build", "clustering.context")
    recorder.wrap(clusterer, "build_blocks", "clustering.blocking")
    recorder.wrap(clusterer, "greedy_correlation_clustering", "clustering.greedy")
    recorder.wrap(clusterer, "klj_refine", "clustering.klj")
    recorder.wrap(EntityCreator, "create", "fusion.create")
    recorder.wrap(NewDetector, "detect", "newdetect.detect")
    recorder.wrap(CandidateSelector, "candidates", "newdetect.candidates")
    recorder.wrap(CorpusStore, "ingest", "corpus.ingest")
    recorder.wrap(CorpusStore, "get", "corpus.store_get")
    recorder.wrap(api, "corpus_state", "delta.corpus_state")
    recorder.wrap(api, "fingerprint_corpus_state", "delta.corpus_state")
    recorder.wrap(artifacts, "fingerprint_corpus_state", "delta.corpus_state")
    recorder.wrap(artifacts.ArtifactStore, "get", "artifacts.get", artifact_hit)
    recorder.wrap(artifacts.ArtifactStore, "put", "artifacts.put")
