"""Workload ``batch-core``: the paper's three-class extraction, in process.

Set-up builds the inputs (world + table draw) several times and keeps
the median.  After one untimed warm-up pass, timed passes run until the
measuring time is up; each pass is a fresh :class:`RunSession` running
``run_many`` over the three classes.  Every pass starts cold: its
knowledge base is loaded from the file set-up saved, outside the timed
part, so the label index, the label-search cache and the blocking
label cache keyed on the knowledge base are built inside each pass.  No
store and no HTTP are involved.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from pathlib import Path

import common
import gauge
import inputs
import layers
import tracing

SETUPS = 5
MIN_PASSES = 2
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
KB_FILE = common.OUT / "batch-core" / "knowledge_base.json"
#: Largest share of a traced pass outside every ``pipeline.*`` stage
#: span; more than this fails the traced run, because the stage
#: breakdown would then not account for ``batch_s``.
UNACCOUNTED_TOLERANCE_PCT = 5.0


def recorded_digests(seed: int) -> dict | None:
    """The canonical-JSON SHA-256 per class recorded for this seed."""
    document = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    if document["inputs_version"] != inputs.INPUTS_VERSION:
        return None
    return document["digests"].get(str(seed))


def canonical_digests(results: dict) -> dict:
    return {
        name: hashlib.sha256(result.canonical_json().encode("utf-8")).hexdigest()
        for name, result in results.items()
    }


def one_pass(workload_inputs, trace=None) -> tuple[tuple[float, float], dict]:
    """One timed three-class pass: its ``(start, end)`` and its digests."""
    from repro.api import RunSession
    from repro.io.serialize import load_knowledge_base
    from repro.webtables.corpus import TableCorpus

    session = RunSession(
        knowledge_base=load_knowledge_base(KB_FILE),
        corpus=TableCorpus(workload_inputs.tables),
        config=common.pipeline_config(),
    )
    extra = {} if trace is None else {"trace": trace}
    # Every pass starts from an empty collector, so garbage left by the
    # previous pass (or set-up) is not collected on this pass's clock.
    gc.collect()
    started = time.perf_counter()
    results = session.run_many(inputs.CLASSES, **extra)
    return (started, time.perf_counter()), canonical_digests(results)


def check_digests(seed: int, reference: dict, passes: list[dict],
                  expected: dict | None) -> dict:
    """Gate: every pass agrees with the warm-up, which matches the record."""
    for number, digests in enumerate(passes, 1):
        if digests != reference:
            raise common.GateFailure(
                f"batch-core seed {seed}: pass {number} output differs from "
                f"the warm-up pass: {digests} != {reference}"
            )
    if expected is not None and expected != reference:
        raise common.GateFailure(
            f"batch-core seed {seed}: canonical digests {reference} differ "
            f"from the recorded {expected}"
        )
    return {
        "gate": "pass",
        "digest_recorded": expected is not None,
        "passes_compared": len(passes) + 1,
    }


def setup(seed: int) -> tuple[object, list[float]]:
    """Timed builds of the inputs (seconds at the gauge's reference
    speed); then, untimed, the knowledge base is saved to
    :data:`KB_FILE`, from which every pass loads a cold copy."""
    from repro.io.serialize import save_knowledge_base

    times = []
    for _ in range(SETUPS):
        workload_inputs = None  # the previous build is garbage before the next
        gc.collect()
        started = time.perf_counter()
        workload_inputs = inputs.build_inputs(seed)
        times.append(gauge.active().scaled(started, time.perf_counter()))
    KB_FILE.parent.mkdir(parents=True, exist_ok=True)
    save_knowledge_base(workload_inputs.knowledge_base, KB_FILE)
    workload_inputs.knowledge_base = None
    return workload_inputs, times


def describe(workload_inputs) -> dict:
    return {
        "seed": workload_inputs.seed,
        "world_scale": inputs.WORLD_SCALE,
        "tables": len(workload_inputs.tables),
        "rows": workload_inputs.rows,
        "classes": list(inputs.CLASSES),
    }


def run(seed: int, seconds: float, expected_override: dict | None = None) -> dict:
    workload_inputs, setup_times = setup(seed)
    _, reference = one_pass(workload_inputs)
    windows, pass_digests = [], []
    started = time.perf_counter()
    while len(windows) < MIN_PASSES or time.perf_counter() - started < seconds:
        window, digests = one_pass(workload_inputs)
        windows.append(window)
        pass_digests.append(digests)
    measured_ms = [(end - start) * 1000.0 for start, end in windows]
    pass_ms = [gauge.active().scaled(*window) * 1000.0 for window in windows]
    expected = expected_override or recorded_digests(seed)
    gate = check_digests(seed, reference, pass_digests, expected)
    return {
        "workload": "batch-core",
        "inputs": describe(workload_inputs),
        "gate": gate,
        "attempted": len(windows) * len(inputs.CLASSES),
        "failed": 0,
        "metrics": {
            "setup_s": setup_times,
            "peak_rss_mb": common.self_peak_rss_mb(),
            "op_ms": common.median(pass_ms),
        },
        "op_summary": {"scaled": common.timing_summary(pass_ms, "ms"),
                       "measured": common.timing_summary(measured_ms, "ms")},
        "op": "one three-class pass (batch_s), median",
    }


def run_traced(seed: int, seconds: float, spans_file: Path) -> dict:
    from repro.obs import Tracer
    from repro.perf.counters import counter_delta, kernel_counters

    recorder = tracing.SpanRecorder(enabled=False)
    tracing.install(recorder)
    workload_inputs, _ = setup(seed)
    _, reference = one_pass(workload_inputs)
    half = seconds / 2.0
    untraced = []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < half:
        (start, end), digests = one_pass(workload_inputs)
        untraced.append(gauge.active().scaled(start, end))
        check_digests(seed, reference, [digests], None)
    recorder.enabled = True
    traced, traced_scaled, windows, crosscheck = [], [], [], []
    baseline = kernel_counters()
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < half:
        program_trace = Tracer()
        window_start = time.perf_counter()
        (start, end), digests = one_pass(workload_inputs, trace=program_trace)
        windows.append((window_start, time.perf_counter()))
        traced.append(end - start)
        traced_scaled.append(gauge.active().scaled(start, end))
        check_digests(seed, reference, [digests], None)
        crosscheck.append(
            stage_crosscheck(recorder.spans, windows[-1:], program_trace.events())
        )
    recorder.enabled = False
    kernel = counter_delta(baseline)
    window = (windows[0][0], windows[-1][1])
    seconds_by_name, calls = tracing.self_times(recorder.spans, *window)
    marks = tracing.tally_marks(recorder.marks, *window)
    recorder.write(spans_file)
    unaccounted = 100.0 * (1.0 - stage_seconds(recorder.spans, *window) / sum(traced))
    if unaccounted > UNACCOUNTED_TOLERANCE_PCT:
        raise common.GateFailure(
            f"{unaccounted:.1f}% of the traced passes lies outside every stage "
            f"span (tolerance {UNACCOUNTED_TOLERANCE_PCT}%): the stage "
            f"breakdown does not account for batch_s"
        )
    values = layers.derive(
        seconds_by_name,
        calls,
        units=len(traced),
        kernel=kernel,
        tables_matched=len(marks.get("table", {}).get("distinct", ())) * len(traced),
        artifact_hits=marks.get("artifact_hit", {}).get("count", 0),
        chunks=marks.get("chunk", {}).get("count", 0),
        chunk_seconds=marks.get("chunk", {}).get("sum", 0.0),
        trace={
            "overhead_pct": 100.0 * (common.median(traced_scaled) / common.median(untraced) - 1.0),
            "unaccounted_pct": unaccounted,
            "stage_crosscheck_pct": max(crosscheck),
        },
    )
    return {
        "workload": "batch-core",
        "inputs": describe(workload_inputs),
        "gate": {"gate": "pass", "passes_compared": len(traced) + len(untraced) + 1},
        "attempted": (len(traced) + len(untraced)) * len(inputs.CLASSES),
        "failed": 0,
        "per_layer": values,
        "spans_file": str(spans_file),
        "traced_units": len(traced),
    }


def stage_seconds(spans, start: float, end: float) -> float:
    """Wall time covered by ``pipeline.*`` stage spans, descendants
    included, among spans starting inside ``[start, end)``."""
    return sum(
        finish - begin
        for _id, _parent, _op, name, begin, finish in spans
        if name.startswith(tracing.STAGE_PREFIX) and start <= begin < end
    )


def stage_crosscheck(spans, windows, events) -> float:
    """Largest gap, in percent, between a stage's total time from the
    benchmark's spans (those starting inside ``windows``) and from the
    program's own run ``events``."""
    mine: dict = {}
    for _id, _parent, _op, name, start, end in spans:
        if name.startswith(tracing.STAGE_PREFIX) and any(
            low <= start < high for low, high in windows
        ):
            stage = name[len(tracing.STAGE_PREFIX):]
            mine[stage] = mine.get(stage, 0.0) + (end - start)
    theirs: dict = {}
    for event in events:
        if event.get("kind") == "stage" and event.get("type") == "end":
            theirs[event["name"]] = theirs.get(event["name"], 0.0) + event["dur"]
    if set(mine) != set(theirs):
        raise common.GateFailure(
            f"stage spans {sorted(mine)} do not match run events {sorted(theirs)}"
        )
    return max(
        100.0 * abs(mine[stage] - theirs[stage]) / max(theirs[stage], 1e-9)
        for stage in theirs
    )
