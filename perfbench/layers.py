"""Per-layer metrics of the traced run, derived from spans and counters.

Every workload prints every name in :data:`NAMES`; a layer a workload
does not exercise reads 0.  Times are self seconds and calls are counts,
both per work unit of the traced timed part: one three-class pass on
``batch-core``, one refresh cycle on ``refresh-longtail``, and the whole
read phase on ``serve-read``.  Ratios and per-request milliseconds are
not divided.
"""

from __future__ import annotations

from inputs import CLASSES

#: Spans whose self time is reported as ``<name>_s``.
SPAN_METRICS = (
    "pipeline.schema_match",
    "pipeline.cluster",
    "pipeline.fuse",
    "pipeline.detect",
    "matching.table_class",
    "matching.attribute",
    "kb.candidates_by_label",
    "clustering.context",
    "clustering.blocking",
    "clustering.greedy",
    "clustering.klj",
    "fusion.create",
    "newdetect.detect",
    "newdetect.candidates",
    "corpus.ingest",
    "corpus.store_get",
    "delta.corpus_state",
    "artifacts.get",
    "artifacts.put",
)
#: Spans whose call count is reported as ``<name>_calls``.
CALL_METRICS = (
    "matching.table_class",
    "kb.candidates_by_label",
    "newdetect.candidates",
    "artifacts.get",
    "artifacts.put",
)
#: Every counter the exact candidate path bumps (``repro.perf.counters``).
KERNEL_COUNTERS = (
    "blocking.label_cache_hits",
    "blocking.label_searches",
    "label_index.norm_computed",
    "label_index.norm_memo_hits",
    "levenshtein_within.affix_exit",
    "levenshtein_within.band_computed",
    "levenshtein_within.band_exceeded",
    "levenshtein_within.exact_equal",
    "levenshtein_within.length_gap_exit",
    "levenshtein_within.zero_threshold_exit",
    "monge_elkan.pair_memo_hits",
    "monge_elkan.pair_memo_misses",
    "parallel_sim.pairs_precomputed",
    "similar_tokens.bucket_scans",
    "similar_tokens.delete_candidates",
    "similar_tokens.delete_lookups",
)
INCREMENTAL_FIELDS = (
    "stage_hits",
    "stage_misses",
    "analyses_loaded",
    "analyses_computed",
    "entities_loaded",
    "entities_computed",
)
READ_ROUTES = {
    "entity": "GET /entities/<class>/<id>",
    "entities": "GET /entities",
    "facts": "GET /facts",
}

UNITS: dict[str, str] = {}
for _class in CLASSES:
    UNITS[f"api.run_s.{_class}"] = "s"
for _stem in SPAN_METRICS:
    UNITS[f"{_stem}_s"] = "s"
for _stem in CALL_METRICS:
    UNITS[f"{_stem}_calls"] = "count"
UNITS["matching.analyses_per_table"] = "ratio"
for _counter in KERNEL_COUNTERS:
    UNITS[f"kernel.{_counter}"] = "count"
UNITS["kernel.monge_elkan.memo_hit_ratio"] = "ratio"
UNITS["kernel.blocking.label_cache_hit_ratio"] = "ratio"
UNITS["parallel.chunks"] = "count"
UNITS["parallel.chunk_s"] = "s"
UNITS["corpus.view_cache_hit_ratio"] = "ratio"
UNITS["artifacts.hit_ratio"] = "ratio"
for _field in INCREMENTAL_FIELDS:
    UNITS[f"incremental.{_field}"] = "count"
UNITS["serve.writer_wait_s"] = "s"
UNITS["serve.run_s"] = "s"
UNITS["serve.publish_s"] = "s"
for _route in READ_ROUTES:
    UNITS[f"serve.server_ms.{_route}"] = "ms"
    UNITS[f"serve.client_ms.{_route}"] = "ms"
UNITS["serve.rejected_jobs"] = "count"
UNITS["loadgen.late_ms"] = "ms"
UNITS["trace.overhead_pct"] = "%"
UNITS["trace.unaccounted_pct"] = "%"
UNITS["trace.stage_crosscheck_pct"] = "%"
NAMES = tuple(UNITS)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def derive(
    seconds: dict,
    calls: dict,
    *,
    units: int,
    kernel: dict | None = None,
    tables_matched: int = 0,
    artifact_hits: int = 0,
    chunks: int = 0,
    chunk_seconds: float = 0.0,
    view_cache: tuple[int, int] = (0, 0),
    incremental: dict | None = None,
    serve: dict | None = None,
    late_ms: float = 0.0,
    trace: dict | None = None,
) -> dict[str, float]:
    """All per-layer metrics; ``seconds``/``calls`` come from
    :func:`tracing.self_times` over the traced timed part."""
    per = 1.0 / max(1, units)
    values = {name: 0.0 for name in NAMES}
    for class_name in CLASSES:
        values[f"api.run_s.{class_name}"] = seconds.get(f"api.run:{class_name}", 0.0) * per
    for stem in SPAN_METRICS:
        values[f"{stem}_s"] = seconds.get(stem, 0.0) * per
    for stem in CALL_METRICS:
        values[f"{stem}_calls"] = calls.get(stem, 0) * per
    values["matching.analyses_per_table"] = _ratio(
        calls.get("matching.table_class", 0), tables_matched
    )
    kernel = kernel or {}
    for counter in KERNEL_COUNTERS:
        values[f"kernel.{counter}"] = kernel.get(counter, 0) * per
    values["kernel.monge_elkan.memo_hit_ratio"] = _ratio(
        kernel.get("monge_elkan.pair_memo_hits", 0),
        kernel.get("monge_elkan.pair_memo_hits", 0)
        + kernel.get("monge_elkan.pair_memo_misses", 0),
    )
    values["kernel.blocking.label_cache_hit_ratio"] = _ratio(
        kernel.get("blocking.label_cache_hits", 0),
        kernel.get("blocking.label_cache_hits", 0)
        + kernel.get("blocking.label_searches", 0),
    )
    values["parallel.chunks"] = chunks * per
    values["parallel.chunk_s"] = chunk_seconds * per
    values["corpus.view_cache_hit_ratio"] = _ratio(view_cache[0], sum(view_cache))
    values["artifacts.hit_ratio"] = _ratio(artifact_hits, calls.get("artifacts.get", 0))
    for field, value in (incremental or {}).items():
        values[f"incremental.{field}"] = value * per
    for name, value in (serve or {}).items():
        values[f"serve.{name}"] = value
    values["loadgen.late_ms"] = late_ms
    for name, value in (trace or {}).items():
        values[f"trace.{name}"] = value
    unknown = set(values) - set(NAMES)
    if unknown:
        raise ValueError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values
