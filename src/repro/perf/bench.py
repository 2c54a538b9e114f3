"""Benchmark runners for the kernel layer and the candidate path.

These measured artifacts anchor the repo's perf trajectory, written at
the repo root so successive changes can compare against committed
baselines:

* ``BENCH_kernels.json`` — microbenchmarks of the optimized kernels
  against their kept-verbatim reference implementations (fuzzy token
  expansion, block-local pair scoring, bounded edit distance), produced
  by :func:`run_kernel_benchmarks` via ``benchmarks/bench_kernels.py``.
  Every comparison *asserts value equality* before it reports a
  speedup — a benchmark whose fast path diverges from the reference is
  a bug, not a result.
* ``BENCH_retrieval.json`` — the fast candidate path
  (``candidate_mode='fast'``) against the exact scan, produced by
  :func:`run_retrieval_benchmarks` via ``benchmarks/bench_retrieval.py``.
  Besides the speedup it records measured recall@k against the exact
  oracle, and its ``gate`` block is what admits ``candidate_mode='fast'``
  at configuration time (:mod:`repro.retrieval.gate`).

Absolute seconds move with the hardware; the ``speedup`` ratios are the
stable, machine-portable part of the trajectory and what the CI
perf-smoke gate compares (a ratio collapsing to half its committed
baseline fails the build).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.clustering.metrics import BowMetric, LabelMetric, SameTableMetric
from repro.clustering.similarity import RowSimilarity
from repro.index.inverted import InvertedIndex
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.text.levenshtein import levenshtein, levenshtein_within
from repro.text.monge_elkan import monge_elkan_symmetric
from repro.text.tokenize import normalize_label, tokenize
from repro.text.vectors import term_vector

#: Schema tags stamped into the persisted JSON documents.
KERNEL_BENCH_SCHEMA = "repro.bench.kernels/v1"
SERVE_BENCH_SCHEMA = "repro.bench.serve/v1"
RETRIEVAL_BENCH_SCHEMA = "repro.bench.retrieval/v1"

KERNEL_BENCH_FILE = "BENCH_kernels.json"
SERVE_BENCH_FILE = "BENCH_serve.json"
#: Kept in sync with :data:`repro.retrieval.gate.RETRIEVAL_BENCH_FILE`
#: (the gate reads what the benchmark writes).
RETRIEVAL_BENCH_FILE = "BENCH_retrieval.json"


class _UnmemoizedLabelMetric:
    """The pre-optimization LABEL metric, kept as the scoring baseline.

    Calls the two-directional :func:`monge_elkan_symmetric` exactly the
    way ``LabelMetric`` did before the shared token-pair memo — the
    benchmark's reference for the pair-scoring speedup claim.
    """

    name = "LABEL"

    def compute(self, a: RowRecord, b: RowRecord):
        return monge_elkan_symmetric(a.label_tokens, b.label_tokens), 1.0


def _deterministic_vocabulary(size: int) -> list[str]:
    """A vocabulary with realistic prefix skew (no RNG: stable numbers)."""
    stems = (
        "station", "garden", "branch", "record", "valley", "market",
        "bridge", "harbor", "meadow", "turner", "walker", "fisher",
    )
    vocabulary = []
    for number in range(size):
        stem = stems[number % len(stems)]
        vocabulary.append(f"{stem}{number // len(stems)}")
    return vocabulary


def _synthetic_records(n_tables: int, rows_per_table: int = 4) -> list[RowRecord]:
    """Song-like row records at corpus scale, built without a pipeline.

    Labels draw from a shared token pool with typo'd variants so the
    workload has what real web tables have: heavy token reuse across
    rows plus near-duplicate labels that blocking must bring together.
    """
    artists = [f"artist {number}" for number in range(max(1, n_tables // 5))]
    records: list[RowRecord] = []
    for table in range(n_tables):
        table_id = f"bench-{table:07d}"
        for row in range(rows_per_table):
            entity = (table * rows_per_table + row) % (n_tables * 2)
            artist = artists[(table + row) % len(artists)]
            label = f"song number {entity} by {artist}"
            if entity % 7 == 0:
                label = label.replace("number", "numbre")  # a typo'd variant
            norm = normalize_label(label)
            records.append(
                RowRecord(
                    row_id=(table_id, row),
                    table_id=table_id,
                    label=label,
                    norm_label=norm,
                    tokens=term_vector([label, artist, str(1960 + entity % 60)]),
                    values={},
                    label_tokens=tuple(tokenize(norm)),
                )
            )
    return records


def _time(callable_: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    result = callable_()
    return time.perf_counter() - started, result


def bench_fuzzy_expansion(
    vocabulary_size: int = 20_000, n_queries: int = 500
) -> dict:
    """Deletion-neighborhood fuzzy expansion vs the prefix-bucket scan."""
    vocabulary = _deterministic_vocabulary(vocabulary_size)
    index = InvertedIndex()
    for position, token in enumerate(vocabulary):
        index.add(f"doc-{position}", [token])
    # Queries mix indexed tokens and typo'd variants of them.
    queries = []
    for number in range(n_queries):
        token = vocabulary[(number * 37) % len(vocabulary)]
        if number % 2:
            position = number % max(1, len(token) - 1)
            token = token[:position] + "x" + token[position + 1 :]
        queries.append(token)

    def run_reference() -> list[frozenset[str]]:
        return [
            frozenset(index.similar_tokens_reference(query)) for query in queries
        ]

    def run_optimized() -> list[frozenset[str]]:
        return [frozenset(index.similar_tokens(query)) for query in queries]

    reference_seconds, reference_results = _time(run_reference)
    optimized_seconds, optimized_results = _time(run_optimized)
    assert optimized_results == reference_results, (
        "similar_tokens diverged from the reference prefix-bucket scan"
    )
    return {
        "kernel": "similar_tokens",
        "vocabulary": vocabulary_size,
        "queries": n_queries,
        "reference_seconds": round(reference_seconds, 4),
        "optimized_seconds": round(optimized_seconds, 4),
        "speedup": round(reference_seconds / max(optimized_seconds, 1e-9), 2),
    }


def bench_bounded_levenshtein(n_pairs: int = 30_000) -> dict:
    """``levenshtein_within(·, ·, 1)`` vs thresholding the full distance."""
    vocabulary = _deterministic_vocabulary(600)
    pairs = [
        (vocabulary[number % len(vocabulary)],
         vocabulary[(number * 13 + 1) % len(vocabulary)])
        for number in range(n_pairs)
    ]

    def run_reference() -> list[int | None]:
        out = []
        for a, b in pairs:
            distance = levenshtein(a, b)
            out.append(distance if distance <= 1 else None)
        return out

    def run_optimized() -> list[int | None]:
        return [levenshtein_within(a, b, 1) for a, b in pairs]

    reference_seconds, reference_results = _time(run_reference)
    optimized_seconds, optimized_results = _time(run_optimized)
    assert optimized_results == reference_results, (
        "levenshtein_within diverged from the thresholded reference"
    )
    return {
        "kernel": "levenshtein_within",
        "pairs": n_pairs,
        "reference_seconds": round(reference_seconds, 4),
        "optimized_seconds": round(optimized_seconds, 4),
        "speedup": round(reference_seconds / max(optimized_seconds, 1e-9), 2),
    }


def bench_pair_scoring(
    n_tables: int = 5_000, max_pairs: int = 40_000
) -> dict:
    """Block-local pair scoring: memoized kernels vs the plain bundle.

    Blocks are synthesized directly (records bucketed by shared label
    structure, the way label blocking groups near-duplicate labels) so
    the measurement isolates pair *scoring* from candidate retrieval —
    every within-block pair is scored once by both bundles.
    """
    records = _synthetic_records(n_tables)
    by_block: dict[int, list[RowRecord]] = {}
    for position, record in enumerate(records):
        by_block.setdefault(position % max(1, len(records) // 8), []).append(
            record
        )
    pairs: list[tuple[RowRecord, RowRecord]] = []
    for members in by_block.values():
        if len(pairs) >= max_pairs:
            break
        for position, record_a in enumerate(members):
            for record_b in members[position + 1 :]:
                pairs.append((record_a, record_b))
    pairs = pairs[:max_pairs]
    weights = {"LABEL": 0.6, "BOW": 0.3, "SAME_TABLE": 0.1}
    aggregator = StaticWeightedAggregator(weights, threshold=0.6)

    def score_all(metrics: Sequence) -> list[float]:
        similarity = RowSimilarity(metrics, aggregator)
        return [
            similarity.score(record_a, record_b) for record_a, record_b in pairs
        ]

    reference_seconds, reference_scores = _time(
        lambda: score_all([_UnmemoizedLabelMetric(), BowMetric(), SameTableMetric()])
    )
    optimized_seconds, optimized_scores = _time(
        lambda: score_all([LabelMetric(), BowMetric(), SameTableMetric()])
    )
    assert optimized_scores == reference_scores, (
        "memoized pair scoring diverged from the unmemoized bundle"
    )
    return {
        "kernel": "pair_scoring",
        "tables": n_tables,
        "records": len(records),
        "pairs": len(pairs),
        "reference_seconds": round(reference_seconds, 4),
        "optimized_seconds": round(optimized_seconds, 4),
        "speedup": round(reference_seconds / max(optimized_seconds, 1e-9), 2),
    }


def _retrieval_workload(
    name: str, index_labels: Sequence[str], queries: Sequence[str], k: int
) -> dict:
    """Exact scan vs fast retrieve-then-rerank on one label workload.

    Measures the shipping exact path (memoized norms) against fast mode
    on the same :class:`~repro.index.label_index.LabelIndex`, reporting
    mean recall@k of fast's top-k against exact's (which the hypothesis
    suite holds identical to ``search_reference``, the oracle).  The
    recall stage's one-off numpy build is reported separately
    (``build_seconds``) — it amortizes across every query against an
    unchanged index.
    """
    from repro.index.label_index import LabelIndex

    index = LabelIndex()
    for label in index_labels:
        index.add(label, label)

    def run_exact() -> list[list]:
        return [index.search(query, k) for query in queries]

    def run_fast() -> list[list]:
        return [index.search(query, k, mode="fast") for query in queries]

    exact_seconds, exact_results = _time(run_exact)
    # First fast query pays the posting-matrix build; measure it apart
    # so the steady-state per-query ratio is what the speedup reports.
    build_seconds, __ = _time(lambda: index.search(queries[0], k, mode="fast"))
    fast_seconds, fast_results = _time(run_fast)

    recalls = []
    for exact_matches, fast_matches in zip(exact_results, fast_results):
        if not exact_matches:
            continue
        wanted = {match.label for match in exact_matches}
        recalled = {match.label for match in fast_matches}
        recalls.append(len(wanted & recalled) / len(wanted))
    recall_at_k = sum(recalls) / len(recalls) if recalls else 1.0
    return {
        "kernel": name,
        "labels": len(index),
        "queries": len(queries),
        "k": k,
        "recall_at_k": round(recall_at_k, 4),
        "reference_seconds": round(exact_seconds, 4),
        "optimized_seconds": round(fast_seconds, 4),
        "build_seconds": round(build_seconds, 4),
        "speedup": round(exact_seconds / max(fast_seconds, 1e-9), 2),
    }


def bench_label_retrieval(
    vocabulary_size: int = 8_000, n_queries: int = 300, k: int = 10
) -> dict:
    """Fast-mode candidate generation on a stem-skewed label vocabulary.

    Multi-token labels built from a shared stem pool (heavy token reuse,
    like place/person names), queried with a mix of clean and typo'd
    forms — the blocking-shaped workload.
    """
    stems = _deterministic_vocabulary(64)
    labels = [
        f"{stems[number % 64]} {stems[(number // 64) % 64]} {number % 97}"
        for number in range(vocabulary_size)
    ]
    queries = []
    for number in range(n_queries):
        label = labels[(number * 37) % len(labels)]
        if number % 3 == 1:
            first, rest = label.split(" ", 1)
            position = number % max(1, len(first) - 1)
            label = f"{first[:position]}x{first[position + 1:]} {rest}"
        queries.append(label)
    return _retrieval_workload("label_topk", labels, queries, k)


def bench_schema_match_candidates(
    n_tables: int = 5_000, n_queries: int = 400, k: int = 10
) -> dict:
    """The schema-match retrieval kernel at corpus scale.

    Row labels of the :func:`_synthetic_records` corpus (typo'd variants
    included) queried against a KB-sized index of the clean label forms
    — the exact shape of
    :meth:`~repro.kb.knowledge_base.KnowledgeBase.candidates_by_label`
    traffic during table-to-class matching, where retrieval dominates
    the schema-match stage.
    """
    records = _synthetic_records(n_tables)
    row_labels = list(dict.fromkeys(record.norm_label for record in records))
    kb_labels = list(
        dict.fromkeys(label.replace("numbre", "number") for label in row_labels)
    )
    queries = [
        row_labels[(number * 53) % len(row_labels)] for number in range(n_queries)
    ]
    entry = _retrieval_workload("schema_match_candidates", kb_labels, queries, k)
    entry["tables"] = n_tables
    return entry


def run_retrieval_benchmarks(
    n_tables: int = 5_000,
    vocabulary_size: int = 8_000,
    n_queries: int = 400,
    k: int = 10,
    recall_floor: float | None = None,
    min_speedup: float = 2.0,
) -> dict:
    """All retrieval benchmarks plus the fast-mode admission gate.

    The ``gate`` block is what :func:`repro.retrieval.gate.
    ensure_fast_mode_allowed` reads from the committed document:
    ``recall_at_k`` is the *worst* workload's mean recall (both
    workloads must hold the floor), ``speedup`` is the corpus-scale
    schema-match workload's ratio (the PR's headline claim).
    """
    from repro.retrieval.gate import RECALL_FLOOR

    floor = RECALL_FLOOR if recall_floor is None else recall_floor
    results = [
        bench_label_retrieval(
            vocabulary_size=vocabulary_size,
            n_queries=min(n_queries, 300),
            k=k,
        ),
        bench_schema_match_candidates(
            n_tables=n_tables, n_queries=n_queries, k=k
        ),
    ]
    worst_recall = min(entry["recall_at_k"] for entry in results)
    schema_entry = results[-1]
    gate = {
        "recall_floor": floor,
        "min_speedup": min_speedup,
        "recall_at_k": worst_recall,
        "speedup": schema_entry["speedup"],
        "passed": bool(
            worst_recall >= floor and schema_entry["speedup"] >= min_speedup
        ),
    }
    return {
        "schema": RETRIEVAL_BENCH_SCHEMA,
        "python": platform.python_version(),
        "benchmarks": {entry["kernel"]: entry for entry in results},
        "gate": gate,
    }


def run_kernel_benchmarks(
    n_tables: int = 5_000,
    vocabulary_size: int = 20_000,
) -> dict:
    """All kernel benchmarks, as one persistable JSON document."""
    results = [
        bench_fuzzy_expansion(vocabulary_size=vocabulary_size),
        bench_bounded_levenshtein(),
        bench_pair_scoring(n_tables=n_tables),
    ]
    return {
        "schema": KERNEL_BENCH_SCHEMA,
        "python": platform.python_version(),
        "benchmarks": {entry["kernel"]: entry for entry in results},
    }


def serve_bench_document(
    *,
    seed: int,
    scale: float,
    store_tables: int,
    concurrency: int,
    endpoints: dict,
    republish: dict,
) -> dict:
    """The ``BENCH_serve.json`` trajectory document.

    ``endpoints`` maps route → ``{requests, requests_per_second,
    latency_ms}`` (the :func:`~repro.perf.percentiles.percentile_summary`
    shape the service's ``GET /metrics`` uses); ``republish`` carries the
    write-path measurement of one ingest → incremental run → snapshot
    swap cycle.  Absolute numbers move with the hardware — the committed
    file is a trajectory record, not a gate on its own.
    """
    return {
        "schema": SERVE_BENCH_SCHEMA,
        "python": platform.python_version(),
        "seed": seed,
        "scale": scale,
        "store_tables": store_tables,
        "concurrency": concurrency,
        "endpoints": {name: endpoints[name] for name in sorted(endpoints)},
        "republish": republish,
    }


def write_bench_file(path: str | Path, document: dict) -> Path:
    """Persist a benchmark document (stable key order, trailing newline)."""
    path = Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench_file(path: str | Path) -> dict | None:
    """Load a committed baseline, or ``None`` when absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare_with_baseline(
    current: dict, baseline: dict | None, tolerance: float = 2.0
) -> list[str]:
    """Speedup regressions of ``current`` against a committed baseline.

    Returns human-readable failure lines for every kernel whose measured
    speedup fell below ``baseline / tolerance`` — the machine-portable
    form of "more than ``tolerance``× slower than the committed
    numbers".  An empty list means the trajectory held.  A kernel run
    on a *different workload* than the committed one (scaled-down smoke
    configurations) is skipped: its ratio is not comparable.
    """
    if baseline is None:
        return []
    workload_keys = (
        "tables", "records", "pairs", "queries", "vocabulary", "labels", "k"
    )
    failures = []
    baseline_benchmarks = baseline.get("benchmarks", {})
    for kernel, entry in current.get("benchmarks", {}).items():
        committed = baseline_benchmarks.get(kernel)
        if committed is None:
            continue
        if any(
            entry.get(key) != committed.get(key) for key in workload_keys
        ):
            continue
        floor = committed["speedup"] / tolerance
        if entry["speedup"] < floor:
            failures.append(
                f"{kernel}: speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x (committed baseline "
                f"{committed['speedup']:.2f}x / tolerance {tolerance}x)"
            )
    return failures


__all__ = [
    "KERNEL_BENCH_FILE",
    "KERNEL_BENCH_SCHEMA",
    "RETRIEVAL_BENCH_FILE",
    "RETRIEVAL_BENCH_SCHEMA",
    "SERVE_BENCH_FILE",
    "SERVE_BENCH_SCHEMA",
    "bench_bounded_levenshtein",
    "bench_fuzzy_expansion",
    "bench_label_retrieval",
    "bench_pair_scoring",
    "bench_schema_match_candidates",
    "compare_with_baseline",
    "load_bench_file",
    "run_kernel_benchmarks",
    "run_retrieval_benchmarks",
    "serve_bench_document",
    "write_bench_file",
]
