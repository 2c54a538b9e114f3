"""Benchmark: the fast candidate path (retrieve-then-rerank recall layer).

Two claims, measured against the exact scan on the same label index:

1. **Recall** — fast mode's top-k contains the exact top-k at a mean
   recall@k of at least :data:`repro.retrieval.gate.RECALL_FLOOR` (0.95)
   on *both* workloads — a stem-skewed label vocabulary (the blocking
   shape) and the corpus-scale schema-match candidate workload.
2. **Speedup** — on the 5 000-table schema-match workload, fast mode is
   at least 2× faster than the exact scan.  On the committed workload
   it must also keep at least half the speedup recorded in
   ``BENCH_retrieval.json``.

This script is the only writer of ``BENCH_retrieval.json`` at the repo
root.  Its ``gate`` block is load-bearing: ``candidate_mode='fast'`` is
*refused* at configuration time unless the committed document's gate
passed (:func:`repro.retrieval.gate.ensure_fast_mode_allowed`) — this
benchmark is how approximation earns its flag.

``REPRO_BENCH_RETRIEVAL_TABLES`` / ``REPRO_BENCH_RETRIEVAL_LABELS`` /
``REPRO_BENCH_RETRIEVAL_QUERIES`` scale the workload
(``REPRO_BENCH_CORPUS_TABLES`` is honoured as a fallback so the smoke
profile scales every benchmark with one knob).  ``REPRO_BENCH_OUTPUT``
names where the document goes.  Without it, the committed document is
rewritten only by a run of the committed workload: a scaled-down run
writes nothing, so it cannot replace the gate document with a
measurement of another workload.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Sequence

import pytest

pytest.importorskip("numpy", reason="fast candidate generation needs numpy")

from workloads import deterministic_vocabulary, synthetic_records, timed

from repro.index.label_index import LabelIndex
from repro.retrieval.gate import RECALL_FLOOR, RETRIEVAL_BENCH_FILE

N_TABLES = int(
    os.environ.get(
        "REPRO_BENCH_RETRIEVAL_TABLES",
        os.environ.get("REPRO_BENCH_CORPUS_TABLES", "5000"),
    )
)
VOCAB = int(os.environ.get("REPRO_BENCH_RETRIEVAL_LABELS", "8000"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_RETRIEVAL_QUERIES", "400"))
K = 10
MIN_SPEEDUP = 2.0
REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / RETRIEVAL_BENCH_FILE
OUTPUT_OVERRIDE = os.environ.get("REPRO_BENCH_OUTPUT")
SCHEMA = "repro.bench.retrieval/v1"

#: The keys that define a workload: ratios are compared only between
#: runs that agree on all of them.
WORKLOAD_KEYS = ("tables", "queries", "labels", "k")


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
    index = LabelIndex()
    for label in index_labels:
        index.add(label, label)

    exact_seconds, exact_results = timed(
        lambda: [index.search(query, k) for query in queries]
    )
    # First fast query pays the posting-matrix build; measure it apart
    # so the steady-state per-query ratio is what the speedup reports.
    build_seconds, __ = timed(lambda: index.search(queries[0], k, mode="fast"))
    fast_seconds, fast_results = timed(
        lambda: [index.search(query, k, mode="fast") for query in queries]
    )

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


def bench_label_retrieval(vocabulary_size: int, n_queries: int, k: int) -> dict:
    """Fast-mode candidate generation on a stem-skewed label vocabulary.

    Multi-token labels built from a shared stem pool (heavy token reuse,
    like place/person names), queried with a mix of clean and typo'd
    forms — the blocking-shaped workload.
    """
    stems = deterministic_vocabulary(64)
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


def bench_schema_match_candidates(n_tables: int, n_queries: int, k: int) -> dict:
    """The schema-match retrieval kernel at corpus scale.

    Row labels of the synthetic corpus (typo'd variants included)
    queried against a KB-sized index of the clean label forms — the
    exact shape of
    :meth:`~repro.kb.knowledge_base.KnowledgeBase.candidates_by_label`
    traffic during table-to-class matching, where retrieval dominates
    the schema-match stage.
    """
    records = synthetic_records(n_tables)
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


def _committed_benchmarks() -> dict:
    """The committed document's per-kernel entries (empty when absent)."""
    if not COMMITTED.exists():
        return {}
    document = json.loads(COMMITTED.read_text(encoding="utf-8"))
    return document.get("benchmarks", {})


def _same_workload(entry: dict, baseline: dict | None) -> bool:
    return baseline is not None and all(
        entry.get(key) == baseline.get(key) for key in WORKLOAD_KEYS
    )


def _committed_speedup_failures(benchmarks: dict, committed: dict) -> list[str]:
    """Speedups that fell below half of the committed document's.

    A workload that differs from the committed one (the scaled-down
    smoke settings) is skipped: its ratio is not comparable.
    """
    failures = []
    for kernel, entry in benchmarks.items():
        baseline = committed.get(kernel)
        if not _same_workload(entry, baseline):
            continue
        floor = baseline["speedup"] / 2
        if entry["speedup"] < floor:
            failures.append(
                f"{kernel}: speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x (half the committed {baseline['speedup']:.2f}x)"
            )
    return failures


def test_retrieval_benchmarks_meet_gate_and_persist_trajectory():
    results = [
        bench_label_retrieval(VOCAB, min(N_QUERIES, 300), K),
        bench_schema_match_candidates(N_TABLES, N_QUERIES, K),
    ]
    benchmarks = {entry["kernel"]: entry for entry in results}
    for name, entry in benchmarks.items():
        print(
            f"\n{name}: exact {entry['reference_seconds']:.3f}s vs "
            f"fast {entry['optimized_seconds']:.3f}s "
            f"(+{entry['build_seconds']:.3f}s build) "
            f"→ {entry['speedup']:.2f}×, recall@{entry['k']} "
            f"{entry['recall_at_k']:.4f}"
        )

    for name, entry in benchmarks.items():
        assert entry["recall_at_k"] >= RECALL_FLOOR, (
            f"{name}: recall@{entry['k']} {entry['recall_at_k']:.4f} fell "
            f"below the {RECALL_FLOOR} floor — fast mode must not be admitted"
        )
    speedup = benchmarks["schema_match_candidates"]["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"schema-match candidate speedup {speedup:.2f}x fell below the "
        f"{MIN_SPEEDUP}x floor"
    )
    committed = _committed_benchmarks()
    failures = _committed_speedup_failures(benchmarks, committed)
    assert not failures, "; ".join(failures)

    # The gate block ``ensure_fast_mode_allowed`` reads: the *worst*
    # workload's recall, the corpus-scale workload's speedup.
    document = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "benchmarks": benchmarks,
        "gate": {
            "recall_floor": RECALL_FLOOR,
            "min_speedup": MIN_SPEEDUP,
            "recall_at_k": min(entry["recall_at_k"] for entry in results),
            "speedup": speedup,
            "passed": True,
        },
    }
    if OUTPUT_OVERRIDE:
        output = Path(OUTPUT_OVERRIDE)
    elif all(
        _same_workload(entry, committed.get(kernel))
        for kernel, entry in benchmarks.items()
    ):
        output = COMMITTED
    else:
        print(
            f"workload differs from {RETRIEVAL_BENCH_FILE}'s; nothing "
            "written (set REPRO_BENCH_OUTPUT to keep the document)"
        )
        return
    output.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"trajectory written to {output}")
