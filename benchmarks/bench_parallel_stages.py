"""Benchmark: the parallel execution engine on the pipeline hot paths.

Two claims are verified on a generated corpus of
``REPRO_BENCH_CORPUS_TABLES`` (default 5 000) song-like web tables:

1. **Determinism** — serial and ``ProcessExecutor(workers=4)`` runs of
   per-table schema matching produce identical mappings, and serial and
   parallel clustering produce identical clusters.  This is asserted
   unconditionally, on every machine.
2. **Speedup** — the process-pool run is ≥ ``REPRO_BENCH_MIN_SPEEDUP``
   (default 1.5×) faster than the serial run.  Wall-clock speedup needs
   hardware: the assertion arms only when the machine exposes *more*
   CPUs than the pool uses (``REPRO_BENCH_REQUIRE_SPEEDUP=1`` forces it
   on, ``=0`` off); the measured ratio is always printed.
"""

from __future__ import annotations

import os
import time
from typing import Iterator

from repro.clustering.clusterer import RowClusterer
from repro.clustering.metrics import BowMetric, LabelMetric
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import build_row_records
from repro.matching.schema_matcher import SchemaMatcher
from repro.ml.aggregation import StaticWeightedAggregator
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.webtables import TableCorpus, WebTable

N_TABLES = int(os.environ.get("REPRO_BENCH_CORPUS_TABLES", "5000"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.5"))


def _speedup_required() -> bool:
    flag = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP")
    if flag is not None:
        return flag == "1"
    # Strictly more CPUs than workers: an exactly-4-vCPU shared CI
    # runner oversubscribes the pool and measures noise, not capacity.
    return (os.cpu_count() or 1) > WORKERS


def synthetic_tables(count: int) -> Iterator[WebTable]:
    """A deterministic stream of small song-like tables."""
    for number in range(count):
        yield WebTable(
            table_id=f"synth-{number:07d}",
            header=("name", "artist", "year", "length"),
            rows=[
                (
                    f"song {number} take {row}",
                    f"artist {number % 997}",
                    str(1960 + (number + row) % 60),
                    f"{2 + row}:{number % 60:02d}",
                )
                for row in range(4)
            ],
            url=f"http://bench.example/tables/{number}",
        )


def canonical_mapping(mapping) -> list:
    return [
        (
            table_id,
            table_mapping.class_name,
            table_mapping.class_score,
            table_mapping.label_column,
            sorted(
                (column, link.property_name, link.score)
                for column, link in table_mapping.attributes.items()
            ),
        )
        for table_id, table_mapping in sorted(mapping.by_table.items())
    ]


def _report(label: str, serial_seconds: float, parallel_seconds: float) -> float:
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    print()
    print(
        f"{label}: serial {serial_seconds:.2f}s vs "
        f"process×{WORKERS} {parallel_seconds:.2f}s "
        f"→ {speedup:.2f}× ({os.cpu_count()} CPUs visible)"
    )
    return speedup


def test_parallel_schema_matching_speedup_and_equality(env, benchmark):
    """Per-table correspondence scoring: identical output, pooled speedup."""
    kb = env.world.knowledge_base
    corpus = TableCorpus(list(synthetic_tables(N_TABLES)))

    started = time.perf_counter()
    serial_mapping = SchemaMatcher(kb).match_corpus(corpus)
    serial_seconds = time.perf_counter() - started

    with ProcessExecutor(WORKERS) as executor:
        def parallel_run():
            return SchemaMatcher(kb, executor=executor).match_corpus(corpus)

        started = time.perf_counter()
        parallel_mapping = benchmark.pedantic(
            parallel_run, rounds=1, iterations=1
        )
        parallel_seconds = time.perf_counter() - started

    assert canonical_mapping(parallel_mapping) == canonical_mapping(
        serial_mapping
    ), "parallel schema matching diverged from serial"
    speedup = _report("schema matching", serial_seconds, parallel_seconds)
    if _speedup_required():
        assert speedup >= MIN_SPEEDUP, (
            f"ProcessExecutor(workers={WORKERS}) speedup {speedup:.2f}× "
            f"below the {MIN_SPEEDUP}× bar on {os.cpu_count()} CPUs"
        )


def test_parallel_clustering_equality(env):
    """Block-local similarity precompute changes nothing but wall clock."""
    kb = env.world.knowledge_base
    # A table subset keeps the quadratic clustering portion benchmark-sized.
    corpus = TableCorpus(list(synthetic_tables(max(200, N_TABLES // 25))))
    mapping = SchemaMatcher(kb).match_corpus(corpus)

    def cluster(executor):
        records = build_row_records(corpus, mapping, "Song")
        similarity = RowSimilarity(
            [LabelMetric(), BowMetric()],
            StaticWeightedAggregator({"LABEL": 0.7, "BOW": 0.3}, threshold=0.6),
        )
        clusterer = RowClusterer(similarity, executor=executor)
        return sorted(
            sorted(cluster.row_ids()) for cluster in clusterer.cluster(records)
        )

    started = time.perf_counter()
    serial_clusters = cluster(SerialExecutor())
    serial_seconds = time.perf_counter() - started

    with ProcessExecutor(WORKERS) as executor:
        started = time.perf_counter()
        parallel_clusters = cluster(executor)
        parallel_seconds = time.perf_counter() - started

    assert parallel_clusters == serial_clusters, (
        "parallel clustering diverged from serial"
    )
    _report("block-local clustering", serial_seconds, parallel_seconds)
