"""Benchmark: incremental runs after a 1% corpus delta vs full rebuilds.

The scenario is the production loop the incremental engine exists for: a
corpus of ``REPRO_BENCH_CORPUS_TABLES`` (default 5 000) web tables — a
small class-relevant core inside a large long tail of unrelated tables —
absorbs a 1% batch of new tables, and the pipeline must refresh its
output.  Two claims are verified:

1. **Speedup** — the incremental run after the delta completes at least
   ``MIN_SPEEDUP``× faster than a from-scratch rebuild over the same
   corpus: unchanged tables are served from the persistent artifact
   store (analysis, attribute maps), and downstream stages whose input
   fingerprints did not move are loaded whole.
2. **Byte-equality** — the incremental result's ``canonical_json()`` is
   identical to the full rebuild's, on every run (the differential
   harness proves this property in general; the benchmark re-checks it
   at scale).
"""

from __future__ import annotations

import os
import time
from typing import Iterator

from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.io import save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.synthesis.api import build_world
from repro.synthesis.profiles import WorldScale
from repro.webtables.table import WebTable

N_TABLES = int(os.environ.get("REPRO_BENCH_CORPUS_TABLES", "5000"))

#: Fraction of the corpus arriving as the delta batch.
DELTA_FRACTION = 0.01

#: Required advantage of the incremental run over the full rebuild.  The
#: observed factor is far higher (the delta only re-analyzes 1% of the
#: tables); the gate is conservative so shared CI boxes cannot flake it.
MIN_SPEEDUP = 2.0

CLASS_NAME = "Song"


def _filler_tables(start: int, count: int) -> Iterator[WebTable]:
    """Deterministic long-tail tables that match no KB class."""
    for number in range(start, start + count):
        yield WebTable(
            table_id=f"longtail-{number:07d}",
            header=("widget", "batch", "lot", "grade"),
            rows=[
                (
                    f"widget {number} unit {row}",
                    f"batch {number % 83}",
                    str(100000 + number * 7 + row),
                    "ABCD"[row % 4],
                )
                for row in range(4)
            ],
            url=f"http://bench.example/longtail/{number}",
        )


def _timed_full_rebuild(store) -> tuple[float, str]:
    """Seconds and canonical bytes of a from-scratch run (no artifacts)."""
    session = RunSession.from_corpus_store(store, artifacts=False)
    started = time.perf_counter()
    result = session.run(CLASS_NAME, use_cache=False, executor="serial")
    return time.perf_counter() - started, result.canonical_json()


def test_one_percent_delta_beats_full_rebuild(benchmark, tmp_path):
    world = build_world(seed=11, scale=WorldScale(0.08), classes=[CLASS_NAME])
    core = list(world.corpus)
    n_filler = max(N_TABLES - len(core), 10)
    delta_size = max(int(N_TABLES * DELTA_FRACTION), 1)

    store = CorpusStore.create(tmp_path / "store", shards=4)
    store.ingest(core)
    store.ingest(_filler_tables(0, n_filler - delta_size), batch_size=512)
    save_knowledge_base(world.knowledge_base, store.directory / WORLD_KB_FILE)

    session = RunSession.from_corpus_store(store)
    base_started = time.perf_counter()
    session.run(CLASS_NAME, executor="serial")
    base_seconds = time.perf_counter() - base_started

    # The 1% delta arrives.
    report = store.ingest(
        _filler_tables(n_filler - delta_size, delta_size), batch_size=512
    )
    assert report.inserted == delta_size

    def incremental_run():
        started = time.perf_counter()
        result = session.run(CLASS_NAME, executor="serial")
        return time.perf_counter() - started, result.canonical_json()

    incremental_seconds, incremental_blob = benchmark.pedantic(
        incremental_run, rounds=1, iterations=1
    )
    reuse = session.last_incremental_report

    full_seconds, full_blob = _timed_full_rebuild(store)

    print()
    print(
        f"corpus: {len(store)} tables; delta: {delta_size} tables "
        f"({DELTA_FRACTION:.0%})"
    )
    print(
        f"baseline (cold store) run: {base_seconds:.2f}s · "
        f"incremental after delta: {incremental_seconds:.2f}s · "
        f"full rebuild: {full_seconds:.2f}s "
        f"(speedup {full_seconds / incremental_seconds:.1f}x)"
    )
    print(reuse.summary())

    # Byte-equality: served artifacts are indistinguishable from computed.
    assert incremental_blob == full_blob

    # The store actually carried the reuse: only the delta re-analyzed.
    assert reuse.analysis_computed == delta_size
    assert reuse.analysis_loaded >= (len(store) - delta_size)

    # And it paid off end to end.
    assert incremental_seconds * MIN_SPEEDUP < full_seconds, (
        f"incremental run ({incremental_seconds:.2f}s) not "
        f"{MIN_SPEEDUP}x faster than full rebuild ({full_seconds:.2f}s)"
    )
