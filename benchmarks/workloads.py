"""Deterministic synthetic workloads, and the timer, shared by the
kernel and retrieval benchmarks.

No RNG anywhere: the same arguments always build the same inputs, so a
measured ratio can be compared against a committed one.  Not collected
by pytest (``pytest.ini`` collects ``bench_*.py`` only).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.matching.records import RowRecord
from repro.text.tokenize import normalize_label, tokenize
from repro.text.vectors import term_vector


def deterministic_vocabulary(size: int) -> list[str]:
    """A vocabulary with realistic prefix skew."""
    stems = (
        "station", "garden", "branch", "record", "valley", "market",
        "bridge", "harbor", "meadow", "turner", "walker", "fisher",
    )
    vocabulary = []
    for number in range(size):
        stem = stems[number % len(stems)]
        vocabulary.append(f"{stem}{number // len(stems)}")
    return vocabulary


def synthetic_records(n_tables: int, rows_per_table: int = 4) -> list[RowRecord]:
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


def timed(callable_: Callable[[], object]) -> tuple[float, object]:
    """Seconds one call takes, and its result."""
    started = time.perf_counter()
    result = callable_()
    return time.perf_counter() - started, result
