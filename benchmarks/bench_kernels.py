"""Benchmark: the similarity-kernel optimization layer.

Three claims, each measured against the kept-verbatim reference
implementation on a fixed workload.  Value equality is asserted
*before* any timing is trusted: a fast path that diverges from its
reference is a bug, not a result.

1. **Fuzzy token expansion** — the deletion-neighborhood lookup inside
   :meth:`InvertedIndex.similar_tokens` returns exactly the
   prefix-bucket scan's result set on a 20k-token vocabulary.
2. **Bounded edit distance** — ``levenshtein_within(a, b, 1)`` equals
   thresholding the full distance.
3. **Block-local pair scoring** — the memoized LABEL kernel scores the
   within-block pairs of a 5 000-table record set identically to the
   unmemoized bundle.

Each speedup floor is the larger of the claim's original absolute floor
(3×, 1× and 2×) and half the ratio measured when the floors were set
(289.9×, 6.5× and 16.4× on Python 3.11).  Ratios are machine-portable
where absolute seconds are not.  The workload is fixed; run with
``python -m pytest benchmarks/bench_kernels.py -q -s`` (about a minute
on 2 CPUs).
"""

from __future__ import annotations

from typing import Sequence

from workloads import deterministic_vocabulary, synthetic_records, timed

from repro.clustering.metrics import BowMetric, LabelMetric, SameTableMetric
from repro.clustering.similarity import RowSimilarity
from repro.index.inverted import InvertedIndex
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.text.levenshtein import levenshtein, levenshtein_within
from repro.text.monge_elkan import monge_elkan_symmetric

FUZZY_FLOOR = 144.9
LEVENSHTEIN_FLOOR = 3.2
PAIR_SCORING_FLOOR = 8.2


class _UnmemoizedLabelMetric:
    """The pre-optimization LABEL metric, kept as the scoring baseline.

    Calls the two-directional :func:`monge_elkan_symmetric` exactly the
    way ``LabelMetric`` did before the shared token-pair memo.
    """

    name = "LABEL"

    def compute(self, a: RowRecord, b: RowRecord):
        return monge_elkan_symmetric(a.label_tokens, b.label_tokens), 1.0


def _speedup(kernel: str, run_reference, run_optimized) -> float:
    """Time both paths, assert they agree, return reference/optimized."""
    reference_seconds, expected = timed(run_reference)
    optimized_seconds, actual = timed(run_optimized)
    assert actual == expected, f"{kernel} diverged from its reference"
    speedup = reference_seconds / max(optimized_seconds, 1e-9)
    print(
        f"\n{kernel}: reference {reference_seconds:.3f}s vs "
        f"optimized {optimized_seconds:.3f}s → {speedup:.2f}×"
    )
    return speedup


def test_fuzzy_expansion_speedup():
    """Deletion-neighborhood fuzzy expansion vs the prefix-bucket scan."""
    vocabulary = deterministic_vocabulary(20_000)
    index = InvertedIndex()
    for position, token in enumerate(vocabulary):
        index.add(f"doc-{position}", [token])
    # Queries mix indexed tokens and typo'd variants of them.
    queries = []
    for number in range(500):
        token = vocabulary[(number * 37) % len(vocabulary)]
        if number % 2:
            position = number % max(1, len(token) - 1)
            token = token[:position] + "x" + token[position + 1 :]
        queries.append(token)

    speedup = _speedup(
        "similar_tokens",
        lambda: [
            frozenset(index.similar_tokens_reference(query)) for query in queries
        ],
        lambda: [frozenset(index.similar_tokens(query)) for query in queries],
    )
    assert speedup >= FUZZY_FLOOR, (
        f"fuzzy expansion speedup {speedup:.2f}x fell below {FUZZY_FLOOR}x"
    )


def test_bounded_levenshtein_speedup():
    """``levenshtein_within(·, ·, 1)`` vs thresholding the full distance."""
    vocabulary = deterministic_vocabulary(600)
    pairs = [
        (vocabulary[number % len(vocabulary)],
         vocabulary[(number * 13 + 1) % len(vocabulary)])
        for number in range(30_000)
    ]

    def run_reference() -> list[int | None]:
        out = []
        for a, b in pairs:
            distance = levenshtein(a, b)
            out.append(distance if distance <= 1 else None)
        return out

    speedup = _speedup(
        "levenshtein_within",
        run_reference,
        lambda: [levenshtein_within(a, b, 1) for a, b in pairs],
    )
    assert speedup >= LEVENSHTEIN_FLOOR, (
        f"bounded levenshtein speedup {speedup:.2f}x fell below "
        f"{LEVENSHTEIN_FLOOR}x"
    )


def test_pair_scoring_speedup():
    """Block-local pair scoring: memoized kernels vs the plain bundle.

    Blocks are synthesized directly (records bucketed by shared label
    structure, the way label blocking groups near-duplicate labels) so
    the measurement isolates pair *scoring* from candidate retrieval —
    every within-block pair is scored once by both bundles.
    """
    max_pairs = 40_000
    records = synthetic_records(5_000)
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
    aggregator = StaticWeightedAggregator(
        {"LABEL": 0.6, "BOW": 0.3, "SAME_TABLE": 0.1}, threshold=0.6
    )

    def score_all(metrics: Sequence) -> list[float]:
        similarity = RowSimilarity(metrics, aggregator)
        return [
            similarity.score(record_a, record_b) for record_a, record_b in pairs
        ]

    speedup = _speedup(
        "pair_scoring",
        lambda: score_all(
            [_UnmemoizedLabelMetric(), BowMetric(), SameTableMetric()]
        ),
        lambda: score_all([LabelMetric(), BowMetric(), SameTableMetric()]),
    )
    assert speedup >= PAIR_SCORING_FLOOR, (
        f"block-local pair scoring speedup {speedup:.2f}x fell below "
        f"{PAIR_SCORING_FLOOR}x"
    )
