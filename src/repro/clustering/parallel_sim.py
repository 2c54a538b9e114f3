"""Parallel block-local pairwise similarity precomputation.

The greedy clusterer and KLj spend almost all of their time in
:meth:`~repro.clustering.similarity.RowSimilarity.score` calls, and the
blocking scheme guarantees that the overwhelming majority of scored
pairs share at least one block.  This module computes all within-block
pair similarities up front through an
:class:`~repro.parallel.Executor` and seeds the similarity cache with
them, so the (order-dependent, hence serial) clustering algorithms run
against a warm cache.

Determinism contract: workers compute scores with the same metric
bundle, metric order and aggregator as the serial path, so every cache
entry equals what the lazy computation would have produced — parallel
runs make exactly the same clustering decisions as serial runs.  Pairs
that only meet through transitive cluster growth (no shared block) are
simply cache misses and are computed lazily, as before.

Each pair is scored in exactly one worker: the one handling the
lexicographically smallest block the two rows share.
"""

from __future__ import annotations

from typing import Sequence

from repro.clustering.metrics import RowMetric
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import RowRecord
from repro.ml.aggregation import ScoreAggregator
from repro.parallel import Executor
from repro.perf.counters import bump
from repro.webtables.table import RowId

#: One worker item: a block key plus its member records, each carrying
#: its own full (sorted) block-key tuple for pair deduplication.
_BlockItem = tuple[str, tuple[tuple[RowRecord, tuple[str, ...]], ...]]


class _BlockPairScorer:
    """Picklable batch function scoring all pairs owned by each block.

    Holds only the metric bundle and the fitted aggregator — both plain
    picklable objects — so queue workers can run it; purity follows from
    the metrics being functions of the two records and read-only context.
    Workers score through a chunk-local :class:`RowSimilarity` built
    from the same bundle, so preloaded cache entries are computed by the
    *same code path* the lazy serial fallback uses — bit-identical by
    construction, and immune to future edits of the scoring logic.
    """

    def __init__(
        self, metrics: Sequence[RowMetric], aggregator: ScoreAggregator
    ) -> None:
        self.metrics = list(metrics)
        self.aggregator = aggregator

    def __call__(
        self, items: list[_BlockItem]
    ) -> list[dict[tuple[RowId, RowId], float]]:
        similarity = RowSimilarity(self.metrics, self.aggregator)
        results = []
        for block_key, members in items:
            scores: dict[tuple[RowId, RowId], float] = {}
            for position, (record_a, blocks_a) in enumerate(members):
                blocks_a_set = set(blocks_a)
                for record_b, blocks_b in members[position + 1 :]:
                    shared = blocks_a_set.intersection(blocks_b)
                    # Score the pair only in its smallest shared block —
                    # every pair is computed exactly once fleet-wide.
                    if min(shared) != block_key:
                        continue
                    key = (
                        (record_a.row_id, record_b.row_id)
                        if record_a.row_id <= record_b.row_id
                        else (record_b.row_id, record_a.row_id)
                    )
                    scores[key] = similarity.score(record_a, record_b)
            results.append(scores)
        return results


def precompute_block_similarities(
    records: Sequence[RowRecord],
    blocks: dict[RowId, frozenset[str]],
    similarity: RowSimilarity,
    executor: Executor,
) -> int:
    """Warm ``similarity``'s pair cache with all within-block pair scores.

    Returns the number of pairs scored.  Blocks with fewer than two
    members contribute nothing and are not dispatched.
    """
    by_block: dict[str, list[tuple[RowRecord, tuple[str, ...]]]] = {}
    for record in records:
        record_blocks = tuple(sorted(blocks.get(record.row_id, frozenset())))
        for block_key in record_blocks:
            by_block.setdefault(block_key, []).append((record, record_blocks))
    items: list[_BlockItem] = [
        (block_key, tuple(members))
        for block_key, members in sorted(by_block.items())
        if len(members) > 1
    ]
    if not items:
        return 0
    chunk_results = executor.map_batches(
        _BlockPairScorer(similarity.metrics, similarity.aggregator),
        items,
        task_name="cluster/block_similarity",
        label=lambda item: f"block:{item[0]}",
    )
    merged: dict[tuple[RowId, RowId], float] = {}
    for scores in chunk_results:
        merged.update(scores)
    similarity.preload(merged)
    bump("parallel_sim.pairs_precomputed", len(merged))
    return len(merged)
