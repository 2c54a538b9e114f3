"""The row clustering component: blocking + greedy + KLj."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clustering.blocking import build_blocks
from repro.clustering.greedy import Cluster, greedy_correlation_clustering
from repro.clustering.klj import klj_refine
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import RowRecord


@dataclass
class RowClusterer:
    """Clusters row records end to end (Section 3.2).

    ``batch_size=1`` makes the greedy stage serial; ``use_klj=False``
    skips refinement; ``use_blocking=False`` puts every row in one global
    block (quadratic — for ablation only).
    """

    similarity: RowSimilarity
    batch_size: int = 32
    seed: int = 0
    use_klj: bool = True
    use_blocking: bool = True
    max_block_matches: int = 6
    klj_passes: int = 4

    def cluster(self, records: Sequence[RowRecord]) -> list[Cluster]:
        """Cluster the records; returns clusters with stable ids."""
        records = list(records)
        if not records:
            return []
        if self.use_blocking:
            blocks = build_blocks(records, self.max_block_matches)
        else:
            universe = frozenset({"__all__"})
            blocks = {record.row_id: universe for record in records}
        clusters = greedy_correlation_clustering(
            records,
            self.similarity,
            blocks,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        if self.use_klj:
            clusters = klj_refine(
                clusters, self.similarity, blocks, max_passes=self.klj_passes
            )
        return clusters
