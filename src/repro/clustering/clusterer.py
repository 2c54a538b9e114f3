"""The row clustering component: blocking + greedy + KLj."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.clustering.blocking import build_blocks
from repro.clustering.greedy import Cluster, greedy_correlation_clustering
from repro.clustering.klj import klj_refine
from repro.clustering.parallel_sim import precompute_block_similarities
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import RowRecord
from repro.parallel import Executor, SerialExecutor


@dataclass
class RowClusterer:
    """Clusters row records end to end (Section 3.2).

    ``batch_size=1`` makes the greedy stage serial; ``use_klj=False``
    skips refinement; ``use_blocking=False`` puts every row in one global
    block (quadratic — for ablation only).

    A ``queue`` executor spreads the dominant cost — block-local
    pairwise similarity — over its ``repro worker`` fleet, warming the
    similarity cache before the (inherently order-dependent) greedy/KLj
    passes run; it produces the exact clustering the serial default
    does.
    """

    similarity: RowSimilarity
    batch_size: int = 32
    seed: int = 0
    use_klj: bool = True
    use_blocking: bool = True
    max_block_matches: int = 6
    klj_passes: int = 4
    executor: Executor = field(default_factory=SerialExecutor)

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
        if not isinstance(self.executor, SerialExecutor):
            # Serial runs skip this: lazy scoring computes only the pairs
            # the algorithms actually visit, which a single worker does
            # no faster by precomputing a superset.
            precompute_block_similarities(
                records, blocks, self.similarity, self.executor
            )
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
