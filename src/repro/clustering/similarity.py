"""Aggregated, cached row-pair similarity."""

from __future__ import annotations

from typing import Sequence

from repro.clustering.metrics import RowMetric
from repro.matching.records import RowRecord
from repro.ml.aggregation import MetricVector, ScoreAggregator
from repro.webtables.table import RowId


class RowSimilarity:
    """Computes the aggregated similarity of two rows, in [-1, 1].

    Wraps the metric bundle and a fitted aggregator; pair scores are cached
    under the canonical (sorted) row-id pair because KLj revisits the same
    pairs repeatedly — each pair runs each metric kernel at most once per
    run.

    The cache is keyed by row *identity*, not content, so it must not
    survive a corpus mutation: the cluster stage builds one instance per
    run and drops it with the run.  :meth:`cache_info` / :meth:`clear`
    expose the cache's statistics and reset.
    """

    def __init__(
        self, metrics: Sequence[RowMetric], aggregator: ScoreAggregator
    ) -> None:
        self.metrics = list(metrics)
        self.aggregator = aggregator
        self._cache: dict[tuple[RowId, RowId], float] = {}
        self._hits = 0
        self._misses = 0

    def metric_vector(self, a: RowRecord, b: RowRecord) -> MetricVector:
        """Raw metric outputs for a pair (used at training time too)."""
        return MetricVector(
            {metric.name: metric.compute(a, b) for metric in self.metrics}
        )

    def score(self, a: RowRecord, b: RowRecord) -> float:
        """Aggregated similarity; symmetric and cached."""
        key = (a.row_id, b.row_id) if a.row_id <= b.row_id else (b.row_id, a.row_id)
        cached = self._cache.get(key)
        if cached is None:
            self._misses += 1
            cached = self.aggregator.score(self.metric_vector(a, b))
            self._cache[key] = cached
        else:
            self._hits += 1
        return cached

    def cache_size(self) -> int:
        return len(self._cache)

    def cache_info(self) -> dict[str, int]:
        """Pair-cache statistics: entries held, lookup hits and misses."""
        return {
            "entries": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
        }

    def clear(self) -> None:
        """Drop every cached pair score (the statistics reset with them)."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
