"""Attribute-to-property matching orchestration (Section 3.1).

Three steps per table: (1) select candidate properties by data type
blocking, (2) compute matcher scores and aggregate them with learned
per-class weights, (3) accept the best-scoring property when it clears the
property's learned threshold.  After matching, the attribute adopts the
property's data type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.datatypes import DataType, candidate_property_types
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.correspondences import AttributeCorrespondence
from repro.matching.matchers import (
    AttributeMatchers,
    DuplicateEvidence,
    HeaderStatistics,
)
from repro.matching.learning import AttributeMatchingModel
from repro.webtables.table import WebTable

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache


@dataclass
class MatcherFeedback:
    """Cross-component feedback enabling the duplicate-based matchers."""

    header_stats: HeaderStatistics | None = None
    evidence: DuplicateEvidence | None = None


@dataclass
class ColumnScores:
    """Raw matcher scores for every candidate property of one column."""

    table_id: str
    column: int
    scores_by_property: dict[str, dict[str, float | None]] = field(
        default_factory=dict
    )


class AttributePropertyMatcher:
    """Matches the value columns of one class's tables to KB properties."""

    def __init__(
        self,
        kb: KnowledgeBase,
        class_name: str,
        model: AttributeMatchingModel,
        feedback: MatcherFeedback | None = None,
        kernels: "KernelCache | None" = None,
    ) -> None:
        self.kb = kb
        self.class_name = class_name
        self.model = model
        feedback = feedback or MatcherFeedback()
        self._matchers = AttributeMatchers(
            kb,
            class_name,
            header_stats=feedback.header_stats,
            evidence=feedback.evidence,
            kernels=kernels,
        )
        self._properties = kb.schema.properties_of(class_name)

    # ------------------------------------------------------------------
    def column_scores(
        self,
        table: WebTable,
        column: int,
        detected_type: DataType,
    ) -> ColumnScores:
        """Raw matcher scores for all type-admissible candidate properties."""
        result = ColumnScores(table.table_id, column)
        if detected_type not in (DataType.TEXT, DataType.DATE, DataType.QUANTITY):
            return result
        admissible = candidate_property_types(detected_type)
        for property_name, prop in sorted(self._properties.items()):
            if prop.data_type not in admissible:
                continue
            result.scores_by_property[property_name] = self._matchers.score_all(
                table, column, prop
            )
        return result

    def match_table(
        self,
        table: WebTable,
        column_types: dict[int, DataType],
        label_column: int | None,
    ) -> dict[int, AttributeCorrespondence]:
        """Correspondences for all value columns of one table."""
        correspondences: dict[int, AttributeCorrespondence] = {}
        for column in range(table.n_columns):
            if column == label_column:
                continue
            detected = column_types.get(column)
            if detected is None:
                continue
            scores = self.column_scores(table, column, detected)
            chosen = self._select(scores)
            if chosen is not None:
                correspondences[column] = chosen
        return correspondences

    # ------------------------------------------------------------------
    def _select(self, scores: ColumnScores) -> AttributeCorrespondence | None:
        """Pick the property with the best aggregated score above threshold."""
        best_property: str | None = None
        best_score = 0.0
        for property_name, matcher_scores in scores.scores_by_property.items():
            aggregated = self.model.aggregate(matcher_scores)
            if aggregated > best_score:
                best_score = aggregated
                best_property = property_name
        if best_property is None:
            return None
        if best_score < self.model.threshold_for(best_property):
            return None
        prop = self._properties[best_property]
        return AttributeCorrespondence(
            table_id=scores.table_id,
            column=scores.column,
            property_name=best_property,
            score=best_score,
            data_type=prop.data_type,
        )
