"""The new detection component (Section 3.4).

Per-entity candidate retrieval and feature extraction are independent of
each other, so :meth:`NewDetector.detect` dispatches the entity list
through an :class:`~repro.parallel.SerialExecutor` via a pure batch function
(:class:`_DetectBatch`); results come back in entity order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from repro.fusion.entity import Entity
from repro.kb.instance import KBInstance
from repro.ml.aggregation import MetricVector, ScoreAggregator
from repro.newdetect.candidates import CandidateSelector
from repro.newdetect.metrics import EntityInstanceMetric
from repro.parallel import SerialExecutor, dispatch_dirty


class Classification(str, Enum):
    """Outcome per entity.

    ``AMBIGUOUS`` covers the zone between the two learned thresholds: the
    entity is neither confidently new nor confidently matched.
    """

    NEW = "new"
    EXISTING = "existing"
    AMBIGUOUS = "ambiguous"


class EntityInstanceSimilarity:
    """Aggregated entity-to-instance similarity in [-1, 1]."""

    def __init__(
        self,
        metrics: Sequence[EntityInstanceMetric],
        aggregator: ScoreAggregator,
    ) -> None:
        self.metrics = list(metrics)
        self.aggregator = aggregator

    def metric_vector(
        self,
        entity: Entity,
        instance: KBInstance,
        candidates: Sequence[KBInstance],
    ) -> MetricVector:
        return MetricVector(
            {
                metric.name: metric.compute(entity, instance, candidates)
                for metric in self.metrics
            }
        )

    def score(
        self,
        entity: Entity,
        instance: KBInstance,
        candidates: Sequence[KBInstance],
    ) -> float:
        return self.aggregator.score(self.metric_vector(entity, instance, candidates))


@dataclass
class DetectionResult:
    """Classifications, correspondences and ranking scores for all entities."""

    classifications: dict[str, Classification] = field(default_factory=dict)
    correspondences: dict[str, str] = field(default_factory=dict)
    #: Highest candidate similarity per entity; ``None`` when no candidate
    #: existed (used by the §6 ranked evaluation: larger distance = more
    #: confidently new).
    best_scores: dict[str, float | None] = field(default_factory=dict)

    def existing_entity_ids(self) -> list[str]:
        return [
            entity_id
            for entity_id, classification in self.classifications.items()
            if classification is Classification.EXISTING
        ]


class _DetectBatch:
    """Batch function: classify a list of entities.

    Holds the candidate selector (KB included), the similarity bundle
    and the thresholds — all read-only — and returns one
    ``(classification, correspondence-or-None, best_score-or-None)``
    triple per entity.
    """

    def __init__(
        self,
        selector: CandidateSelector,
        similarity: EntityInstanceSimilarity,
        new_threshold: float,
        existing_threshold: float,
    ) -> None:
        self.selector = selector
        self.similarity = similarity
        self.new_threshold = new_threshold
        self.existing_threshold = existing_threshold

    def __call__(
        self, entities: list[Entity]
    ) -> list[tuple[Classification, str | None, float | None]]:
        results: list[tuple[Classification, str | None, float | None]] = []
        for entity in entities:
            candidates = self.selector.candidates(entity)
            if not candidates:
                results.append((Classification.NEW, None, None))
                continue
            scored = [
                (self.similarity.score(entity, candidate, candidates), candidate)
                for candidate in candidates
            ]
            scored.sort(key=lambda pair: (-pair[0], pair[1].uri))
            best_score, best_candidate = scored[0]
            if best_score < self.new_threshold:
                results.append((Classification.NEW, None, best_score))
            elif best_score >= self.existing_threshold:
                results.append(
                    (Classification.EXISTING, best_candidate.uri, best_score)
                )
            else:
                results.append((Classification.AMBIGUOUS, None, best_score))
        return results


class NewDetector:
    """Candidate selection + similarity + two-threshold classification.

    ``new_threshold`` and ``existing_threshold`` live on the aggregated
    [-1, 1] scale: below the first → NEW, at/above the second → EXISTING
    (with a correspondence to the argmax candidate), between → AMBIGUOUS.
    """

    def __init__(
        self,
        selector: CandidateSelector,
        similarity: EntityInstanceSimilarity,
        new_threshold: float = 0.0,
        existing_threshold: float = 0.0,
    ) -> None:
        if new_threshold > existing_threshold:
            raise ValueError("new_threshold must not exceed existing_threshold")
        self.selector = selector
        self.similarity = similarity
        self.new_threshold = new_threshold
        self.existing_threshold = existing_threshold

    def detect(
        self,
        entities: Sequence[Entity],
        executor: SerialExecutor = SerialExecutor(),
        cache=None,
    ) -> DetectionResult:
        """Classify every entity, in entity order.

        ``cache`` is an optional per-entity artifact cache (``get(entity)
        -> triple | None`` / ``put(entity, triple)``, e.g. the incremental
        engine's detection cache): entities it resolves skip candidate
        retrieval and feature extraction entirely, and only the dirty
        remainder is dispatched.  The cached triple is a pure function of
        entity content, so results are identical with or without it.
        """
        batch = _DetectBatch(
            self.selector,
            self.similarity,
            self.new_threshold,
            self.existing_threshold,
        )
        entities = list(entities)
        cached: list[tuple | None] = (
            [cache.get(entity) for entity in entities]
            if cache is not None
            else [None] * len(entities)
        )
        outcomes = dispatch_dirty(
            batch,
            entities,
            cached,
            executor=executor,
            task_name="detect/entities",
            label=lambda entity: entity.entity_id,
        )
        if cache is not None:
            for entity, was_cached, outcome in zip(entities, cached, outcomes):
                if was_cached is None:
                    cache.put(entity, outcome)
        result = DetectionResult()
        for entity, (classification, correspondence, best_score) in zip(
            entities, outcomes
        ):
            result.classifications[entity.entity_id] = classification
            result.best_scores[entity.entity_id] = best_score
            if correspondence is not None:
                result.correspondences[entity.entity_id] = correspondence
        return result
