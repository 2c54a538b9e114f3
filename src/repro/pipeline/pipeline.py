"""Configuration, models and feedback of the two-iteration pipeline
(Figure 1).

:meth:`repro.api.RunSession.run` drives the stages: each iteration runs
a sequence of :class:`~repro.pipeline.stages.PipelineStage` objects over
a shared :class:`~repro.pipeline.stages.PipelineState`, and the duplicate
feedback of Figure 1 (clusters + correspondences back into the schema
matchers, see :func:`build_duplicate_evidence`) flows through that state
between iterations.  This module holds what those runs use: the
:class:`PipelineConfig` knobs, the fitted :class:`PipelineModels`, and
the static metric weights of an untrained run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clustering.metrics import ROW_METRIC_NAMES
from repro.fusion.scoring import SCORER_NAMES
from repro.matching.matchers import DuplicateEvidence
from repro.matching.schema_matcher import SchemaMatcherModels
from repro.ml.aggregation import ScoreAggregator
from repro.newdetect.detector import DetectionResult
from repro.newdetect.metrics import ENTITY_METRIC_NAMES
from repro.parallel import EXECUTOR_NAMES

#: Fallback metric weights when the pipeline runs untrained.
_DEFAULT_ROW_WEIGHTS = {
    "LABEL": 0.40, "BOW": 0.18, "PHI": 0.05, "ATTRIBUTE": 0.20,
    "IMPLICIT_ATT": 0.12, "SAME_TABLE": 0.05,
}
_DEFAULT_ENTITY_WEIGHTS = {
    "LABEL": 0.35, "TYPE": 0.15, "BOW": 0.15, "ATTRIBUTE": 0.20,
    "IMPLICIT_ATT": 0.10, "POPULARITY": 0.05,
}


@dataclass
class PipelineConfig:
    """Knobs of the pipeline (defaults follow the paper's best setup).

    Invalid knob combinations fail fast at construction time with a
    :class:`ValueError` instead of deep inside a stage.
    """

    iterations: int = 2
    row_metric_names: tuple[str, ...] = ROW_METRIC_NAMES
    entity_metric_names: tuple[str, ...] = ENTITY_METRIC_NAMES
    fusion_scoring: str = "voting"
    batch_size: int = 32
    use_klj: bool = True
    use_blocking: bool = True
    candidate_limit: int = 10
    seed: int = 0
    #: Post-clustering deduplication of new entities — the extension the
    #: paper suggests in Section 5 against over-segmentation (off by
    #: default, matching the published system).
    dedup_new_entities: bool = False
    #: The executor batches run on.  ``"serial"`` (in this process) is
    #: the only accepted value and ``workers`` must be >= 1; both fields
    #: stay only because callers still pass them.  They are excluded
    #: from the semantic config hash.
    executor: str = "serial"
    workers: int = 1
    #: Label retrieval has one candidate path, the exact scan of
    #: :meth:`repro.index.LabelIndex.search`; ``"exact"`` is the only
    #: accepted value.  The field stays only because it is part of the
    #: pinned :func:`config_hash` payload and callers still pass it.
    candidate_mode: str = "exact"

    def __post_init__(self) -> None:
        # Defensive copies: callers may hand in lists, and shared mutable
        # metric-name sequences must not leak between config instances.
        self.row_metric_names = tuple(self.row_metric_names)
        self.entity_metric_names = tuple(self.entity_metric_names)
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.fusion_scoring.lower() not in SCORER_NAMES:
            known = ", ".join(SCORER_NAMES)
            raise ValueError(
                f"unknown fusion_scoring {self.fusion_scoring!r}; "
                f"expected one of: {known}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1, got {self.candidate_limit}"
            )
        self.executor = self.executor.strip().lower()
        if self.executor not in EXECUTOR_NAMES:
            known = ", ".join(EXECUTOR_NAMES)
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of: {known}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.candidate_mode != "exact":
            raise ValueError(
                f"unknown candidate_mode {self.candidate_mode!r}: fast "
                "candidate mode was removed, and 'exact' is the only value"
            )


@dataclass
class PipelineModels:
    """Fitted models the pipeline runs with (see pipeline.training)."""

    schema_models: SchemaMatcherModels = field(default_factory=SchemaMatcherModels)
    row_aggregator: ScoreAggregator | None = None
    entity_aggregator: ScoreAggregator | None = None
    new_threshold: float = 0.0
    existing_threshold: float = 0.0


def build_duplicate_evidence(entities, detection: DetectionResult) -> DuplicateEvidence:
    """Duplicate-matcher evidence from entity-creation + detection output."""
    evidence = DuplicateEvidence()
    for entity in entities:
        uri = detection.correspondences.get(entity.entity_id)
        for record in entity.rows:
            evidence.cluster_of_row[record.row_id] = entity.entity_id
            if uri is not None:
                evidence.row_instance[record.row_id] = uri
            for property_name, value in record.values.items():
                evidence.cluster_values.setdefault(
                    (entity.entity_id, property_name), []
                ).append((value, record.table_id))
    return evidence
