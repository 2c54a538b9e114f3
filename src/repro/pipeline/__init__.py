"""Pipeline orchestration and the paper's evaluation protocols.

:meth:`repro.api.RunSession.run` drives the four
:mod:`~repro.pipeline.stages` — schema matching, row clustering, entity
creation, new detection — iterated as in Figure 1; this package holds
the stages, their configuration and models, and the artifact store.
The evaluation modules implement Section 4 (new-instances-found and
facts-found on the gold standard), Section 5 (large-scale profiling)
and Section 6 (ranked set-expansion-style evaluation).
"""

from repro.pipeline.artifacts import (
    ArtifactStore,
    IncrementalBackend,
    IncrementalRunReport,
)
from repro.pipeline.delta import corpus_state
from repro.pipeline.pipeline import (
    PipelineConfig,
    PipelineModels,
    build_duplicate_evidence,
)
from repro.pipeline.stages import (
    DEFAULT_STAGE_NAMES,
    STAGES,
    ClusterStage,
    DetectStage,
    FuseStage,
    PipelineObserver,
    PipelineStage,
    PipelineState,
    SchemaMatchStage,
)
from repro.pipeline.result import IterationArtifacts, PipelineResult
from repro.pipeline.training import TrainedModels, train_models
from repro.pipeline.gold_utils import (
    evidence_from_gold,
    gold_clusters_to_row_clusters,
    mapping_from_gold,
    records_from_gold,
)
from repro.pipeline.evaluation import (
    FactScores,
    NewInstanceScores,
    evaluate_facts_found,
    evaluate_new_instances_found,
    map_entities_to_gold,
)
from repro.pipeline.profiling import ClassProfilingResult, profile_class_run
from repro.pipeline.ranking import RankedScores, rank_new_entities, ranked_evaluation
from repro.pipeline.dedup import DedupResult, deduplicate_entities
from repro.pipeline.slotfill import SlotFillingReport, slot_filling_report

__all__ = [
    "ArtifactStore",
    "IncrementalBackend",
    "IncrementalRunReport",
    "corpus_state",
    "PipelineConfig",
    "PipelineModels",
    "build_duplicate_evidence",
    "DEFAULT_STAGE_NAMES",
    "STAGES",
    "PipelineStage",
    "PipelineState",
    "PipelineObserver",
    "SchemaMatchStage",
    "ClusterStage",
    "FuseStage",
    "DetectStage",
    "IterationArtifacts",
    "PipelineResult",
    "TrainedModels",
    "train_models",
    "mapping_from_gold",
    "records_from_gold",
    "evidence_from_gold",
    "gold_clusters_to_row_clusters",
    "NewInstanceScores",
    "FactScores",
    "evaluate_new_instances_found",
    "evaluate_facts_found",
    "map_entities_to_gold",
    "ClassProfilingResult",
    "profile_class_run",
    "RankedScores",
    "rank_new_entities",
    "ranked_evaluation",
    "DedupResult",
    "deduplicate_entities",
    "SlotFillingReport",
    "slot_filling_report",
]
