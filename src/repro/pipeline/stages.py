"""The pipeline stages: the paper's Figure-1 components.

The paper's pipeline is four components — schema matching, row
clustering, entity creation (fusion) and new-instance detection.  This
module makes each of them a :class:`PipelineStage` operating on a
shared :class:`PipelineState`:

========================  ==================  ===========================
Figure-1 component        stage name          state fields produced
========================  ==================  ===========================
Schema Matching           ``schema_match``    mapping, target_tables,
                                              records
Row Clustering            ``cluster``         context, clusters
Entity Creation           ``fuse``            entities
New Instance Detection    ``detect``          detection
========================  ==================  ===========================

:data:`STAGES` maps each name to its class.
:meth:`repro.api.RunSession.run` drives the stage sequence it is given
(names, or instances — the seam tests substitute fakes through), with
caching and observer plumbing around each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.clustering.clusterer import RowClusterer
from repro.clustering.context import RowMetricContext, make_row_metrics
from repro.clustering.greedy import Cluster
from repro.clustering.similarity import RowSimilarity
from repro.fusion.entity import Entity
from repro.fusion.fuser import EntityCreator
from repro.fusion.scoring import exact_row_instances, make_scorer
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.correspondences import SchemaMapping
from repro.matching.matchers import DuplicateEvidence
from repro.matching.records import RowRecord, build_row_records
from repro.matching.schema_matcher import SchemaMatcher
from repro.newdetect.candidates import CandidateSelector
from repro.newdetect.detector import (
    DetectionResult,
    EntityInstanceSimilarity,
    NewDetector,
)
from repro.newdetect.metrics import make_entity_metrics
from repro.parallel import SerialExecutor
from repro.perf.kernels import KernelCache
from repro.pipeline.result import IterationArtifacts
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import RowId

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids a circular import
    from repro.pipeline.artifacts import IncrementalBackend
    from repro.pipeline.pipeline import PipelineConfig, PipelineModels
    from repro.pipeline.result import PipelineResult

#: Canonical stage order of the paper's pipeline.
DEFAULT_STAGE_NAMES = ("schema_match", "cluster", "fuse", "detect")


@dataclass
class PipelineState:
    """Everything a pipeline iteration reads and writes.

    The first block is fixed run input, the second is per-iteration
    bookkeeping the orchestrator maintains, the third is the stage
    outputs (each default stage fills the fields listed in its
    ``provides`` tuple).  A custom stage may read anything and set
    anything — downstream stages only rely on the fields documented in
    the module table.
    """

    kb: KnowledgeBase
    corpus: TableCorpus
    class_name: str
    config: "PipelineConfig"
    models: "PipelineModels"
    #: The executor batches run on, built per run by ``RunSession.run``
    #: with the run's executor observers.  Stages hand it to the
    #: components they build.
    executor: SerialExecutor
    #: Session-scoped kernel memos (:class:`repro.perf.KernelCache`).
    #: Stages share it with the similarity kernels they build.  Purely a
    #: speed lever — outputs are identical with any cache state.
    kernels: KernelCache
    #: The table ids of the run's corpus snapshot, in ingest order (set
    #: by ``RunSession.run``, as the snapshot mapping itself); schema
    #: matching walks these instead of listing the corpus again.
    #: ``None`` lists the corpus.
    corpus_ids: Iterable[str] | None = None
    #: Optional restrictions (gold-standard experiments).
    table_ids: list[str] | None = None
    row_ids: set[RowId] | None = None
    known_classes: dict[str, str] | None = None

    #: 1-based iteration counter, set by the orchestrator.
    iteration: int = 0
    #: Duplicate feedback from the previous iteration (None in the first).
    evidence: DuplicateEvidence | None = None
    #: Schema matcher shared across iterations (keeps its analysis caches).
    matcher: SchemaMatcher | None = None
    #: Incremental-run backend
    #: (:class:`repro.pipeline.artifacts.IncrementalBackend`), set by the
    #: orchestrator for cached ``RunSession.run`` runs.  Stages use it to
    #: serve per-table and per-entity artifacts from the artifact store;
    #: ``None`` (the default) keeps every stage fully stateless.
    incremental: "IncrementalBackend | None" = None

    # Stage outputs ----------------------------------------------------
    mapping: SchemaMapping | None = None
    target_tables: list[str] = field(default_factory=list)
    records: list[RowRecord] = field(default_factory=list)
    context: RowMetricContext | None = None
    clusters: list[Cluster] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)
    detection: DetectionResult | None = None

    def artifacts(self) -> IterationArtifacts:
        """Snapshot the stage outputs of the current iteration."""
        return IterationArtifacts(
            iteration=self.iteration,
            mapping=self.mapping if self.mapping is not None else SchemaMapping(),
            records=self.records,
            clusters=self.clusters,
            entities=self.entities,
            detection=self.detection
            if self.detection is not None
            else DetectionResult(),
        )


@runtime_checkable
class PipelineStage(Protocol):
    """One component of the pipeline.

    ``name`` identifies the stage (:data:`STAGES` key, observer events,
    cache keys); ``provides`` names the :class:`PipelineState` fields the
    stage sets, which is what the :class:`repro.api.RunSession` artifact
    store keeps of a default stage; ``run`` transforms the state and
    returns it.
    """

    name: str
    provides: tuple[str, ...]

    def run(self, state: PipelineState) -> PipelineState:
        ...


class PipelineObserver:
    """Per-stage progress/timing hooks; subclass and override what you need.

    All hooks are no-ops by default, so observers stay forward-compatible
    when new events are added.
    """

    def on_run_started(self, class_name: str, config: "PipelineConfig") -> None:
        pass

    def on_iteration_started(self, class_name: str, iteration: int) -> None:
        pass

    def on_stage_started(
        self, class_name: str, iteration: int, stage_name: str
    ) -> None:
        pass

    def on_stage_finished(
        self, class_name: str, iteration: int, stage_name: str, seconds: float
    ) -> None:
        pass

    def on_iteration_finished(self, class_name: str, iteration: int) -> None:
        pass

    def on_run_finished(self, result: "PipelineResult") -> None:
        pass


class SchemaMatchStage:
    """Figure-1 "Schema Matching": corpus mapping + row-record projection."""

    name = "schema_match"
    #: ``matcher`` (a live object with executor bindings) is not listed:
    #: a later iteration rebuilds it and re-warms it from the per-table
    #: artifacts instead.
    provides = ("mapping", "target_tables", "records")

    def run(self, state: PipelineState) -> PipelineState:
        if state.matcher is None:
            state.matcher = SchemaMatcher(
                state.kb, state.models.schema_models, kernels=state.kernels
            )
        # The matcher outlives the iteration, but executors and
        # incremental backends are per-run resources — rebind every time.
        state.matcher.executor = state.executor
        state.matcher.attribute_cache = None
        walk = None
        if state.incremental is not None:
            # Serve unchanged tables' analyses and attribute maps from
            # the persistent store; only the corpus delta recomputes,
            # and only the delta and the classed tables are visited.
            walk = state.incremental.warm_matcher(state.matcher)
            if state.table_ids is not None or state.known_classes is not None:
                walk = None
        state.mapping = state.matcher.match_corpus(
            state.corpus,
            evidence=state.evidence,
            table_ids=(
                state.table_ids
                if state.table_ids is not None
                else state.corpus_ids
            ),
            known_classes=state.known_classes,
            classes=state.kb.schema.descendants(state.class_name),
            walk=walk,
        )
        if state.incremental is not None:
            state.incremental.harvest_matcher(state.matcher)
        state.target_tables = self._target_tables(state)
        state.records = build_row_records(
            state.corpus,
            state.mapping,
            state.class_name,
            table_ids=state.target_tables,
            row_ids=state.row_ids,
        )
        return state

    @staticmethod
    def _target_tables(state: PipelineState) -> list[str]:
        """Tables mapped to the class or any subclass (Single ⊂ Song)."""
        names = state.kb.schema.descendants(state.class_name)
        return sorted(
            table_id
            for name in names
            for table_id in state.mapping.tables_of_class(name)
        )


class ClusterStage:
    """Figure-1 "Row Clustering": correlation clustering of row records."""

    name = "cluster"
    provides = ("context", "clusters")

    def run(self, state: PipelineState) -> PipelineState:
        config = state.config
        state.context = RowMetricContext.build(
            state.kb, state.class_name, state.records
        )
        row_similarity = RowSimilarity(
            make_row_metrics(
                config.row_metric_names, state.context, kernels=state.kernels
            ),
            state.models.row_aggregator,
        )
        clusterer = RowClusterer(
            row_similarity,
            batch_size=config.batch_size,
            seed=config.seed + state.iteration,
            use_klj=config.use_klj,
            use_blocking=config.use_blocking,
        )
        state.clusters = clusterer.cluster(state.records)
        return state


class FuseStage:
    """Figure-1 "Entity Creation": value fusion of each cluster."""

    name = "fuse"
    provides = ("entities",)

    def run(self, state: PipelineState) -> PipelineState:
        scorer = self._make_scorer(state)
        creator = EntityCreator(state.kb, state.class_name, scorer)
        state.entities = creator.create(state.clusters)
        return state

    @staticmethod
    def _make_scorer(state: PipelineState):
        config = state.config
        if config.fusion_scoring.lower() == "kbt":
            row_instance = exact_row_instances(
                state.corpus,
                state.mapping,
                state.kb,
                state.class_name,
                state.target_tables,
            )
            return make_scorer(
                "kbt",
                corpus=state.corpus,
                mapping=state.mapping,
                kb=state.kb,
                row_instance=row_instance,
            )
        return make_scorer(config.fusion_scoring, mapping=state.mapping)


class DetectStage:
    """Figure-1 "New Instance Detection": entity-vs-KB classification."""

    name = "detect"
    provides = ("detection",)

    def run(self, state: PipelineState) -> PipelineState:
        config = state.config
        context = state.context
        if context is None:
            # A custom cluster stage may not build the metric context.
            context = RowMetricContext.build(
                state.kb, state.class_name, state.records
            )
        selector = CandidateSelector(state.kb, config.candidate_limit)
        entity_similarity = EntityInstanceSimilarity(
            make_entity_metrics(
                config.entity_metric_names,
                state.kb,
                state.class_name,
                context.implicit_by_table,
                kernels=state.kernels,
            ),
            state.models.entity_aggregator,
        )
        detector = NewDetector(
            selector,
            entity_similarity,
            state.models.new_threshold,
            state.models.existing_threshold,
        )
        cache = (
            state.incremental.detection_cache(
                context.implicit_by_table, state.entities
            )
            if state.incremental is not None
            else None
        )
        state.detection = detector.detect(
            state.entities, executor=state.executor, cache=cache
        )
        return state


#: Stage name → stage class, for the names ``RunSession.run(stages=...)``
#: and ``repro run --stages`` accept.
STAGES: dict[str, type] = {
    "schema_match": SchemaMatchStage,
    "cluster": ClusterStage,
    "fuse": FuseStage,
    "detect": DetectStage,
}


def resolve_stages(
    stages: Iterable[PipelineStage | str] = DEFAULT_STAGE_NAMES,
) -> list[PipelineStage]:
    """A concrete stage list: names become fresh stages from
    :data:`STAGES`, instances (a test's fake stage) are used as-is."""
    resolved: list[PipelineStage] = []
    for stage in stages:
        if not isinstance(stage, str):
            resolved.append(stage)
        elif stage in STAGES:
            resolved.append(STAGES[stage]())
        else:
            known = ", ".join(STAGES)
            raise ValueError(
                f"unknown pipeline stage {stage!r}; registered stages: {known}"
            )
    return resolved
