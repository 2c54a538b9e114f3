"""Shared experiment environment with aggressive caching.

World generation, gold standard derivation, fold splitting and model
training are all deterministic in the seed, and several experiments need
the same artifacts — the environment builds each at most once per
process.  Pipeline runs go through one shared
:class:`~repro.api.RunSession`; the environment memoizes their results
itself, so the runs bypass the session's artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import RunSession
from repro.goldstandard.annotations import GoldStandard, GSCluster
from repro.ml.crossval import stratified_group_folds
from repro.pipeline.pipeline import PipelineConfig
from repro.pipeline.result import PipelineResult
from repro.pipeline.training import TrainedModels, train_models
from repro.synthesis.api import build_gold_standard, build_world
from repro.synthesis.profiles import WorldScale
from repro.synthesis.world import World

#: The evaluated classes, with the paper's display names.
CLASSES = (
    ("GridironFootballPlayer", "GF-Player"),
    ("Song", "Song"),
    ("Settlement", "Settlement"),
)

N_FOLDS = 3


def subset_gold(gold: GoldStandard, clusters: list[GSCluster]) -> GoldStandard:
    """A gold standard restricted to a cluster subset (one or two folds)."""
    cluster_ids = {cluster.cluster_id for cluster in clusters}
    table_ids = sorted(
        {row_id[0] for cluster in clusters for row_id in cluster.row_ids}
    )
    table_set = set(table_ids)
    return GoldStandard(
        class_name=gold.class_name,
        table_ids=tuple(table_ids),
        clusters=list(clusters),
        attribute_correspondences={
            key: value
            for key, value in gold.attribute_correspondences.items()
            if key[0] in table_set
        },
        facts=[fact for fact in gold.facts if fact.cluster_id in cluster_ids],
    )


@dataclass
class ExperimentEnv:
    """Lazily built, cached experiment artifacts."""

    seed: int = 7
    scale_factor: float = 1.0
    _world: World | None = field(default=None, repr=False)
    _session: RunSession | None = field(default=None, repr=False)
    _gold: dict = field(default_factory=dict, repr=False)
    _folds: dict = field(default_factory=dict, repr=False)
    _fold_models: dict = field(default_factory=dict, repr=False)
    _full_models: dict = field(default_factory=dict, repr=False)
    _fold_runs: dict = field(default_factory=dict, repr=False)
    _profiling_runs: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    @property
    def world(self) -> World:
        if self._world is None:
            self._world = build_world(
                seed=self.seed, scale=WorldScale(self.scale_factor)
            )
        return self._world

    @property
    def session(self) -> RunSession:
        """The shared run-service over the environment's world."""
        if self._session is None:
            self._session = RunSession(world=self.world)
        return self._session

    def gold(self, class_name: str) -> GoldStandard:
        if class_name not in self._gold:
            self._gold[class_name] = build_gold_standard(
                self.world, class_name, seed=self.seed + 13
            )
        return self._gold[class_name]

    # ------------------------------------------------------------------
    def folds(self, class_name: str) -> list[list[GSCluster]]:
        """Three cluster folds; homonym groups intact, new/existing balanced."""
        if class_name not in self._folds:
            gold = self.gold(class_name)
            self._folds[class_name] = stratified_group_folds(
                gold.clusters,
                N_FOLDS,
                group_of=lambda cluster: cluster.homonym_group,
                stratum_of=lambda cluster: cluster.is_new,
                seed=self.seed + 29,
            )
        return self._folds[class_name]

    def fold_golds(
        self, class_name: str, test_fold: int
    ) -> tuple[GoldStandard, GoldStandard]:
        """(train gold, test gold) with ``test_fold`` held out."""
        folds = self.folds(class_name)
        train_clusters = [
            cluster
            for index, fold in enumerate(folds)
            if index != test_fold
            for cluster in fold
        ]
        gold = self.gold(class_name)
        return (
            subset_gold(gold, train_clusters),
            subset_gold(gold, folds[test_fold]),
        )

    # ------------------------------------------------------------------
    def fold_models(self, class_name: str, test_fold: int) -> TrainedModels:
        """Models trained with ``test_fold`` held out."""
        key = (class_name, test_fold)
        if key not in self._fold_models:
            train_gold, __ = self.fold_golds(class_name, test_fold)
            self._fold_models[key] = train_models(
                self.world.knowledge_base,
                self.world.corpus,
                train_gold,
                seed=self.seed + test_fold,
            )
        return self._fold_models[key]

    def full_models(self, class_name: str) -> TrainedModels:
        """Models trained on the entire gold standard (large-scale runs)."""
        if class_name not in self._full_models:
            self._full_models[class_name] = train_models(
                self.world.knowledge_base,
                self.world.corpus,
                self.gold(class_name),
                seed=self.seed,
            )
        return self._full_models[class_name]

    # ------------------------------------------------------------------
    def fold_run(self, class_name: str, test_fold: int) -> PipelineResult:
        """Three-iteration pipeline run on one held-out fold, cached.

        Trained on the other two folds; restricted to the test fold's
        tables and annotated rows, with table classes known (the gold
        standard annotates tables of the class).  Iterations 1-3 serve
        Table 6; iteration 2 is the paper's operating point for
        Tables 7-10.
        """
        key = (class_name, test_fold)
        if key not in self._fold_runs:
            models = self.fold_models(class_name, test_fold)
            __, test_gold = self.fold_golds(class_name, test_fold)
            # The env memoizes whole results per (class, fold) and never
            # repeats a run, so the session's stage cache would only
            # accumulate dead entries — skip it.
            self._fold_runs[key] = self.session.run(
                class_name,
                config=PipelineConfig(iterations=3, seed=self.seed),
                models=models.as_pipeline_models(),
                table_ids=list(test_gold.table_ids),
                row_ids=set(test_gold.annotated_rows()),
                known_classes={
                    table_id: class_name for table_id in test_gold.table_ids
                },
                use_cache=False,
            )
        return self._fold_runs[key]

    # ------------------------------------------------------------------
    def profiling_run(self, class_name: str) -> PipelineResult:
        """Full-corpus pipeline run for one class (Section 5), cached."""
        if class_name not in self._profiling_runs:
            models = self.full_models(class_name)
            self._profiling_runs[class_name] = self.session.run(
                class_name,
                config=PipelineConfig(seed=self.seed),
                models=models.as_pipeline_models(),
                use_cache=False,
            )
        return self._profiling_runs[class_name]


_ENVIRONMENTS: dict[tuple[int, float], ExperimentEnv] = {}


def get_env(seed: int = 7, scale_factor: float = 1.0) -> ExperimentEnv:
    """Process-wide cached environment."""
    key = (seed, scale_factor)
    if key not in _ENVIRONMENTS:
        _ENVIRONMENTS[key] = ExperimentEnv(seed=seed, scale_factor=scale_factor)
    return _ENVIRONMENTS[key]
