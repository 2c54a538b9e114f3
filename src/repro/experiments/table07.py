"""Table 7: row clustering ablation over cumulative metric sets.

For every cumulative metric set (LABEL, +BOW, ..., +SAME_TABLE), a fresh
aggregator is trained on the learning folds and the held-out fold's rows
are clustered and scored against the gold clusters; scores are averaged
over classes and folds.  Metric importances come from the full-set
aggregator, mirroring the paper's MI column.
"""

from __future__ import annotations

from collections import defaultdict

from repro.clustering.clusterer import RowClusterer
from repro.clustering.context import RowMetricContext
from repro.clustering.evaluation import evaluate_clustering
from repro.clustering.metrics import ROW_METRIC_NAMES
from repro.clustering.training import (
    build_pair_training_data,
    calibrate_clustering_offset,
    train_row_similarity,
)
from repro.experiments.env import CLASSES, ExperimentEnv, get_env
from repro.experiments.report import ExperimentTable

#: Paper values per cumulative set: (PCP, AR, F1, MI-of-added-metric).
PAPER = {
    "LABEL": (0.71, 0.83, 0.76, 0.33),
    "+ BOW": (0.73, 0.84, 0.78, 0.18),
    "+ PHI": (0.74, 0.84, 0.78, 0.05),
    "+ ATTRIBUTE": (0.75, 0.85, 0.80, 0.21),
    "+ IMPLICIT_ATT": (0.78, 0.87, 0.82, 0.17),
    "+ SAME_TABLE": (0.79, 0.87, 0.83, 0.07),
}

FOLDS = (0, 1, 2)


def _cumulative_sets() -> list[tuple[str, tuple[str, ...]]]:
    sets = []
    for position in range(1, len(ROW_METRIC_NAMES) + 1):
        names = ROW_METRIC_NAMES[:position]
        label = names[0] if position == 1 else f"+ {names[-1]}"
        sets.append((label, names))
    return sets


def run(env: ExperimentEnv | None = None, folds=FOLDS) -> ExperimentTable:
    env = env or get_env()
    table = ExperimentTable(
        exp_id="Table 7",
        title="Row clustering ablation (cumulative metric sets)",
        header=("Run", "PCP", "AR", "F1", "MI", "Paper(PCP/AR/F1/MI)"),
    )
    kb = env.world.knowledge_base
    corpus = env.world.corpus

    aggregates: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    importance_sums: dict[str, float] = defaultdict(float)
    importance_count = 0
    runs = 0
    for class_name, __ in CLASSES:
        for fold in folds:
            train_gold, test_gold = env.fold_golds(class_name, fold)
            fold_result = env.fold_run(class_name, fold)
            # Iteration 2 is the operating point for clustering inputs.
            artifacts = fold_result.iterations[1]
            test_records = artifacts.records
            test_context = RowMetricContext.build(kb, class_name, test_records)

            models = env.fold_models(class_name, fold)
            from repro.matching.records import build_row_records
            from repro.matching.schema_matcher import SchemaMatcher
            from repro.pipeline.gold_utils import evidence_from_gold, records_from_gold

            matcher = SchemaMatcher(kb, models.schema_models)
            gold_records = records_from_gold(corpus, train_gold, kb)
            evidence = evidence_from_gold(train_gold, gold_records)
            train_mapping = matcher.match_corpus(
                corpus,
                evidence=evidence,
                table_ids=list(train_gold.table_ids),
                known_classes={
                    table_id: class_name for table_id in train_gold.table_ids
                },
                classes=kb.schema.descendants(class_name),
            )
            train_records = build_row_records(
                corpus,
                train_mapping,
                class_name,
                table_ids=list(train_gold.table_ids),
                row_ids=set(train_gold.annotated_rows()),
            )
            train_context = RowMetricContext.build(kb, class_name, train_records)
            pairs = build_pair_training_data(
                train_records, train_gold.cluster_of_row(), seed=env.seed + fold
            )
            gold_clusters = {
                cluster.cluster_id: list(cluster.row_ids)
                for cluster in test_gold.clusters
            }
            train_gold_clusters = {
                cluster.cluster_id: list(cluster.row_ids)
                for cluster in train_gold.clusters
            }
            runs += 1
            for label, names in _cumulative_sets():
                similarity = train_row_similarity(
                    train_context, pairs, metric_names=names, seed=env.seed + fold
                )
                offset = calibrate_clustering_offset(
                    similarity, train_records, train_gold_clusters,
                    seed=env.seed + fold,
                )
                # Swap in the *test* context's metrics for inference.
                from repro.clustering.context import make_row_metrics
                from repro.clustering.similarity import RowSimilarity
                from repro.ml.aggregation import ShiftedAggregator

                test_similarity = RowSimilarity(
                    make_row_metrics(names, test_context),
                    ShiftedAggregator(similarity.aggregator, offset),
                )
                clusterer = RowClusterer(
                    test_similarity, seed=env.seed + fold
                )
                clusters = clusterer.cluster(test_records)
                scores = evaluate_clustering(
                    gold_clusters,
                    {cluster.cluster_id: cluster.row_ids() for cluster in clusters},
                )
                aggregates[label][0] += scores.penalized_precision
                aggregates[label][1] += scores.average_recall
                aggregates[label][2] += scores.f1
                if len(names) == len(ROW_METRIC_NAMES):
                    for name, value in (
                        similarity.aggregator.metric_importances().items()
                    ):
                        importance_sums[name] += value
                    importance_count += 1

    for label, names in _cumulative_sets():
        pcp, ar, f1 = (value / runs for value in aggregates[label])
        added = names[-1]
        importance = (
            importance_sums[added] / importance_count if importance_count else 0.0
        )
        paper = PAPER[label]
        table.rows.append(
            (
                label,
                round(pcp, 3),
                round(ar, 3),
                round(f1, 3),
                round(importance, 3),
                f"{paper[0]}/{paper[1]}/{paper[2]}/{paper[3]}",
            )
        )
    table.notes.append(
        "MI column: importance of the row's added metric inside the full-set "
        "aggregator (as in the paper)"
    )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
