"""Trained pipeline on football players, with gold-standard evaluation.

Reproduces the paper's evaluation flow for one class end to end:

1. build the world and derive a gold standard for GridironFootballPlayer,
2. train every learned component (schema matching weights/thresholds, the
   row-similarity aggregator, new-detection aggregator + thresholds),
3. run the two-iteration pipeline on the gold tables,
4. score new-instances-found and facts-found exactly as in Section 4.

Run with::

    python examples/football_players.py
"""

from repro import RunSession, build_gold_standard, build_world
from repro.pipeline import (
    evaluate_facts_found,
    evaluate_new_instances_found,
    train_models,
)
from repro.synthesis.profiles import WorldScale

CLASS_NAME = "GridironFootballPlayer"


def main() -> None:
    world = build_world(seed=7, scale=WorldScale.tiny())
    gold = build_gold_standard(world, CLASS_NAME)
    print(
        f"Gold standard: {len(gold.clusters)} clusters "
        f"({len(gold.new_clusters())} new) over {len(gold.table_ids)} tables"
    )

    print("\nTraining pipeline components ...")
    models = train_models(world.knowledge_base, world.corpus, gold, seed=5)
    print("  learned clustering offset:",
          models.diagnostics["clustering_offset"])
    print("  row metric importances:")
    for name, value in sorted(
        models.diagnostics["row_metric_importances"].items(),
        key=lambda item: -item[1],
    ):
        print(f"    {name:13s} {value:.3f}")

    print("\nRunning the trained pipeline ...")
    session = RunSession(world=world, models=models.as_pipeline_models())
    result = session.run(
        CLASS_NAME,
        table_ids=list(gold.table_ids),
        row_ids=set(gold.annotated_rows()),
        known_classes={table_id: CLASS_NAME for table_id in gold.table_ids},
    )
    print(result.summary())

    instances = evaluate_new_instances_found(
        result.final.entities, result.final.detection, gold
    )
    facts = evaluate_facts_found(
        result.final.entities, result.final.detection, gold,
        world.knowledge_base,
    )
    print("\nNew instances found: "
          f"P={instances.precision:.3f} R={instances.recall:.3f} "
          f"F1={instances.f1:.3f}")
    print("Facts found:         "
          f"P={facts.precision:.3f} R={facts.recall:.3f} F1={facts.f1:.3f}")
    print("(training and evaluation share the gold standard here; the "
          "benchmarks use 3-fold cross-validation)")


if __name__ == "__main__":
    main()
