"""Integration tests: full pipeline runs and the Section 4-6 evaluations."""

from __future__ import annotations

import pytest

from repro.api import RunSession
from repro.newdetect.detector import Classification, DetectionResult
from repro.pipeline import (
    evaluate_facts_found,
    evaluate_new_instances_found,
    gold_clusters_to_row_clusters,
    map_entities_to_gold,
    mapping_from_gold,
    rank_new_entities,
    ranked_evaluation,
    records_from_gold,
)
from repro.pipeline.pipeline import PipelineConfig
from repro.fusion.entity import Entity
from repro.goldstandard.annotations import LABEL_COLUMN


def _gold_song_run(tiny_world, song_gold, config=None):
    """One default-pipeline run on the Song gold standard tables."""
    session = RunSession(
        knowledge_base=tiny_world.knowledge_base,
        corpus=tiny_world.corpus,
        config=config,
    )
    return session.run(
        "Song",
        table_ids=list(song_gold.table_ids),
        row_ids=set(song_gold.annotated_rows()),
        known_classes={table_id: "Song" for table_id in song_gold.table_ids},
        use_cache=False,
    )


@pytest.fixture(scope="module")
def song_run(tiny_world, song_gold):
    return _gold_song_run(tiny_world, song_gold)


class TestGoldUtils:
    def test_mapping_from_gold_label_columns(self, tiny_world, song_gold):
        mapping = mapping_from_gold(song_gold, tiny_world.knowledge_base)
        label_columns = [
            (key, value)
            for key, value in song_gold.attribute_correspondences.items()
            if value == LABEL_COLUMN
        ]
        for (table_id, column), __ in label_columns[:10]:
            assert mapping.table(table_id).label_column == column

    def test_records_from_gold_cover_annotated_rows(self, tiny_world, song_gold):
        records = records_from_gold(
            tiny_world.corpus, song_gold, tiny_world.knowledge_base
        )
        annotated = set(song_gold.annotated_rows())
        assert {record.row_id for record in records} <= annotated
        # Nearly every annotated row should survive projection.
        assert len(records) > 0.9 * len(annotated)

    def test_gold_clusters_to_row_clusters(self, tiny_world, song_gold):
        records = records_from_gold(
            tiny_world.corpus, song_gold, tiny_world.knowledge_base
        )
        clusters = gold_clusters_to_row_clusters(song_gold, records)
        gold_ids = {cluster.cluster_id for cluster in song_gold.clusters}
        assert {cluster.cluster_id for cluster in clusters} <= gold_ids


class TestPipelineRun:
    def test_two_iterations(self, song_run):
        assert len(song_run.iterations) == 2
        assert song_run.final.iteration == 2

    def test_every_record_clustered_once(self, song_run):
        final = song_run.final
        clustered = [
            row for cluster in final.clusters for row in cluster.row_ids()
        ]
        assert sorted(clustered) == sorted(
            record.row_id for record in final.records
        )

    def test_every_cluster_becomes_entity(self, song_run):
        final = song_run.final
        assert len(final.entities) == len(
            [cluster for cluster in final.clusters if cluster.members]
        )

    def test_every_entity_classified(self, song_run):
        final = song_run.final
        for entity in final.entities:
            assert entity.entity_id in final.detection.classifications

    def test_existing_entities_have_correspondences(self, song_run):
        final = song_run.final
        for entity_id in final.detection.existing_entity_ids():
            assert entity_id in final.detection.correspondences

    def test_summary_mentions_class(self, song_run):
        assert "Song" in song_run.summary()


class TestSection4Evaluations:
    def test_new_instances_eval_bounds(self, song_run, song_gold):
        scores = evaluate_new_instances_found(
            song_run.final.entities, song_run.final.detection, song_gold
        )
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert scores.gold_new == len(song_gold.new_clusters())

    def test_facts_eval_bounds(self, song_run, song_gold, tiny_world):
        scores = evaluate_facts_found(
            song_run.final.entities, song_run.final.detection, song_gold,
            tiny_world.knowledge_base,
        )
        assert 0.0 <= scores.f1 <= 1.0

    def test_entity_mapping_majority_conditions(self, song_gold, tiny_world):
        records = records_from_gold(
            tiny_world.corpus, song_gold, tiny_world.knowledge_base
        )
        clusters = gold_clusters_to_row_clusters(song_gold, records)
        from repro.fusion import EntityCreator, VotingScorer

        creator = EntityCreator(tiny_world.knowledge_base, "Song", VotingScorer())
        entities = creator.create(clusters)
        mapping = map_entities_to_gold(entities, song_gold)
        # Entities built directly from gold clusters must map back to them.
        mapped = [value for value in mapping.values() if value is not None]
        assert len(mapped) >= 0.9 * len(entities)


class TestDedupFlag:
    def test_dedup_never_increases_new_entities(
        self, tiny_world, song_gold, song_run
    ):
        deduped = _gold_song_run(
            tiny_world, song_gold, PipelineConfig(dedup_new_entities=True)
        )
        baseline = song_run
        assert len(deduped.new_entities()) <= len(baseline.new_entities())
        # Classifications stay consistent: every surviving entity classified.
        final = deduped.final
        for entity in final.entities:
            assert entity.entity_id in final.detection.classifications


class TestRanking:
    def test_no_candidate_entities_rank_first(self):
        entities = [
            Entity("e1", "Song", ("A",)), Entity("e2", "Song", ("B",)),
        ]
        detection = DetectionResult(
            classifications={
                "e1": Classification.NEW, "e2": Classification.NEW,
            },
            best_scores={"e1": 0.4, "e2": None},
        )
        assert rank_new_entities(entities, detection) == ["e2", "e1"]

    def test_ranked_evaluation_perfect(self):
        scores = ranked_evaluation(["a", "b"], {"a": True, "b": True})
        assert scores.map_at_cutoff == 1.0
        assert scores.precision_at_5 == 1.0

    def test_ranked_evaluation_interleaved(self):
        ranking = ["a", "b", "c", "d"]
        relevant = {"a": True, "b": False, "c": True, "d": False}
        scores = ranked_evaluation(ranking, relevant)
        assert scores.map_at_cutoff == pytest.approx((1.0 + 2 / 3) / 2)

    def test_cutoff_respected(self):
        ranking = [f"e{i}" for i in range(300)]
        scores = ranked_evaluation(ranking, {}, cutoff=256)
        assert scores.n_ranked == 256
