"""Unit and property tests for row clustering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import (
    Cluster,
    RowClusterer,
    build_blocks,
    evaluate_clustering,
    greedy_correlation_clustering,
    klj_refine,
)
from repro.clustering.metrics import BowMetric, LabelMetric, SameTableMetric
from repro.clustering.phi import PhiVectorizer, cosine_sparse
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.text.tokenize import tokenize
from repro.text.vectors import term_vector


def make_record(table_id: str, index: int, label: str, values=None) -> RowRecord:
    return RowRecord(
        row_id=(table_id, index),
        table_id=table_id,
        label=label,
        norm_label=label.lower(),
        tokens=term_vector([label]),
        values=values or {},
        label_tokens=tuple(tokenize(label)),
    )


def label_similarity_fn() -> RowSimilarity:
    aggregator = StaticWeightedAggregator({"LABEL": 1.0}, threshold=0.8)
    return RowSimilarity([LabelMetric()], aggregator)


class TestMetrics:
    def test_label_metric_identical(self):
        a = make_record("t1", 0, "John Smith")
        b = make_record("t2", 0, "Smith, John")
        score, confidence = LabelMetric().compute(a, b)
        assert score > 0.9
        assert confidence == 1.0

    def test_bow_metric_overlap(self):
        a = make_record("t1", 0, "John Smith Packers")
        b = make_record("t2", 0, "John Smith Bears")
        score, __ = BowMetric().compute(a, b)
        assert 0.0 < score < 1.0

    def test_same_table_metric(self):
        a = make_record("t1", 0, "X")
        b = make_record("t1", 1, "Y")
        c = make_record("t2", 0, "Z")
        assert SameTableMetric().compute(a, b)[0] == 0.0
        assert SameTableMetric().compute(a, c)[0] == 1.0


class TestPhi:
    def test_cooccurring_labels_correlate(self):
        vectorizer = PhiVectorizer().fit(
            {
                "t1": ["a", "b"],
                "t2": ["a", "b"],
                "t3": ["c", "d"],
                "t4": ["c", "d"],
            }
        )
        same_theme = vectorizer.table_similarity("t1", "t2")
        cross_theme = vectorizer.table_similarity("t1", "t3")
        assert same_theme > cross_theme

    def test_cosine_sparse_empty(self):
        assert cosine_sparse({}, {"a": 1.0}) == 0.0

    def test_cosine_sparse_identical(self):
        vector = {"a": 0.5, "b": -0.2}
        assert cosine_sparse(vector, vector) == pytest.approx(1.0)


class TestBlocking:
    def test_same_label_shares_block(self):
        records = [
            make_record("t1", 0, "John Smith"),
            make_record("t2", 0, "John Smith"),
            make_record("t3", 0, "Completely Different"),
        ]
        blocks = build_blocks(records)
        assert blocks[("t1", 0)] & blocks[("t2", 0)]

    def test_typo_labels_share_block(self):
        records = [
            make_record("t1", 0, "Jonathan Smithers"),
            make_record("t2", 0, "Jonathan Smitherz"),
        ]
        blocks = build_blocks(records)
        assert blocks[("t1", 0)] & blocks[("t2", 0)]


class TestGreedy:
    def test_serial_groups_identical_labels(self):
        records = [
            make_record("t1", 0, "Alpha One"),
            make_record("t2", 0, "Alpha One"),
            make_record("t3", 0, "Beta Two"),
            make_record("t4", 0, "Beta Two"),
        ]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=1, seed=1
        )
        sizes = sorted(len(cluster) for cluster in clusters)
        assert sizes == [2, 2]

    def test_batch_fragments_then_klj_repairs(self):
        # A whole batch sees an empty snapshot → every row starts its own
        # cluster (the deterministic stand-in for parallel stale reads);
        # the KLj pass joins them back.
        records = [
            make_record("t1", 0, "Alpha One"),
            make_record("t2", 0, "Alpha One"),
            make_record("t3", 0, "Beta Two"),
            make_record("t4", 0, "Beta Two"),
        ]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        fragmented = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=4, seed=1
        )
        assert len(fragmented) == 4
        refined = klj_refine(fragmented, similarity, blocks)
        assert sorted(len(cluster) for cluster in refined) == [2, 2]

    def test_every_row_in_exactly_one_cluster(self):
        records = [make_record("t", i, f"Label {i % 3} Thing") for i in range(12)]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(records, similarity, blocks, seed=2)
        all_rows = [row for cluster in clusters for row in cluster.row_ids()]
        assert sorted(all_rows) == sorted(record.row_id for record in records)

    def test_batch_one_equals_serial(self):
        records = [make_record("t", i, f"L{i % 4} name") for i in range(8)]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        serial = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=1, seed=3
        )
        assert all(len(cluster) >= 1 for cluster in serial)

    def test_deterministic(self):
        records = [make_record("t", i, f"Label {i % 3}") for i in range(9)]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        a = greedy_correlation_clustering(records, similarity, blocks, seed=4)
        b = greedy_correlation_clustering(records, similarity, blocks, seed=4)
        assert [c.row_ids() for c in a] == [c.row_ids() for c in b]


class TestKLj:
    def test_repairs_batch_splits(self):
        # Same-entity rows land in one batch → split clusters; KLj joins.
        records = [make_record(f"t{i}", 0, "Same Entity Name") for i in range(6)]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=6, seed=0
        )
        assert len(clusters) > 1  # the parallel error happened
        refined = klj_refine(clusters, similarity, blocks)
        assert len(refined) == 1

    def test_splits_negative_rows(self):
        good = [make_record(f"t{i}", 0, "Shared Name") for i in range(3)]
        stray = make_record("t9", 0, "Unrelated Thing")
        cluster = Cluster("c1", members=good + [stray], blocks=set())
        similarity = label_similarity_fn()
        refined = klj_refine([cluster], similarity, {})
        assert len(refined) == 2
        sizes = sorted(len(c) for c in refined)
        assert sizes == [1, 3]

    def test_preserves_row_universe(self):
        records = [make_record("t", i, f"N{i % 2} x") for i in range(6)]
        similarity = label_similarity_fn()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(records, similarity, blocks, seed=1)
        refined = klj_refine(clusters, similarity, blocks)
        rows = sorted(row for c in refined for row in c.row_ids())
        assert rows == sorted(record.row_id for record in records)


class TestClusterer:
    def test_end_to_end(self):
        records = [
            make_record("t1", 0, "Alpha Song"),
            make_record("t2", 0, "Alpha Song"),
            make_record("t3", 0, "Gamma Tune"),
        ]
        clusterer = RowClusterer(label_similarity_fn(), seed=5)
        clusters = clusterer.cluster(records)
        assert len(clusters) == 2

    def test_empty_input(self):
        assert RowClusterer(label_similarity_fn()).cluster([]) == []

    def test_no_blocking_equivalent_result(self):
        records = [make_record("t", i, f"Label {i % 2} q") for i in range(6)]
        with_blocking = RowClusterer(label_similarity_fn(), seed=6).cluster(records)
        without = RowClusterer(
            label_similarity_fn(), seed=6, use_blocking=False
        ).cluster(records)
        sizes_a = sorted(len(c) for c in with_blocking)
        sizes_b = sorted(len(c) for c in without)
        assert sizes_a == sizes_b


class TestEvaluation:
    def test_perfect_clustering(self):
        gold = {"g1": [("t", 0), ("t", 1)], "g2": [("t", 2)]}
        scores = evaluate_clustering(gold, gold)
        assert scores.f1 == 1.0
        assert scores.penalty == 1.0

    def test_overmerged_penalized(self):
        gold = {"g1": [("t", 0)], "g2": [("t", 1)]}
        returned = {"c1": [("t", 0), ("t", 1)]}
        scores = evaluate_clustering(gold, returned)
        assert scores.pair_precision == 0.0
        assert scores.penalty == 0.5

    def test_oversplit_penalized(self):
        gold = {"g1": [("t", 0), ("t", 1)]}
        returned = {"c1": [("t", 0)], "c2": [("t", 1)]}
        scores = evaluate_clustering(gold, returned)
        assert scores.penalty == 0.5
        assert scores.average_recall == 0.5

    def test_rows_outside_gold_ignored(self):
        gold = {"g1": [("t", 0)]}
        returned = {"c1": [("t", 0), ("t", 99)]}
        scores = evaluate_clustering(gold, returned)
        assert scores.f1 == 1.0

    @given(st.integers(2, 12), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_scores_bounded(self, n_rows, seed):
        import random

        rng = random.Random(seed)
        rows = [("t", i) for i in range(n_rows)]
        gold = {}
        returned = {}
        for row in rows:
            gold.setdefault(f"g{rng.randrange(3)}", []).append(row)
            returned.setdefault(f"c{rng.randrange(3)}", []).append(row)
        scores = evaluate_clustering(gold, returned)
        for value in (
            scores.penalized_precision, scores.average_recall, scores.f1,
            scores.pair_precision, scores.penalty,
        ):
            assert 0.0 <= value <= 1.0
