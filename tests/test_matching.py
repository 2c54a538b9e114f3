"""Unit tests for schema matching components."""

from __future__ import annotations

import pytest

from repro.datatypes import DataType
from repro.goldstandard.annotations import LABEL_COLUMN
from repro.kb import KBClass, KBInstance, KBProperty, KBSchema, KnowledgeBase
from repro.matching import (
    AttributePropertyMatcher,
    MatcherFeedback,
    SchemaMatcher,
    TableClassMatcher,
    build_row_records,
    detect_label_attribute,
    evaluate_attribute_matching,
)
from repro.matching.learning import (
    AttributeMatchingModel,
    AttributeSample,
    learn_attribute_model,
)
from repro.matching.matchers import AttributeMatchers, HeaderStatistics
from repro.matching.pools import ValuePool
from repro.matching.schema_matcher import SchemaMatcherModels
from repro.perf import KernelCache, counter_delta, kernel_counters
from repro.datatypes.values import DateValue
from repro.webtables import TableCorpus, WebTable


def small_kb() -> KnowledgeBase:
    schema = KBSchema()
    schema.add_class(KBClass("Thing"))
    schema.add_class(
        KBClass(
            "Player",
            parent="Thing",
            properties={
                "team": KBProperty("team", DataType.INSTANCE_REFERENCE, ("team",)),
                "height": KBProperty("height", DataType.QUANTITY, ("height",), 0.03),
                "draftYear": KBProperty("draftYear", DataType.DATE, ("draft year",)),
            },
        )
    )
    kb = KnowledgeBase(schema)
    players = [
        ("Aaron Brooks", "Packers", 1.88, 2005),
        ("Brett Favre", "Packers", 1.88, 1991),
        ("Dan Marino", "Dolphins", 1.93, 1983),
        ("Joe Montana", "49ers", 1.88, 1979),
    ]
    for index, (name, team, height, year) in enumerate(players):
        kb.add_instance(
            KBInstance(
                f"kb:{index}", "Player", (name,),
                facts={"team": team, "height": height, "draftYear": DateValue(year)},
                page_links=100 - index,
            )
        )
    return kb


def player_table() -> WebTable:
    return WebTable(
        "t1",
        ("player", "team", "ht"),
        [
            ("Aaron Brooks", "Packers", "6'2\""),
            ("Dan Marino", "Dolphins", "6'4\""),
            ("Joe Montana", "49ers", "6'2\""),
            ("Totally New Guy", "Packers", "6'0\""),
        ],
    )


class TestLabelAttribute:
    def test_picks_most_unique_text_column(self):
        table = player_table()
        types = {0: DataType.TEXT, 1: DataType.TEXT, 2: DataType.QUANTITY}
        assert detect_label_attribute(table, types) == 0

    def test_tie_prefers_leftmost(self):
        table = WebTable("t", ("a", "b"), [("x", "p"), ("y", "q")])
        types = {0: DataType.TEXT, 1: DataType.TEXT}
        assert detect_label_attribute(table, types) == 0

    def test_no_text_column(self):
        table = WebTable("t", ("a",), [("1",), ("2",)])
        assert detect_label_attribute(table, {0: DataType.QUANTITY}) is None


class TestValuePool:
    def test_quantity_tolerance(self):
        pool = ValuePool(DataType.QUANTITY, [100.0, 200.0], tolerance=0.05)
        assert pool.contains_equal(103.0)
        assert not pool.contains_equal(150.0)

    def test_date_year_vs_day(self):
        pool = ValuePool(DataType.DATE, [DateValue(1987, 3, 14), DateValue(1990)])
        assert pool.contains_equal(DateValue(1987))
        assert pool.contains_equal(DateValue(1990, 5, 5))
        assert not pool.contains_equal(DateValue(1991))

    def test_string_normalized_membership(self):
        pool = ValuePool(DataType.INSTANCE_REFERENCE, ["Green Bay Packers"])
        assert pool.contains_equal("green bay  packers")
        assert not pool.contains_equal("Chicago Bears")

    def test_nominal_integer(self):
        pool = ValuePool(DataType.NOMINAL_INTEGER, [1, 2, 3])
        assert pool.contains_equal(2)
        assert not pool.contains_equal(4)


class TestTableClassMatcher:
    def test_matches_player_table(self):
        kb = small_kb()
        matcher = TableClassMatcher(kb)
        table = player_table()
        types = {0: DataType.TEXT, 1: DataType.TEXT, 2: DataType.QUANTITY}
        result = matcher.match(table, types, label_column=0)
        assert result.class_name == "Player"
        assert result.score > 0

    def test_unknown_rows_give_no_class(self):
        kb = small_kb()
        matcher = TableClassMatcher(kb)
        table = WebTable(
            "t2", ("name", "x"),
            [("Zzz Qqq", "1"), ("Www Vvv", "2"), ("Rrr Ttt", "3")],
        )
        types = {0: DataType.TEXT, 1: DataType.QUANTITY}
        result = matcher.match(table, types, label_column=0)
        assert result.class_name is None

    def test_no_label_column_gives_no_class(self):
        kb = small_kb()
        result = TableClassMatcher(kb).match(player_table(), {}, None)
        assert result.class_name is None


class TestAttributeMatchers:
    def test_kb_overlap_scores_matching_column(self):
        kb = small_kb()
        matchers = AttributeMatchers(kb, "Player")
        table = player_table()
        prop = kb.schema.properties_of("Player")["team"]
        scores = matchers.score_all(table, 1, prop)
        assert scores["kb_overlap"] == 1.0

    def test_kb_label_header_similarity(self):
        kb = small_kb()
        matchers = AttributeMatchers(kb, "Player")
        table = player_table()
        prop = kb.schema.properties_of("Player")["team"]
        scores = matchers.score_all(table, 1, prop)
        assert scores["kb_label"] == 1.0

    def test_wt_label_requires_stats(self):
        kb = small_kb()
        stats = HeaderStatistics({("ht", "height"): 0.9})
        matchers = AttributeMatchers(kb, "Player", header_stats=stats)
        table = player_table()
        prop = kb.schema.properties_of("Player")["height"]
        scores = matchers.score_all(table, 2, prop)
        assert scores["wt_label"] == 0.9

    def test_wt_label_unseen_header_is_none(self):
        stats = HeaderStatistics({("other", "height"): 0.9})
        assert stats.score("ht", "height") is None

    def test_memo_keys_on_content_not_table_id(self):
        """Two tables sharing an id but not their cells or header, scored
        through one cache, each get the scores a fresh cache gives."""
        kb = small_kb()
        prop = kb.schema.properties_of("Player")["team"]
        shared = AttributeMatchers(kb, "Player", kernels=KernelCache())
        known = player_table()
        unknown = WebTable(
            known.table_id,
            known.header,
            [(row[0], "Nowhere FC", row[2]) for row in known.rows],
        )
        renamed = WebTable(known.table_id, ("player", "squad", "ht"), known.rows)
        scores = []
        for table in (known, unknown, renamed):
            fresh = AttributeMatchers(kb, "Player").score_all(table, 1, prop)
            assert shared.score_all(table, 1, prop) == fresh
            scores.append(fresh)
        assert scores[0]["kb_overlap"] == 1.0
        assert scores[1]["kb_overlap"] == 0.0
        assert scores[2]["kb_label"] < scores[0]["kb_label"] == 1.0
        assert shared.kernels.cache_info()["attribute_scores"] == 3


class TestSessionMemoEquivalence:
    def test_shared_cache_changes_no_correspondence(self, tiny_world):
        """Every class-matched table of a tiny world gets the same
        correspondences in all three attribute passes whether its
        matcher reads one shared cache or a fresh one per call."""
        from repro.api import RunSession
        from repro.pipeline import PipelineConfig, build_duplicate_evidence

        kb, corpus = tiny_world.knowledge_base, tiny_world.corpus
        schema_matcher = SchemaMatcher(kb)
        header_stats = HeaderStatistics.from_correspondences(
            schema_matcher.match_corpus(corpus).all_correspondences(), corpus
        )
        session = RunSession(tiny_world, config=PipelineConfig(iterations=1))
        evidence = {}
        for class_name in ("Song", "Settlement", "GridironFootballPlayer"):
            final = session.run(class_name, use_cache=False).final
            evidence[class_name] = build_duplicate_evidence(
                final.entities, final.detection
            )
        models = SchemaMatcherModels()
        shared = KernelCache()
        baseline = kernel_counters()
        # Each class run's evidence is applied to every class's tables,
        # a superset of what iteration 2 scores (the run's classes only).
        passes = [("preliminary", None), ("first", None)] + [
            ("second", run_evidence) for run_evidence in evidence.values()
        ]
        matched = 0
        for mode, run_evidence in passes:
            for table_id in corpus.table_ids():
                class_name, __ = schema_matcher.table_class(corpus, table_id)
                if class_name is None:
                    continue
                column_types, label_column = schema_matcher.analyze_table(
                    corpus, table_id
                )
                feedback = None
                if mode != "preliminary":
                    feedback = MatcherFeedback(header_stats, run_evidence)
                correspondences = [
                    AttributePropertyMatcher(
                        kb,
                        class_name,
                        models.for_class(class_name, mode),
                        feedback,
                        kernels=kernels,
                    ).match_table(corpus.get(table_id), column_types, label_column)
                    for kernels in (shared, KernelCache())
                ]
                assert correspondences[0] == correspondences[1], (mode, table_id)
                matched += bool(correspondences[0])
        assert matched > 0
        assert counter_delta(baseline)["attribute_scores.reused"] > 0


class TestIterationTwoScope:
    def test_second_pass_scores_only_the_run_classes(
        self, tiny_world, monkeypatch
    ):
        """With evidence, the final attribute pass scores only the tables
        of the run's class and its descendants, while iteration 1 stays
        corpus-wide: one call per such table, none for another class."""
        from repro.api import RunSession
        from repro.matching import schema_matcher

        calls: list[tuple[str, str | None, str]] = []
        batch_call = schema_matcher._AttributeBatch.__call__

        def counting(self, items):
            calls.extend(
                (self.mode, table_mapping.class_name, table_mapping.table_id)
                for __, table_mapping in items
            )
            return batch_call(self, items)

        monkeypatch.setattr(schema_matcher._AttributeBatch, "__call__", counting)
        session = RunSession(tiny_world)
        schema = tiny_world.knowledge_base.schema
        second_total = first_total = 0
        for class_name in ("Song", "Settlement", "GridironFootballPlayer"):
            calls.clear()
            result = session.run(class_name, use_cache=False)
            scope = schema.descendants(class_name)
            first = [call for call in calls if call[0] == "first"]
            second = [call for call in calls if call[0] == "second"]
            by_table = result.iterations[0].mapping.by_table
            classed = {
                table_id: mapping.class_name
                for table_id, mapping in by_table.items()
                if mapping.class_name is not None
            }
            assert sorted(table_id for *__, table_id in first) == sorted(classed)
            assert sorted(table_id for *__, table_id in second) == sorted(
                table_id for table_id, name in classed.items() if name in scope
            )
            assert second and all(name in scope for __, name, __ in second)
            first_total += len(first)
            second_total += len(second)
        # Unscoped, every run's second pass would score every classed table.
        assert second_total < first_total

    def test_evidence_requires_its_classes(self, tiny_world):
        from repro.matching.matchers import DuplicateEvidence
        from repro.matching.schema_matcher import SchemaMatcher

        matcher = SchemaMatcher(tiny_world.knowledge_base, SchemaMatcherModels())
        with pytest.raises(ValueError, match="classes"):
            matcher.match_corpus(tiny_world.corpus, evidence=DuplicateEvidence())


class TestModelLearning:
    def test_learned_model_separates(self):
        samples = []
        for index in range(40):
            correct = index % 2 == 0
            samples.append(
                AttributeSample(
                    "t", index, "team",
                    {"kb_overlap": 0.9 if correct else 0.2, "kb_label": None},
                    correct,
                )
            )
        model = learn_attribute_model("Player", samples, ("kb_overlap", "kb_label"))
        good = model.aggregate({"kb_overlap": 0.9, "kb_label": None})
        bad = model.aggregate({"kb_overlap": 0.2, "kb_label": None})
        assert good > model.threshold_for("team") > bad

    def test_uniform_fallback(self):
        model = AttributeMatchingModel.uniform("Player", ("a", "b"))
        assert model.aggregate({"a": 1.0, "b": 1.0}) == pytest.approx(1.0)

    def test_renormalization_over_available(self):
        model = AttributeMatchingModel(
            "Player", ("a", "b"), {"a": 0.5, "b": 0.5}
        )
        # Only 'a' available: its score should not be halved.
        assert model.aggregate({"a": 0.8, "b": None}) == pytest.approx(0.8)

    def test_all_missing_scores_zero(self):
        model = AttributeMatchingModel("Player", ("a",), {"a": 1.0})
        assert model.aggregate({"a": None}) == 0.0


class TestEvaluateMatching:
    def test_perfect(self):
        actual = {("t", 1): "team"}
        scores = evaluate_attribute_matching(actual, actual)
        assert scores.f1 == 1.0

    def test_spurious_prediction_hurts_precision(self):
        predicted = {("t", 1): "team", ("t", 2): "height"}
        actual = {("t", 1): "team"}
        scores = evaluate_attribute_matching(predicted, actual)
        assert scores.precision == 0.5
        assert scores.recall == 1.0

    def test_empty_predictions(self):
        scores = evaluate_attribute_matching({}, {("t", 1): "team"})
        assert scores.f1 == 0.0


class TestSchemaMatcherEndToEnd:
    def test_match_corpus_produces_correspondences(self):
        kb = small_kb()
        corpus = TableCorpus([player_table()])
        matcher = SchemaMatcher(kb)
        mapping = matcher.match_corpus(corpus)
        table_mapping = mapping.table("t1")
        assert table_mapping.class_name == "Player"
        assert table_mapping.label_column == 0
        matched_properties = {
            correspondence.property_name
            for correspondence in table_mapping.attributes.values()
        }
        assert "team" in matched_properties

    def test_known_classes_bypass(self):
        kb = small_kb()
        corpus = TableCorpus([player_table()])
        matcher = SchemaMatcher(kb)
        mapping = matcher.match_corpus(corpus, known_classes={"t1": "Player"})
        assert mapping.table("t1").class_name == "Player"
        assert mapping.table("t1").class_score == 1.0

    def test_row_records_projection(self):
        kb = small_kb()
        corpus = TableCorpus([player_table()])
        mapping = SchemaMatcher(kb).match_corpus(corpus)
        records = build_row_records(corpus, mapping, "Player")
        assert len(records) == 4
        by_label = {record.norm_label: record for record in records}
        assert "aaron brooks" in by_label
        record = by_label["aaron brooks"]
        assert record.values.get("team") == "Packers"
        assert record.label_tokens == ("aaron", "brooks")


class TestWorldSchemaMatching:
    """Integration: matching quality on the synthetic world."""

    def test_table_class_accuracy(self, tiny_world):
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        correct = 0
        total = 0
        sample = list(tiny_world.table_class_truth.items())[:60]
        for table_id, truth in sample:
            predicted, __ = matcher.table_class(tiny_world.corpus, table_id)
            normalize = lambda name: "Song" if name == "Single" else name
            total += 1
            if (predicted is None and truth is None) or (
                predicted is not None
                and truth is not None
                and normalize(predicted) == normalize(truth)
            ):
                correct += 1
        assert correct / total > 0.85

    def test_label_detection_accuracy(self, tiny_world):
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        correct = 0
        total = 0
        for (table_id, column), truth in tiny_world.column_truth.items():
            if truth != LABEL_COLUMN:
                continue
            __, label_column = matcher.analyze_table(tiny_world.corpus, table_id)
            total += 1
            if label_column == column:
                correct += 1
        assert correct / total > 0.9
