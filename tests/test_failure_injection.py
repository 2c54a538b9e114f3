"""Failure injection: the pipeline must degrade gracefully, never crash.

Web table extraction produces pathological inputs — empty columns,
single-cell tables, unicode soup, numeric labels, duplicated rows.  These
tests feed such tables through schema matching and the full default
pipeline and assert structured, non-crashing behaviour.
"""

from __future__ import annotations

import pytest

from repro.api import RunSession
from repro.clustering.clusterer import RowClusterer
from repro.clustering.similarity import RowSimilarity
from repro.datatypes import DataType, detect_column_type, normalize_value
from repro.datatypes.normalization import NormalizationError
from repro.matching import SchemaMatcher, build_row_records
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.parallel import ExecutorError
from repro.webtables import TableCorpus, WebTable


def run_pipeline(knowledge_base, corpus, class_name, config=None):
    """One uncached default-pipeline run over ``corpus``."""
    session = RunSession(
        knowledge_base=knowledge_base, corpus=corpus, config=config
    )
    return session.run(class_name, use_cache=False)


def pathological_tables() -> list[WebTable]:
    return [
        # All cells empty except the header.
        WebTable("empty", ("a", "b"), [(None, None), (None, None)]),
        # Single row, single meaningful value.
        WebTable("single", ("name", "x"), [("Only Row", None)]),
        # Unicode soup labels.
        WebTable(
            "unicode", ("name", "value"),
            [("Ünïcødé Çhãos ™", "12"), ("中文标签", "13"), ("🎵🎵🎵", "14")],
        ),
        # Numeric-only "labels".
        WebTable(
            "numeric", ("id", "count"),
            [("123", "5"), ("456", "6"), ("789", "7")],
        ),
        # Identical rows repeated.
        WebTable(
            "repeats", ("name", "v"),
            [("Copy Cat", "1")] * 6,
        ),
        # Very wide cells.
        WebTable(
            "wide", ("name", "text"),
            [("Row " + "x" * 500, "y" * 1000), ("Other", "z")],
        ),
    ]


class TestSchemaMatchingRobustness:
    def test_analyze_never_crashes(self, tiny_world):
        corpus = TableCorpus(pathological_tables())
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        for table_id in corpus.table_ids():
            column_types, label_column = matcher.analyze_table(corpus, table_id)
            assert isinstance(column_types, dict)

    def test_match_corpus_never_crashes(self, tiny_world):
        corpus = TableCorpus(pathological_tables())
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        mapping = matcher.match_corpus(corpus)
        # The mapping holds the tables matched to a KB class; every
        # table still got its class decision.
        kb_classes = {
            kb_class.name
            for kb_class in tiny_world.knowledge_base.schema.classes()
        }
        assert set(mapping.by_table) == {
            table_id
            for table_id in corpus.table_ids()
            if matcher.table_class(corpus, table_id)[0] in kb_classes
        }

    def test_records_from_pathological_corpus(self, tiny_world):
        corpus = TableCorpus(pathological_tables())
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        mapping = matcher.match_corpus(corpus)
        for class_name in ("Song", "Settlement"):
            records = build_row_records(corpus, mapping, class_name)
            for record in records:
                assert record.norm_label


class TestPipelineRobustness:
    def test_pipeline_on_garbage_corpus(self, tiny_world):
        corpus = TableCorpus(pathological_tables())
        result = run_pipeline(tiny_world.knowledge_base, corpus, "Song")
        # Nothing sensible to extract, but a structured result comes back.
        assert result.class_name == "Song"
        assert len(result.iterations) == 2

    def test_pipeline_on_empty_corpus(self, tiny_world):
        result = run_pipeline(tiny_world.knowledge_base, TableCorpus(), "Song")
        assert result.final.entities == []

    def test_pipeline_mixed_garbage_and_real(self, tiny_world):
        tables = pathological_tables()
        real_ids = tiny_world.tables_of_class("Song")[:5]
        for table_id in real_ids:
            tables.append(tiny_world.corpus.get(table_id))
        result = run_pipeline(
            tiny_world.knowledge_base, TableCorpus(tables), "Song"
        )
        # The real tables should still produce records.
        assert len(result.final.records) > 0


class BoobyTrappedTable(WebTable):
    """A table whose column access explodes — simulates a corrupt input."""

    def column(self, index):
        raise RuntimeError("corrupted payload")


class ExplodingRowMetric:
    """Row metric that fails on a poisoned label."""

    name = "BOOM"

    def compute(self, a, b):
        if "poison" in (a.norm_label, b.norm_label):
            raise RuntimeError("metric blew up")
        return 1.0, 1.0


def _plain_record(number: int, label: str) -> RowRecord:
    return RowRecord(
        row_id=(f"t{number}", 0),
        table_id=f"t{number}",
        label=label,
        norm_label=label,
        tokens=frozenset(label.split()),
        values={},
        label_tokens=tuple(label.split()),
    )


class TestParallelFailurePropagation:
    """Batch-function exceptions surface with the originating table id."""

    def test_schema_matching_worker_crash_names_table(self, tiny_world):
        tables = pathological_tables()
        tables.insert(3, BoobyTrappedTable("trapped", ("a", "b"), [("x", "y")]))
        corpus = TableCorpus(tables)
        # A plain matcher dispatches through its default executor, which
        # wraps the failure with the labels of the batch's tables.
        matcher = SchemaMatcher(tiny_world.knowledge_base)
        with pytest.raises(ExecutorError) as caught:
            matcher.match_corpus(corpus)
        error = caught.value
        assert error.task_name == "schema_match/analyze"
        assert "trapped" in error.item_labels
        assert "corrupted payload" in str(error)

    def test_clustering_worker_crash_names_block(self):
        """Clustering scores pairs lazily, outside the executor, so a
        failing metric's own exception surfaces unwrapped."""
        records = [
            _plain_record(0, "poison"),
            _plain_record(1, "poison"),
            _plain_record(2, "fine"),
        ]
        similarity = RowSimilarity(
            [ExplodingRowMetric()], StaticWeightedAggregator({"BOOM": 1.0}, 0.5)
        )
        with pytest.raises(RuntimeError, match="metric blew up"):
            RowClusterer(similarity).cluster(records)


class TestNormalizationRobustness:
    @pytest.mark.parametrize(
        "raw",
        ["", "   ", "​", "NaN", "inf", "-", "--", "n/a", "?"],
    )
    def test_weird_cells_raise_cleanly_or_parse(self, raw):
        for data_type in (DataType.DATE, DataType.QUANTITY, DataType.NOMINAL_INTEGER):
            try:
                normalize_value(raw, data_type)
            except NormalizationError:
                pass  # clean rejection is the contract

    def test_detection_on_mixed_garbage(self):
        cells = ["?", "--", "n/a", None, "", "12", "maybe"]
        assert detect_column_type(cells) in (
            DataType.TEXT, DataType.QUANTITY,
        )

    def test_huge_number(self):
        assert normalize_value("999,999,999,999", DataType.QUANTITY) == 999_999_999_999.0

    def test_negative_quantity(self):
        assert normalize_value("-42.5", DataType.QUANTITY) == -42.5
