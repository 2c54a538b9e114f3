"""Cross-cutting property tests on pipeline invariants."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

import repro
from repro.api import RunSession
from repro.clustering import build_blocks, greedy_correlation_clustering, klj_refine
from repro.clustering.metrics import LabelMetric
from repro.clustering.similarity import RowSimilarity
from repro.corpus.store import CorpusStore
from repro.datatypes import DataType
from repro.fusion.entity import CandidateValue
from repro.fusion.fuser import fuse_values
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.ranking import ranked_evaluation
from repro.synthesis.api import build_world
from repro.synthesis.profiles import WorldScale
from repro.text.tokenize import tokenize
from repro.text.vectors import term_vector
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import WebTable

label_strategy = st.sampled_from(
    ["alpha one", "alpha one", "beta two", "gamma three", "alpha ones", "delta"]
)


def _records(labels: list[str]) -> list[RowRecord]:
    return [
        RowRecord(
            (f"t{i}", 0), f"t{i}", label, label, term_vector([label]),
            label_tokens=tuple(tokenize(label)),
        )
        for i, label in enumerate(labels)
    ]


def _similarity() -> RowSimilarity:
    return RowSimilarity(
        [LabelMetric()], StaticWeightedAggregator({"LABEL": 1.0}, threshold=0.8)
    )


class TestClusteringInvariants:
    @given(st.lists(label_strategy, min_size=1, max_size=14), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, labels, seed):
        """Greedy + KLj always yields an exact partition of the rows."""
        records = _records(labels)
        similarity = _similarity()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=3, seed=seed
        )
        refined = klj_refine(clusters, similarity, blocks)
        rows = sorted(row for cluster in refined for row in cluster.row_ids())
        assert rows == sorted(record.row_id for record in records)

    @given(st.lists(label_strategy, min_size=2, max_size=12), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_klj_never_decreases_fitness(self, labels, seed):
        """KLj only applies operations with positive local gain."""
        records = _records(labels)
        similarity = _similarity()
        blocks = build_blocks(records)
        clusters = greedy_correlation_clustering(
            records, similarity, blocks, batch_size=4, seed=seed
        )

        def fitness(cluster_list):
            total = 0.0
            for cluster in cluster_list:
                members = cluster.members
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        total += similarity.score(a, b)
            return total

        before = fitness(clusters)
        refined = klj_refine(clusters, similarity, blocks)
        after = fitness(refined)
        assert after >= before - 1e-9


class TestFusionInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=500.0),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40)
    def test_fused_value_within_candidate_range(self, pairs):
        candidates = [
            CandidateValue(value, score, ("t", i), -1)
            for i, (value, score) in enumerate(pairs)
        ]
        fused = fuse_values(candidates, DataType.QUANTITY)
        values = [value for value, __ in pairs]
        assert min(values) <= fused <= max(values)

    @given(st.floats(min_value=1.0, max_value=500.0), st.integers(1, 8))
    @settings(max_examples=30)
    def test_unanimous_candidates_fuse_to_themselves(self, value, count):
        candidates = [
            CandidateValue(value, 1.0, ("t", i), -1) for i in range(count)
        ]
        assert fuse_values(candidates, DataType.QUANTITY) == value

    @given(
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=10),
        st.integers(0, 1000),
    )
    @settings(max_examples=30)
    def test_majority_fusion_order_invariant(self, values, seed):
        candidates = [
            CandidateValue(value, 1.0, ("t", i), -1)
            for i, value in enumerate(values)
        ]
        shuffled = list(candidates)
        random.Random(seed).shuffle(shuffled)
        first = fuse_values(candidates, DataType.NOMINAL_STRING)
        second = fuse_values(shuffled, DataType.NOMINAL_STRING)
        # Both must be members of the most frequent group.
        from collections import Counter

        top = Counter(values).most_common(1)[0][1]
        assert values.count(first) == top
        assert values.count(second) == top


class TestRankingInvariants:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=40),
        st.integers(1, 40),
    )
    @settings(max_examples=40)
    def test_metrics_bounded(self, relevance_flags, cutoff):
        ranking = [f"e{i}" for i in range(len(relevance_flags))]
        relevance = dict(zip(ranking, relevance_flags))
        scores = ranked_evaluation(ranking, relevance, cutoff=cutoff)
        assert 0.0 <= scores.map_at_cutoff <= 1.0
        assert 0.0 <= scores.precision_at_5 <= 1.0
        assert 0.0 <= scores.precision_at_20 <= 1.0

    @given(st.integers(1, 30))
    @settings(max_examples=20)
    def test_all_relevant_is_perfect(self, size):
        ranking = [f"e{i}" for i in range(size)]
        scores = ranked_evaluation(ranking, {name: True for name in ranking})
        assert scores.map_at_cutoff == 1.0


CLASSES = ("Song", "Settlement", "GridironFootballPlayer")


@pytest.fixture(scope="module")
def worlds():
    """One small world per class, as the invariance probes use them."""
    return {
        class_name: build_world(
            seed=11, scale=WorldScale(0.08), classes=[class_name]
        )
        for class_name in CLASSES
    }


@pytest.fixture(scope="module")
def song_world(worlds):
    return worlds["Song"]


@pytest.fixture(scope="module")
def in_corpus_order(worlds):
    """Each class's canonical bytes over its corpus in generated order."""
    return {
        class_name: RunSession(world).run(
            class_name, use_cache=False
        ).canonical_json()
        for class_name, world in worlds.items()
    }


@pytest.fixture(scope="module")
def song_in_corpus_order(in_corpus_order):
    return in_corpus_order["Song"]


def _shuffled_run(world, class_name: str, shuffle_seed: int) -> str:
    tables = list(world.corpus)
    random.Random(shuffle_seed).shuffle(tables)
    session = RunSession(
        knowledge_base=world.knowledge_base, corpus=TableCorpus(tables)
    )
    return session.run(class_name, use_cache=False).canonical_json()


#: No shrinking: a smaller shuffle seed is not a simpler shuffle, and
#: every example is a full pipeline run.
_SHUFFLES = settings(
    max_examples=5,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


class TestCorpusOrderInvariance:
    @given(st.integers(0, 2**32 - 1))
    @_SHUFFLES
    def test_shuffled_corpus_gives_the_same_bytes(
        self, song_world, song_in_corpus_order, shuffle_seed
    ):
        """No decision depends on the order the corpus lists its tables."""
        assert (
            _shuffled_run(song_world, "Song", shuffle_seed)
            == song_in_corpus_order
        )

    @pytest.mark.parametrize("class_name", CLASSES[1:])
    @given(shuffle_seed=st.integers(0, 2**32 - 1))
    @_SHUFFLES
    def test_every_class_ignores_corpus_order(
        self, worlds, in_corpus_order, class_name, shuffle_seed
    ):
        assert (
            _shuffled_run(worlds[class_name], class_name, shuffle_seed)
            == in_corpus_order[class_name]
        )

    @pytest.mark.parametrize("class_name", CLASSES)
    def test_store_ingest_order_is_not_an_input(
        self, tmp_path, worlds, in_corpus_order, class_name
    ):
        """Cached sessions over stores ingested in two shuffled orders
        give the in-order bytes, and the second is served every stage
        by the artifacts the first stored."""
        world = worlds[class_name]
        tables = list(world.corpus)
        random.Random(class_name).shuffle(tables)
        shared = ArtifactStore()
        reports = []
        for name, order in (("shuffled", tables), ("reversed", tables[::-1])):
            store = CorpusStore.create(tmp_path / name, shards=2)
            store.ingest(order)
            session = RunSession.from_corpus_store(
                store, knowledge_base=world.knowledge_base, artifacts=False
            )
            session.attach_artifact_store(shared)
            result = session.run(class_name, use_cache=True)
            assert result.canonical_json() == in_corpus_order[class_name]
            reports.append(session.last_incremental_report)
            store.close()
        assert reports[0].stage_misses() > 0
        assert reports[1].stage_misses() == 0


def _set_view(result, prefix: str = "") -> list:
    """Each iteration's clusters as row-id sets, and each entity's facts,
    labels and decision keyed by its row-id set, with ``prefix`` taken
    off every table id."""

    def rows(row_ids) -> frozenset:
        assert all(table_id.startswith(prefix) for table_id, __ in row_ids)
        return frozenset(
            (table_id[len(prefix):], index) for table_id, index in row_ids
        )

    view = []
    for artifacts in result.iterations:
        detection = artifacts.detection
        view.append((
            {rows(cluster.row_ids()) for cluster in artifacts.clusters},
            {
                rows(entity.row_ids()): (
                    sorted(
                        (name, repr(value))
                        for name, value in entity.facts.items()
                    ),
                    sorted(entity.labels),
                    detection.classifications[entity.entity_id].name,
                    repr(detection.best_scores.get(entity.entity_id)),
                    detection.correspondences.get(entity.entity_id),
                )
                for entity in artifacts.entities
            },
        ))
    return view


class TestTableIdRenameInvariance:
    """Outputs do not depend on the table ids' text.  The rename keeps
    the ids' sort order, which fusion and clustering tie-breaks read."""

    @pytest.mark.parametrize("class_name", CLASSES)
    def test_order_keeping_rename_gives_the_same_sets(
        self, worlds, class_name
    ):
        world = worlds[class_name]
        renamed = TableCorpus([
            WebTable(
                table_id=f"a_{table.table_id}",
                header=table.header,
                rows=table.rows,
                url=table.url,
            )
            for table in world.corpus
        ])
        original = RunSession(world).run(class_name, use_cache=False)
        result = RunSession(
            knowledge_base=world.knowledge_base, corpus=renamed
        ).run(class_name, use_cache=False)
        assert _set_view(result, prefix="a_") == _set_view(original)


SRC = Path(repro.__file__).resolve().parent

#: Packages and modules that decide what the pipeline outputs.  The gold
#: standard stays out of them: only training, evaluation and the
#: experiment harnesses may read it.
DECISION_CODE = (
    "matching", "clustering", "newdetect", "fusion", "index", "kb", "serve",
    "pipeline/stages.py",
)


def _gold_imports(source: str) -> list[int]:
    """Line numbers of the statements in ``source`` importing the gold standard."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            name == "repro.goldstandard" or name.startswith("repro.goldstandard.")
            for name in modules
        ):
            lines.append(node.lineno)
    return lines


class TestGoldBlindness:
    def test_the_check_sees_every_import_form(self):
        assert _gold_imports("from repro.goldstandard import GoldStandard") == [1]
        assert _gold_imports("def f():\n    import repro.goldstandard.stats\n") == [2]
        assert _gold_imports("from repro import goldstandard") == [1]
        assert _gold_imports("from repro import kb") == []

    def test_decision_code_never_imports_the_gold_standard(self):
        files = []
        for entry in DECISION_CODE:
            path = SRC / entry
            files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
        assert len(files) > len(DECISION_CODE)
        offenders = [
            f"{path.relative_to(SRC)}:{line}"
            for path in files
            for line in _gold_imports(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
