"""The parallel execution engine: ordering, failure provenance, config
defaults, observer plumbing — and the determinism contract, asserted
property-based across the serial executor and a ``queue`` drained by
``repro worker`` subprocesses, on random inputs and random corpora.
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from queue_worker_helpers import (
    bad_count_batch,
    count_items_batch,
    explode_on_seven,
    square_batch,
    worker_processes,
)
from repro.api import RunSession, config_hash
from repro.clustering.clusterer import RowClusterer
from repro.clustering.context import RowMetricContext, make_row_metrics
from repro.clustering.metrics import LabelMetric
from repro.clustering.parallel_sim import precompute_block_similarities
from repro.clustering.similarity import RowSimilarity
from repro.matching.records import RowRecord, build_row_records
from repro.matching.schema_matcher import SchemaMatcher
from repro.ml.aggregation import StaticWeightedAggregator
from repro.parallel import (
    EXECUTOR_NAMES,
    ExecutorError,
    ExecutorObserver,
    QueueExecutor,
    SerialExecutor,
    default_worker_count,
    make_executor,
)
from repro.perf.counters import counter_delta, kernel_counters
from repro.pipeline.pipeline import PipelineConfig
from repro.text import normalize_label, term_vector, tokenize
from repro.webtables import TableCorpus, WebTable


@pytest.fixture(scope="module")
def fleet_spool(tmp_path_factory):
    """A spool drained by two ``repro worker`` subprocesses."""
    spool = tmp_path_factory.mktemp("fleet") / "queue"
    with worker_processes(spool, count=2):
        yield spool


@pytest.fixture(scope="module")
def executors(fleet_spool):
    """The serial executor, then a queue whose chunks run in other processes."""
    return [
        SerialExecutor(),
        QueueExecutor(
            fleet_spool, workers=2, poll_interval=0.01, no_worker_timeout=30.0
        ),
    ]


# -- map_batches mechanics ---------------------------------------------
class TestMapBatches:
    def test_empty_items(self, executors):
        for executor in executors:
            assert executor.map_batches(square_batch, []) == []

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 100])
    def test_order_preserved(self, executors, chunk_size):
        items = list(range(29))
        expected = [value * value for value in items]
        for executor in executors:
            assert (
                executor.map_batches(square_batch, items, chunk_size=chunk_size)
                == expected
            )

    def test_result_count_mismatch_rejected(self, executors):
        for executor in executors:
            with pytest.raises(ValueError, match="returned 3 results"):
                executor.map_batches(bad_count_batch, [1, 2, 3, 4], chunk_size=4)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SerialExecutor(0)

    def test_observer_sees_every_item(self, executors):
        class Recorder(ExecutorObserver):
            def __init__(self):
                self.started = []
                self.chunks = []

            def on_map_started(self, task_name, n_items, n_chunks):
                self.started.append((task_name, n_items, n_chunks))

            def on_chunk_finished(self, task_name, chunk_index, n_items, seconds):
                self.chunks.append((chunk_index, n_items))
                assert seconds >= 0.0

        for executor in executors:
            recorder = Recorder()
            executor.observers.append(recorder)
            try:
                executor.map_batches(
                    square_batch, list(range(10)), chunk_size=3, task_name="obs"
                )
            finally:
                executor.observers.remove(recorder)
            assert recorder.started == [("obs", 10, 4)]
            assert sorted(recorder.chunks) == [(0, 3), (1, 3), (2, 3), (3, 1)]


# -- kernel counters from chunks ----------------------------------------
class TestWorkerCounters:
    def test_chunk_counters_reach_the_driver_once(self, executors):
        # Worker processes bump their own registries; the driver must add
        # their deltas, and must not add in-process chunks a second time.
        for executor in executors:
            baseline = kernel_counters()
            executor.map_batches(count_items_batch, list(range(10)), chunk_size=3)
            assert counter_delta(baseline) == {"test.chunk_items": 10}, executor

    def test_pool_reports_kernels_that_run_only_in_chunks(self, executors):
        # Block pair precompute scores every pair inside the batch
        # function, so the LABEL metric's memo lookups happen only in
        # chunks.  Each pair is scored once fleet-wide and makes the same
        # lookups whichever process runs it (only the hit/miss split
        # depends on the per-worker memo), so the totals must agree.
        labels = [f"{first} {second}" for first in _WORDS for second in _WORDS]
        records = []
        for number, label in enumerate(labels):
            norm = normalize_label(label)
            records.append(
                RowRecord(
                    row_id=(f"t{number}", 0),
                    table_id=f"t{number}",
                    label=label,
                    norm_label=norm,
                    tokens=term_vector([label]),
                    values={},
                    label_tokens=tuple(tokenize(norm)),
                )
            )
        blocks = {
            record.row_id: frozenset({f"block-{number % 6}"})
            for number, record in enumerate(records)
        }
        lookups = []
        for executor in executors:
            similarity = RowSimilarity(
                [LabelMetric()],
                StaticWeightedAggregator({"LABEL": 1.0}, threshold=0.5),
            )
            baseline = kernel_counters()
            precompute_block_similarities(records, blocks, similarity, executor)
            delta = counter_delta(baseline)
            lookups.append(
                delta.get("monge_elkan.pair_memo_hits", 0)
                + delta.get("monge_elkan.pair_memo_misses", 0)
            )
        assert lookups[0] > 0
        assert lookups == [lookups[0]] * len(executors)


# -- failure provenance -------------------------------------------------
class TestFailurePropagation:
    def test_error_names_task_chunk_and_items(self, executors):
        for executor in executors:
            with pytest.raises(ExecutorError) as caught:
                executor.map_batches(
                    explode_on_seven,
                    list(range(12)),
                    chunk_size=4,
                    task_name="demo",
                    label=lambda value: f"item-{value}",
                )
            error = caught.value
            assert error.task_name == "demo"
            assert error.chunk_index == 1  # 7 lives in [4, 5, 6, 7]
            assert "item-7" in error.item_labels
            assert "seven is right out" in str(error)
            # A queue worker reports the remote exception by type name.
            cause = error.__cause__
            assert getattr(cause, "remote_type", type(cause).__name__) == (
                "ValueError"
            )


# -- defaults & config plumbing -----------------------------------------
class TestDefaults:
    def test_process_executor_refused(self):
        assert EXECUTOR_NAMES == ("serial", "queue")
        assert PipelineConfig().executor == "serial"
        with pytest.raises(
            ValueError, match="'process'; expected one of: serial, queue"
        ):
            PipelineConfig(executor="process")

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        assert default_worker_count() == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert default_worker_count() == 3
        assert PipelineConfig().workers == 3

    def test_config_validates_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            PipelineConfig(executor="gpu")
        with pytest.raises(ValueError, match="workers"):
            PipelineConfig(workers=0)

    def test_make_executor_names(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
        for name in EXECUTOR_NAMES:
            # The queue backend cannot guess its spool directory.
            kwargs = {"queue_dir": tmp_path} if name == "queue" else {}
            assert make_executor(name, workers=2, **kwargs).name == name
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")
        with pytest.raises(ValueError, match="spool directory"):
            make_executor("queue", workers=2)

    def test_config_hash_ignores_executor_knobs(self):
        base = PipelineConfig(executor="serial", workers=1)
        parallel = dataclasses.replace(base, executor="queue", workers=8)
        semantically_different = dataclasses.replace(base, iterations=1)
        assert config_hash(base) == config_hash(parallel)
        assert config_hash(base) != config_hash(semantically_different)

    def test_fast_candidate_mode_refused(self):
        config = PipelineConfig(executor="serial", workers=1, candidate_mode="exact")
        assert config_hash(config) == config_hash(PipelineConfig())
        with pytest.raises(ValueError, match="fast candidate mode was removed"):
            PipelineConfig(candidate_mode="fast")

    def test_default_config_hash_is_pinned(self):
        # Artifact keys embed this hash: a field added to or dropped from
        # the semantic payload would orphan every store written before.
        assert config_hash(PipelineConfig()) == "1f712237a38521cc"


# -- property-based: cross-executor equivalence -------------------------
@given(
    items=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60),
    chunk_size=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_property_map_batches_equivalent(executors, items, chunk_size):
    """All executors return identical, identically-ordered results."""
    outputs = [
        executor.map_batches(square_batch, items, chunk_size=chunk_size)
        for executor in executors
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0] == [value * value for value in items]


_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "river", "stone")


@st.composite
def random_tables(draw) -> list[WebTable]:
    """Small random two-column tables with word-ish labels."""
    n_tables = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for table_number in range(n_tables):
        n_rows = draw(st.integers(min_value=1, max_value=4))
        rows = []
        for __ in range(n_rows):
            words = draw(
                st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)
            )
            year = draw(st.integers(min_value=1900, max_value=2020))
            rows.append((" ".join(words), str(year)))
        tables.append(
            WebTable(f"rand-{table_number:03d}", ("name", "year"), rows)
        )
    return tables


@given(tables=random_tables(), n_real=st.integers(min_value=1, max_value=4))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_stage_outputs_equivalent(
    executors, tiny_world, tables, n_real
):
    """Schema matching + clustering agree across executors on random corpora.

    Random junk tables are mixed with real Song tables so both the
    mapped and the unmapped code paths run.
    """
    real_ids = tiny_world.tables_of_class("Song")[:n_real]
    corpus = TableCorpus(
        tables + [tiny_world.corpus.get(table_id) for table_id in real_ids]
    )
    kb = tiny_world.knowledge_base

    mappings = []
    clusterings = []
    for executor in executors:
        matcher = SchemaMatcher(kb, executor=executor)
        mapping = matcher.match_corpus(corpus)
        mappings.append(
            [
                (
                    table_id,
                    table_mapping.class_name,
                    table_mapping.class_score,
                    table_mapping.label_column,
                    sorted(
                        (column, link.property_name, link.score)
                        for column, link in table_mapping.attributes.items()
                    ),
                )
                for table_id, table_mapping in sorted(mapping.by_table.items())
            ]
        )
        records = build_row_records(corpus, mapping, "Song")
        context = RowMetricContext.build(kb, "Song", records)
        similarity = RowSimilarity(
            make_row_metrics(PipelineConfig().row_metric_names, context),
            StaticWeightedAggregator(
                {
                    name: 1.0 / len(PipelineConfig().row_metric_names)
                    for name in PipelineConfig().row_metric_names
                },
                threshold=0.6,
            ),
        )
        clusterer = RowClusterer(similarity, executor=executor)
        clusterings.append(
            sorted(sorted(cluster.row_ids()) for cluster in clusterer.cluster(records))
        )
    assert mappings[0] == mappings[1]
    assert clusterings[0] == clusterings[1]


@given(n_real=st.integers(min_value=2, max_value=6), seed=st.integers(0, 3))
@settings(max_examples=4, deadline=None)
def test_property_full_pipeline_equivalent(
    fleet_spool, tiny_world, n_real, seed
):
    """The full default pipeline is byte-identical across executors."""
    table_ids = tiny_world.tables_of_class("Song")[: n_real + 2]
    corpus = TableCorpus(
        [tiny_world.corpus.get(table_id) for table_id in table_ids]
    )
    blobs = []
    for name in EXECUTOR_NAMES:
        session = RunSession(
            knowledge_base=tiny_world.knowledge_base,
            corpus=corpus,
            config=PipelineConfig(
                executor=name, workers=2, seed=seed, queue_dir=str(fleet_spool)
            ),
        )
        blobs.append(session.run("Song", use_cache=False).canonical_json())
    assert blobs[0] == blobs[1]
