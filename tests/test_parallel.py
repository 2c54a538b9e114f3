"""The executor: ordering, failure provenance, config defaults and
observer plumbing, plus a property test that ``map_batches`` equals a
plain per-item map on random inputs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import config_hash
from repro.parallel import (
    EXECUTOR_NAMES,
    ExecutorError,
    ExecutorObserver,
    SerialExecutor,
    make_executor,
)
from repro.perf.counters import bump, counter_delta, kernel_counters
from repro.pipeline.pipeline import PipelineConfig


def square_batch(chunk: list[int]) -> list[int]:
    return [value * value for value in chunk]


def bad_count_batch(chunk: list[int]) -> list[int]:
    return chunk[:-1]  # one result short


def count_items_batch(chunk: list[int]) -> list[int]:
    bump("test.chunk_items", len(chunk))
    return chunk


def explode_on_seven(chunk: list[int]) -> list[int]:
    for value in chunk:
        if value == 7:
            raise ValueError("seven is right out")
    return chunk


# -- map_batches mechanics ---------------------------------------------
class TestMapBatches:
    def test_empty_items(self):
        calls = []
        executor = SerialExecutor()
        assert executor.map_batches(calls.append, []) == []
        assert calls == []  # the batch function never runs

    @pytest.mark.parametrize("n_items", [1, 3, 7, 100])
    def test_order_preserved(self, n_items):
        items = list(range(n_items, 0, -1))
        assert SerialExecutor().map_batches(square_batch, items) == [
            value * value for value in items
        ]

    def test_result_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="returned 3 results"):
            SerialExecutor().map_batches(bad_count_batch, [1, 2, 3, 4])

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SerialExecutor(0)

    def test_observer_sees_every_item(self):
        class Recorder(ExecutorObserver):
            def __init__(self):
                self.started = []
                self.chunks = []

            def on_map_started(self, task_name, n_items, n_chunks):
                self.started.append((task_name, n_items, n_chunks))

            def on_chunk_finished(self, task_name, chunk_index, n_items, seconds):
                self.chunks.append((task_name, chunk_index, n_items))
                assert seconds >= 0.0

        recorder = Recorder()
        executor = SerialExecutor(observers=[recorder])
        executor.map_batches(square_batch, list(range(10)), task_name="obs")
        executor.map_batches(square_batch, [], task_name="empty")
        # One batch per call with items; an empty call fires nothing.
        assert recorder.started == [("obs", 10, 1)]
        assert recorder.chunks == [("obs", 0, 10)]


# -- kernel counters from batches ---------------------------------------
class TestWorkerCounters:
    def test_chunk_counters_reach_the_driver_once(self):
        baseline = kernel_counters()
        SerialExecutor().map_batches(count_items_batch, list(range(10)))
        assert counter_delta(baseline) == {"test.chunk_items": 10}


# -- failure provenance -------------------------------------------------
class TestFailurePropagation:
    def test_error_names_task_chunk_and_items(self):
        with pytest.raises(ExecutorError) as caught:
            SerialExecutor().map_batches(
                explode_on_seven,
                list(range(12)),
                task_name="demo",
                label=lambda value: f"item-{value}",
            )
        error = caught.value
        assert error.task_name == "demo"
        assert error.chunk_index == 0
        assert "item-7" in error.item_labels
        assert "seven is right out" in str(error)
        assert isinstance(error.__cause__, ValueError)


# -- defaults & config plumbing -----------------------------------------
class TestDefaults:
    def test_process_executor_refused(self):
        assert EXECUTOR_NAMES == ("serial",)
        assert PipelineConfig().executor == "serial"
        with pytest.raises(
            ValueError, match="'process'; expected one of: serial"
        ):
            PipelineConfig(executor="process")

    def test_config_validates_executor(self):
        assert PipelineConfig().workers == 1
        with pytest.raises(ValueError, match="unknown executor"):
            PipelineConfig(executor="gpu")
        with pytest.raises(ValueError, match="workers"):
            PipelineConfig(workers=0)

    def test_make_executor_names(self):
        for name in EXECUTOR_NAMES:
            assert make_executor(name, workers=2).name == name
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("queue")

    def test_config_hash_ignores_executor_knobs(self):
        base = PipelineConfig(executor="serial", workers=1)
        more_workers = dataclasses.replace(base, workers=8)
        semantically_different = dataclasses.replace(base, iterations=1)
        assert config_hash(base) == config_hash(more_workers)
        assert config_hash(base) != config_hash(semantically_different)

    def test_fast_candidate_mode_refused(self):
        config = PipelineConfig(executor="serial", workers=1, candidate_mode="exact")
        assert config_hash(config) == config_hash(PipelineConfig())
        with pytest.raises(ValueError, match="fast candidate mode was removed"):
            PipelineConfig(candidate_mode="fast")

    def test_queue_executor_refused(self):
        with pytest.raises(
            ValueError, match="'queue'; expected one of: serial"
        ):
            PipelineConfig(executor="queue")
        with pytest.raises(TypeError, match="queue_dir"):
            PipelineConfig(queue_dir="spool")

    def test_default_config_hash_is_pinned(self):
        # Artifact keys embed this hash: a field added to or dropped from
        # the semantic payload would orphan every store written before.
        assert config_hash(PipelineConfig()) == "1f712237a38521cc"


# -- property-based: map_batches is a per-item map ----------------------
@given(
    items=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60),
)
@settings(max_examples=25, deadline=None)
def test_property_map_batches_equivalent(items):
    """``map_batches`` returns exactly the per-item results, in order."""
    assert SerialExecutor().map_batches(square_batch, items) == [
        value * value for value in items
    ]
