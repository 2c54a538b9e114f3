"""Tests for the composable stage API and the RunSession service layer."""

from __future__ import annotations

import pytest

import repro
from repro.api import RunSession, config_hash
from repro.newdetect.detector import Classification, DetectionResult
from repro.pipeline.pipeline import LongTailPipeline, PipelineConfig
from repro.pipeline.stages import (
    DEFAULT_STAGE_NAMES,
    STAGES,
    PipelineObserver,
    PipelineStage,
)
from repro.obs import trace_summary


def _song_restriction(song_gold) -> dict:
    """The gold-standard restriction the integration tests run under."""
    return {
        "table_ids": list(song_gold.table_ids),
        "row_ids": set(song_gold.annotated_rows()),
        "known_classes": {
            table_id: "Song" for table_id in song_gold.table_ids
        },
    }


@pytest.fixture(scope="module")
def session(tiny_world):
    return RunSession(world=tiny_world)


@pytest.fixture(scope="module")
def session_run(session, song_gold):
    return session.run("Song", **_song_restriction(song_gold))


class StubDetectStage:
    """Replaces ``detect``: classifies every entity as NEW, records calls."""

    name = "detect"
    provides = ("detection",)

    def __init__(self) -> None:
        self.iterations_seen: list[int] = []

    def run(self, state):
        self.iterations_seen.append(state.iteration)
        state.detection = DetectionResult(
            classifications={
                entity.entity_id: Classification.NEW
                for entity in state.entities
            },
            best_scores={entity.entity_id: None for entity in state.entities},
        )
        return state


class CountingObserver(PipelineObserver):
    def __init__(self) -> None:
        self.runs_started = 0
        self.runs_finished = 0
        self.iterations_started = 0
        self.stages_started = 0
        self.stages_finished = 0

    def on_run_started(self, class_name, config):
        self.runs_started += 1

    def on_iteration_started(self, class_name, iteration):
        self.iterations_started += 1

    def on_stage_started(self, class_name, iteration, stage_name):
        self.stages_started += 1

    def on_stage_finished(self, class_name, iteration, stage_name, seconds):
        self.stages_finished += 1

    def on_run_finished(self, result):
        self.runs_finished += 1


class TestFacade:
    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_lazy_table_covers_all_names(self):
        from repro import _LAZY_EXPORTS

        missing = set(repro.__all__) - set(_LAZY_EXPORTS) - {"__version__"}
        assert not missing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestConfigValidation:
    def test_iterations_must_be_positive(self):
        with pytest.raises(ValueError, match="iterations"):
            PipelineConfig(iterations=0)

    def test_unknown_fusion_scoring_rejected(self):
        with pytest.raises(ValueError, match="fusion_scoring"):
            PipelineConfig(fusion_scoring="majority")

    def test_fusion_scoring_case_insensitive(self):
        assert PipelineConfig(fusion_scoring="KBT").fusion_scoring == "KBT"

    def test_metric_names_copied_to_tuples(self):
        names = ["LABEL", "BOW"]
        config = PipelineConfig(row_metric_names=names)
        names.append("PHI")
        assert config.row_metric_names == ("LABEL", "BOW")

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            PipelineConfig(batch_size=0)

    def test_config_hash_stable_and_sensitive(self):
        assert config_hash(PipelineConfig()) == config_hash(PipelineConfig())
        assert config_hash(PipelineConfig()) != config_hash(
            PipelineConfig(iterations=3)
        )


class TestStageRegistry:
    def test_default_names_registered(self):
        assert set(DEFAULT_STAGE_NAMES) <= set(STAGES.names())

    def test_resolve_default_order(self):
        assert [stage.name for stage in STAGES.resolve()] == list(
            DEFAULT_STAGE_NAMES
        )

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            STAGES.resolve(("schema_match", "bogus"))

    def test_instances_pass_through(self):
        stub = StubDetectStage()
        resolved = STAGES.resolve(("schema_match", stub))
        assert resolved[1] is stub

    def test_builtin_stages_satisfy_protocol(self):
        for stage in STAGES.resolve():
            assert isinstance(stage, PipelineStage)


class TestRunSessionEquivalence:
    def test_matches_legacy_pipeline(
        self, tiny_world, song_gold, session_run
    ):
        legacy = LongTailPipeline.default(tiny_world.knowledge_base).run(
            tiny_world.corpus, "Song", **_song_restriction(song_gold)
        )
        assert session_run.summary() == legacy.summary()
        assert session_run.summary_dict() == legacy.summary_dict()

    def test_summary_dict_shape(self, session_run):
        summary = session_run.summary_dict()
        assert summary["class_name"] == "Song"
        assert summary["iterations"] == 2
        assert (
            summary["new_entities"] + summary["existing_entities"]
            <= summary["entities"]
        )


class TestArtifactCache:
    """Every cached run goes through the session's content-keyed
    artifact store (in memory for sessions built without a directory)."""

    def test_repeat_run_hits_every_stage(self, session, song_gold, session_run):
        again = session.run("Song", **_song_restriction(song_gold))
        report = session.last_incremental_report
        expected = len(DEFAULT_STAGE_NAMES) * 2  # stages × iterations
        assert report.stage_hits() == expected
        assert report.stage_misses() == 0
        assert again.canonical_json() == session_run.canonical_json()

    def test_partial_upstream_stages_reused(self, tiny_world, song_gold):
        fresh = RunSession(world=tiny_world)
        restriction = _song_restriction(song_gold)
        fresh.run("Song", stages=("schema_match", "cluster"), **restriction)
        assert fresh.last_incremental_report.stage_misses() == 4
        full = fresh.run("Song", **restriction)
        # Only the iteration-1 prefix is served: iteration-2 schema
        # matching depends on detection feedback the partial run never made.
        assert fresh.last_incremental_report.stage_hits() == 2
        assert full.final.entities

    def test_use_cache_false_bypasses(self, session, song_gold):
        stats_before = session.artifact_store.stats()
        objects_before = len(session.artifact_store)
        session.run("Song", use_cache=False, **_song_restriction(song_gold))
        assert session.artifact_store.stats() == stats_before
        assert len(session.artifact_store) == objects_before

    def test_config_change_misses(self, session, song_gold):
        session.run(
            "Song",
            config=PipelineConfig(iterations=1, seed=99),
            **_song_restriction(song_gold),
        )
        assert session.last_incremental_report.stage_hits() == 0

    def test_clear_cache(self, tiny_world):
        fresh = RunSession(world=tiny_world)
        fresh.run("Song", stages=("schema_match",))
        assert len(fresh.artifact_store) > 0
        fresh.clear_cache()
        assert len(fresh.artifact_store) == 0
        assert fresh.artifact_store.stats() == {
            "hits": 0, "misses": 0, "writes": 0,
        }

    def test_second_class_reuses_table_analyses(self, tiny_world):
        """Table-to-class decisions are made against the whole KB, so a
        second class's run is served every analysis the first computed."""
        fresh = RunSession(world=tiny_world)
        fresh.run_many(["Song", "Settlement"], stages=("schema_match",))
        report = fresh.last_incremental_report
        assert report.analysis_loaded == len(tiny_world.corpus)
        assert report.analysis_computed == 0


class TestStageSubstitution:
    def test_stub_detect_stage_replaces_builtin(
        self, session, song_gold, session_run
    ):
        # Cache stays on: the default detect stage's artifacts are
        # already stored (session_run), and the stub — despite sharing
        # the "detect" name — must still run and win.
        stub = StubDetectStage()
        result = session.run(
            "Song",
            stages=("schema_match", "cluster", "fuse", stub),
            **_song_restriction(song_gold),
        )
        assert stub.iterations_seen == [1, 2]
        final = result.final
        assert final.entities
        assert all(
            final.detection.classifications[entity.entity_id]
            is Classification.NEW
            for entity in final.entities
        )
        assert len(result.new_entities()) == len(final.entities)
        assert len(session_run.new_entities()) != len(
            session_run.final.entities
        )

    def test_stage_without_provides_is_driven_uncached(self, session):
        class MinimalStage:
            name = "minimal"

            def __init__(self):
                self.calls = 0

            def run(self, state):
                self.calls += 1
                return state

        minimal = MinimalStage()
        session.run("Song", stages=(minimal,))
        session.run("Song", stages=(minimal,))
        assert minimal.calls == 4  # 2 runs × 2 iterations, never cached


class TestObservers:
    def test_hook_invocation_counts(self, session):
        observer = CountingObserver()
        # Stub-only stage list keeps the run cheap; hook counts are the
        # contract under test, not the artifacts.
        stub = StubDetectStage()
        session.run(
            "Song", stages=(stub,), observers=[observer], use_cache=False
        )
        assert observer.runs_started == 1
        assert observer.runs_finished == 1
        assert observer.iterations_started == 2
        assert observer.stages_started == 2
        assert observer.stages_finished == 2

    def test_trace_summary_collects_stage_seconds(self, session):
        stub = StubDetectStage()
        session.run("Song", stages=(stub,), use_cache=False, trace=True)
        events = session.last_trace.events()
        stage_ends = [
            record for record in events
            if record["type"] == "end" and record["kind"] == "stage"
        ]
        # One detect span per iteration, summed under the stage name.
        assert len(stage_ends) == len(stub.iterations_seen) == 2
        assert trace_summary(events)["stage_seconds"] == {
            "detect": pytest.approx(
                sum(record["dur"] for record in stage_ends)
            ),
        }

    def test_session_level_observers(self, tiny_world):
        observer = CountingObserver()
        with_observer = RunSession(world=tiny_world, observers=[observer])
        stub = StubDetectStage()
        with_observer.run("Song", stages=(stub,))
        assert observer.runs_finished == 1


class TestRunMany:
    def test_batch_runs_share_session(self, session, song_gold):
        stub = StubDetectStage()
        results = session.run_many(
            ["Song", "Settlement"], stages=(stub,), use_cache=False
        )
        assert list(results) == ["Song", "Settlement"]
        assert all(
            result.class_name == class_name
            for class_name, result in results.items()
        )

    def test_duplicate_class_names_run_once(self, session):
        stub = StubDetectStage()
        results = session.run_many(["Song", "Song"], stages=(stub,))
        assert list(results) == ["Song"]
        assert stub.iterations_seen == [1, 2]

    def test_session_requires_world_or_parts(self):
        with pytest.raises(ValueError, match="knowledge_base"):
            RunSession()


class TestFromDirectory:
    def test_session_over_saved_world(self, tiny_world, tmp_path):
        from repro.io import save_world_directory

        directory = save_world_directory(tiny_world, tmp_path / "world")
        loaded = RunSession.from_directory(directory)
        assert len(loaded.knowledge_base) == len(tiny_world.knowledge_base)
        assert len(loaded.corpus) == len(tiny_world.corpus)
