"""Differential harness: incremental runs ≡ full rebuilds, byte for byte.

The incremental engine's correctness claim is *equivalence by
construction*: every artifact served from the persistent store is a pure
function of fingerprinted inputs, so an incremental run over any corpus
history must produce exactly the bytes a from-scratch run over the final
corpus produces.  This module attacks that claim three ways:

* a **hypothesis-driven mutation harness** — random sequences of corpus
  mutations (add / remove / replace tables) with interleaved incremental
  runs, each checked byte-for-byte (``canonical_json``) against a fresh
  full rebuild;
* a **scripted lifecycle** covering the canonical ingest → run → delta →
  run → shrink → run sequence;
* **unit coverage** of the building blocks: the artifact store, corpus
  snapshots, fingerprint sensitivity, dirty-set dispatch, the store's
  removal API, and the session's analysis memo.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunSession
from repro.corpus.store import CorpusStore, content_hash
from repro.io import save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.parallel import ExecutorObserver, dispatch_dirty, make_executor
from repro.pipeline.artifacts import ArtifactStore, fingerprint_evidence
from repro.pipeline.delta import (
    corpus_state,
    fingerprint_corpus_state,
    fingerprint_records,
)
from repro.pipeline.pipeline import PipelineConfig
from repro.synthesis.api import build_world
from repro.synthesis.profiles import WorldScale
from repro.webtables.table import WebTable

CLASS_NAME = "Song"

#: Tables ingested before the first run; the rest form the mutation pool.
N_BASE = 16


@pytest.fixture(scope="module")
def song_world():
    """A small single-class world whose tables the harness permutes."""
    return build_world(seed=11, scale=WorldScale(0.08), classes=[CLASS_NAME])


@pytest.fixture(scope="module")
def world_tables(song_world):
    return list(song_world.corpus)


def _double(items: list[int]) -> list[int]:
    """A batch function for the dirty-set dispatch tests."""
    return [item * 2 for item in items]


def _mutated(table: WebTable, salt: int) -> WebTable:
    """The same table id with deterministically perturbed content."""
    rows = [list(row) for row in table.rows]
    if rows and rows[0]:
        cell = rows[0][0]
        rows[0][0] = f"{cell} (rev {salt})" if cell is not None else f"rev {salt}"
    rows.append(tuple(f"filler {salt}" for _ in table.header))
    return WebTable(
        table_id=table.table_id,
        header=table.header,
        rows=[tuple(row) for row in rows],
        url=table.url,
    )


def _columns(table: WebTable) -> set[tuple]:
    """Each column's cells, top to bottom (the column memos' content key)."""
    return {
        tuple(row[column] for row in table.rows)
        for column in range(table.n_columns)
    }


def _filler_tables(start: int, count: int) -> list[WebTable]:
    """Deterministic long-tail tables that match no KB class."""
    return [
        WebTable(
            table_id=f"longtail-{number:07d}",
            header=("widget", "batch", "lot", "grade"),
            rows=[
                (
                    f"widget {number} unit {row}",
                    f"batch {number % 83}",
                    str(100000 + number * 7 + row),
                    "ABCD"[row % 4],
                )
                for row in range(4)
            ],
            url=f"http://bench.example/longtail/{number}",
        )
        for number in range(start, start + count)
    ]


def _make_store(tmp_path, world, tables):
    store = CorpusStore.create(tmp_path / "store", shards=2)
    store.ingest(tables)
    save_knowledge_base(
        world.knowledge_base, store.directory / WORLD_KB_FILE
    )
    return store


def _assert_equivalent(store, incremental_result) -> str:
    """Byte-compare an incremental result against a fresh full rebuild."""
    oracle = RunSession.from_corpus_store(store, artifacts=False)
    full = oracle.run(CLASS_NAME, use_cache=False)
    incremental_blob = incremental_result.canonical_json()
    assert incremental_blob == full.canonical_json()
    return incremental_blob


class TestScriptedLifecycle:
    """ingest → run → grow → run → mutate → run → shrink → run."""

    @pytest.mark.parametrize("executor", ["serial"])
    def test_full_lifecycle_byte_identical(
        self, tmp_path, song_world, world_tables, executor
    ):
        base, pool = world_tables[:N_BASE], world_tables[N_BASE:]
        store = _make_store(tmp_path, song_world, base)
        session = RunSession.from_corpus_store(
            store, config=PipelineConfig(executor=executor)
        )
        first = session.run(CLASS_NAME)
        _assert_equivalent(store, first)
        assert session.last_incremental_report.analysis_computed == N_BASE

        # Identical corpus: the whole run must be served from the store.
        again = session.run(CLASS_NAME)
        assert again.canonical_json() == first.canonical_json()
        assert session.last_incremental_report.stage_misses() == 0

        # Grow.
        grow = store.ingest(pool[:2])
        assert sorted(grow.dirty_ids) == sorted(
            table.table_id for table in pool[:2]
        )
        grown = session.run(CLASS_NAME)
        _assert_equivalent(store, grown)
        assert session.last_incremental_report.analysis_computed == len(
            grow.dirty_ids
        )

        # Mutate one table in place.
        victim = base[0]
        replace = store.ingest(
            [_mutated(victim, salt=1)], on_conflict="replace"
        )
        assert replace.replaced_ids == [victim.table_id]
        mutated = session.run(CLASS_NAME)
        _assert_equivalent(store, mutated)
        assert session.last_incremental_report.analysis_computed == 1

        # Shrink.
        removed = store.remove_tables([base[1].table_id])
        assert removed == [base[1].table_id]
        shrunk = session.run(CLASS_NAME)
        _assert_equivalent(store, shrunk)
        assert session.last_incremental_report.analysis_computed == 0

    def test_long_tail_delta_recomputes_only_its_analyses(
        self, tmp_path, song_world, world_tables
    ):
        """k new tables of no class cost exactly k table analyses."""
        k = 3
        store = _make_store(
            tmp_path, song_world, world_tables[:N_BASE] + _filler_tables(0, 12)
        )
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)

        assert store.ingest(_filler_tables(12, k)).inserted == k
        refreshed = session.run(CLASS_NAME)
        report = session.last_incremental_report
        assert report.analysis_computed == k
        assert report.analysis_loaded >= len(store) - k
        _assert_equivalent(store, refreshed)

    def test_cold_session_over_warm_store(
        self, tmp_path, song_world, world_tables
    ):
        """A new process (fresh session) reuses the persisted artifacts."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        warm = RunSession.from_corpus_store(store)
        expected = warm.run(CLASS_NAME).canonical_json()

        cold = RunSession.from_corpus_store(store)
        result = cold.run(CLASS_NAME)
        assert result.canonical_json() == expected
        report = cold.last_incremental_report
        assert report.stage_misses() == 0
        assert report.analysis_computed == 0
        assert report.entities_computed == 0


#: One mutation step: an op code plus an index resolved against the
#: current store/pool state (modulo arithmetic keeps any draw valid).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace", "run"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=6,
)


@given(steps=_STEPS)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ],
)
def test_random_mutation_sequences_stay_equivalent(
    tmp_path_factory, song_world, world_tables, steps
):
    """Any mutation history ends byte-identical to a from-scratch run.

    The artifact store persists *across* steps, so later runs are served
    a mixture of artifacts computed under earlier corpus states — the
    exact situation where an unsound cache key would leak stale bytes.
    """
    tmp_path = tmp_path_factory.mktemp("mutseq")
    base, pool = world_tables[:N_BASE], list(world_tables[N_BASE:])
    store = _make_store(tmp_path, song_world, base)
    session = RunSession.from_corpus_store(store)
    present = [table.table_id for table in base]
    revision = 0
    ran = False

    for op, raw_index in steps:
        if op == "add" and pool:
            table = pool.pop(raw_index % len(pool))
            store.ingest([table])
            present.append(table.table_id)
        elif op == "remove" and len(present) > 2:
            table_id = present.pop(raw_index % len(present))
            store.remove_tables([table_id])
        elif op == "replace" and present:
            table_id = present[raw_index % len(present)]
            revision += 1
            store.ingest(
                [_mutated(store.get(table_id), salt=revision)],
                on_conflict="replace",
            )
        elif op == "run":
            result = session.run(CLASS_NAME)
            _assert_equivalent(store, result)
            ran = True
    if not ran:
        result = session.run(CLASS_NAME)
        _assert_equivalent(store, result)


class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        key = ["stage", "cluster", "records", "abc123"]
        assert store.get(key) is None
        digest = store.put(key, {"clusters": [1, 2, 3]})
        assert len(digest) == 40
        assert store.get(key) == {"clusters": [1, 2, 3]}
        assert key in store
        assert len(store) == 1
        assert store.stats() == {"hits": 1, "misses": 1, "writes": 1}

    def test_in_memory_backing(self):
        """Without a directory the store keeps pickles in memory: a value
        mutated after ``put`` or ``get`` is never what the store serves
        next."""
        store = ArtifactStore()
        stored = {"clusters": [1, 2, 3]}
        store.put(["key"], stored)
        stored["clusters"].append(4)
        store.get(["key"])["clusters"].append(5)
        assert store.get(["key"]) == {"clusters": [1, 2, 3]}
        assert ["key"] in store and len(store) == 1
        description = store.describe()
        assert description["directory"] is None
        assert description["objects"] == 1
        assert (description["hits"], description["writes"]) == (2, 1)

    def test_distinct_keys_do_not_collide(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        store.put(["a", 1], "one")
        store.put(["a", 2], "two")
        assert store.get(["a", 1]) == "one"
        assert store.get(["a", 2]) == "two"

    def test_none_is_not_storable(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        with pytest.raises(ValueError, match="None"):
            store.put(["key"], None)

    def test_reopen_preserves_objects(self, tmp_path):
        first = ArtifactStore(tmp_path / "artifacts")
        first.put(["key"], (1, "two"))
        second = ArtifactStore(tmp_path / "artifacts")
        assert second.get(["key"]) == (1, "two")
        assert second.get(["never-written"]) is None

    def test_version_mismatch_rejected(self, tmp_path):
        directory = tmp_path / "artifacts"
        ArtifactStore(directory)
        manifest = directory / "artifact_store.json"
        manifest.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            ArtifactStore(directory)

    def test_open_sweeps_aged_orphan_tmp_files(self, tmp_path):
        """A writer killed between mkstemp and os.replace leaves a
        ``*.tmp`` behind; reopening the store reclaims it once it is
        older than the age guard — and reports it in ``describe()``."""
        directory = tmp_path / "artifacts"
        first = ArtifactStore(directory)
        first.put(["key"], "value")
        bucket = next((directory / "objects").iterdir())
        orphans = [bucket / "deadbeef.pkl.tmp", bucket / "cafef00d.pkl.tmp"]
        ancient = time.time() - 7200
        for orphan in orphans:
            orphan.write_bytes(b"partial write")
            os.utime(orphan, (ancient, ancient))
        second = ArtifactStore(directory)
        assert second.tmp_swept == 2
        assert not any(orphan.exists() for orphan in orphans)
        described = second.describe()
        assert described["tmp_swept"] == 2
        assert described["tmp_pending"] == 0
        # The real artifact survived the sweep.
        assert second.get(["key"]) == "value"

    def test_sweep_spares_young_tmp_files(self, tmp_path):
        """A fresh temp file may belong to a live writer sharing the
        store (another process, the service) — the sweep must not
        touch it."""
        directory = tmp_path / "artifacts"
        ArtifactStore(directory).put(["key"], "value")
        bucket = next((directory / "objects").iterdir())
        in_flight = bucket / "deadbeef.pkl.tmp"
        in_flight.write_bytes(b"partial write")
        reopened = ArtifactStore(directory)
        assert reopened.tmp_swept == 0
        assert in_flight.exists()
        assert reopened.describe()["tmp_pending"] == 1
        # An explicit zero age guard reclaims immediately.
        eager = ArtifactStore(directory, orphan_tmp_age=0.0)
        assert eager.tmp_swept == 1
        assert not in_flight.exists()


class TestFingerprints:
    def test_snapshot_fingerprint_is_order_sensitive(self):
        forward = {"a": "1", "b": "2"}
        backward = {"b": "2", "a": "1"}
        assert fingerprint_corpus_state(forward) != fingerprint_corpus_state(
            backward
        )
        assert fingerprint_corpus_state(
            forward, order=["a", "b"]
        ) == fingerprint_corpus_state(backward, order=["a", "b"])

    def test_store_state_matches_generic_snapshot(self, tmp_path):
        table = WebTable(
            table_id="t1", header=("name",), rows=[("a",)], url="u"
        )
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest([table])
        assert store.content_hashes() == {"t1": content_hash(table)}
        assert corpus_state(store.as_corpus()) == store.content_hashes()

    def test_evidence_fingerprint_distinguishes_feedback(self):
        from repro.matching.matchers import DuplicateEvidence

        empty = DuplicateEvidence()
        loaded = DuplicateEvidence(row_instance={("t", 0): "uri:x"})
        assert fingerprint_evidence(None) != fingerprint_evidence(empty)
        assert fingerprint_evidence(empty) != fingerprint_evidence(loaded)

    def test_record_fingerprint_is_order_sensitive(self, song_world):
        from repro.matching.records import RowRecord

        records = [
            RowRecord(
                row_id=("t", index),
                table_id="t",
                label=f"l{index}",
                norm_label=f"l{index}",
                tokens=frozenset({f"l{index}"}),
            )
            for index in range(2)
        ]
        assert fingerprint_records(records) != fingerprint_records(
            records[::-1]
        )


class TestDirtySetDispatch:
    @pytest.mark.parametrize("executor_name", ["serial"])
    def test_merges_cached_and_fresh(self, executor_name):
        class Recorder(ExecutorObserver):
            def __init__(self):
                self.started = []

            def on_map_started(self, task_name, n_items, n_chunks):
                self.started.append((task_name, n_items))

        recorder = Recorder()
        executor = make_executor(executor_name, 2, [recorder])
        merged = dispatch_dirty(
            _double,
            [1, 2, 3, 4],
            [None, 40, None, 80],
            executor=executor,
            task_name="test",
        )
        assert merged == [2, 40, 6, 80]
        # Only the two dirty items were dispatched.
        assert recorder.started == [("test", 2)]

    def test_all_clean_never_calls_function(self):
        def boom(items):  # pragma: no cover - must not run
            raise AssertionError("dispatched despite clean cache")

        assert dispatch_dirty(boom, [1, 2], [10, 20]) == [10, 20]

    def test_misaligned_cache_rejected(self):
        with pytest.raises(ValueError, match="cached slots"):
            dispatch_dirty(lambda items: items, [1, 2], [None])

    def test_wrong_result_count_rejected(self):
        with pytest.raises(ValueError, match="returned"):
            dispatch_dirty(lambda items: [], [1], [None])


class TestStoreRemoval:
    def _store(self, tmp_path, n=3):
        tables = [
            WebTable(
                table_id=f"t{index}",
                header=("name", "year"),
                rows=[(f"row {index}", str(2000 + index))],
                url=f"http://x/{index}",
            )
            for index in range(n)
        ]
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest(tables)
        return store, tables

    def test_remove_updates_reads_and_state(self, tmp_path):
        store, tables = self._store(tmp_path)
        assert store.remove_tables(["t1"]) == ["t1"]
        assert "t1" not in store
        assert len(store) == 2
        assert "t1" not in store.content_hashes()
        with pytest.raises(KeyError):
            store.get("t1")

    def test_remove_unknown_raises_unless_missing_ok(self, tmp_path):
        store, __ = self._store(tmp_path)
        with pytest.raises(KeyError, match="nope"):
            store.remove_tables(["nope"])
        assert store.remove_tables(["nope"], missing_ok=True) == []

    def test_view_invalidate_drops_stale_tables(self, tmp_path):
        store, tables = self._store(tmp_path)
        view = store.as_corpus()
        assert view.get("t0").rows[0][0] == "row 0"
        mutated = WebTable(
            table_id="t0",
            header=("name", "year"),
            rows=[("changed", "1999")],
            url="http://x/0",
        )
        store.ingest([mutated], on_conflict="replace")
        # The LRU still holds the pre-delta table until invalidated.
        assert view.get("t0").rows[0][0] == "row 0"
        view.invalidate(["t0"])
        assert view.get("t0").rows[0][0] == "changed"
        view.invalidate()
        assert view.cache_info()["size"] == 0

    def test_ingest_report_carries_delta_ids(self, tmp_path):
        store, tables = self._store(tmp_path)
        report = store.ingest(
            [
                tables[0],  # identical
                WebTable(
                    table_id="t1",
                    header=("name", "year"),
                    rows=[("rewritten", "1990")],
                    url="http://x/1",
                ),
                WebTable(
                    table_id="t9",
                    header=("name", "year"),
                    rows=[("fresh", "2024")],
                    url="http://x/9",
                ),
            ],
            on_conflict="replace",
        )
        assert report.inserted_ids == ["t9"]
        assert report.replaced_ids == ["t1"]
        assert report.dirty_ids == ["t9", "t1"]


class TestSessionGuards:
    def test_in_memory_session_can_attach_store(
        self, tmp_path, song_world
    ):
        session = RunSession(song_world)
        session.attach_artifact_store(tmp_path / "artifacts")
        result = session.run(CLASS_NAME)
        fresh = RunSession(song_world)
        expected = fresh.run(CLASS_NAME, use_cache=False)
        assert result.canonical_json() == expected.canonical_json()

    def test_uncached_run_clears_the_incremental_report(self, song_world):
        """An uncached run measured no reuse, so it must not leave the
        previous cached run's report behind."""
        session = RunSession(song_world)
        session.run(CLASS_NAME, stages=("schema_match",))
        assert session.last_incremental_report.analysis_computed == len(
            song_world.corpus
        )
        session.run(CLASS_NAME, stages=("schema_match",), use_cache=False)
        assert session.last_incremental_report is None

    def test_plain_run_before_first_incremental_is_not_trusted(
        self, tmp_path, song_world, world_tables
    ):
        """A mutated-store session's first cached run must not serve
        tables a pre-delta uncached ``run()`` left in the corpus view's
        cache (regression: the epoch guard used to only arm on the
        *second* store-served run)."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        stale = session.run(CLASS_NAME, use_cache=False)  # fills the view
        store.ingest(world_tables[N_BASE : N_BASE + 2])
        result = session.run(CLASS_NAME)
        assert result.canonical_json() != stale.canonical_json()
        _assert_equivalent(store, result)

    def test_uncached_run_after_replace_reads_new_content(
        self, tmp_path, song_world, world_tables
    ):
        """An uncached run after a store mutation must not be served the
        tables an earlier uncached run left in the corpus view's cache:
        every run takes the epoch guard, cached or not."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        stale = session.run(CLASS_NAME, use_cache=False)  # fills the view
        # This table's replacement changes the class's entities.
        replacement = _mutated(world_tables[1], salt=1)
        store.ingest([replacement], on_conflict="replace")
        # Columns only the replaced content had: after the guard, no
        # column memo may still hold an entry for them.
        current = [*world_tables[:1], replacement, *world_tables[2:N_BASE]]
        gone = _columns(world_tables[1]) - set().union(
            *(_columns(table) for table in current)
        )
        kernels = session.kernels

        def stale_entries():
            return [
                key for key in kernels.attribute_scores if key[3] in gone
            ] + [key for key in kernels.parsed_columns if key[1] in gone]

        assert stale_entries()
        result = session.run(CLASS_NAME, use_cache=False)
        assert stale_entries() == []
        assert result.canonical_json() != stale.canonical_json()
        _assert_equivalent(store, result)

    def test_epoch_change_clears_in_memory_cache(
        self, tmp_path, song_world, world_tables
    ):
        """The guard clears the session's content-keyed token memo (to
        bound memory) when the corpus moves, and only then."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        clears = []
        clear = session.kernels.clear

        def counting_clear():
            clears.append(1)
            clear()

        session.kernels.clear = counting_clear
        session.run(CLASS_NAME)
        session.run(CLASS_NAME)
        assert len(clears) == 1  # the session's first run, not the repeat
        store.ingest(world_tables[N_BASE : N_BASE + 1])
        session.run(CLASS_NAME)
        assert len(clears) == 2


def _count_gets(store: ArtifactStore, kind: str | None = None) -> list:
    """Record the keys ``store.get`` is asked for (of one kind, if given)."""
    keys: list = []
    get = store.get

    def counting_get(key):
        if kind is None or key[0] == kind:
            keys.append(key)
        return get(key)

    store.get = counting_get
    return keys


def _memo_tables(session) -> set[tuple[str, str]]:
    return {(table_id, content) for table_id, content, __ in session.analysis_memo}


class TestAnalysisMemo:
    """The session's analysis memo: a class run reads the store's
    analyses only for tables the session has not seen."""

    def test_second_class_run_reads_no_stored_analysis(self, tiny_world):
        session = RunSession(tiny_world)
        analysis_gets = _count_gets(session.artifact_store, "analysis")
        session.run("Song", stages=("schema_match",))
        assert len(analysis_gets) == len(tiny_world.corpus)  # all misses
        analysis_gets.clear()
        session.run("Settlement", stages=("schema_match",))
        assert analysis_gets == []
        report = session.last_incremental_report
        assert report.analysis_loaded == len(tiny_world.corpus)
        assert report.analysis_computed == 0
        assert session.service_stats()["analysis_memo"] == len(
            tiny_world.corpus
        )
        session.clear_cache()
        assert session.analysis_memo == {}

    def test_replace_prunes_the_memo_to_the_snapshot(
        self, tmp_path, song_world, world_tables
    ):
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)
        assert _memo_tables(session) == set(store.content_hashes().items())
        delta = store.ingest(
            [_mutated(world_tables[0], salt=1), *_filler_tables(0, 2)],
            on_conflict="replace",
        )
        analysis_gets = _count_gets(session.artifact_store, "analysis")
        result = session.run(CLASS_NAME)
        # The replaced content's entry is gone; the new ones are in.
        assert _memo_tables(session) == set(store.content_hashes().items())
        assert len(session.analysis_memo) == len(store)
        assert session.last_incremental_report.analysis_computed == len(
            delta.dirty_ids
        )
        # Only the delta missed the memo and asked the store.
        assert sorted(key[3] for key in analysis_gets) == sorted(
            delta.dirty_ids
        )
        _assert_equivalent(store, result)

    def test_fresh_session_loads_analyses_from_disk(
        self, tmp_path, song_world, world_tables
    ):
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        RunSession.from_corpus_store(store).run(CLASS_NAME)
        fresh = RunSession.from_corpus_store(store)
        assert fresh.analysis_memo == {}
        analysis_gets = _count_gets(fresh.artifact_store, "analysis")
        fresh.run(CLASS_NAME, stages=("schema_match",))
        assert len(analysis_gets) == len(store)
        report = fresh.last_incremental_report
        assert report.analysis_loaded == len(store)
        assert report.analysis_computed == 0
        assert _memo_tables(fresh) == set(store.content_hashes().items())

    def test_warm_run_store_reads_do_not_grow_with_unclassed_tables(
        self, tmp_path, song_world, world_tables
    ):
        """After a small delta, a warm class run makes the same number of
        store reads over N and over 2N tables of no class."""
        n = 8
        reads = []
        for count in (n, 2 * n):
            store = _make_store(
                tmp_path / f"filler-{count}",
                song_world,
                world_tables[:N_BASE] + _filler_tables(0, count),
            )
            session = RunSession.from_corpus_store(store)
            session.run(CLASS_NAME)
            store.ingest(
                [_mutated(world_tables[0], salt=1), *_filler_tables(100, 1)],
                on_conflict="replace",
            )
            gets = _count_gets(session.artifact_store)
            session.run(CLASS_NAME)
            assert session.last_incremental_report.analysis_computed == 2
            reads.append(len(gets))
        assert reads[0] == reads[1] > 0
