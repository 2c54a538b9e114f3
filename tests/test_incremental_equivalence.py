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
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.api import RunSession
from repro.corpus.store import CorpusStore, content_hash
from repro.io import save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.parallel import ExecutorObserver, dispatch_dirty, make_executor
from repro.pipeline.artifacts import ArtifactStore, fingerprint_evidence
from repro.pipeline.delta import (
    advance_corpus_epoch,
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

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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


#: One snapshot step: a write by the session's own store handle
#: ("insert", "replace", "skip", "error", "remove") or by another handle
#: on the same directory ("foreign-*"), with an index resolved modulo.
_SNAPSHOT_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert", "replace", "skip", "error", "remove",
                "foreign-insert", "foreign-replace", "foreign-remove",
            ]
        ),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=10,
)


def _small_table(table_id: str, revision: int) -> WebTable:
    return WebTable(
        table_id=table_id,
        header=("name", "value"),
        rows=[(f"{table_id} row", str(revision))],
        url=f"http://snapshot.example/{table_id}",
    )


@given(steps=_SNAPSHOT_STEPS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ],
)
def test_patched_snapshot_equals_a_fresh_read(
    tmp_path_factory, song_world, steps
):
    """Own-handle writes patch the session's snapshot; writes through
    another handle make it read again.  Either way the snapshot holds
    the pairs a freshly opened handle reads, its epoch is the one a
    whole digest of that read gives, and equal epochs name equal
    snapshots, both ways round."""
    from repro.obs import Tracer, span_index

    directory = tmp_path_factory.mktemp("snapshots") / "store"
    own = CorpusStore.create(directory, shards=2)
    own.ingest([_small_table(f"t{number}", 0) for number in range(6)])
    session = RunSession(
        knowledge_base=song_world.knowledge_base, corpus=own.as_corpus()
    )
    present = [f"t{number}" for number in range(6)]
    fresh_ids = iter(range(100, 1000))
    revision = 0
    snapshots: dict[str, dict] = {}
    epochs: dict[frozenset, str] = {}

    def guard() -> tuple[list, str]:
        tracer = Tracer()
        state, epoch = session._guard_corpus_epoch(tracer)
        (span,) = [
            span for span in span_index(tracer.events()).values()
            if span["name"] == "corpus_guard"
        ]
        fresh = CorpusStore.open(directory)
        try:
            expected = fresh.content_hashes()
        finally:
            fresh.close()
        assert state == expected
        assert own.content_hashes() == expected
        assert epoch == fingerprint_corpus_state(expected)
        assert snapshots.setdefault(epoch, expected) == expected
        assert epochs.setdefault(frozenset(expected.items()), epoch) == epoch
        return span["attrs"]["snapshot"], epoch

    guard()
    for op, raw_index in steps:
        revision += 1
        handle = own
        if op.startswith("foreign-"):
            handle = CorpusStore.open(directory)
            op = op[len("foreign-"):]
        wrote = True
        if op == "insert":
            table_id = f"t{next(fresh_ids)}"
            handle.ingest([_small_table(table_id, revision)])
            present.append(table_id)
        elif op in ("replace", "skip"):
            table_id = present[raw_index % len(present)]
            report = handle.ingest(
                [_small_table(table_id, revision)],
                on_conflict="replace" if op == "replace" else "skip",
            )
            assert report.conflicts == (op == "skip")
            wrote = op == "replace"
        elif op == "error":
            table_id = f"t{next(fresh_ids)}"
            clash = present[raw_index % len(present)]
            # The first batch is written; the second raises untouched.
            with pytest.raises(ValueError):
                handle.ingest(
                    [_small_table(table_id, revision),
                     _small_table(clash, revision)],
                    on_conflict="error",
                    batch_size=1,
                )
            present.append(table_id)
        elif len(present) > 1:
            handle.remove_tables([present.pop(raw_index % len(present))])
        else:
            wrote = False
        if handle is not own:
            handle.close()
        how, __ = guard()
        if not wrote:
            assert how == "cached"
        elif handle is not own:
            assert how == "read"
        else:
            assert how == "patched"


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

    def test_two_handles_see_each_others_puts(self, tmp_path):
        """A ``repro run --store`` beside the service opens a second
        handle on the same directory."""
        directory = tmp_path / "artifacts"
        service, run = ArtifactStore(directory), ArtifactStore(directory)
        service.put(["from", "service"], {"value": 1})
        run.put(["from", "run"], (2, "two"))
        assert run.get(["from", "service"]) == {"value": 1}
        assert service.get(["from", "run"]) == (2, "two")
        assert len(service) == len(run) == 2
        assert service.describe()["objects"] == 2

    def test_writer_and_reader_threads_share_one_store(self, tmp_path):
        """Threads get their own connections: concurrent puts wait out
        each other's write lock and reads never see "database is
        locked"."""
        store = ArtifactStore(tmp_path / "artifacts")
        n_writers, n_keys = 3, 100
        errors: list[BaseException] = []
        writing = threading.Barrier(n_writers + 1)
        done = threading.Event()

        def write(writer: int) -> None:
            try:
                writing.wait(timeout=60)
                for number in range(n_keys):
                    store.put(["key", writer, number], (writer, number))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def read() -> None:
            try:
                writing.wait(timeout=60)
                while not done.is_set():
                    for number in range(0, n_keys, 7):
                        value = store.get(["key", 0, number])
                        assert value in (None, (0, number))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        writers = [
            threading.Thread(target=write, args=(writer,))
            for writer in range(n_writers)
        ]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in [*writers, reader]:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            reader.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*writers, reader])
        assert errors == []
        assert len(store) == n_writers * n_keys
        assert all(
            store.get(["key", writer, number]) == (writer, number)
            for writer in range(n_writers)
            for number in range(n_keys)
        )

    def test_raise_at_put_leaves_no_row(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        with faults.armed("artifacts.put:raise@1"):
            with pytest.raises(faults.FaultInjected):
                store.put(["doomed"], "value")
        assert store.get(["doomed"]) is None
        assert len(store) == 0
        assert store.writes == 0
        store.put(["doomed"], "value")
        assert store.get(["doomed"]) == "value"
        assert ArtifactStore(store.directory).get(["doomed"]) == "value"

    def test_version_1_directory_opens_as_empty_version_2(self, tmp_path):
        """Version 1 kept one pickle file per object; its objects are
        dropped on open and recomputed by the next run."""
        directory = tmp_path / "artifacts"
        bucket = directory / "objects" / "ab"
        bucket.mkdir(parents=True)
        (bucket / ("ab" + "0" * 38 + ".pkl")).write_bytes(
            pickle.dumps({"stale": True})
        )
        (directory / "artifact_store.json").write_text(
            json.dumps({"version": 1}), encoding="utf-8"
        )
        store = ArtifactStore(directory)
        assert len(store) == 0
        assert not (directory / "objects").exists()
        manifest = json.loads((directory / "artifact_store.json").read_text())
        assert manifest == {"version": 2}
        store.put(["key"], "value")
        assert ArtifactStore(directory).get(["key"]) == "value"


class TestFingerprints:
    def test_snapshot_fingerprint_is_order_free(self):
        """The epoch is a function of the set of pairs; a patch moves it
        to the whole digest of the patched snapshot."""
        forward = {"a": "1", "b": "2"}
        backward = {"b": "2", "a": "1"}
        epoch = fingerprint_corpus_state(forward)
        assert epoch == fingerprint_corpus_state(backward)
        assert len({
            epoch,
            fingerprint_corpus_state({"a": "2", "b": "1"}),
            fingerprint_corpus_state({"a": "1"}),
            fingerprint_corpus_state({}),
        }) == 4
        patched = {"b": "3", "c": "4"}
        assert advance_corpus_epoch(
            epoch, forward, patched, ["a", "b", "c"]
        ) == fingerprint_corpus_state(patched)

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


    def test_a_cached_run_fingerprints_each_input_once(
        self, tmp_path, song_world, world_tables, monkeypatch
    ):
        """Per iteration, each kind of stage input is fingerprinted at
        most once, each entity at most once, and an output a stage hit
        loaded never."""
        import repro.pipeline.artifacts as artifacts
        import repro.pipeline.delta as delta
        from repro.pipeline.stages import PipelineObserver

        names = (
            "fingerprint_records",
            "fingerprint_mapping",
            "fingerprint_tables",
            "fingerprint_clusters",
            "fingerprint_entities",
            "fingerprint_entity",
            "fingerprint_evidence",
        )
        calls: list[tuple[str, int, int]] = []
        iteration = [0]

        class Iterations(PipelineObserver):
            def on_iteration_started(self, class_name, number):
                iteration[0] = number

        for name in names:
            original = getattr(delta, name, None)
            if original is None:
                continue

            def counting(subject, *args, name=name, original=original, **kw):
                calls.append((name, iteration[0], id(subject)))
                return original(subject, *args, **kw)

            monkeypatch.setattr(delta, name, counting)
            monkeypatch.setattr(artifacts, name, counting, raising=False)

        def counts(kind: str) -> dict[int, int]:
            tally: dict[int, int] = {}
            for name, number, __ in calls:
                if name == kind:
                    tally[number] = tally.get(number, 0) + 1
            return tally

        def assert_once_per_value() -> None:
            for name in names:
                if name != "fingerprint_entity":
                    assert all(n <= 1 for n in counts(name).values()), name
            entities = [(n, subject) for name, n, subject in calls
                        if name == "fingerprint_entity"]
            assert len(entities) == len(set(entities))

        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(
            store, observers=[Iterations()]
        )
        session.run(CLASS_NAME)  # every stage misses
        assert_once_per_value()
        assert counts("fingerprint_records") == {1: 1, 2: 1}
        assert counts("fingerprint_entities") == {1: 1, 2: 1}
        calls.clear()
        # A long-tail table changes the epoch, not the class: schema
        # matching misses, and every later stage hits.
        store.ingest(_filler_tables(0, 1))
        session.run(CLASS_NAME)
        events = session.last_incremental_report.stage_events
        assert [kind for name, __, kind in events if name != "schema_match"] == [
            "hit"
        ] * 6
        assert_once_per_value()
        for loaded in ("fingerprint_clusters", "fingerprint_entities",
                       "fingerprint_entity"):
            assert counts(loaded) == {}, loaded
        assert counts("fingerprint_records") == {1: 1, 2: 1}
        calls.clear()
        # Nothing changed: every stage hits and no output is digested.
        session.run(CLASS_NAME)
        assert session.last_incremental_report.stage_misses() == 0
        assert {name for name, *__ in calls} <= {"fingerprint_evidence"}
        assert_once_per_value()


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
    def test_epoch_guard_digests_only_a_changed_snapshot(
        self, song_world, monkeypatch
    ):
        """Only the first snapshot is digested whole.  The same pairs,
        in any order, reuse the previous epoch and evict nothing; a
        changed pair moves the epoch to the new snapshot's digest."""
        import repro.api as api
        from repro.obs import Tracer, span_index

        class Snapshots:
            state = {"a": "1", "b": "2"}

            def content_hashes(self):
                return dict(self.state)

        corpus = Snapshots()
        session = RunSession(
            knowledge_base=song_world.knowledge_base, corpus=corpus
        )
        digests = []
        fingerprint = api.fingerprint_corpus_state

        def counting(state):
            digests.append(list(state.items()))
            return fingerprint(state)

        monkeypatch.setattr(api, "fingerprint_corpus_state", counting)
        __, first = session._guard_corpus_epoch()
        __, again = session._guard_corpus_epoch()
        assert again == first
        assert len(digests) == 1
        corpus.state = {"b": "2", "a": "1"}
        tracer = Tracer()
        __, reordered = session._guard_corpus_epoch(tracer)
        assert reordered == first
        (span,) = [
            span for span in span_index(tracer.events()).values()
            if span["name"] == "corpus_guard"
        ]
        assert span["attrs"]["reused"] is True
        assert span["attrs"]["memo_pruned"] == 0
        corpus.state = {"b": "2", "a": "3"}
        __, changed = session._guard_corpus_epoch()
        assert changed == fingerprint(corpus.state) != first
        assert len(digests) == 1

    def test_stores_ingested_in_opposite_orders_share_an_epoch(
        self, tmp_path, song_world, world_tables
    ):
        tables = world_tables[:N_BASE]
        forward = CorpusStore.create(tmp_path / "forward", shards=2)
        forward.ingest(tables)
        backward = CorpusStore.create(tmp_path / "backward", shards=3)
        backward.ingest(tables[::-1])
        assert forward.table_ids() == backward.table_ids()[::-1]
        epochs = [
            RunSession(
                knowledge_base=song_world.knowledge_base,
                corpus=store.as_corpus(),
            )._guard_corpus_epoch()[1]
            for store in (forward, backward)
        ]
        assert epochs[0] == epochs[1]

    def test_a_fresh_session_reuses_what_own_ingests_produced(
        self, tmp_path, song_world, world_tables
    ):
        """Runs after own-handle ingests key their stages on a patched
        epoch; a new process reads the same content whole and gets the
        same epoch, so every stage is a hit, ``schema_match`` included."""
        from repro.obs import Tracer, span_index

        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)
        store.ingest(world_tables[N_BASE:N_BASE + 2])
        store.ingest([_mutated(world_tables[1], salt=7)], on_conflict="replace")
        tracer = Tracer()
        expected = session.run(CLASS_NAME, trace=tracer).canonical_json()
        (guard,) = [
            span for span in span_index(tracer.events()).values()
            if span["name"] == "corpus_guard"
        ]
        assert guard["attrs"]["snapshot"] == "patched"
        fresh = RunSession.from_corpus_store(store.directory)
        result = fresh.run(CLASS_NAME)
        assert result.canonical_json() == expected
        report = fresh.last_incremental_report
        assert ("schema_match", 1, "hit") in report.stage_events
        assert report.stage_misses() == 0

    def test_replace_through_a_second_handle_reaches_the_next_run(
        self, tmp_path, song_world, world_tables
    ):
        """A write through another handle on the same directory moves
        the shard's change mark, so the session's cached snapshot is not
        served again."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)
        other = CorpusStore.open(store.directory)
        report = other.ingest(
            [_mutated(world_tables[1], salt=2)], on_conflict="replace"
        )
        other.close()
        assert report.replaced_ids == [world_tables[1].table_id]
        result = session.run(CLASS_NAME)
        assert session.last_incremental_report.analysis_computed == 1
        _assert_equivalent(store, result)

    def test_replace_by_an_ingest_process_reaches_the_next_run(
        self, tmp_path, song_world, world_tables
    ):
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)
        replacement = _mutated(world_tables[1], salt=3)
        source = tmp_path / "delta.jsonl"
        source.write_text(
            json.dumps(
                {
                    "table_id": replacement.table_id,
                    "header": list(replacement.header),
                    "rows": [list(row) for row in replacement.rows],
                    "url": replacement.url,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "ingest", str(source),
                "--store", str(store.directory),
                "--on-conflict", "replace", "--json",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["report"]["replaced"] == 1
        result = session.run(CLASS_NAME)
        assert session.last_incremental_report.analysis_computed == 1
        _assert_equivalent(store, result)

    def test_run_after_no_store_change_reads_no_snapshot(
        self, tmp_path, song_world, world_tables
    ):
        """With every shard's change mark where the last snapshot read
        it, a run issues no snapshot ``SELECT`` on ``tables``."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        first = session.run(CLASS_NAME)
        statements: list[str] = []
        for connections in store._connections_by_thread.values():
            for connection in connections.values():
                connection.set_trace_callback(statements.append)
        again = session.run(CLASS_NAME)
        for connections in store._connections_by_thread.values():
            for connection in connections.values():
                connection.set_trace_callback(None)
        assert again.canonical_json() == first.canonical_json()
        assert [s for s in statements if "FROM changes" in s]
        assert [s for s in statements if "content_hash FROM tables" in s] == []

    def test_own_ingest_reaches_the_next_run_without_a_snapshot_read(
        self, tmp_path, song_world, world_tables
    ):
        """An ingest through the session's own store handle patches the
        handle's snapshot, so the next run's guard issues no snapshot
        ``SELECT`` on ``tables`` and digests the patch, not the corpus."""
        import repro.api as api

        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        session.run(CLASS_NAME)
        store.ingest(
            [_mutated(world_tables[1], salt=6), *_filler_tables(0, 2)],
            on_conflict="replace",
        )
        statements: list[str] = []
        for connections in store._connections_by_thread.values():
            for connection in connections.values():
                connection.set_trace_callback(statements.append)
        whole_digests = []
        fingerprint = api.fingerprint_corpus_state

        def counting(state):
            whole_digests.append(len(state))
            return fingerprint(state)

        api.fingerprint_corpus_state = counting
        try:
            result = session.run(CLASS_NAME)
        finally:
            api.fingerprint_corpus_state = fingerprint
            for connections in store._connections_by_thread.values():
                for connection in connections.values():
                    connection.set_trace_callback(None)
        assert [s for s in statements if "FROM changes" in s]
        assert [s for s in statements if "content_hash FROM tables" in s] == []
        assert whole_digests == []
        assert session.last_incremental_report.analysis_computed == 3
        _assert_equivalent(store, result)

    def test_replace_evicts_only_that_id_from_the_view(
        self, tmp_path, song_world, world_tables
    ):
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store, cache_size=1024)
        view = session.corpus
        session.run(CLASS_NAME, use_cache=False)
        cached = set(view._cache)
        replaced = world_tables[1].table_id
        assert replaced in cached
        store.ingest(
            [_mutated(world_tables[1], salt=4)], on_conflict="replace"
        )
        session._guard_corpus_epoch()
        assert set(view._cache) == cached - {replaced}

    def test_guard_span_reports_the_snapshot_delta(
        self, tmp_path, song_world, world_tables
    ):
        """Each traced run has a ``corpus_guard`` span (kind ``guard``,
        not a stage) under its run span."""
        from repro.obs import Tracer, span_index, trace_summary

        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)

        def guard_span(tracer):
            spans = span_index(tracer.events())
            (guard,) = [
                span for span in spans.values()
                if span["name"] == "corpus_guard"
            ]
            assert guard["kind"] == "guard"
            assert spans[guard["parent"]]["kind"] == "run"
            return guard["attrs"]

        first = Tracer()
        session.run(CLASS_NAME, trace=first)
        attrs = guard_span(first)
        assert attrs["reused"] is False
        assert attrs["snapshot"] == "read"
        assert attrs["changed"] == N_BASE
        assert "corpus_guard" not in trace_summary(first.events())[
            "stage_seconds"
        ]
        repeat = Tracer()
        session.run(CLASS_NAME, trace=repeat)
        assert guard_span(repeat) == {
            "reused": True,
            "snapshot": "cached",
            "changed": 0,
            "removed": 0,
            "memo_pruned": 0,
            "view_evicted": 0,
            "kernel_retired": 0,
        }
        store.ingest(
            [_mutated(world_tables[1], salt=5)], on_conflict="replace"
        )
        store.remove_tables([world_tables[2].table_id])
        delta = Tracer()
        session.run(CLASS_NAME, trace=delta)
        attrs = guard_span(delta)
        assert attrs["reused"] is False
        assert attrs["snapshot"] == "patched"
        assert (attrs["changed"], attrs["removed"]) == (1, 1)
        assert attrs["memo_pruned"] == 2

    def test_schema_matching_does_not_list_the_store(
        self, tmp_path, song_world, world_tables
    ):
        """A session run takes its table ids from the epoch guard's
        snapshot; the corpus is not listed again."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        listings = []
        table_ids = session.corpus.table_ids

        def counting_table_ids():
            listings.append(1)
            return table_ids()

        session.corpus.table_ids = counting_table_ids
        result = session.run(CLASS_NAME)
        assert listings == []
        _assert_equivalent(store, result)

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
        # Columns only the replaced content had: no run uses their
        # column memo entries after the replace, so the guard retires
        # them at the corpus change after next.
        current = [*world_tables[:1], replacement, *world_tables[2:N_BASE]]
        gone = _columns(world_tables[1]) - set().union(
            *(_columns(table) for table in current)
        )
        kernels = session.kernels

        def stale_entries(generation):
            return [
                key
                for key in generation(kernels, "attribute_scores")
                if key[3] in gone
            ] + [
                key
                for key in generation(kernels, "parsed_columns")
                if key[1] in gone
            ]

        live = getattr

        def retiring(kernels, name):
            return kernels.retiring[name]

        assert stale_entries(live)
        result = session.run(CLASS_NAME, use_cache=False)
        assert stale_entries(live) == []
        assert stale_entries(retiring)
        assert result.canonical_json() != stale.canonical_json()
        _assert_equivalent(store, result)
        store.ingest(world_tables[N_BASE : N_BASE + 1])
        session.run(CLASS_NAME, use_cache=False)
        assert stale_entries(live) == stale_entries(retiring) == []

    def test_epoch_change_ages_the_kernel_memos(
        self, tmp_path, song_world, world_tables
    ):
        """The guard ages the session's content-keyed memos (to bound
        memory) when the corpus moves, and only then; it never clears
        them, so entries the runs keep using survive every change."""
        store = _make_store(tmp_path, song_world, world_tables[:N_BASE])
        session = RunSession.from_corpus_store(store)
        ages, clears = [], []
        age, clear = session.kernels.age, session.kernels.clear

        def counting_age():
            ages.append(1)
            return age()

        def counting_clear():
            clears.append(1)
            clear()

        session.kernels.age = counting_age
        session.kernels.clear = counting_clear
        session.run(CLASS_NAME)
        session.run(CLASS_NAME)
        assert len(ages) == 1  # the session's first run, not the repeat
        pairs = dict(session.kernels.token_sim)
        assert pairs
        store.ingest(world_tables[N_BASE : N_BASE + 1])
        session.run(CLASS_NAME)
        assert len(ages) == 2
        assert clears == []
        # Every pair the first epoch used is still held: in the live
        # memo if the run after the change used it, retiring if not.
        kernels = session.kernels
        held = {**kernels.retiring["token_sim"], **kernels.token_sim}
        assert pairs.items() <= held.items()


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
        assert report.analyses_from_memo == len(tiny_world.corpus)
        assert report.analyses_from_store == 0
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
        assert (report.analyses_from_memo, report.analyses_from_store) == (
            0, len(store)
        )
        assert report.to_dict()["analyses_from_store"] == len(store)
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

    def test_stored_schema_mapping_does_not_grow_with_unclassed_tables(
        self, tmp_path, song_world, world_tables
    ):
        """The stored ``schema_match`` mapping holds the same entries over
        N and over 2N tables of no class."""
        n = 8
        sizes = []
        for count in (n, 2 * n):
            store = _make_store(
                tmp_path / f"filler-{count}",
                song_world,
                world_tables[:N_BASE] + _filler_tables(0, count),
            )
            session = RunSession.from_corpus_store(store)
            stored = []
            put = session.artifact_store.put

            def spying_put(key, value, stored=stored, put=put):
                if key[:2] == ["stage", "schema_match"]:
                    stored.append(value["mapping"])
                return put(key, value)

            session.artifact_store.put = spying_put
            session.run(CLASS_NAME)
            assert len(stored) == 2  # one per iteration
            sizes.append({len(mapping.by_table) for mapping in stored})
            assert not any(
                table_id.startswith("longtail-")
                for mapping in stored
                for table_id in mapping.by_table
            )
        assert sizes[0] == sizes[1]
        assert min(sizes[0]) > 0
