"""`repro fsck`: every documented corruption class detected and repaired.

The acceptance criterion is two-sided.  *Detection*: for each corruption
class the docstring of :mod:`repro.fsck` documents, a deliberately
corrupted fixture must produce exactly that finding.  *Repair*: after
``repair=True`` the same store must verify clean, with the corrupt bytes
parked under ``quarantine/`` (nothing fsck does is unrecoverable by
hand) — and where the store's own redundancy allows it (corpus rows,
artifact objects), the pruned state must be restorable to full
equivalence by re-running the producer.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path

import pytest

from repro import faults
from repro.api import RunSession
from repro.cli import main
from repro.corpus.store import CorpusStore, content_hash, shard_of
from repro.fsck import run_fsck
from repro.io import load_world_directory, save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE
from repro.pipeline.artifacts import ArtifactStore
from repro.serve import PendingRunJournal

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def golden_world():
    return load_world_directory(GOLDEN_DIR / "world")


@pytest.fixture()
def store(golden_world, tmp_path) -> CorpusStore:
    """A fresh two-shard corpus store of the committed golden world."""
    knowledge_base, corpus = golden_world
    store = CorpusStore.create(tmp_path / "store", shards=2)
    store.ingest(iter(corpus))
    save_knowledge_base(knowledge_base, store.directory / WORLD_KB_FILE)
    yield store
    store.close()


def kinds(report) -> list[str]:
    return [finding.kind for finding in report.findings]


def corrupt_one_row(store: CorpusStore, column: str, value) -> tuple[str, int]:
    """Overwrite ``column`` of the first row of shard 0; returns (id, shard)."""
    store.close()  # release WAL handles before editing behind its back
    shard_path = store.directory / "shard-000.sqlite"
    connection = sqlite3.connect(shard_path)
    with connection:
        (table_id,) = connection.execute(
            "SELECT table_id FROM tables ORDER BY seq LIMIT 1"
        ).fetchone()
        connection.execute(
            f"UPDATE tables SET {column} = ? WHERE table_id = ?",
            (value, table_id),
        )
    connection.close()
    return table_id, 0


# -- corpus corruption classes ------------------------------------------
class TestCorpus:
    def test_pristine_store_is_clean_with_real_coverage(self, store):
        report = run_fsck(store.directory)
        assert report.clean
        assert report.findings == []
        assert report.checked["corpus"]["shards"] == 2
        assert report.checked["corpus"]["tables"] == len(store)

    def test_payload_undecodable(self, store):
        corrupt_one_row(store, "payload", "this is not json")
        report = run_fsck(store.directory)
        assert not report.clean
        assert kinds(report) == ["payload_undecodable"]

    def test_content_hash_mismatch(self, store):
        corrupt_one_row(store, "content_hash", "0" * 40)
        report = run_fsck(store.directory)
        assert not report.clean
        assert kinds(report) == ["content_hash_mismatch"]

    def test_duplicate_table(self, store):
        store.close()
        source = sqlite3.connect(store.directory / "shard-000.sqlite")
        row = source.execute(
            "SELECT table_id, seq, content_hash, n_rows, n_columns, url, "
            "payload FROM tables ORDER BY seq LIMIT 1"
        ).fetchone()
        source.close()
        target = sqlite3.connect(store.directory / "shard-001.sqlite")
        with target:
            target.execute(
                "INSERT INTO tables (table_id, seq, content_hash, n_rows, "
                "n_columns, url, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (row[0], 99999, *row[2:]),
            )
        target.close()
        report = run_fsck(store.directory)
        assert not report.clean
        # The copy in the row's rightful shard scans clean; the stray one
        # is flagged as the duplicate.
        assert kinds(report) == ["duplicate_table"]

    def test_misplaced_table(self, store):
        store.close()
        source = sqlite3.connect(store.directory / "shard-000.sqlite")
        rows = source.execute(
            "SELECT table_id, seq, content_hash, n_rows, n_columns, url, "
            "payload FROM tables ORDER BY seq"
        ).fetchall()
        victim = next(
            row for row in rows if shard_of(row[0], 2) == 0
        )
        with source:
            source.execute(
                "DELETE FROM tables WHERE table_id = ?", (victim[0],)
            )
        source.close()
        target = sqlite3.connect(store.directory / "shard-001.sqlite")
        with target:
            target.execute(
                "INSERT INTO tables (table_id, seq, content_hash, n_rows, "
                "n_columns, url, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                victim,
            )
        target.close()
        report = run_fsck(store.directory)
        assert not report.clean
        assert kinds(report) == ["misplaced_table"]

    def test_shard_missing(self, store):
        store.close()
        (store.directory / "shard-001.sqlite").unlink()
        report = run_fsck(store.directory)
        assert not report.clean
        assert "shard_missing" in kinds(report)

    def test_shard_unreadable(self, store):
        store.close()
        (store.directory / "shard-001.sqlite").write_bytes(
            b"garbage " * 1024
        )
        report = run_fsck(store.directory)
        assert not report.clean
        assert "shard_unreadable" in kinds(report)

    def test_manifest_unreadable(self, store):
        store.close()
        (store.directory / "corpus_store.json").write_text("{broken")
        report = run_fsck(store.directory)
        assert not report.clean
        assert kinds(report) == ["manifest_unreadable"]

    def test_manifest_missing_with_shards_present(self, store):
        store.close()
        (store.directory / "corpus_store.json").unlink()
        report = run_fsck(store.directory)
        assert not report.clean
        assert kinds(report) == ["manifest_missing"]

    @pytest.mark.parametrize(
        "corruption",
        ["payload", "hash", "shard_bytes", "shard_gone"],
    )
    def test_repair_quarantines_then_reingest_restores(
        self, store, golden_world, corruption
    ):
        """Repair prunes (never silently rewrites), and because corpus
        rows are content-addressed and ingest is idempotent, re-ingesting
        the source restores the exact pre-corruption state."""
        __, corpus = golden_world
        expected_hashes = dict(store.content_hashes())
        directory = store.directory
        if corruption == "payload":
            corrupt_one_row(store, "payload", "junk")
        elif corruption == "hash":
            corrupt_one_row(store, "content_hash", "f" * 40)
        elif corruption == "shard_bytes":
            store.close()
            (directory / "shard-000.sqlite").write_bytes(b"\x00" * 4096)
        else:
            store.close()
            (directory / "shard-000.sqlite").unlink()
        report = run_fsck(directory, repair=True)
        assert report.clean
        assert all(finding.repaired for finding in report.findings)
        assert (directory / "quarantine").exists() or corruption == (
            "shard_gone"
        )
        # Clean after repair — and still clean on a fresh pass.
        assert run_fsck(directory).clean
        reopened = CorpusStore.open(directory)
        try:
            reopened.ingest(iter(corpus))
            assert dict(reopened.content_hashes()) == expected_hashes
        finally:
            reopened.close()
        assert run_fsck(directory).clean


# -- artifact-store corruption classes ----------------------------------
@pytest.fixture()
def artifacts(tmp_path) -> ArtifactStore:
    store = ArtifactStore(tmp_path / "artifacts")
    store.put(["stage", 1], {"payload": list(range(8))})
    store.put(["stage", 2], {"payload": "two"})
    return store


def database(artifacts: ArtifactStore) -> Path:
    return artifacts.directory / "artifacts.sqlite"


class TestArtifacts:
    def test_pristine_artifacts_are_clean(self, artifacts):
        report = run_fsck(artifacts.directory)
        assert report.clean
        assert report.findings == []
        assert report.checked["artifacts"]["objects"] == 2

    def test_object_undecodable(self, artifacts):
        connection = sqlite3.connect(database(artifacts))
        with connection:
            connection.execute(
                "UPDATE objects SET blob = ? WHERE digest = ?",
                (b"not a pickle", artifacts.key_digest(["stage", 1])),
            )
        connection.close()
        report = run_fsck(artifacts.directory)
        assert not report.clean
        assert kinds(report) == ["object_undecodable"]
        repaired = run_fsck(artifacts.directory, repair=True)
        assert repaired.clean
        quarantined = artifacts.directory / "quarantine" / "artifacts"
        (parked,) = quarantined.iterdir()
        assert parked.read_bytes() == b"not a pickle"
        # The row went; the next put recomputes it under the same key.
        assert artifacts.get(["stage", 1]) is None
        assert len(artifacts) == 1
        artifacts.put(["stage", 1], {"payload": list(range(8))})
        assert run_fsck(artifacts.directory).findings == []
        assert len(artifacts) == 2

    def test_database_unreadable_is_started_afresh(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        artifacts.put(["stage", 2], {"payload": "two"})
        directory, path = artifacts.directory, database(artifacts)
        # Closing the only handle's connection folds the WAL back into
        # the file before the bytes are clobbered.
        artifacts.close()
        assert not path.with_name(path.name + "-wal").exists()
        path.write_bytes(b"not a database" * 300)
        report = run_fsck(directory)
        assert not report.clean
        assert kinds(report) == ["database_unreadable"]
        repaired = run_fsck(directory, repair=True)
        assert repaired.clean
        assert repaired.findings[0].repaired
        assert list((directory / "quarantine" / "artifacts").iterdir())
        after = run_fsck(directory)
        assert after.findings == []
        assert after.checked["artifacts"]["objects"] == 0
        reopened = ArtifactStore(directory)
        assert reopened.get(["stage", 2]) is None
        reopened.put(["stage", 2], {"payload": "two"})
        assert ArtifactStore(directory).get(["stage", 2]) == {"payload": "two"}

    def test_interrupted_put_leaves_nothing_to_find(self, artifacts):
        with faults.armed("artifacts.put:raise@1"):
            with pytest.raises(faults.FaultInjected):
                artifacts.put(["stage", 3], {"payload": "three"})
        report = run_fsck(artifacts.directory)
        assert report.findings == []
        assert report.checked["artifacts"]["objects"] == 2

    def test_manifest_unreadable_is_rewritten(self, artifacts):
        (artifacts.directory / "artifact_store.json").write_text("[]")
        report = run_fsck(artifacts.directory)
        assert not report.clean
        assert "manifest_unreadable" in kinds(report)
        assert run_fsck(artifacts.directory, repair=True).clean
        document = json.loads(
            (artifacts.directory / "artifact_store.json").read_text()
        )
        assert document["version"] == 2


class TestServiceJournal:
    @staticmethod
    def owed(journal, *run_ids):
        for run_id in run_ids:
            journal.add({"run_id": run_id, "class_name": "Song"})

    def test_journal_unreadable_quarantined(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        journal = PendingRunJournal(artifacts.directory)
        self.owed(journal, "run-0001", "run-0002")
        torn = journal.directory / "run-0001.json"
        torn.write_text("{torn mid-write")
        report = run_fsck(artifacts.directory)
        assert not report.clean
        assert kinds(report) == ["journal_unreadable"]
        assert report.checked["service"]["pending_runs"] == 1
        assert run_fsck(artifacts.directory, repair=True).clean
        assert not torn.exists()
        # Only the torn entry went; the other run is still owed.
        assert [entry["run_id"] for entry in journal.entries()] == [
            "run-0002"
        ]

    def test_wellformed_journal_is_counted(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        self.owed(PendingRunJournal(artifacts.directory), "run-0001")
        report = run_fsck(artifacts.directory)
        assert report.clean
        assert report.findings == []
        assert report.checked["service"]["pending_runs"] == 1

    def test_legacy_journal_unreadable_quarantined(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        legacy = PendingRunJournal(artifacts.directory).legacy_path
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{torn mid-write")
        report = run_fsck(artifacts.directory)
        assert kinds(report) == ["journal_unreadable"]
        assert run_fsck(artifacts.directory, repair=True).clean
        assert not legacy.exists()

    def test_legacy_journal_is_counted(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        legacy = PendingRunJournal(artifacts.directory).legacy_path
        legacy.parent.mkdir(parents=True)
        legacy.write_text(
            json.dumps(
                {"version": 1, "runs": [{"run_id": "run-0001",
                                         "class_name": "Song"}]}
            )
        )
        report = run_fsck(artifacts.directory)
        assert report.clean
        assert report.checked["service"]["pending_runs"] == 1

    def test_stranded_entry_tmp_is_a_warning(self, tmp_path):
        artifacts = ArtifactStore(tmp_path / "artifacts")
        journal = PendingRunJournal(artifacts.directory)
        self.owed(journal, "run-0001")
        (journal.directory / "tmpabc123.tmp").write_text('{"run_id"')
        report = run_fsck(artifacts.directory)
        assert report.clean
        (finding,) = report.findings
        assert (finding.kind, finding.severity) == ("orphan_tmp", "warn")
        assert report.checked["service"] == {"pending_runs": 1, "tmp": 1}
        repaired = run_fsck(artifacts.directory, repair=True)
        assert repaired.findings[0].repaired
        assert journal.temp_paths() == []
        assert run_fsck(artifacts.directory).findings == []


# -- the CLI contract ---------------------------------------------------
class TestOldStoreLayout:
    """Artifact stores once kept named JSON documents under ``meta/``.
    Runs never read what such a store left there, and fsck never checks
    it."""

    def test_leftover_meta_documents_are_ignored(self, store, capsys):
        artifacts_dir = store.directory / "artifacts"
        ArtifactStore(artifacts_dir)
        meta = artifacts_dir / "meta"
        meta.mkdir()
        (meta / "last_corpus_state.json").write_text(
            json.dumps({"state": {"wt:gone": "0" * 40}}), encoding="utf-8"
        )
        (meta / "x.json").write_text("{torn", encoding="utf-8")
        aged = meta / "last_corpus_state.json.tmp"
        aged.write_text("{", encoding="utf-8")
        ancient = time.time() - 7200
        os.utime(aged, (ancient, ancient))
        leftovers = {path.name: path.read_bytes() for path in meta.iterdir()}

        assert main(
            ["run", "Song", "--store", str(store.directory), "--quiet"]
        ) == 0
        # The CLI run stored every artifact; a second session is served
        # all of them, to the committed bytes.
        session = RunSession.from_corpus_store(store)
        result = session.run("Song")
        assert session.last_incremental_report.stage_misses() == 0
        assert result.canonical_json() == (
            GOLDEN_DIR / "expected_Song.json"
        ).read_text(encoding="utf-8")
        assert {
            path.name: path.read_bytes() for path in meta.iterdir()
        } == leftovers

        capsys.readouterr()
        assert main(["fsck", "--store", str(store.directory)]) == 0
        assert "NOT clean" not in capsys.readouterr().out
        assert run_fsck(store.directory).findings == []


class TestCli:
    def test_exit_0_on_clean_store(self, store, capsys):
        assert main(["fsck", "--store", str(store.directory)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_exit_1_on_unrepaired_findings(self, store, capsys):
        corrupt_one_row(store, "content_hash", "0" * 40)
        assert main(["fsck", "--store", str(store.directory)]) == 1
        out = capsys.readouterr().out
        assert "content_hash_mismatch" in out
        assert "NOT clean" in out

    def test_exit_0_after_repair(self, store, capsys):
        corrupt_one_row(store, "content_hash", "0" * 40)
        assert main(
            ["fsck", "--store", str(store.directory), "--repair"]
        ) == 0
        out = capsys.readouterr().out
        assert "[repaired]" in out

    def test_exit_2_without_a_store(self, tmp_path, capsys):
        assert main(["fsck", "--store", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_json_and_report_file(self, store, tmp_path, capsys):
        corrupt_one_row(store, "payload", "junk")
        output = tmp_path / "report.json"
        code = main(
            ["fsck", "--store", str(store.directory), "--json",
             "--output", str(output)]
        )
        assert code == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(output.read_text(encoding="utf-8"))
        assert printed == written
        assert written["clean"] is False
        assert written["summary"]["errors"] == 1
        assert written["findings"][0]["kind"] == "payload_undecodable"
