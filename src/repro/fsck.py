"""`repro fsck` — offline integrity verification and repair for a store.

Walks everything a corpus-store directory accumulates — CorpusStore
shards, the artifact store, the service's pending-run journal — and
checks each component's own invariants:

========== ==========================================================
component  invariants checked (finding ``kind``)
========== ==========================================================
corpus     manifest readable (``manifest_missing`` /
           ``manifest_unreadable``); every shard file present
           (``shard_missing``) and passing SQLite's integrity check
           (``shard_unreadable``); every row's payload decodes
           (``payload_undecodable``), re-hashes to its stored
           ``content_hash`` (``content_hash_mismatch``), and lives in
           the shard ``shard_of(table_id)`` demands
           (``misplaced_table``); no table id stored twice
           (``duplicate_table``)
artifacts  manifest readable (``manifest_unreadable``); the
           ``artifacts.sqlite`` database passing SQLite's integrity
           check (``database_unreadable``); every object row unpickles
           (``object_undecodable``)
service    every pending-run entry ``service/pending/<run_id>.json``
           parses and has the entry shape, as does an older
           version's ``service/pending_runs.json`` if one is left
           (``journal_unreadable``, one finding per file); no
           leftover ``*.tmp`` from an interrupted entry write
           (``orphan_tmp`` — a *warning*)
========== ==========================================================

**Repair semantics** (``--repair``): destructive fixes always move the
corrupt bytes into ``<store>/quarantine/<component>/`` before pruning,
so nothing fsck does is unrecoverable by hand.  The repairs lean on the
stores' own redesign-for-recovery properties:

* artifact-store objects are pure functions of their content-addressed
  keys — a corrupt object row is deleted (its blob quarantined), and a
  corrupt database is quarantined and started afresh, empty; the next
  run recomputes what went, byte-identically.
* corpus rows are content-addressed and re-ingest is idempotent — a
  corrupt or misplaced row is quarantined (as JSON, when recoverable)
  and deleted; re-ingesting the source data restores it.  A missing or
  unreadable shard file is quarantined and recreated empty.
* an unreadable pending-run entry is quarantined on its own; the
  service then resumes every other owed run, which is the honest floor.

:func:`run_fsck` returns a machine-readable :class:`FsckReport`; the
CLI exit-code contract is **0** = clean after this invocation, **1** =
unrepaired findings remain, **2** = usage error (no store there).
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.corpus import store as corpus_store
from repro.corpus.store import shard_of
from repro.pipeline import artifacts as artifact_store
from repro.serve.journal import PendingRunJournal

__all__ = ["FsckFinding", "FsckReport", "run_fsck"]


@dataclass
class FsckFinding:
    """One detected invariant violation (or warning-level oddity)."""

    component: str
    kind: str
    path: str
    detail: str
    severity: str = "error"  #: ``error`` dirties the store, ``warn`` not
    repaired: bool = False
    action: str | None = None

    def to_dict(self) -> dict:
        document = {
            "component": self.component,
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "severity": self.severity,
            "repaired": self.repaired,
        }
        if self.action is not None:
            document["action"] = self.action
        return document


@dataclass
class FsckReport:
    """The machine-readable outcome of one fsck pass."""

    store: str
    repair: bool
    findings: list[FsckFinding] = field(default_factory=list)
    #: Per-component object counts actually examined — a clean report
    #: over zero objects must be distinguishable from real coverage.
    checked: dict = field(default_factory=dict)

    def add(self, finding: FsckFinding) -> FsckFinding:
        self.findings.append(finding)
        return finding

    @property
    def clean(self) -> bool:
        """No *unrepaired error* findings (warnings never dirty)."""
        return not any(
            finding.severity == "error" and not finding.repaired
            for finding in self.findings
        )

    def to_dict(self) -> dict:
        errors = sum(
            1 for finding in self.findings if finding.severity == "error"
        )
        return {
            "store": self.store,
            "repair": self.repair,
            "clean": self.clean,
            "checked": self.checked,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {
                "findings": len(self.findings),
                "errors": errors,
                "warnings": len(self.findings) - errors,
                "repaired": sum(
                    1 for finding in self.findings if finding.repaired
                ),
            },
        }


class _Quarantine:
    """Moves (or writes) corrupt bytes under ``<store>/quarantine/``."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def _slot(self, component: str, name: str) -> Path:
        directory = self.root / component
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / name
        serial = 0
        while target.exists():
            serial += 1
            target = directory / f"{name}.{serial}"
        return target

    def take_file(self, component: str, path: Path) -> str:
        """Move a file into quarantine; returns the destination."""
        target = self._slot(component, path.name)
        path.replace(target)
        return str(target)

    def write_blob(self, component: str, name: str, data: bytes) -> str:
        """Write raw bytes (a quarantined row's blob) to a new file."""
        target = self._slot(component, name)
        target.write_bytes(data)
        return str(target)

    def write_record(self, component: str, name: str, payload: dict) -> str:
        """Append one JSON record (quarantined row content) to a file."""
        directory = self.root / component
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / name
        with target.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        return str(target)


# -- corpus ------------------------------------------------------------
def _quick_check(path: Path) -> str | None:
    """SQLite's integrity verdict for a database file; None when ok."""
    try:
        connection = sqlite3.connect(path)
        try:
            (verdict,) = connection.execute(
                "PRAGMA quick_check"
            ).fetchone()
        finally:
            connection.close()
    except sqlite3.Error as error:
        return f"{type(error).__name__}: {error}"
    return None if verdict == "ok" else str(verdict)


def _quarantine_database(
    quarantine: _Quarantine, component: str, path: Path
) -> str:
    """Move a SQLite file into quarantine; returns the destination.

    Its WAL sidecars go too: they must not leak into a fresh file.
    """
    moved = quarantine.take_file(component, path)
    for suffix in ("-wal", "-shm"):
        sidecar = path.with_name(path.name + suffix)
        if sidecar.exists():
            quarantine.take_file(component, sidecar)
    return moved


def _recreate_shard(path: Path) -> None:
    connection = sqlite3.connect(path)
    try:
        connection.executescript(corpus_store._SHARD_SCHEMA)
        connection.commit()
    finally:
        connection.close()


def _check_corpus(
    directory: Path, report: FsckReport, repair: bool, quarantine: _Quarantine
) -> None:
    manifest_path = directory / corpus_store.MANIFEST_NAME
    counts = {"shards": 0, "tables": 0}
    report.checked["corpus"] = counts
    if not manifest_path.exists():
        # No manifest and no shards: not a corpus store at all — the
        # caller validates store-ness, component checks stay quiet.
        if not list(directory.glob("shard-*.sqlite")):
            return
        report.add(
            FsckFinding(
                "corpus",
                "manifest_missing",
                str(manifest_path),
                "shard files present but no corpus_store.json manifest",
            )
        )
        return
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        n_shards = int(manifest["shards"])
        if n_shards < 1:
            raise ValueError(f"manifest shards={n_shards}")
    except (OSError, ValueError, KeyError, TypeError) as error:
        report.add(
            FsckFinding(
                "corpus",
                "manifest_unreadable",
                str(manifest_path),
                f"cannot read the store manifest: {error}",
            )
        )
        return
    seen_tables: dict[str, int] = {}
    for shard in range(n_shards):
        counts["shards"] += 1
        shard_path = directory / f"shard-{shard:03d}.sqlite"
        if not shard_path.exists():
            finding = report.add(
                FsckFinding(
                    "corpus",
                    "shard_missing",
                    str(shard_path),
                    f"manifest names {n_shards} shards but shard {shard} "
                    f"is absent",
                )
            )
            if repair:
                _recreate_shard(shard_path)
                finding.repaired = True
                finding.action = "recreated empty shard (re-ingest restores)"
            continue
        verdict = _quick_check(shard_path)
        if verdict is not None:
            finding = report.add(
                FsckFinding(
                    "corpus",
                    "shard_unreadable",
                    str(shard_path),
                    f"SQLite integrity check failed: {verdict}",
                )
            )
            if repair:
                moved = _quarantine_database(quarantine, "corpus", shard_path)
                _recreate_shard(shard_path)
                finding.repaired = True
                finding.action = f"quarantined to {moved}, recreated empty"
            continue
        connection = sqlite3.connect(shard_path)
        try:
            rows = connection.execute(
                "SELECT table_id, content_hash, url, payload FROM tables "
                "ORDER BY seq"
            ).fetchall()
        except sqlite3.Error as error:
            connection.close()
            finding = report.add(
                FsckFinding(
                    "corpus",
                    "shard_unreadable",
                    str(shard_path),
                    f"shard schema is broken: {error}",
                )
            )
            if repair:
                moved = _quarantine_database(quarantine, "corpus", shard_path)
                _recreate_shard(shard_path)
                finding.repaired = True
                finding.action = f"quarantined to {moved}, recreated empty"
            continue
        doomed: list[tuple[str, FsckFinding]] = []
        for table_id, stored_hash, url, payload in rows:
            counts["tables"] += 1
            finding: FsckFinding | None = None
            try:
                table = corpus_store._decode(table_id, url, payload)
            except (ValueError, KeyError, TypeError) as error:
                finding = FsckFinding(
                    "corpus",
                    "payload_undecodable",
                    str(shard_path),
                    f"table {table_id!r}: payload does not decode "
                    f"({type(error).__name__}: {error})",
                )
            else:
                actual = corpus_store.content_hash(table)
                if actual != stored_hash:
                    finding = FsckFinding(
                        "corpus",
                        "content_hash_mismatch",
                        str(shard_path),
                        f"table {table_id!r}: stored hash "
                        f"{stored_hash[:12]} != content {actual[:12]}",
                    )
                elif table_id in seen_tables:
                    finding = FsckFinding(
                        "corpus",
                        "duplicate_table",
                        str(shard_path),
                        f"table {table_id!r} also stored in shard "
                        f"{seen_tables[table_id]}",
                    )
                elif shard_of(table_id, n_shards) != shard:
                    finding = FsckFinding(
                        "corpus",
                        "misplaced_table",
                        str(shard_path),
                        f"table {table_id!r} belongs in shard "
                        f"{shard_of(table_id, n_shards)}, found in {shard}",
                    )
            if finding is None:
                seen_tables[table_id] = shard
                continue
            report.add(finding)
            if repair:
                doomed.append((table_id, finding))
        if repair and doomed:
            by_id = {row[0]: row for row in rows}
            destination = None
            for table_id, _ in doomed:
                _, stored_hash, url, payload = by_id[table_id]
                destination = quarantine.write_record(
                    "corpus",
                    f"shard-{shard:03d}.jsonl",
                    {
                        "table_id": table_id,
                        "content_hash": stored_hash,
                        "url": url,
                        "payload": payload,
                    },
                )
            with connection:
                connection.executemany(
                    "DELETE FROM tables WHERE table_id = ?",
                    [(table_id,) for table_id, _ in doomed],
                )
            for _, finding in doomed:
                finding.repaired = True
                finding.action = (
                    f"row quarantined to {destination} and deleted "
                    f"(re-ingest restores)"
                )
        connection.close()


# -- artifacts ---------------------------------------------------------
def _check_artifacts(
    directory: Path, report: FsckReport, repair: bool, quarantine: _Quarantine
) -> None:
    counts = {"objects": 0}
    report.checked["artifacts"] = counts
    if not directory.exists():
        return
    manifest_path = directory / artifact_store.MANIFEST_NAME
    if manifest_path.exists():
        try:
            document = json.loads(manifest_path.read_text(encoding="utf-8"))
            if not isinstance(document, dict) or "version" not in document:
                raise ValueError("manifest is not a version object")
        except (OSError, ValueError) as error:
            finding = report.add(
                FsckFinding(
                    "artifacts",
                    "manifest_unreadable",
                    str(manifest_path),
                    f"cannot read the artifact manifest: {error}",
                )
            )
            if repair:
                quarantine.take_file("artifacts", manifest_path)
                manifest_path.write_text(
                    json.dumps({"version": artifact_store.STORE_VERSION}),
                    encoding="utf-8",
                )
                finding.repaired = True
                finding.action = "quarantined, rewrote version manifest"
    database = directory / artifact_store.DATABASE_NAME
    if not database.exists():
        return
    verdict = _quick_check(database)
    connection = sqlite3.connect(database)
    undecodable: list[tuple[str, bytes, FsckFinding]] = []
    try:
        rows = connection.execute(
            "SELECT digest, blob FROM objects ORDER BY digest"
        ) if verdict is None else ()
        for digest, blob in rows:
            counts["objects"] += 1
            try:
                pickle.loads(blob)
            except Exception as error:  # noqa: BLE001 - any unpickling error
                finding = FsckFinding(
                    "artifacts",
                    "object_undecodable",
                    str(database),
                    f"object {digest} does not unpickle "
                    f"({type(error).__name__}: {error})",
                )
                undecodable.append((digest, blob, finding))
    except sqlite3.Error as error:
        verdict = f"{type(error).__name__}: {error}"
    if verdict is not None:
        connection.close()
        finding = report.add(
            FsckFinding(
                "artifacts",
                "database_unreadable",
                str(database),
                f"SQLite integrity check failed: {verdict}",
            )
        )
        if repair:
            moved = _quarantine_database(quarantine, "artifacts", database)
            artifact_store.connect_database(database).close()
            finding.repaired = True
            finding.action = (
                f"quarantined to {moved}, started an empty store (the "
                f"next run recomputes every artifact)"
            )
        return
    for digest, blob, finding in undecodable:
        report.add(finding)
        if not repair:
            continue
        moved = quarantine.write_blob("artifacts", f"{digest}.pkl", blob)
        with connection:
            connection.execute(
                "DELETE FROM objects WHERE digest = ?", (digest,)
            )
        finding.repaired = True
        finding.action = (
            f"quarantined to {moved} and deleted (content-addressed cache "
            f"entry; the next run recomputes it)"
        )
    connection.close()


# -- service journal ---------------------------------------------------
def _check_service(
    artifacts_dir: Path,
    report: FsckReport,
    repair: bool,
    quarantine: _Quarantine,
) -> None:
    journal = PendingRunJournal(artifacts_dir)
    counts = {"pending_runs": 0, "tmp": 0}
    report.checked["service"] = counts

    def unreadable(path: Path, error: Exception) -> None:
        finding = report.add(
            FsckFinding(
                "service",
                "journal_unreadable",
                str(path),
                f"pending-run journal does not parse: {error}",
            )
        )
        if repair:
            moved = quarantine.take_file("service", path)
            finding.repaired = True
            finding.action = (
                f"quarantined to {moved} (the service restarts without "
                f"the runs it names)"
            )

    # An older version's single-file journal, not yet migrated.
    if journal.legacy_path.exists():
        try:
            counts["pending_runs"] += len(journal.read_legacy())
        except (OSError, ValueError) as error:
            unreadable(journal.legacy_path, error)
    for path in journal.paths():
        try:
            journal.read(path)
        except (OSError, ValueError) as error:
            unreadable(path, error)
            continue
        counts["pending_runs"] += 1
    for path in journal.temp_paths():
        counts["tmp"] += 1
        finding = report.add(
            FsckFinding(
                "service",
                "orphan_tmp",
                str(path),
                "temp file from an interrupted journal write",
                severity="warn",
            )
        )
        if repair:
            moved = quarantine.take_file("service", path)
            finding.repaired = True
            finding.action = f"quarantined to {moved}"


def run_fsck(
    store: str | Path,
    *,
    repair: bool = False,
    quarantine_dir: str | Path | None = None,
) -> FsckReport:
    """Verify (and with ``repair=True`` fix) one store directory.

    ``store`` is a corpus-store directory; its conventional
    ``artifacts/`` satellite is checked when present.  Pointing it at a
    bare artifact store also works — each component check activates on
    its own layout marker.

    Raises :class:`FileNotFoundError` when ``store`` is not a directory
    (the CLI maps that to exit code 2).
    """
    directory = Path(store)
    if not directory.is_dir():
        raise FileNotFoundError(f"no store directory at {directory}")
    report = FsckReport(store=str(directory), repair=repair)
    quarantine = _Quarantine(
        Path(quarantine_dir)
        if quarantine_dir is not None
        else directory / "quarantine"
    )
    _check_corpus(directory, report, repair, quarantine)
    # Conventional layout: <store>/artifacts; a bare artifact store
    # directory is also accepted directly.
    artifacts_dir = directory / "artifacts"
    if not artifacts_dir.exists() and (
        directory / artifact_store.MANIFEST_NAME
    ).exists():
        artifacts_dir = directory
    _check_artifacts(artifacts_dir, report, repair, quarantine)
    _check_service(artifacts_dir, report, repair, quarantine)
    return report
