"""Sharded on-disk corpus store (SQLite-backed).

A :class:`CorpusStore` holds a web-table corpus across ``N`` SQLite shard
files under one directory, with a small JSON manifest recording the
layout.  Tables are **content-addressed**: each record carries a SHA-1
hash of its canonical content, shard placement is derived from the table
id hash, and re-ingesting an unchanged table is an idempotent no-op —
which is what makes batch-wise incremental ingestion safe.

Ingestion is streaming: tables flow in batch by batch, so peak memory is
bounded by ``batch_size``, independent of corpus size.  Each batch is
split into one sub-batch per shard; every sub-batch's outcomes are
decided before any is written, then each is written in one transaction,
in shard order.

The store serves the full read API of
:class:`~repro.webtables.corpus.TableCorpus` (``get`` / ``row`` /
iteration in ingest order / ``table_ids`` / ``total_rows``), and
:meth:`as_corpus` wraps it in a drop-in lazy
:class:`~repro.corpus.view.StoredCorpusView` for the pipeline.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro import faults
from repro.corpus.filters import passes
from repro.webtables.table import Row, RowId, WebTable

MANIFEST_NAME = "corpus_store.json"
STORE_VERSION = 1

#: Conflict policies for a table id that is already stored with
#: *different* content (identical content is always an idempotent skip).
ON_CONFLICT = ("skip", "replace", "error")

_SHARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS tables (
    table_id TEXT PRIMARY KEY,
    seq INTEGER NOT NULL,
    content_hash TEXT NOT NULL,
    n_rows INTEGER NOT NULL,
    n_columns INTEGER NOT NULL,
    url TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS tables_seq ON tables (seq);
CREATE TABLE IF NOT EXISTS changes (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    token TEXT NOT NULL,
    counter INTEGER NOT NULL
);
""" + "".join(
    # Every committed write to ``tables``, by any connection, handle or
    # process, moves the shard's change mark (see ``_change_marks``).
    # The random token is drawn when the row is first made, so a shard
    # file recreated from scratch never repeats an old mark.
    f"""
CREATE TRIGGER IF NOT EXISTS tables_{event.lower()}_counted
AFTER {event} ON tables BEGIN
    INSERT INTO changes (id, token, counter)
    VALUES (1, lower(hex(randomblob(8))), 1)
    ON CONFLICT (id) DO UPDATE SET counter = counter + 1;
END;
"""
    for event in ("INSERT", "UPDATE", "DELETE")
)


def content_hash(table: WebTable) -> str:
    """SHA-1 over a table's canonical JSON content (id excluded)."""
    blob = json.dumps(
        [list(table.header), [list(row) for row in table.rows], table.url],
        separators=(",", ":"),
        ensure_ascii=False,
    )
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def shard_of(table_id: str, n_shards: int) -> int:
    """Stable shard placement from the table id hash."""
    digest = hashlib.sha1(table_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def _encode(table: WebTable, seq: int) -> dict:
    """The row one table is stored as (``INSERT`` parameters by name)."""
    return {
        "table_id": table.table_id,
        "seq": seq,
        "content_hash": content_hash(table),
        "n_rows": table.n_rows,
        "n_columns": table.n_columns,
        "url": table.url,
        "payload": json.dumps(
            {
                "header": list(table.header),
                "rows": [list(row) for row in table.rows],
            },
            separators=(",", ":"),
            ensure_ascii=False,
        ),
    }


def _decode(table_id: str, url: str, payload: str) -> WebTable:
    document = json.loads(payload)
    return WebTable(
        table_id=table_id,
        header=tuple(document["header"]),
        rows=[tuple(row) for row in document["rows"]],
        url=url,
    )


#: A shard's change mark (see ``CorpusStore._change_marks``).
_MARK_SQL = "SELECT token, counter FROM changes"


@dataclass(frozen=True)
class _Snapshot:
    """A ``content_hashes`` result and the change marks it is valid at."""

    marks: tuple
    hashes: dict[str, str]


def _connect(path: Path, schema: str = _SHARD_SCHEMA) -> sqlite3.Connection:
    """A WAL connection to a SQLite file, with ``schema`` applied.

    The artifact store opens its database through this too.
    """
    # ``check_same_thread=False`` lets :meth:`CorpusStore.close` release
    # a connection from a different thread than the one that opened it.
    # Concurrent *use* of one connection is still excluded — the store
    # hands out connections per thread (see ``_connection``).
    connection = sqlite3.connect(path, check_same_thread=False)
    # Concurrent writers (a service ingest racing a `repro ingest` on
    # one store) should wait out a held write lock, not raise a
    # spurious "database is locked" — switching a fresh file to WAL
    # included.
    connection.execute("PRAGMA busy_timeout=30000")
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.executescript(schema)
    return connection


@dataclass
class IngestReport:
    """Counts of what one :meth:`CorpusStore.ingest` call did.

    ``inserted_ids`` / ``replaced_ids`` name the tables the call actually
    wrote — the *delta* an incremental pipeline run must recompute for
    (identical re-ingests and conflicts change nothing, so they carry no
    ids).
    """

    seen: int = 0
    inserted: int = 0
    identical: int = 0
    replaced: int = 0
    conflicts: int = 0
    filtered: dict[str, int] = field(default_factory=dict)
    inserted_ids: list[str] = field(default_factory=list)
    replaced_ids: list[str] = field(default_factory=list)

    @property
    def filtered_total(self) -> int:
        return sum(self.filtered.values())

    @property
    def dirty_ids(self) -> list[str]:
        """Table ids whose stored content this ingest created or changed."""
        return [*self.inserted_ids, *self.replaced_ids]

    def to_dict(self, *, include_ids: bool = True) -> dict:
        """The full report as a JSON-safe document.

        The **one** machine-readable ingest-report shape: ``repro ingest
        --json`` and the service's ``POST /ingest`` both emit exactly
        this, so scripts can consume either interchangeably.
        ``include_ids=False`` drops the per-table id lists for callers
        that only want the counters.
        """
        document: dict = {
            "seen": self.seen,
            "inserted": self.inserted,
            "identical": self.identical,
            "replaced": self.replaced,
            "conflicts": self.conflicts,
            "filtered": dict(sorted(self.filtered.items())),
            "filtered_total": self.filtered_total,
        }
        if include_ids:
            document["inserted_ids"] = list(self.inserted_ids)
            document["replaced_ids"] = list(self.replaced_ids)
            document["dirty_ids"] = self.dirty_ids
        return document

    def merge(self, other: "IngestReport") -> None:
        self.seen += other.seen
        self.inserted += other.inserted
        self.identical += other.identical
        self.replaced += other.replaced
        self.conflicts += other.conflicts
        for name, count in other.filtered.items():
            self.filtered[name] = self.filtered.get(name, 0) + count
        self.inserted_ids.extend(other.inserted_ids)
        self.replaced_ids.extend(other.replaced_ids)

    def summary(self) -> str:
        parts = [
            f"{self.seen} seen",
            f"{self.inserted} inserted",
            f"{self.identical} unchanged",
            f"{self.replaced} replaced",
            f"{self.conflicts} conflicts",
        ]
        if self.filtered:
            rejected = ", ".join(
                f"{name}: {count}" for name, count in sorted(self.filtered.items())
            )
            parts.append(f"{self.filtered_total} filtered ({rejected})")
        return ", ".join(parts)


class CorpusStore:
    """A sharded, content-addressed on-disk web-table corpus."""

    def __init__(self, directory: str | Path, n_shards: int) -> None:
        self.directory = Path(directory)
        self.n_shards = n_shards
        #: Per-thread shard-connection maps: SQLite connections must not
        #: be shared between concurrently running threads, and the
        #: service layer reads the store from many threads while one
        #: writer ingests (WAL mode makes that safe at the file level).
        #: The registry keyed by thread ident lets :meth:`close` release
        #: every connection and lets registration prune connections
        #: whose owning thread has exited (request threads come and go).
        self._local = threading.local()
        self._connections_by_thread: dict[
            int, dict[int, sqlite3.Connection]
        ] = {}
        self._connections_guard = threading.Lock()
        self._next_seq = self._last_seq() + 1
        #: The last :meth:`content_hashes` result and the shards' change
        #: marks it is valid at; shared by every thread of this handle.
        #: This handle's own writes patch it (see ``_patch_snapshot``).
        self._snapshot: _Snapshot | None = None
        #: ``(base, patch)``: applying ``patch`` to ``base``, the mapping
        #: :meth:`patch_since` last answered for, gives the cached
        #: snapshot's mapping.  ``None`` when that is not known.
        self._lineage: tuple[dict[str, str], list] | None = None
        self._snapshot_guard = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(
        cls, directory: str | Path, *, shards: int = 4, exist_ok: bool = False
    ) -> "CorpusStore":
        """Initialize an empty store (manifest + shard files)."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        directory = Path(directory)
        manifest = directory / MANIFEST_NAME
        if manifest.exists() and not exist_ok:
            raise ValueError(f"corpus store already exists at {directory}")
        directory.mkdir(parents=True, exist_ok=True)
        manifest.write_text(
            json.dumps({"version": STORE_VERSION, "shards": shards}),
            encoding="utf-8",
        )
        store = cls(directory, shards)
        for shard in range(shards):
            store._connection(shard)
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "CorpusStore":
        """Open an existing store by its manifest."""
        directory = Path(directory)
        manifest = directory / MANIFEST_NAME
        if not manifest.exists():
            raise FileNotFoundError(
                f"no corpus store at {directory} (missing {MANIFEST_NAME}); "
                f"create one with CorpusStore.create or `repro ingest`"
            )
        document = json.loads(manifest.read_text(encoding="utf-8"))
        if document.get("version") != STORE_VERSION:
            raise ValueError(
                f"unsupported corpus store version {document.get('version')!r}"
            )
        return cls(directory, int(document["shards"]))

    @classmethod
    def open_or_create(
        cls, directory: str | Path, *, shards: int = 4
    ) -> "CorpusStore":
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            return cls.open(directory)
        return cls.create(directory, shards=shards)

    def close(self) -> None:
        with self._connections_guard:
            by_thread = self._connections_by_thread
            self._connections_by_thread = {}
        for connections in by_thread.values():
            for connection in connections.values():
                try:
                    connection.close()
                except sqlite3.ProgrammingError:  # pragma: no cover
                    pass  # already closed by its owning thread
        self._local = threading.local()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingestion ------------------------------------------------------
    def ingest(
        self,
        tables: Iterable[WebTable],
        *,
        filters: Iterable = (),
        on_conflict: str = "skip",
        batch_size: int = 512,
        tracer=None,
    ) -> IngestReport:
        """Stream tables into the store, batch by batch.

        ``filters`` are :class:`~repro.corpus.filters.CorpusFilter`
        predicates applied before any write; rejections are counted per
        filter name.  ``on_conflict`` decides what happens when an id
        arrives with different content than stored (identical content is
        always an idempotent skip).  ``tracer`` (a
        :class:`repro.obs.Tracer`) records one ``ingest_batch`` span per
        batch with a timed child span per shard written, in shard order.
        """
        if on_conflict not in ON_CONFLICT:
            raise ValueError(
                f"on_conflict must be one of {ON_CONFLICT}, got {on_conflict!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        filters = list(filters)
        report = IngestReport()
        batch: list[WebTable] = []
        for table in tables:
            report.seen += 1
            rejected_by = passes(table, filters)
            if rejected_by is not None:
                report.filtered[rejected_by] = (
                    report.filtered.get(rejected_by, 0) + 1
                )
                continue
            batch.append(table)
            if len(batch) >= batch_size:
                self._ingest_batch(batch, on_conflict, report, tracer)
                batch = []
        if batch:
            self._ingest_batch(batch, on_conflict, report, tracer)
        return report

    def put(self, table: WebTable, *, on_conflict: str = "error") -> str:
        """Store one table; returns its ingest outcome."""
        report = IngestReport()
        self._ingest_batch([table], on_conflict, report)
        if report.inserted:
            return "inserted"
        if report.replaced:
            return "replaced"
        if report.identical:
            return "identical"
        return "conflict"

    def _ingest_batch(
        self,
        batch: list[WebTable],
        on_conflict: str,
        report: IngestReport,
        tracer=None,
    ) -> None:
        partitions: dict[int, list[dict]] = {}
        for table in batch:
            record = _encode(table, self._next_seq)
            self._next_seq += 1
            shard = shard_of(table.table_id, self.n_shards)
            partitions.setdefault(shard, []).append(record)
        shards = sorted(partitions)
        batch_span = None
        if tracer is not None:
            batch_span = tracer.begin(
                "ingest_batch",
                "ingest",
                attrs={"tables": len(batch), "shards": len(shards)},
            )
        # Decide every shard's outcomes before writing any, so an
        # ``on_conflict="error"`` batch raises with every shard untouched.
        decided = [
            self._decide(shard, partitions[shard], on_conflict)
            for shard in shards
        ]
        base = self._snapshot
        marks = list(base.marks) if base is not None else None
        try:
            for shard, (_, writes) in zip(shards, decided):
                started_wall = time.time()
                started = time.perf_counter()
                # A crash here loses this shard's writes (the transaction
                # below never commits) but can never tear a shard —
                # re-ingest is idempotent.
                faults.check("corpus.shard_write")
                if writes:
                    __, marks = self._write(
                        shard,
                        marks,
                        "INSERT OR REPLACE INTO tables "
                        "(table_id, seq, content_hash, n_rows, n_columns, url, "
                        "payload) VALUES (:table_id, :seq, :content_hash, "
                        ":n_rows, :n_columns, :url, :payload)",
                        writes,
                    )
                if tracer is not None:
                    tracer.span(
                        f"shard-{shard:03d}",
                        "shard",
                        parent=batch_span.span_id,
                        ts=started_wall,
                        dur=time.perf_counter() - started,
                        attrs={"tables": len(partitions[shard])},
                    )
        except BaseException:
            self._forget_snapshot()
            raise
        written = [record for _, writes in decided for record in writes]
        if written:
            self._patch_snapshot(
                base,
                marks,
                [
                    (record["table_id"], record["content_hash"])
                    for record in written
                ],
            )
        flat = [outcome for outcomes, _ in decided for outcome in outcomes]
        for table_id, outcome in flat:
            if outcome == "inserted":
                report.inserted += 1
                report.inserted_ids.append(table_id)
            elif outcome == "identical":
                report.identical += 1
            elif outcome == "replaced":
                report.replaced += 1
                report.replaced_ids.append(table_id)
            else:
                report.conflicts += 1
        if batch_span is not None:
            kinds = [outcome for _, outcome in flat]
            tracer.end(
                batch_span,
                {
                    "inserted": kinds.count("inserted"),
                    "replaced": kinds.count("replaced"),
                    "identical": kinds.count("identical"),
                },
            )

    def _decide(
        self, shard: int, records: list[dict], on_conflict: str
    ) -> tuple[list[tuple[str, str]], list[dict]]:
        """One shard's ``(table_id, outcome)`` pairs and records to write.

        Outcomes: ``inserted`` / ``identical`` (idempotent re-ingest) /
        ``replaced`` / ``conflict`` (kept the stored version).  Raises
        on a changed-content conflict under ``on_conflict="error"``.
        """
        connection = self._connection(shard)
        # table_id -> (content_hash, seq) of what the store will hold once
        # earlier records of this batch are applied.
        existing: dict[str, tuple[str, int]] = {}
        ids = [record["table_id"] for record in records]
        for start in range(0, len(ids), 500):
            chunk = ids[start:start + 500]
            placeholders = ",".join("?" * len(chunk))
            for table_id, known_hash, seq in connection.execute(
                f"SELECT table_id, content_hash, seq FROM tables "
                f"WHERE table_id IN ({placeholders})",
                chunk,
            ):
                existing[table_id] = (known_hash, seq)
        outcomes: list[tuple[str, str]] = []
        writes: list[dict] = []
        for record in records:
            table_id = record["table_id"]
            known = existing.get(table_id)
            if known is None:
                outcomes.append((table_id, "inserted"))
                writes.append(record)
                existing[table_id] = (record["content_hash"], record["seq"])
            elif known[0] == record["content_hash"]:
                outcomes.append((table_id, "identical"))
            elif on_conflict == "replace":
                # Keep the original seq: replacement updates content in
                # place, it does not move the table in ingest order.
                record["seq"] = known[1]
                outcomes.append((table_id, "replaced"))
                writes.append(record)
                existing[table_id] = (record["content_hash"], known[1])
            elif on_conflict == "error":
                raise ValueError(
                    f"table id conflict: {table_id!r} already stored with "
                    f"different content (hash {known[0][:12]} != "
                    f"{record['content_hash'][:12]})"
                )
            else:
                # Skip: the store keeps its version; later duplicates of
                # the rejected content must also count as conflicts.
                outcomes.append((table_id, "conflict"))
        return outcomes, writes

    def remove_tables(
        self, table_ids: Iterable[str], *, missing_ok: bool = False
    ) -> list[str]:
        """Delete tables from the store; returns the ids actually removed.

        Corpora shrink too — a source retracts a page, a filter policy
        tightens — and incremental runs treat removal as a first-class
        delta.  Unknown ids raise ``KeyError`` unless ``missing_ok``.
        """
        removed: list[str] = []
        base = self._snapshot
        marks = list(base.marks) if base is not None else None
        try:
            for table_id in table_ids:
                shard = shard_of(table_id, self.n_shards)
                deleted, marks = self._write(
                    shard,
                    marks,
                    "DELETE FROM tables WHERE table_id = ?",
                    [(table_id,)],
                )
                if deleted == 0:
                    if missing_ok:
                        continue
                    raise KeyError(
                        f"cannot remove {table_id!r}: not in corpus store "
                        f"{self.directory}"
                    )
                removed.append(table_id)
        except BaseException:
            self._forget_snapshot()
            raise
        if removed:
            self._patch_snapshot(
                base, marks, [(table_id, None) for table_id in removed]
            )
        return removed

    # -- the cached snapshot ---------------------------------------------
    def _write(
        self, shard: int, marks: list | None, sql: str, rows: list
    ) -> tuple[int, list | None]:
        """``sql`` over ``rows`` in one write transaction on a shard.

        Returns the rows it changed and ``marks`` with the shard's new
        change mark, or ``None`` for ``marks``.  The mark is read inside
        the transaction, before and after the write.  If the mark before
        is the one in ``marks`` (the marks the cached snapshot is valid
        at, as moved by this call's earlier writes), no other writer
        touched the shard since that snapshot, so this write is its only
        change and the snapshot can be patched with it.  Otherwise the
        next read is a full one.
        """
        connection = self._connection(shard)
        # Commits on success, rolls back on any raise.
        with connection:
            connection.execute("BEGIN IMMEDIATE")
            before = connection.execute(_MARK_SQL).fetchone()
            changed = connection.executemany(sql, rows).rowcount
            after = connection.execute(_MARK_SQL).fetchone()
        if marks is None or before != marks[shard]:
            return changed, None
        marks[shard] = after
        return changed, marks

    def _patch_snapshot(
        self,
        base: _Snapshot | None,
        marks: list | None,
        patch: list[tuple[str, str | None]],
    ) -> None:
        """Apply one call's committed writes to the cached snapshot.

        ``patch`` holds ``(table id, content hash)`` per stored record
        and ``(table id, None)`` per removed table, in write order.  The
        snapshot is patched only if ``base`` is still the cached one and
        every write started from its marks; if a write did not, another
        writer came between and the snapshot is dropped.  A patch makes
        a new mapping; no caller's is mutated.
        """
        with self._snapshot_guard:
            if base is None or self._snapshot is not base:
                return
            if marks is None:
                self._snapshot = self._lineage = None
                return
            hashes = dict(base.hashes)
            for table_id, chash in patch:
                if chash is None:
                    hashes.pop(table_id, None)
                else:
                    hashes[table_id] = chash
            self._snapshot = _Snapshot(tuple(marks), hashes)
            lineage = self._lineage
            if lineage is not None:
                pending = lineage[1] + patch
                # Past the snapshot's size, digesting it whole is cheaper.
                self._lineage = (
                    (lineage[0], pending)
                    if len(pending) <= len(hashes)
                    else None
                )

    def _forget_snapshot(self) -> None:
        with self._snapshot_guard:
            self._snapshot = None
            self._lineage = None

    def patch_since(
        self, previous: dict[str, str] | None, snapshot: dict[str, str]
    ) -> list[tuple[str, str | None]] | None:
        """The patch that turns ``previous`` into ``snapshot``, if known.

        Known when ``snapshot`` is the cached :meth:`content_hashes`
        result, ``previous`` is the mapping the last call answered for
        (or the read it came from), and every change between the two was
        a write of this handle's (see ``_patch_snapshot``).  Otherwise
        ``None``.  Either way the next call answers for ``snapshot``.
        The session's epoch guard is the one caller: it holds
        ``previous`` and takes the ids the patch touched from it.
        """
        with self._snapshot_guard:
            cached = self._snapshot
            if cached is None or cached.hashes is not snapshot:
                return None
            lineage = self._lineage
            self._lineage = (snapshot, [])
            if lineage is None or lineage[0] is not previous:
                return None
            return lineage[1]

    # -- read API -------------------------------------------------------
    def content_hashes(self) -> dict[str, str]:
        """``{table_id: content_hash}`` for every table, in no fixed order.

        Served straight from the shard metadata — no payload is decoded —
        so the corpus snapshot every run takes at its start is cheap even
        at web scale.  When no thread, handle or process has committed a
        write to any shard since the last call, the last snapshot is
        handed back as is, after one read of each shard's change mark
        and without reading ``tables``.  When only this handle wrote —
        :meth:`ingest` and :meth:`remove_tables` check that inside each
        write transaction — the snapshot was already patched with the
        writes and is handed back the same way; :meth:`patch_since` then
        names the patch.  Callers share the returned mapping and must
        not mutate it; a patch makes a new one.
        """
        marks = self._change_marks()
        with self._snapshot_guard:
            cached = self._snapshot
            if cached is not None and cached.marks == marks:
                return cached.hashes
            snapshot: dict[str, str] = {}
            for shard in range(self.n_shards):
                snapshot.update(
                    self._connection(shard).execute(
                        "SELECT table_id, content_hash FROM tables"
                    )
                )
            # The marks were read first: a write racing the reads above
            # leaves them behind, so the next call reads again.
            self._snapshot = _Snapshot(marks, snapshot)
            self._lineage = (snapshot, [])
            return snapshot

    def _change_marks(self) -> tuple:
        """Each shard's ``(token, counter)`` change mark, in shard order.

        The triggers of the shard schema move a shard's mark in every
        transaction that writes its ``tables``, so equal marks mean no
        committed write in between.  ``PRAGMA data_version`` would not
        do: it is per connection, and this store opens one per thread.
        """
        return tuple(
            self._connection(shard).execute(_MARK_SQL).fetchone()
            for shard in range(self.n_shards)
        )

    def get(self, table_id: str) -> WebTable:
        row = self._connection(shard_of(table_id, self.n_shards)).execute(
            "SELECT url, payload FROM tables WHERE table_id = ?", (table_id,)
        ).fetchone()
        if row is None:
            raise KeyError(
                f"table {table_id!r} not in corpus store {self.directory} "
                f"({len(self)} tables across {self.n_shards} shards)"
            )
        return _decode(table_id, row[0], row[1])

    def __contains__(self, table_id: str) -> bool:
        row = self._connection(shard_of(table_id, self.n_shards)).execute(
            "SELECT 1 FROM tables WHERE table_id = ?", (table_id,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return sum(
            self._connection(shard).execute(
                "SELECT COUNT(*) FROM tables"
            ).fetchone()[0]
            for shard in range(self.n_shards)
        )

    def __iter__(self) -> Iterator[WebTable]:
        """Tables in global ingest order, streamed shard-merged."""
        cursors = [
            self._connection(shard).execute(
                "SELECT seq, table_id, url, payload FROM tables ORDER BY seq"
            )
            for shard in range(self.n_shards)
        ]
        for _seq, table_id, url, payload in heapq.merge(
            *cursors, key=lambda entry: entry[0]
        ):
            yield _decode(table_id, url, payload)

    def table_ids(self) -> list[str]:
        """All table ids in global ingest order."""
        entries: list[tuple[int, str]] = []
        for shard in range(self.n_shards):
            entries.extend(
                self._connection(shard).execute(
                    "SELECT seq, table_id FROM tables"
                )
            )
        entries.sort()
        return [table_id for _seq, table_id in entries]

    def total_rows(self) -> int:
        return sum(
            self._connection(shard).execute(
                "SELECT COALESCE(SUM(n_rows), 0) FROM tables"
            ).fetchone()[0]
            for shard in range(self.n_shards)
        )

    def row(self, row_id: RowId) -> Row:
        table_id, row_index = row_id
        return self.get(table_id).row(row_index)

    def shard_sizes(self) -> dict[int, int]:
        """Table count per shard (balance diagnostics)."""
        return {
            shard: self._connection(shard).execute(
                "SELECT COUNT(*) FROM tables"
            ).fetchone()[0]
            for shard in range(self.n_shards)
        }

    def as_corpus(self, cache_size: int = 256):
        """A lazy :class:`TableCorpus`-compatible view over this store."""
        from repro.corpus.view import StoredCorpusView

        return StoredCorpusView(self, cache_size=cache_size)

    # -- internals ------------------------------------------------------
    def _shard_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard:03d}.sqlite"

    def _connection(self, shard: int) -> sqlite3.Connection:
        connections = getattr(self._local, "connections", None)
        if connections is None:
            connections = self._local.connections = {}
            with self._connections_guard:
                self._connections_by_thread[
                    threading.get_ident()
                ] = connections
                self._prune_dead_threads()
        connection = connections.get(shard)
        if connection is None:
            connection = _connect(self._shard_path(shard))
            connections[shard] = connection
        return connection

    def _prune_dead_threads(self) -> None:
        """Close connections whose owning thread exited (guard held)."""
        alive = {thread.ident for thread in threading.enumerate()}
        for ident in [
            ident for ident in self._connections_by_thread
            if ident not in alive
        ]:
            for connection in self._connections_by_thread.pop(ident).values():
                try:
                    connection.close()
                except sqlite3.ProgrammingError:  # pragma: no cover
                    pass

    def _last_seq(self) -> int:
        highest = 0
        for shard in range(self.n_shards):
            if not self._shard_path(shard).exists():
                continue
            value = self._connection(shard).execute(
                "SELECT COALESCE(MAX(seq), 0) FROM tables"
            ).fetchone()[0]
            highest = max(highest, value)
        return highest
