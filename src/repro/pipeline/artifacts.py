"""Content-addressed pipeline artifacts: the one stage cache.

Every cached :meth:`repro.api.RunSession.run` goes through this module:

* :class:`ArtifactStore` — a small content-addressed object store.  Keys
  are canonical-JSON structures digesting every input of the stored
  value; values are pickles.  A store with a directory (by convention
  ``<corpus-store>/artifacts``) keeps them as rows of one SQLite file,
  one transaction per write, and survives the process; a store without
  one keeps them in memory for the life of its session.  There is
  deliberately no invalidation API: a key embeds the fingerprints of
  all its inputs, so stale entries are simply never addressed again.
* :class:`IncrementalBackend` — one run's view of the store.  It holds
  the fingerprints shared by every key (knowledge base, models, config,
  corpus snapshot, restrictions) and hands out the three cache layers:

  1. **stage artifacts** — whole stage outputs keyed by exact input
     fingerprints (:meth:`stage_key`), the coarse layer that lets an
     untouched downstream stage load in one read;
  2. **per-table matcher artifacts** — schema analysis (column types,
     label column, class decision) and attribute-pass correspondences
     keyed by table *content hash*, so a corpus delta re-analyzes only
     the dirty tables, and a run for a second class reuses the
     class-independent analyses of the first
     (:meth:`warm_matcher` / the attribute cache);
  3. **per-entity detection artifacts** — classification triples keyed
     by entity content, so only entities in dirty blocks re-detect.

Table analyses also live in memory, in the session's analysis memo
(:class:`AnalysisMemo`, owned by :class:`repro.api.RunSession`), keyed on
``(table id, content hash, candidate limit)``: the analysis key without
the knowledge-base fingerprint, which a session holds fixed.  A backend
reads the memo first and the store second, and fills the memo from both
store loads and fresh analyses, so a session reads each unchanged
table's analysis from the store once, not once per class run.  When
the snapshot changes, the session evicts from the memo the ids whose
content changed or went away, so it holds analyses of the current
snapshot only, and a run's matcher is warmed from it in bulk.  The
store stays the backing across processes: a new session's first run
loads from it.  Memo values are shared with every matcher they warm and
must be treated as read-only.

A full run is therefore an incremental run over an empty store.  What
a run reuses follows from its keys alone, and :class:`IncrementalRunReport`
counts it as the run goes: stage hits and misses, and the analyses,
attribute maps and detections loaded versus computed.

Correctness invariant (the one every key must uphold): a stored value is
a **pure function of its key**.  Under that invariant, serving from the
store is byte-identical to recomputing — which the differential harness
(``tests/test_incremental_equivalence.py``) checks end to end through
:meth:`~repro.pipeline.result.PipelineResult.canonical_json`.
"""

from __future__ import annotations

import json
import pickle
import shutil
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro import faults
from repro.corpus import store as corpus_store
from repro.pipeline import delta
# Kept importable from here: perfbench/tracing.py wraps
# ``fingerprint_corpus_state`` by this module path, and callers import
# ``fingerprint_evidence`` from it.
from repro.pipeline.delta import (  # noqa: F401 - see above
    SnapshotOrder,
    digest,
    fingerprint_corpus_state,
    fingerprint_evidence,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.fusion.entity import Entity
    from repro.matching.attribute_property import MatcherFeedback
    from repro.matching.correspondences import TableMapping
    from repro.matching.matchers import DuplicateEvidence
    from repro.matching.schema_matcher import SchemaMatcher, TableWalk
    from repro.pipeline.stages import PipelineState

__all__ = [
    "AnalysisMemo",
    "ArtifactStore",
    "IncrementalBackend",
    "IncrementalRunReport",
    "ARTIFACTS_DIRNAME",
]

#: Conventional artifact-store directory inside a corpus-store directory.
ARTIFACTS_DIRNAME = "artifacts"

MANIFEST_NAME = "artifact_store.json"
#: The SQLite file holding every object of a store with a directory.
DATABASE_NAME = "artifacts.sqlite"
#: Version 1 kept one pickle file per object under ``objects/``.
STORE_VERSION = 2
#: In every stage key, after the stage name.  Format 2 names inputs by
#: fingerprints taken once per value and keeps each stage output's
#: fingerprints beside it (:data:`FINGERPRINTS`); a store written in
#: format 1 simply misses.
STAGE_KEY_FORMAT = 2
#: The entry of a stage artifact holding its outputs' fingerprints.
FINGERPRINTS = "fingerprints"
#: The stage whose output each fingerprinted stage input is.
_PRODUCERS = {
    "records": "schema_match",
    "mapping": "schema_match",
    "tables": "schema_match",
    "clusters": "cluster",
    "entities": "fuse",
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS objects (
    digest TEXT PRIMARY KEY,
    blob BLOB NOT NULL
) WITHOUT ROWID;
"""


def connect_database(path: Path) -> sqlite3.Connection:
    """A connection to an artifact database, made if it is missing."""
    connection = corpus_store._connect(path, _SCHEMA)
    # Rows are read once per run and never scanned: a small page cache
    # keeps a long-lived service's footprint flat.
    connection.execute("PRAGMA cache_size=-256")
    return connection


class ArtifactStore:
    """Content-addressed pickled artifacts, on disk or in memory.

    Layout of a store with a directory::

        <directory>/artifact_store.json  # version manifest
        <directory>/artifacts.sqlite     # objects(digest, blob), WAL

    A store built without a directory keeps the same pickle blobs in a
    dict and lives as long as its session.  Both backings pickle on
    :meth:`put` and unpickle on :meth:`get`, so a caller mutating a
    value it stored or loaded never changes what the store serves next.

    On disk each thread gets its own connection, opened on first use.
    A put is one short transaction, so a killed writer leaves either the
    whole row or nothing, and several processes (a ``repro run`` and the
    service, say) may share one store.  A version-1 directory is
    upgraded on open by dropping its ``objects/`` tree: every artifact
    is a pure function of its key, so the only loss is recomputation.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Wall seconds spent in :meth:`get` and :meth:`put`.
        self.get_seconds = 0.0
        self.put_seconds = 0.0
        #: The in-memory backing: key digest -> pickle blob.  Unused
        #: when a directory is set.
        self._objects: dict[str, bytes] = {}
        self._local = threading.local()
        #: Every thread's connection by thread ident, for :meth:`close`.
        self._connections: dict[int, sqlite3.Connection] = {}
        self._connections_guard = threading.Lock()
        if self.directory is None:
            return
        manifest = self.directory / MANIFEST_NAME
        version = None
        if manifest.exists():
            version = json.loads(manifest.read_text(encoding="utf-8")).get(
                "version"
            )
            if version not in (1, STORE_VERSION):
                raise ValueError(
                    f"unsupported artifact store version {version!r} "
                    f"at {self.directory}"
                )
        if version != STORE_VERSION:
            self.directory.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(self.directory / "objects", ignore_errors=True)
            manifest.write_text(
                json.dumps({"version": STORE_VERSION}), encoding="utf-8"
            )

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = connect_database(
                self.directory / DATABASE_NAME
            )
            with self._connections_guard:
                # A connection whose thread has exited (or whose ident
                # this thread now reuses) is closed here.
                alive = {thread.ident for thread in threading.enumerate()}
                ident = threading.get_ident()
                for owner in [
                    owner for owner in self._connections
                    if owner == ident or owner not in alive
                ]:
                    self._connections.pop(owner).close()
                self._connections[ident] = connection
        return connection

    def close(self) -> None:
        """Close every thread's connection to the database.

        Closing the last connection folds the WAL back into the file, so
        a handle closed this way leaves no ``-wal`` or ``-shm`` behind,
        while a dropped one keeps them until the garbage collector frees
        its connections.  The handle stays usable: a later call opens a
        new connection.  No thread may be using the store meanwhile.
        """
        with self._connections_guard:
            connections, self._connections = self._connections, {}
        for connection in connections.values():
            connection.close()
        self._local = threading.local()

    def _blob(self, key_digest: str) -> bytes | None:
        if self.directory is None:
            return self._objects.get(key_digest)
        row = self._connection().execute(
            "SELECT blob FROM objects WHERE digest = ?", (key_digest,)
        ).fetchone()
        return None if row is None else row[0]

    # -- object API -----------------------------------------------------
    def get(self, key: object) -> object | None:
        """The stored value for a key, or ``None`` on a miss.

        ``None`` is not a storable value — every pipeline artifact is a
        non-``None`` mapping or tuple, which keeps the miss signal
        unambiguous.
        """
        started = time.perf_counter()
        blob = self._blob(self.key_digest(key))
        if blob is None:
            self.misses += 1
            value = None
        else:
            self.hits += 1
            value = pickle.loads(blob)
        self.get_seconds += time.perf_counter() - started
        return value

    def put(self, key: object, value: object) -> str:
        """Store a value under a key; returns the key digest."""
        if value is None:
            raise ValueError("ArtifactStore cannot store None (miss marker)")
        started = time.perf_counter()
        key_digest = self.key_digest(key)
        blob = pickle.dumps(value, protocol=4)
        if self.directory is None:
            self._objects[key_digest] = blob
        else:
            connection = self._connection()
            # Commits on success, rolls back on any raise.
            with connection:
                connection.execute(
                    "INSERT OR REPLACE INTO objects VALUES (?, ?)",
                    (key_digest, blob),
                )
                faults.check("artifacts.put")
        self.writes += 1
        self.put_seconds += time.perf_counter() - started
        return key_digest

    def __contains__(self, key: object) -> bool:
        return self._blob(self.key_digest(key)) is not None

    def __len__(self) -> int:
        return self._size()[0]

    def _size(self) -> tuple[int, int]:
        """``(objects, bytes of pickles)`` as stored right now."""
        if self.directory is None:
            return len(self._objects), sum(map(len, self._objects.values()))
        count, total = self._connection().execute(
            "SELECT count(*), sum(length(blob)) FROM objects"
        ).fetchone()
        return count, total or 0

    @staticmethod
    def key_digest(key: object) -> str:
        return digest(key)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def describe(self) -> dict:
        """A read-only stat surface for monitoring.

        On disk it queries the database, so it reflects what is stored
        — including artifacts written by other processes — not just
        this handle's activity (which :meth:`stats` counts).
        """
        n_objects, total_bytes = self._size()
        return {
            "directory": (
                str(self.directory) if self.directory is not None else None
            ),
            "version": STORE_VERSION,
            "objects": n_objects,
            "bytes": total_bytes,
            **self.stats(),
        }


# ---------------------------------------------------------------------------
# The per-run backend
# ---------------------------------------------------------------------------

class _LimitView:
    """One candidate limit's analyses, keyed by table id and shaped like
    a :class:`~repro.matching.schema_matcher.SchemaMatcher`'s caches."""

    __slots__ = ("contents", "analyses", "decisions", "classed", "missing")

    def __init__(self) -> None:
        #: table id -> the content hash its analysis is of.
        self.contents: dict[str, str] = {}
        #: table id -> (column types, label column).
        self.analyses: dict[str, tuple] = {}
        #: table id -> class decision, for tables that have one.
        self.decisions: dict[str, tuple] = {}
        #: Tables whose decision names a class.
        self.classed: set[str] = set()
        #: Snapshot tables with no decision here; ``None`` until a run
        #: walks the snapshot once to find them (see
        #: :meth:`IncrementalBackend.warm_matcher`).
        self.missing: set[str] | None = None


class AnalysisMemo(dict):
    """A session's table analyses: ``(table id, content hash, candidate
    limit)`` -> ``(column types, label column, class decision or None)``.

    Besides the mapping itself it keeps one :class:`_LimitView` per
    candidate limit, which a run's fresh matcher reads through instead
    of copying, and which knows the tables it lacks a decision for and
    the tables it has classed.  It holds analyses of the session's
    current corpus snapshot only: entries come from runs over that
    snapshot, and the epoch guard evicts the ids a snapshot change
    touched.  Write through :meth:`remember` and :meth:`evict`, never
    item assignment.  Values are shared with the matchers they warm;
    treat them as read-only.
    """

    def __init__(self) -> None:
        super().__init__()
        self._views: dict[int, _LimitView] = {}

    def view(self, limit: int) -> _LimitView:
        view = self._views.get(limit)
        if view is None:
            view = self._views[limit] = _LimitView()
        return view

    def remember(
        self, table_id: str, content: str, limit: int, artifact: tuple
    ) -> None:
        self[table_id, content, limit] = artifact
        view = self.view(limit)
        column_types, label_column, decision = artifact
        view.contents[table_id] = content
        view.analyses[table_id] = (column_types, label_column)
        if decision is not None:
            view.decisions[table_id] = decision
            if decision[0] is not None:
                view.classed.add(table_id)
            if view.missing is not None:
                view.missing.discard(table_id)

    def evict(
        self, changed: Iterable[str], removed: Iterable[str] = ()
    ) -> int:
        """Drop every entry of the tables a snapshot change touched;
        returns how many.  ``changed`` tables are in the new snapshot
        with new content, so each view now lacks them; ``removed`` ones
        are gone from it."""
        changed, removed = list(changed), list(removed)
        dropped = 0
        for table_id in [*changed, *removed]:
            for limit, view in self._views.items():
                content = view.contents.pop(table_id, None)
                if content is None:
                    continue
                del self[table_id, content, limit]
                del view.analyses[table_id]
                view.decisions.pop(table_id, None)
                view.classed.discard(table_id)
                dropped += 1
        for view in self._views.values():
            if view.missing is not None:
                view.missing.update(changed)
                view.missing.difference_update(removed)
        return dropped

    def clear(self) -> None:
        super().clear()
        self._views.clear()


@dataclass
class IncrementalRunReport:
    """What one incremental run reused versus recomputed, as measured."""

    #: ``(stage name, iteration, "hit" | "miss")`` in execution order.
    stage_events: list[tuple[str, int, str]] = field(default_factory=list)
    analysis_loaded: int = 0
    analysis_computed: int = 0
    attributes_loaded: int = 0
    attributes_computed: int = 0
    entities_loaded: int = 0
    entities_computed: int = 0

    def stage_hits(self) -> int:
        return sum(1 for *_, kind in self.stage_events if kind == "hit")

    def stage_misses(self) -> int:
        return sum(1 for *_, kind in self.stage_events if kind == "miss")

    def to_dict(self) -> dict:
        """JSON-safe reuse statistics (CLI ``--json``, ``GET /runs/<id>``)
        — the machine-readable form of :meth:`summary`."""
        return {
            "stage_hits": self.stage_hits(),
            "stage_misses": self.stage_misses(),
            "analyses_loaded": self.analysis_loaded,
            "analyses_computed": self.analysis_computed,
            "attributes_loaded": self.attributes_loaded,
            "attributes_computed": self.attributes_computed,
            "entities_loaded": self.entities_loaded,
            "entities_computed": self.entities_computed,
        }

    def summary(self) -> str:
        return "\n".join(
            [
                f"stages: {self.stage_hits()} served from store, "
                f"{self.stage_misses()} recomputed",
                f"tables: {self.analysis_loaded} analyses loaded, "
                f"{self.analysis_computed} computed; "
                f"{self.attributes_loaded} attribute maps loaded, "
                f"{self.attributes_computed} computed",
                f"entities: {self.entities_loaded} detections loaded, "
                f"{self.entities_computed} computed",
            ]
        )


class IncrementalBackend:
    """One run's handle on the artifact store.

    Instances are cheap and per-run: they pin the corpus snapshot taken
    at run start (a run must never observe a half-applied delta) and the
    session-level fingerprints, and collect the reuse statistics for the
    :class:`IncrementalRunReport`.  ``corpus_state`` is the session's
    snapshot, shared and read-only; ``corpus_fp`` is its epoch, as the
    session's epoch guard computed it; ``corpus_order`` ranks its ids;
    ``analyses`` is the session's :class:`AnalysisMemo`, which holds
    analyses of that snapshot only.

    Every stage input is fingerprinted at most once per value: each
    kind's latest fingerprint is kept with the objects it was taken of
    and served again while the state still holds those very objects.
    A stage artifact keeps its outputs' fingerprints beside them
    (:data:`FINGERPRINTS`), so an input that came out of a stage hit is
    not fingerprinted at all.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        corpus_state: Mapping[str, str],
        corpus_fp: str,
        corpus_order: SnapshotOrder,
        analyses: AnalysisMemo,
        kb_fp: str,
        models_fp: str,
        config_fp: str,
        restriction_fp: str,
        class_name: str,
    ) -> None:
        self.store = store
        self.corpus_state = corpus_state
        self.corpus_fp = corpus_fp
        self.corpus_order = corpus_order
        self.analyses = analyses
        self.kb_fp = kb_fp
        self.models_fp = models_fp
        self.config_fp = config_fp
        self.restriction_fp = restriction_fp
        self.class_name = class_name
        self.report = IncrementalRunReport()
        self._attribute_cache = _MatcherAttributeCache(self)
        self._bulk_warmed = False
        #: kind -> (the objects it was taken of, fingerprint).
        self._fingerprints: dict[str, tuple[tuple, object]] = {}

    # -- fingerprints, one per value -------------------------------------
    def _fingerprint(self, kind: str, sources: tuple, compute) -> object:
        known = self._fingerprints.get(kind)
        if known is not None and all(
            held is source for held, source in zip(known[0], sources)
        ):
            return known[1]
        value = compute()
        self._fingerprints[kind] = (sources, value)
        return value

    def _seed(self, kind: str, sources: tuple, value: object) -> None:
        self._fingerprints[kind] = (sources, value)

    def evidence_fp(self, evidence: "DuplicateEvidence | None") -> str:
        """Shared by the ``schema_match`` key and the attribute cache's
        feedback keys."""
        return self._fingerprint(
            "evidence",
            (evidence,),
            lambda: delta.fingerprint_evidence(evidence),
        )

    def entity_fps(self, entities: list["Entity"]) -> list[str]:
        """Each entity's content fingerprint, aligned with ``entities``:
        the entity list's fingerprint and the per-entity detection keys
        are both made of them."""
        return self._fingerprint(
            "entity",
            (entities,),
            lambda: [delta.fingerprint_entity(entity) for entity in entities],
        )

    def _output_fingerprints(
        self, stage_name: str, state: "PipelineState"
    ) -> dict[str, tuple[tuple, object]]:
        """``kind -> (sources, compute)`` of a stage's fingerprinted
        outputs: the inputs of the stages after it."""
        if stage_name == "schema_match":
            records, mapping, tables = (
                state.records, state.mapping, state.target_tables,
            )
            return {
                "records": (
                    (records,),
                    lambda: delta.fingerprint_records(records),
                ),
                "mapping": (
                    (mapping, tables),
                    lambda: delta.fingerprint_mapping(mapping, tables)
                    if mapping is not None
                    else None,
                ),
                "tables": (
                    (tables,),
                    lambda: delta.fingerprint_tables(
                        self.corpus_state, tables
                    ),
                ),
            }
        if stage_name == "cluster":
            clusters = state.clusters
            return {
                "clusters": (
                    (clusters,),
                    lambda: delta.fingerprint_clusters(clusters),
                ),
            }
        if stage_name == "fuse":
            entities = state.entities
            return {
                "entity": ((entities,), lambda: self.entity_fps(entities)),
                "entities": (
                    (entities,),
                    lambda: delta.fingerprint_entities(
                        entities, self.entity_fps(entities)
                    ),
                ),
            }
        return {}

    def _input(self, kind: str, state: "PipelineState") -> object:
        sources, compute = self._output_fingerprints(
            _PRODUCERS[kind], state
        )[kind]
        return self._fingerprint(kind, sources, compute)

    def stage_outputs(
        self,
        stage_name: str,
        state: "PipelineState",
        key: list,
        stored: dict | None = None,
    ) -> dict:
        """Fingerprints of a finished stage's outputs.

        After a hit, ``stored`` holds the ones its artifact kept, and
        they are taken as they are.  After a miss they are computed once
        here and returned, for the artifact to keep.  The clusters are
        named by the cluster key instead: equal keys mean equal clusters
        and, the records and the rest of the key being their only
        inputs, the reverse holds too.  No other key stands in for the
        value it produced; a ``schema_match`` key changes with every
        snapshot, and an unchanged class must still hit after it.
        """
        if stage_name == "cluster":
            self._seed(
                "clusters", (state.clusters,), "stage:" + digest(key)
            )
            return {}
        fingerprints = {}
        for kind, (sources, compute) in self._output_fingerprints(
            stage_name, state
        ).items():
            if stored is not None:
                self._seed(kind, sources, stored[kind])
            else:
                fingerprints[kind] = self._fingerprint(kind, sources, compute)
        return fingerprints

    # -- stage-level artifacts ------------------------------------------
    def _base_key(self, stage_name: str, iteration: int) -> list:
        return [
            "stage",
            stage_name,
            STAGE_KEY_FORMAT,
            self.class_name,
            "config",
            self.config_fp,
            "models",
            self.models_fp,
            "kb",
            self.kb_fp,
            "restrict",
            self.restriction_fp,
            "iter",
            iteration,
        ]

    def stage_key(self, stage_name: str, state: "PipelineState") -> list | None:
        """The exact-input key of one stage artifact, or ``None`` when the
        stage is not one of the four known default stages (custom stages
        opt out of persistence — their inputs cannot be fingerprinted).

        Inputs are named by fingerprints this backend takes once per
        value, or by those a stage hit brought back
        (:meth:`stage_outputs`): the records fingerprint of the cluster
        key serves the detect key, and the evidence fingerprint of the
        ``schema_match`` key serves the attribute cache.  The corpus is
        named by its epoch, and the clusters by the cluster key.
        """
        key = self._base_key(stage_name, state.iteration)
        if stage_name == "schema_match":
            key += [
                "corpus",
                self.corpus_fp,
                "evidence",
                self.evidence_fp(state.evidence),
            ]
            return key
        if stage_name == "cluster":
            key += ["records", self._input("records", state)]
            return key
        if stage_name == "fuse":
            key += [
                "clusters",
                self._input("clusters", state),
                "mapping",
                self._input("mapping", state),
                "tables",
                self._input("tables", state),
            ]
            return key
        if stage_name == "detect":
            key += [
                "entities",
                self._input("entities", state),
                "records",
                self._input("records", state),
            ]
            return key
        return None

    def record_stage(self, stage_name: str, iteration: int, kind: str) -> None:
        self.report.stage_events.append((stage_name, iteration, kind))

    # -- per-table matcher artifacts ------------------------------------
    def _analysis_key(
        self, matcher: "SchemaMatcher", table_id: str, content: str
    ) -> list:
        return [
            "analysis",
            self.kb_fp,
            matcher.candidate_limit,
            table_id,
            content,
        ]

    def warm_matcher(self, matcher: "SchemaMatcher") -> "TableWalk":
        """Serve per-table analyses to a matcher; returns the tables its
        :meth:`~repro.matching.schema_matcher.SchemaMatcher.match_corpus`
        call has left to visit.

        The first call of a run has the run's fresh matcher read through
        the session memo's view for its candidate limit: nothing is
        copied, and every memo entry is an analysis of a snapshot table.
        The view knows which snapshot tables it has no decision for —
        after a snapshot patch, the patch's new and changed ids.  Only
        the session's first run over a snapshot walks the snapshot to
        find them.  Each of them that has no analysis costs a store read
        (a hit fills the memo); loads from either count as loaded.  The
        second iteration's call finds every table iteration one warmed
        or computed already in the memo.  The memo's values are
        read-only.
        """
        from repro.matching.schema_matcher import TableWalk

        matcher.attribute_cache = self._attribute_cache
        limit = matcher.candidate_limit
        view = self.analyses.view(limit)
        if not self._bulk_warmed:
            self._bulk_warmed = True
            matcher.share(view.analyses, view.decisions)
            self.report.analysis_loaded += len(view.analyses)
        if view.missing is None:
            view.missing = {
                table_id for table_id in self.corpus_state
                if table_id not in view.decisions
            }
        missing = self.corpus_order.sort(view.missing)
        for table_id in missing:
            if table_id in view.contents:
                continue  # analysed; its decision is left to compute
            content = self.corpus_state[table_id]
            artifact = self.store.get(
                self._analysis_key(matcher, table_id, content)
            )
            if artifact is None:
                continue
            self.analyses.remember(table_id, content, limit, artifact)
            self.report.analysis_loaded += 1
        return TableWalk(
            pending=[
                table_id for table_id in missing
                if table_id not in view.decisions
            ],
            classed=view.classed,
            order=self.corpus_order.sort,
        )

    def harvest_matcher(self, matcher: "SchemaMatcher") -> None:
        """Persist the analyses the matcher's last ``match_corpus`` call
        computed, to the store and to the session's memo."""
        limit = matcher.candidate_limit
        for table_id in matcher.analyzed:
            content = self.corpus_state.get(table_id)
            if content is None:
                continue
            column_types, label_column = matcher._analysis_cache[table_id]
            artifact = (
                column_types,
                label_column,
                matcher._class_cache.get(table_id),
            )
            self.store.put(
                self._analysis_key(matcher, table_id, content), artifact
            )
            self.analyses.remember(table_id, content, limit, artifact)
            self.report.analysis_computed += 1

    # -- per-entity detection artifacts ---------------------------------
    def detection_cache(
        self,
        implicit_by_table: Mapping[str, Mapping[str, object]],
        entities: list["Entity"],
    ) -> "_DetectionCache":
        return _DetectionCache(self, implicit_by_table, entities)


class _MatcherAttributeCache:
    """Per-table attribute-pass cache, bound into a
    :class:`~repro.matching.schema_matcher.SchemaMatcher`.

    An attribute map is a pure function of (KB, models, pass mode, table
    content, class assignment, pass feedback).  The feedback — header
    statistics plus duplicate evidence — is *global*: a delta that
    shifts it misses the cache for every table of that pass, which is
    exactly what byte-equality demands.
    """

    def __init__(self, backend: IncrementalBackend) -> None:
        self._backend = backend
        #: class name -> digest, memoized per (mode, feedback) pass.
        self._feedback_fps: dict[tuple[str, str], str] = {}

    def _feedback_fp(self, feedback: "MatcherFeedback | None") -> str:
        if feedback is None:
            return digest(None)
        header_stats = feedback.header_stats
        return digest(
            [
                sorted(
                    [header, property_name, repr(score)]
                    for (header, property_name), score
                    in header_stats.scores.items()
                )
                if header_stats is not None
                else None,
                self._backend.evidence_fp(feedback.evidence),
            ]
        )

    def _key(
        self,
        mode: str,
        table_mapping: "TableMapping",
        feedback_by_class: Mapping[str, "MatcherFeedback"],
    ) -> list | None:
        content = self._backend.corpus_state.get(table_mapping.table_id)
        if content is None or table_mapping.class_name is None:
            return None
        memo = (mode, table_mapping.class_name)
        feedback_fp = self._feedback_fps.get(memo)
        if feedback_fp is None:
            feedback_fp = self._feedback_fp(
                feedback_by_class.get(table_mapping.class_name)
            )
            self._feedback_fps[memo] = feedback_fp
        return [
            "attributes",
            self._backend.kb_fp,
            self._backend.models_fp,
            mode,
            table_mapping.table_id,
            content,
            table_mapping.class_name,
            table_mapping.label_column,
            "feedback",
            feedback_fp,
        ]

    def load(
        self,
        mode: str,
        table_mapping: "TableMapping",
        feedback_by_class: Mapping[str, "MatcherFeedback"],
    ) -> dict | None:
        key = self._key(mode, table_mapping, feedback_by_class)
        if key is None:
            return None
        artifact = self._backend.store.get(key)
        if artifact is None:
            return None
        self._backend.report.attributes_loaded += 1
        return artifact["attributes"]

    def save(
        self,
        mode: str,
        table_mapping: "TableMapping",
        feedback_by_class: Mapping[str, "MatcherFeedback"],
        attributes: dict,
    ) -> None:
        key = self._key(mode, table_mapping, feedback_by_class)
        if key is None:
            return
        self._backend.store.put(key, {"attributes": attributes})
        self._backend.report.attributes_computed += 1


class _DetectionCache:
    """Per-entity detection cache consumed by
    :meth:`repro.newdetect.detector.NewDetector.detect`.

    The cached value is the pure classification triple
    ``(classification, correspondence, best_score)`` — entity ids stay
    *outside* the key (they are creation-order counters), so an entity
    whose content survived a delta is served even when its id moved.
    The key names the entity by the content fingerprint the run already
    took for the entity list, plus the implicit attributes of its
    tables; each entity's key is built once.
    """

    def __init__(
        self,
        backend: IncrementalBackend,
        implicit_by_table: Mapping[str, Mapping[str, object]],
        entities: list["Entity"],
    ) -> None:
        self._backend = backend
        #: ``id(entity)`` -> key; ``entities`` keeps the ids live.
        self._entities = entities
        self._keys = {
            id(entity): [
                "detect-entity",
                backend.kb_fp,
                backend.models_fp,
                backend.config_fp,
                backend.class_name,
                entity_fp,
                delta.implicit_payload(entity, implicit_by_table),
            ]
            for entity, entity_fp in zip(
                entities, backend.entity_fps(entities)
            )
        }

    def _key(self, entity) -> list:
        return self._keys[id(entity)]

    def get(self, entity) -> tuple | None:
        artifact = self._backend.store.get(self._key(entity))
        if artifact is None:
            return None
        self._backend.report.entities_loaded += 1
        return artifact

    def put(self, entity, triple: tuple) -> None:
        self._backend.store.put(self._key(entity), tuple(triple))
        self._backend.report.entities_computed += 1
