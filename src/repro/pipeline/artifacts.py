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
# ``fingerprint_corpus_state`` is unused here since the backend takes the
# epoch guard's digest, but perfbench/tracing.py wraps it by this module
# path; it goes when the benchmark stops doing so.
from repro.pipeline.delta import (  # noqa: F401 - see above
    digest,
    fingerprint_clusters,
    fingerprint_corpus_state,
    fingerprint_entities,
    fingerprint_entity,
    fingerprint_mapping,
    fingerprint_records,
    fingerprint_tables,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.matching.attribute_property import MatcherFeedback
    from repro.matching.correspondences import TableMapping
    from repro.matching.matchers import DuplicateEvidence
    from repro.matching.schema_matcher import SchemaMatcher
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
        return connection

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
# Structured fingerprints of matcher feedback (hash-seed independent)
# ---------------------------------------------------------------------------

def _evidence_payload(evidence: "DuplicateEvidence | None") -> object:
    if evidence is None:
        return None
    return [
        sorted(
            [list(row_id), uri]
            for row_id, uri in evidence.row_instance.items()
        ),
        sorted(
            [list(row_id), cluster_id]
            for row_id, cluster_id in evidence.cluster_of_row.items()
        ),
        sorted(
            [
                cluster_id,
                property_name,
                sorted([repr(value), table_id] for value, table_id in values),
            ]
            for (cluster_id, property_name), values
            in evidence.cluster_values.items()
        ),
    ]


def fingerprint_evidence(evidence: "DuplicateEvidence | None") -> str:
    """Digest of the cross-iteration duplicate feedback."""
    return digest(_evidence_payload(evidence))


def _feedback_payload(feedback: "MatcherFeedback | None") -> object:
    if feedback is None:
        return None
    header_stats = feedback.header_stats
    return [
        sorted(
            [header, property_name, repr(score)]
            for (header, property_name), score in header_stats.scores.items()
        )
        if header_stats is not None
        else None,
        _evidence_payload(feedback.evidence),
    ]


# ---------------------------------------------------------------------------
# The per-run backend
# ---------------------------------------------------------------------------

class _LimitView:
    """One candidate limit's analyses, keyed by table id and shaped like
    a :class:`~repro.matching.schema_matcher.SchemaMatcher`'s caches."""

    __slots__ = ("contents", "analyses", "decisions")

    def __init__(self) -> None:
        #: table id -> the content hash its analysis is of.
        self.contents: dict[str, str] = {}
        #: table id -> (column types, label column).
        self.analyses: dict[str, tuple] = {}
        #: table id -> class decision, for tables that have one.
        self.decisions: dict[str, tuple] = {}


class AnalysisMemo(dict):
    """A session's table analyses: ``(table id, content hash, candidate
    limit)`` -> ``(column types, label column, class decision or None)``.

    Besides the mapping itself it keeps one :class:`_LimitView` per
    candidate limit, so a run's fresh matcher is warmed with two dict
    updates rather than one lookup per table.  It holds analyses of the
    session's current corpus snapshot only: entries come from runs over
    that snapshot, and the epoch guard evicts the ids a snapshot change
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

    def evict(self, table_ids: Iterable[str]) -> int:
        """Drop every entry of the given tables; returns how many."""
        dropped = 0
        for table_id in table_ids:
            for limit, view in self._views.items():
                content = view.contents.pop(table_id, None)
                if content is None:
                    continue
                del self[table_id, content, limit]
                del view.analyses[table_id]
                view.decisions.pop(table_id, None)
                dropped += 1
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
    snapshot, shared and read-only; ``corpus_fp`` is its
    :func:`~repro.pipeline.delta.fingerprint_corpus_state` in snapshot
    order, as the session's epoch guard computed it; ``analyses`` is the
    session's :class:`AnalysisMemo`, which holds analyses of that
    snapshot only.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        corpus_state: Mapping[str, str],
        corpus_fp: str,
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
        self.analyses = analyses
        self.kb_fp = kb_fp
        self.models_fp = models_fp
        self.config_fp = config_fp
        self.restriction_fp = restriction_fp
        self.class_name = class_name
        self.report = IncrementalRunReport()
        self._attribute_cache = _MatcherAttributeCache(self)
        self._bulk_warmed = False

    # -- stage-level artifacts ------------------------------------------
    def _base_key(self, stage_name: str, iteration: int) -> list:
        return [
            "stage",
            stage_name,
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
        opt out of persistence — their inputs cannot be fingerprinted)."""
        key = self._base_key(stage_name, state.iteration)
        if stage_name == "schema_match":
            key += [
                "corpus",
                self.corpus_fp,
                "evidence",
                fingerprint_evidence(state.evidence),
                # Evidence scores only the run's class tables (see
                # ``SchemaMatcher.match_corpus``); the tag keeps a store
                # written before that scoping from serving its
                # corpus-wide iteration-2 mapping.
                "scope",
                "class" if state.evidence is not None else "corpus",
                # The mapping holds only KB-classed tables; the tag keeps
                # a store written before that from serving a mapping
                # with an entry for every table.
                "entries",
                "classed",
            ]
            return key
        if stage_name == "cluster":
            key += ["records", fingerprint_records(state.records)]
            return key
        if stage_name == "fuse":
            key += [
                "clusters",
                fingerprint_clusters(state.clusters),
                "mapping",
                fingerprint_mapping(state.mapping, state.target_tables)
                if state.mapping is not None
                else None,
                "tables",
                fingerprint_tables(self.corpus_state, state.target_tables),
            ]
            return key
        if stage_name == "detect":
            key += [
                "entities",
                fingerprint_entities(state.entities),
                "records",
                fingerprint_records(state.records),
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

    def warm_matcher(self, matcher: "SchemaMatcher") -> None:
        """Load per-table analyses into a matcher's caches.

        The first call of a run gets the run's fresh matcher and copies
        in the session memo's view for the matcher's candidate limit in
        two dict updates: every memo entry is an analysis of a snapshot
        table.  Only when some snapshot table has no memo entry are the
        snapshot's ids walked, and each such table costs a store read (a
        hit then fills the memo).  Loads from either count as loaded.
        The second iteration's call finds every table iteration one
        warmed or computed already in the memo.  The matcher's caches
        share the memo's values, which are read-only.
        """
        matcher.attribute_cache = self._attribute_cache
        limit = matcher.candidate_limit
        view = self.analyses.view(limit)
        if not self._bulk_warmed:
            self._bulk_warmed = True
            matcher._analysis_cache.update(view.analyses)
            matcher._class_cache.update(view.decisions)
            self.report.analysis_loaded += len(view.analyses)
        if len(view.contents) == len(self.corpus_state):
            return
        for table_id, content in self.corpus_state.items():
            if table_id in view.contents:
                continue
            if table_id in matcher._analysis_cache and (
                table_id in matcher._class_cache
            ):
                continue
            artifact = self.store.get(
                self._analysis_key(matcher, table_id, content)
            )
            if artifact is None:
                continue
            self.analyses.remember(table_id, content, limit, artifact)
            column_types, label_column, decision = artifact
            matcher._analysis_cache[table_id] = (column_types, label_column)
            if decision is not None:
                matcher._class_cache[table_id] = decision
            self.report.analysis_loaded += 1

    def harvest_matcher(self, matcher: "SchemaMatcher") -> None:
        """Persist analyses the matcher computed this run, to the store
        and to the session's memo.

        Every memo entry of the matcher's limit is in the matcher's
        cache (warmed or harvested), so equal sizes mean nothing new.
        """
        limit = matcher.candidate_limit
        contents = self.analyses.view(limit).contents
        if len(matcher._analysis_cache) == len(contents):
            return
        for table_id, analysis in matcher._analysis_cache.items():
            if table_id in contents:
                continue
            content = self.corpus_state.get(table_id)
            if content is None:
                continue
            decision = matcher._class_cache.get(table_id)
            artifact = (analysis[0], analysis[1], decision)
            self.store.put(
                self._analysis_key(matcher, table_id, content), artifact
            )
            self.analyses.remember(table_id, content, limit, artifact)
            self.report.analysis_computed += 1

    # -- per-entity detection artifacts ---------------------------------
    def detection_cache(
        self,
        implicit_by_table: Mapping[str, Mapping[str, object]],
    ) -> "_DetectionCache":
        return _DetectionCache(self, implicit_by_table)


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
            feedback_fp = digest(
                _feedback_payload(
                    feedback_by_class.get(table_mapping.class_name)
                )
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
    """

    def __init__(
        self,
        backend: IncrementalBackend,
        implicit_by_table: Mapping[str, Mapping[str, object]],
    ) -> None:
        self._backend = backend
        self._implicit = implicit_by_table

    def _key(self, entity) -> list:
        return [
            "detect-entity",
            self._backend.kb_fp,
            self._backend.models_fp,
            self._backend.config_fp,
            self._backend.class_name,
            fingerprint_entity(entity, self._implicit),
        ]

    def get(self, entity) -> tuple | None:
        artifact = self._backend.store.get(self._key(entity))
        if artifact is None:
            return None
        self._backend.report.entities_loaded += 1
        return artifact

    def put(self, entity, triple: tuple) -> None:
        self._backend.store.put(self._key(entity), tuple(triple))
        self._backend.report.entities_computed += 1
