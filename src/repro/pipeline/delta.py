"""Corpus snapshots and input fingerprints for the artifact store.

The incremental engine never *reasons* its way to cache validity — it
hashes.  Every persisted artifact is a pure function of inputs that this
module fingerprints exactly; an artifact is served only when the digest
of *all* of its inputs matches, so an incremental run is byte-identical
to a from-scratch run **by construction** (the equality witness is
:meth:`repro.pipeline.result.PipelineResult.canonical_json`).  What a
run after a corpus delta reuses therefore follows from the keys alone,
and the run measures it (:class:`repro.pipeline.artifacts.IncrementalRunReport`).

Two layers live here:

* **Corpus snapshots** — :func:`corpus_state` reads any corpus as a
  ``{table_id: content_hash}`` mapping (see
  :meth:`repro.corpus.store.CorpusStore.content_hashes`), and
  :func:`fingerprint_corpus_state` digests it into the corpus epoch, a
  set hash that no table order enters.  :func:`advance_corpus_epoch`
  moves an epoch over the ids a change touched, in O(delta); when a
  store handle patched its snapshot with its own writes,
  :func:`corpus_patch` names those ids without a pass over the
  snapshot.
* **Fingerprints** — canonical digests for every stage input: row
  records, schema mappings, clusters, entities, duplicate evidence,
  table subsets, the knowledge base, and arbitrary picklable model
  state.  A run takes each at most once per value
  (:class:`repro.pipeline.artifacts.IncrementalBackend`).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.clustering.greedy import Cluster
from repro.fusion.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.correspondences import SchemaMapping
from repro.matching.records import RowRecord

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.matching.matchers import DuplicateEvidence

__all__ = [
    "advance_corpus_epoch",
    "corpus_patch",
    "corpus_state",
    "fingerprint_corpus_state",
    "fingerprint_evidence",
    "fingerprint_records",
    "fingerprint_mapping",
    "fingerprint_clusters",
    "fingerprint_entities",
    "fingerprint_entity",
    "fingerprint_kb",
    "fingerprint_tables",
    "implicit_payload",
    "pickle_digest",
    "digest",
]


# ---------------------------------------------------------------------------
# Digest primitives
# ---------------------------------------------------------------------------

def digest(payload: object) -> str:
    """SHA-1 hex digest of a canonical-JSON rendering of ``payload``.

    ``payload`` must be built from JSON-safe scalars and containers;
    anything else falls back to ``repr`` — callers are responsible for
    passing structures whose ``repr`` is value-determined (normalized
    values, enums), never identity-determined.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def pickle_digest(obj: object) -> str:
    """SHA-1 of an object's pickle — the fingerprint of last resort.

    Used for fitted model state (aggregators, matcher models, header
    statistics, duplicate evidence) whose construction is deterministic.
    A spurious *mismatch* merely recomputes; a match implies identical
    unpickled state, so it can never serve a wrong artifact.
    """
    return hashlib.sha1(pickle.dumps(obj, protocol=4)).hexdigest()


# ---------------------------------------------------------------------------
# Corpus snapshots
# ---------------------------------------------------------------------------

def corpus_state(corpus) -> dict[str, str]:
    """``{table_id: content_hash}`` snapshot of any corpus backend.

    Store-backed corpora answer from SQL without decoding payloads;
    in-memory corpora hash each table's canonical content.
    """
    store = getattr(corpus, "store", None)
    if store is not None and hasattr(store, "content_hashes"):
        return store.content_hashes()
    if hasattr(corpus, "content_hashes"):
        return corpus.content_hashes()
    from repro.corpus.store import content_hash

    return {
        table_id: content_hash(corpus.get(table_id))
        for table_id in corpus.table_ids()
    }


#: Each snapshot pair's SHA-256 is added modulo this to make the epoch.
_EPOCH_MODULUS = 1 << 256


def _pairs_sum(state: Mapping[str, str], table_ids: Iterable[str]) -> int:
    """The sum of the ``(table id, content hash)`` pairs' SHA-256s."""
    total = 0
    for table_id in table_ids:
        # Length-prefixed, so no two pairs encode alike.
        pair = f"{len(table_id)}:{table_id}{state[table_id]}"
        total += int.from_bytes(
            hashlib.sha256(pair.encode("utf-8")).digest(), "big"
        )
    return total


def _epoch(count: int, total: int) -> str:
    return f"{count}:{total % _EPOCH_MODULUS:064x}"


def fingerprint_corpus_state(state: Mapping[str, str]) -> str:
    """The corpus epoch of a snapshot: its table count and the sum
    modulo 2**256 of each ``(table id, content hash)`` pair's SHA-256.

    A function of the set of pairs: no ingest order enters it, because
    no output depends on the order a corpus lists its tables.  Like the
    SHA-1 content hashes it is built from, it is a cache key for
    non-adversarial input: equal epochs are taken to mean equal
    snapshots.
    """
    return _epoch(len(state), _pairs_sum(state, state))


def advance_corpus_epoch(
    epoch: str,
    previous: Mapping[str, str],
    state: Mapping[str, str],
    touched: Iterable[str],
) -> str:
    """The epoch of ``state``, given ``epoch``, the epoch of
    ``previous``, and distinct ids that include every id whose pair
    differs between them: each id's old pair is subtracted and its new
    one added, so the work follows the change, not the corpus.  Equal
    to ``fingerprint_corpus_state(state)``."""
    touched = list(touched)
    total = (
        int(epoch.partition(":")[2], 16)
        - _pairs_sum(previous, [t for t in touched if t in previous])
        + _pairs_sum(state, [t for t in touched if t in state])
    )
    return _epoch(len(state), total)


def corpus_patch(
    corpus, previous: Mapping[str, str] | None, state: Mapping[str, str]
) -> list[tuple[str, str | None]] | None:
    """The patch that turned snapshot ``previous`` into ``state``.

    Only a store handle that made every change itself knows it
    (:meth:`repro.corpus.store.CorpusStore.patch_since`); for any other
    corpus, a first snapshot or a foreign write it is ``None``.
    """
    store = getattr(corpus, "store", None)
    patch_since = getattr(store, "patch_since", None)
    if previous is None or patch_since is None:
        return None
    return patch_since(previous, state)


# ---------------------------------------------------------------------------
# Stage-input fingerprints
# ---------------------------------------------------------------------------

def _record_payload(record: RowRecord) -> list:
    """Canonical, value-determined rendering of one row record."""
    return [
        list(record.row_id),
        record.table_id,
        record.label,
        record.norm_label,
        sorted(record.tokens),
        sorted(
            (name, repr(value)) for name, value in record.values.items()
        ),
        list(record.label_tokens),
    ]


def fingerprint_records(records: Sequence[RowRecord]) -> str:
    """Order-sensitive digest of a record list.

    Order matters: greedy clustering shuffles record *positions*, so the
    same records in a different order legitimately cluster differently.
    """
    return digest([_record_payload(record) for record in records])


def fingerprint_mapping(
    mapping: SchemaMapping, table_ids: Iterable[str] | None = None
) -> str:
    """Digest of a schema mapping, optionally restricted to a table set.

    The restriction is what lets fusion reuse its artifact when a delta
    only touched tables outside the class's target set.
    """
    ids = (
        sorted(table_ids)
        if table_ids is not None
        else list(mapping.by_table)
    )
    payload = []
    for table_id in ids:
        table_mapping = mapping.table(table_id)
        if table_mapping is None:
            payload.append([table_id, None])
            continue
        payload.append(
            [
                table_id,
                table_mapping.class_name,
                repr(table_mapping.class_score),
                table_mapping.label_column,
                sorted(
                    (column, data_type.name)
                    for column, data_type in table_mapping.column_types.items()
                ),
                sorted(
                    (
                        column,
                        corr.property_name,
                        repr(corr.score),
                        corr.data_type.name,
                    )
                    for column, corr in table_mapping.attributes.items()
                ),
            ]
        )
    return digest(payload)


def fingerprint_clusters(clusters: Sequence[Cluster]) -> str:
    """Order-sensitive digest of a clustering (entity ids derive from it)."""
    return digest(
        [
            [
                cluster.cluster_id,
                [_record_payload(record) for record in cluster.members],
                sorted(cluster.blocks),
            ]
            for cluster in clusters
        ]
    )


def _entity_payload(entity: Entity) -> list:
    return [
        entity.class_name,
        list(entity.labels),
        sorted((name, repr(value)) for name, value in entity.facts.items()),
        [_record_payload(record) for record in entity.rows],
    ]


def fingerprint_entities(
    entities: Sequence[Entity], entity_fps: Sequence[str] | None = None
) -> str:
    """Order-sensitive digest of an entity list (detection keys by id).

    Built from each entity's id and :func:`fingerprint_entity`, so a run
    that holds ``entity_fps`` (aligned with ``entities``) digests no
    entity twice.
    """
    if entity_fps is None:
        entity_fps = [fingerprint_entity(entity) for entity in entities]
    return digest(
        [
            [entity.entity_id, entity_fp]
            for entity, entity_fp in zip(entities, entity_fps)
        ]
    )


def implicit_payload(
    entity: Entity, implicit_by_table: Mapping[str, Mapping[str, object]]
) -> list:
    """The implicit attributes of an entity's tables, the only context
    the IMPLICIT_ATT metric consults, in canonical form."""
    return [
        [
            table_id,
            sorted(
                repr(attribute)
                for attribute in implicit_by_table.get(table_id, {}).values()
            ),
        ]
        for table_id in sorted({record.table_id for record in entity.rows})
    ]


def fingerprint_entity(entity: Entity) -> str:
    """Content digest of one entity.

    Excludes the entity id (a creation-order counter — two corpus states
    may assign different ids to the same content) and the provenance
    (detection never reads it).  One digest serves both the entity
    list's fingerprint and the entity's detection key, which keeps
    :func:`implicit_payload` beside it.
    """
    return digest(_entity_payload(entity))


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


def fingerprint_tables(state: Mapping[str, str], table_ids: Iterable[str]) -> str:
    """Digest of the stored content of a table subset (sorted by id)."""
    return digest(
        sorted([table_id, state.get(table_id)] for table_id in set(table_ids))
    )


def fingerprint_kb(kb: KnowledgeBase) -> str:
    """Structural digest of a knowledge base (schema + instances).

    Walks value-determined fields only — the KB's lazy caches (label
    index, search memo) never leak into the digest.
    """
    classes = sorted(kb.schema.classes(), key=lambda kb_class: kb_class.name)
    schema_payload = [
        [
            kb_class.name,
            kb_class.parent,
            sorted(
                [
                    name,
                    prop.data_type.name,
                    repr(prop.tolerance),
                    list(prop.all_labels()),
                ]
                for name, prop in kb_class.properties.items()
            ),
        ]
        for kb_class in classes
    ]
    instances = sorted(
        (
            instance
            for kb_class in classes
            for instance in kb.instances_of(
                kb_class.name, include_subclasses=False
            )
        ),
        key=lambda instance: instance.uri,
    )
    instance_payload = [
        [
            instance.uri,
            instance.class_name,
            list(instance.labels),
            sorted(
                (name, repr(value)) for name, value in instance.facts.items()
            ),
            instance.abstract,
            instance.page_links,
        ]
        for instance in instances
    ]
    return digest([schema_payload, instance_payload])
