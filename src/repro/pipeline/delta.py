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
  :func:`fingerprint_corpus_state` digests it, ingest order included.
* **Fingerprints** — canonical digests for every stage input: row
  records, schema mappings, clusters, entities, table subsets, the
  knowledge base, and arbitrary picklable model state.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Iterable, Mapping, Sequence

from repro.clustering.greedy import Cluster
from repro.fusion.entity import Entity
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.correspondences import SchemaMapping
from repro.matching.records import RowRecord

__all__ = [
    "corpus_state",
    "fingerprint_corpus_state",
    "fingerprint_records",
    "fingerprint_mapping",
    "fingerprint_clusters",
    "fingerprint_entities",
    "fingerprint_entity",
    "fingerprint_kb",
    "fingerprint_tables",
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


def fingerprint_corpus_state(
    state: Mapping[str, str], order: Sequence[str] | None = None
) -> str:
    """Digest of a corpus snapshot, sensitive to ingest order.

    Ingest order is part of pipeline semantics (it fixes the record
    order the clustering shuffle permutes), so two stores holding the
    same tables in different orders must not share artifacts.
    """
    ids = list(order) if order is not None else list(state)
    return digest([[table_id, state[table_id]] for table_id in ids])


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


def _entity_payload(entity: Entity, include_id: bool = True) -> list:
    payload = [
        entity.class_name,
        list(entity.labels),
        sorted((name, repr(value)) for name, value in entity.facts.items()),
        [_record_payload(record) for record in entity.rows],
    ]
    if include_id:
        payload.insert(0, entity.entity_id)
    return payload


def fingerprint_entities(entities: Sequence[Entity]) -> str:
    """Order-sensitive digest of an entity list (detection keys by id)."""
    return digest([_entity_payload(entity) for entity in entities])


def fingerprint_entity(
    entity: Entity,
    implicit_by_table: Mapping[str, Mapping[str, object]] | None = None,
) -> str:
    """Content digest of one entity for the per-entity detection cache.

    Excludes the entity id (a creation-order counter — two corpus states
    may assign different ids to the same content) and the provenance
    (detection never reads it).  ``implicit_by_table`` folds in the
    implicit attributes of the entity's tables, the only context the
    IMPLICIT_ATT metric consults.
    """
    payload = _entity_payload(entity, include_id=False)
    if implicit_by_table is not None:
        tables = sorted({record.table_id for record in entity.rows})
        payload.append(
            [
                [
                    table_id,
                    sorted(
                        repr(attribute)
                        for attribute in implicit_by_table.get(
                            table_id, {}
                        ).values()
                    ),
                ]
                for table_id in tables
            ]
        )
    return digest(payload)


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
