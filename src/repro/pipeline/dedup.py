"""Post-clustering entity deduplication (the paper's suggested extension).

Section 5 observes that row clustering over-segments (the entity-to-
instance ratio is 1.21-1.39) and suggests to "implement more sophisticated
row clustering methods or, alternatively, perform deduplication after
clustering".  This module implements that alternative: new entities whose
labels are near-identical and whose fused facts do not conflict are merged
after new detection, directly reducing the over-segmentation ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.datatypes.similarity import TypedSimilarity
from repro.fusion.entity import Entity, collect_labels
from repro.kb.knowledge_base import KnowledgeBase
from repro.text.monge_elkan import label_similarity

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache


@dataclass(frozen=True)
class DedupResult:
    """Outcome of entity deduplication."""

    entities: list[Entity]
    merged_groups: int
    merged_away: int


def _facts_compatible(
    entity_a: Entity,
    entity_b: Entity,
    similarities: dict[str, TypedSimilarity],
    min_agreement: float = 1.0,
    kernels: "KernelCache | None" = None,
) -> bool:
    """Whether two entities' fused facts agree on every shared property."""
    shared = entity_a.facts.keys() & entity_b.facts.keys()
    if not shared:
        return True
    agreeing = 0
    compared = 0
    for property_name in shared:
        similarity = similarities.get(property_name)
        if similarity is None:
            continue
        compared += 1
        if similarity.equal(
            entity_a.facts[property_name], entity_b.facts[property_name], kernels
        ):
            agreeing += 1
    if compared == 0:
        return True
    return agreeing / compared >= min_agreement


def deduplicate_entities(
    entities: Sequence[Entity],
    kb: KnowledgeBase,
    class_name: str,
    label_threshold: float = 0.95,
    min_fact_agreement: float = 1.0,
    kernels: "KernelCache | None" = None,
) -> DedupResult:
    """Merge near-duplicate entities.

    Two entities merge when their primary labels are near-identical
    (Monge-Elkan ≥ ``label_threshold``) and their fused facts agree on all
    shared properties (``min_fact_agreement``).  Merging unions rows and
    refuses facts by simple recency of the larger entity (the larger
    entity's value wins; candidates are not re-fused to keep the operation
    cheap and deterministic).  ``kernels`` (a session's
    :class:`repro.perf.KernelCache`) memoizes the label similarities.
    """
    similarities = {
        name: TypedSimilarity(prop.data_type, prop.tolerance)
        for name, prop in kb.schema.properties_of(class_name).items()
    }
    ordered = sorted(entities, key=lambda entity: (-len(entity.rows), entity.entity_id))
    merged: list[Entity] = []
    grew: set[str] = set()
    merged_away = 0
    for entity in ordered:
        target = None
        for existing in merged:
            if (
                label_similarity(
                    entity.primary_label, existing.primary_label, kernels
                )
                >= label_threshold
                and _facts_compatible(
                    entity, existing, similarities, min_fact_agreement, kernels
                )
            ):
                target = existing
                break
        if target is None:
            merged.append(
                Entity(
                    entity_id=entity.entity_id,
                    class_name=entity.class_name,
                    labels=entity.labels,
                    rows=list(entity.rows),
                    facts=dict(entity.facts),
                    provenance=dict(entity.provenance),
                )
            )
            continue
        existing_rows = {record.row_id for record in target.rows}
        target.rows.extend(
            record for record in entity.rows if record.row_id not in existing_rows
        )
        # The larger (first-placed) entity's fused values win; the merged
        # entity only fills empty slots.
        for property_name, value in entity.facts.items():
            target.facts.setdefault(property_name, value)
        target.labels = collect_labels(target.rows)
        merged_away += 1
        grew.add(target.entity_id)
    return DedupResult(
        entities=merged,
        merged_groups=len(grew),
        merged_away=merged_away,
    )
