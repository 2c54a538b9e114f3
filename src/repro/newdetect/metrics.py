"""The six entity-to-instance similarity metrics (Section 3.4).

Each metric scores a (created entity, candidate KB instance) pair and
returns ``(score, confidence)`` or ``None`` when it cannot judge the pair.
POPULARITY is rank-based and therefore receives the full candidate list.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro.clustering.implicit import ImplicitAttribute, value_key
from repro.datatypes.similarity import TypedSimilarity
from repro.fusion.entity import Entity
from repro.kb.instance import KBInstance
from repro.kb.knowledge_base import KnowledgeBase
from repro.text.monge_elkan import label_similarity
from repro.text.vectors import binary_cosine, term_vector

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache

#: Canonical metric names in the paper's aggregation order (Table 8).
ENTITY_METRIC_NAMES = (
    "LABEL", "TYPE", "BOW", "ATTRIBUTE", "IMPLICIT_ATT", "POPULARITY",
)

MetricOutput = tuple[float, float] | None


class EntityInstanceMetric(Protocol):
    """An entity-to-instance similarity metric."""

    name: str

    def compute(
        self,
        entity: Entity,
        instance: KBInstance,
        candidates: Sequence[KBInstance],
    ) -> MetricOutput:
        ...


class LabelEIMetric:
    """Best Monge-Elkan similarity over entity labels × instance labels.

    ``kernels`` (a session's :class:`repro.perf.KernelCache`) memoizes
    the label similarities; it changes no score.
    """

    name = "LABEL"

    def __init__(self, kernels: "KernelCache | None" = None) -> None:
        self._kernels = kernels

    def compute(self, entity, instance, candidates) -> MetricOutput:
        if not entity.labels or not instance.labels:
            return None
        best = max(
            label_similarity(entity_label, instance_label, self._kernels)
            for entity_label in entity.labels[:3]
            for instance_label in instance.labels
        )
        return best, 1.0


class TypeEIMetric:
    """Overlap of the instance's classes with the entity class ancestry."""

    name = "TYPE"

    def __init__(self, kb: KnowledgeBase) -> None:
        self._schema = kb.schema

    def compute(self, entity, instance, candidates) -> MetricOutput:
        score = self._schema.type_overlap({instance.class_name}, entity.class_name)
        return score, 1.0


class BowEIMetric:
    """Cosine of binary term vectors: entity rows vs instance description.

    The instance vector is built from labels, abstract and fact values and
    cached per URI; the entity vector is the union of its rows' vectors.
    """

    name = "BOW"

    def __init__(self) -> None:
        self._instance_vectors: dict[str, frozenset[str]] = {}
        self._entity_vectors: dict[str, frozenset[str]] = {}

    def compute(self, entity, instance, candidates) -> MetricOutput:
        entity_vector = self._entity_vectors.get(entity.entity_id)
        if entity_vector is None:
            terms: set[str] = set()
            for record in entity.rows:
                terms.update(record.tokens)
            entity_vector = frozenset(terms)
            self._entity_vectors[entity.entity_id] = entity_vector
        instance_vector = self._instance_vectors.get(instance.uri)
        if instance_vector is None:
            fragments = list(instance.labels)
            fragments.append(instance.abstract)
            fragments.extend(str(value) for value in instance.facts.values())
            instance_vector = term_vector(fragments)
            self._instance_vectors[instance.uri] = instance_vector
        return binary_cosine(entity_vector, instance_vector), 1.0


class AttributeEIMetric:
    """Agreement of the entity's fused facts with the instance's facts.

    ``kernels`` memoizes the label similarity of text values.
    """

    name = "ATTRIBUTE"

    def __init__(
        self,
        similarities: Mapping[str, TypedSimilarity],
        kernels: "KernelCache | None" = None,
    ) -> None:
        self._similarities = similarities
        self._kernels = kernels

    def compute(self, entity, instance, candidates) -> MetricOutput:
        shared = entity.facts.keys() & instance.facts.keys()
        if not shared:
            return None
        compared = 0
        agreeing = 0
        for property_name in shared:
            similarity = self._similarities.get(property_name)
            if similarity is None:
                continue
            compared += 1
            if similarity.equal(
                entity.facts[property_name],
                instance.facts[property_name],
                self._kernels,
            ):
                agreeing += 1
        if compared == 0:
            return None
        return agreeing / compared, float(compared)


class ImplicitEIMetric:
    """Entity-level implicit attributes compared to instance facts.

    Implicit attributes of the entity are derived by summing, per
    property-value combination, the confidences over the tables of the
    entity's rows and dividing by the row count (Section 3.4).
    """

    name = "IMPLICIT_ATT"

    def __init__(
        self, implicit_by_table: Mapping[str, Mapping[str, ImplicitAttribute]]
    ) -> None:
        self._implicit = implicit_by_table
        self._entity_cache: dict[str, dict[tuple[str, str], float]] = {}

    def _entity_implicit(self, entity: Entity) -> dict[tuple[str, str], float]:
        cached = self._entity_cache.get(entity.entity_id)
        if cached is not None:
            return cached
        sums: dict[tuple[str, str], float] = defaultdict(float)
        for record in entity.rows:
            for attribute in self._implicit.get(record.table_id, {}).values():
                sums[(attribute.property_name, attribute.key)] += attribute.confidence
        row_count = max(1, len(entity.rows))
        result = {combo: total / row_count for combo, total in sums.items()}
        self._entity_cache[entity.entity_id] = result
        return result

    def compute(self, entity, instance, candidates) -> MetricOutput:
        implicit = self._entity_implicit(entity)
        if not implicit:
            return None
        compared_weight = 0.0
        agreement = 0.0
        for (property_name, key), confidence in implicit.items():
            fact = instance.fact(property_name)
            if fact is None:
                continue
            compared_weight += confidence
            if value_key(fact) == key:
                agreement += confidence
        if compared_weight == 0.0:
            return None
        return agreement / compared_weight, compared_weight


class PopularityEIMetric:
    """Rank-based popularity prior over the candidate set.

    A single candidate scores 1.0; otherwise a candidate at page-link rank
    *r* scores ``1/r`` — given just a name, the best-known bearer of the
    name is usually meant.
    """

    name = "POPULARITY"

    def compute(self, entity, instance, candidates) -> MetricOutput:
        if len(candidates) <= 1:
            return 1.0, 1.0
        ordered = sorted(
            candidates, key=lambda candidate: (-candidate.page_links, candidate.uri)
        )
        rank = next(
            (
                position
                for position, candidate in enumerate(ordered, start=1)
                if candidate.uri == instance.uri
            ),
            len(ordered),
        )
        return 1.0 / rank, 1.0


def make_entity_metrics(
    names: Sequence[str],
    kb: KnowledgeBase,
    class_name: str,
    implicit_by_table: Mapping[str, Mapping[str, ImplicitAttribute]],
    kernels: "KernelCache | None" = None,
) -> list[EntityInstanceMetric]:
    """Instantiate entity metrics by canonical name.

    ``kernels`` (a :class:`repro.perf.KernelCache`) shares the session's
    similarity memos with the LABEL and ATTRIBUTE metrics; the scores are
    the same without it.
    """
    similarities = {
        name: TypedSimilarity(prop.data_type, prop.tolerance)
        for name, prop in kb.schema.properties_of(class_name).items()
    }
    factory = {
        "LABEL": lambda: LabelEIMetric(kernels),
        "TYPE": lambda: TypeEIMetric(kb),
        "BOW": lambda: BowEIMetric(),
        "ATTRIBUTE": lambda: AttributeEIMetric(similarities, kernels),
        "IMPLICIT_ATT": lambda: ImplicitEIMetric(implicit_by_table),
        "POPULARITY": lambda: PopularityEIMetric(),
    }
    metrics: list[EntityInstanceMetric] = []
    for name in names:
        if name not in factory:
            raise KeyError(
                f"unknown entity metric {name!r}; expected one of {ENTITY_METRIC_NAMES}"
            )
        metrics.append(factory[name]())
    return metrics
