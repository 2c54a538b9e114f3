"""The queryable knowledge base store."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.index import LabelIndex, LabelMatch
from repro.kb.instance import KBInstance
from repro.kb.schema import KBSchema
from repro.text.tokenize import normalize_label


class KnowledgeBase:
    """Instances + schema with the lookups the pipeline needs.

    Responsibilities:

    * instance storage and per-class listing (with subclass expansion),
    * label-based candidate retrieval through a :class:`LabelIndex`
      (new detection, table-to-class matching, IMPLICIT_ATT),
    * per-property value pools (KB-Overlap matcher),
    * popularity ranking data (POPULARITY metric).
    """

    def __init__(self, schema: KBSchema) -> None:
        self.schema = schema
        self._instances: dict[str, KBInstance] = {}
        self._by_class: dict[str, list[str]] = defaultdict(list)
        self._label_index: LabelIndex | None = None
        self._exact_label_map: dict[str, list[str]] = defaultdict(list)
        self._search_cache: dict[tuple[str, int], list[LabelMatch]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_instance(self, instance: KBInstance) -> None:
        if instance.uri in self._instances:
            raise ValueError(f"duplicate instance: {instance.uri}")
        if instance.class_name not in self.schema:
            raise ValueError(f"unknown class: {instance.class_name}")
        self._instances[instance.uri] = instance
        self._by_class[instance.class_name].append(instance.uri)
        for label in instance.labels:
            self._exact_label_map[normalize_label(label)].append(instance.uri)
        self._label_index = None  # invalidate
        self._search_cache.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, uri: str) -> bool:
        return uri in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def get(self, uri: str) -> KBInstance:
        return self._instances[uri]

    def instances_of(
        self, class_name: str, include_subclasses: bool = True
    ) -> list[KBInstance]:
        """All instances of a class, by default including subclasses."""
        names = (
            self.schema.descendants(class_name) if include_subclasses
            else {class_name}
        )
        return [
            self._instances[uri]
            for name in sorted(names)
            for uri in self._by_class.get(name, ())
        ]

    def instance_count(self, class_name: str, include_subclasses: bool = True) -> int:
        names = (
            self.schema.descendants(class_name) if include_subclasses
            else {class_name}
        )
        return sum(len(self._by_class.get(name, ())) for name in names)

    def instances_with_label(self, label: str) -> list[KBInstance]:
        """Instances whose normalized label equals the query exactly."""
        return [
            self._instances[uri]
            for uri in self._exact_label_map.get(normalize_label(label), ())
        ]

    def candidates_by_label(self, label: str, limit: int = 10) -> list[KBInstance]:
        """Top-``limit`` instances with labels similar to ``label``.

        Backed by the lazily built label index; the recall-oriented contract
        of the paper's Lucene index.
        """
        matches = self.label_matches(label, limit)
        seen: set[str] = set()
        candidates: list[KBInstance] = []
        for match in matches:
            for uri in match.payloads:
                if uri not in seen:
                    seen.add(uri)
                    candidates.append(self._instances[uri])
        return candidates

    def label_matches(self, label: str, limit: int = 10) -> list[LabelMatch]:
        """Raw label matches (with retrieval scores) for ``label``.

        Results are cached per normalized query — web table rows repeat
        labels heavily, and the cache turns repeated lookups into dict
        hits.
        """
        key = (normalize_label(label), limit)
        cached = self._search_cache.get(key)
        if cached is not None:
            return cached
        matches = self._ensure_label_index().search(label, limit)
        self._search_cache[key] = matches
        return matches

    def _ensure_label_index(self) -> LabelIndex:
        """The label index, built on first use."""
        if self._label_index is None:
            index = LabelIndex()
            for instance in self._instances.values():
                for label in instance.labels:
                    index.add(label, instance.uri)
            self._label_index = index
        return self._label_index

    # ------------------------------------------------------------------
    # Aggregates used by matchers and profiling
    # ------------------------------------------------------------------
    def property_values(self, class_name: str, property_name: str) -> list[object]:
        """All fact values of a property over the instances of a class."""
        return [
            instance.facts[property_name]
            for instance in self.instances_of(class_name)
            if property_name in instance.facts
        ]

    def fact_count(self, class_name: str) -> int:
        """Total facts over all instances of a class (Table 1)."""
        return sum(
            instance.fact_count() for instance in self.instances_of(class_name)
        )

    def popularity_rank(self, uris: Iterable[str]) -> list[str]:
        """URIs sorted by descending page-link count (POPULARITY metric)."""
        return sorted(
            uris,
            key=lambda uri: (-self._instances[uri].page_links, uri),
        )
