"""The five attribute-to-property matchers (Section 3.1).

Three exploit the knowledge base:

* **KB-Overlap** — fraction of column values that generally fit the
  property's KB value distribution.
* **KB-Label** — similarity of the column header to the property's labels.
* **KB-Duplicate** — fraction of column values equal to the property fact
  of the row's corresponding instance (requires the entity-to-instance
  correspondences fed back from new detection).

Two exploit the web table corpus through a preliminary mapping:

* **WT-Label** — likelihood that a header label maps to the property,
  estimated from the preliminary corpus-wide mapping.
* **WT-Duplicate** — fraction of column values for which an equal value
  exists elsewhere in the corpus matched to the same instance (requires
  row clusters from a previous clustering run).

Every matcher returns a score in [0, 1] or ``None`` when it cannot judge
the pair at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.datatypes.normalization import NormalizationError, normalize_value
from repro.datatypes.similarity import TypedSimilarity
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.schema import KBProperty
from repro.matching.pools import ValuePool
from repro.perf.counters import bump
from repro.perf.kernels import ColumnCells, KernelCache
from repro.text.monge_elkan import label_similarity
from repro.text.tokenize import normalize_label
from repro.webtables.table import RowId, WebTable

#: Canonical matcher names, in aggregation order.
MATCHER_NAMES_FIRST_ITERATION = ("kb_overlap", "kb_label", "wt_label")
MATCHER_NAMES_SECOND_ITERATION = (
    "kb_overlap", "kb_label", "wt_label", "kb_duplicate", "wt_duplicate",
)


@dataclass
class HeaderStatistics:
    """WT-Label statistics: P(property | normalized header label)."""

    scores: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._seen_headers = {header for header, __ in self.scores}

    @classmethod
    def from_correspondences(
        cls, correspondences, corpus
    ) -> "HeaderStatistics":
        """Estimate header → property likelihoods from a (preliminary) mapping."""
        header_property: dict[tuple[str, str], int] = defaultdict(int)
        header_total: dict[str, int] = defaultdict(int)
        for correspondence in correspondences:
            table = corpus.get(correspondence.table_id)
            header = normalize_label(table.header[correspondence.column])
            if not header:
                continue
            header_property[(header, correspondence.property_name)] += 1
            header_total[header] += 1
        scores = {
            key: count / header_total[key[0]]
            for key, count in header_property.items()
        }
        return cls(scores)

    def score(self, header: str, property_name: str) -> float | None:
        normalized = normalize_label(header)
        if not normalized:
            return None
        # An unseen header gives no evidence either way.
        if normalized not in self._seen_headers:
            return None
        return self.scores.get((normalized, property_name), 0.0)


@dataclass
class DuplicateEvidence:
    """Row-level feedback from the previous pipeline iteration.

    ``row_instance`` maps rows to the KB instance their entity matched
    (KB-Duplicate); ``cluster_of_row`` plus ``cluster_values`` record which
    values are matched to the same instance-and-property elsewhere in the
    corpus (WT-Duplicate).
    """

    row_instance: dict[RowId, str] = field(default_factory=dict)
    cluster_of_row: dict[RowId, str] = field(default_factory=dict)
    #: (cluster id, property) → [(value, table id), ...]
    cluster_values: dict[tuple[str, str], list[tuple[object, str]]] = field(
        default_factory=dict
    )


class AttributeMatchers:
    """Computes all matcher scores for (table, column, property) triples.

    ``kernels`` (a session's :class:`repro.perf.KernelCache`; a private
    one when ``None``) memoizes the label similarities of KB-Label and
    the duplicate matchers, the parsed columns, the KB value pools and
    the (KB-Overlap, KB-Label) pair of each column, which read only the
    column and the knowledge base.  It changes no score.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        class_name: str,
        header_stats: HeaderStatistics | None = None,
        evidence: DuplicateEvidence | None = None,
        kernels: KernelCache | None = None,
    ) -> None:
        self.kb = kb
        self.class_name = class_name
        self.header_stats = header_stats
        self.evidence = evidence
        self.kernels = kernels if kernels is not None else KernelCache()

    # ------------------------------------------------------------------
    def score_all(
        self, table: WebTable, column: int, prop: KBProperty
    ) -> dict[str, float | None]:
        """All available matcher scores for one column-property pair."""
        header = table.header[column]
        cells = tuple(row[column] for row in table.rows)
        key = (self.class_name, prop.name, header, cells)
        kb_scores = self.kernels.attribute_scores.get(key)
        if kb_scores is None:
            kb_scores = self.kernels.recall("attribute_scores", key)
        if kb_scores is None:
            bump("attribute_scores.computed")
            kb_scores = (
                self._kb_overlap(self._parse_column(cells, prop), prop),
                self._kb_label(header, prop),
            )
            self.kernels.attribute_scores[key] = kb_scores
        else:
            bump("attribute_scores.reused")
        scores: dict[str, float | None] = {
            "kb_overlap": kb_scores[0],
            "kb_label": kb_scores[1],
        }
        if self.header_stats is not None:
            scores["wt_label"] = self.header_stats.score(header, prop.name)
        if self.evidence is not None:
            parsed = self._parse_column(cells, prop)
            scores["kb_duplicate"] = self._kb_duplicate(table, parsed, prop)
            scores["wt_duplicate"] = self._wt_duplicate(table, parsed, prop)
        return scores

    # ------------------------------------------------------------------
    def _parse_column(
        self, cells: ColumnCells, prop: KBProperty
    ) -> dict[int, object]:
        """Row index → cell parsed as the property's type (parseable only).

        Memoized per (type, cells); callers must not mutate the result.
        """
        key = (prop.data_type, cells)
        parsed = self.kernels.parsed_columns.get(key)
        if parsed is None:
            parsed = self.kernels.recall("parsed_columns", key)
        if parsed is None:
            bump("parsed_columns.computed")
            parsed = {}
            for row_index, cell in enumerate(cells):
                if cell is None:
                    continue
                try:
                    parsed[row_index] = normalize_value(cell, prop.data_type)
                except NormalizationError:
                    continue
            self.kernels.parsed_columns[key] = parsed
        return parsed

    def _pool(self, prop: KBProperty) -> ValuePool:
        key = (self.class_name, prop.name)
        pool = self.kernels.value_pools.get(key)
        if pool is None:
            values = self.kb.property_values(self.class_name, prop.name)
            pool = ValuePool(prop.data_type, values, prop.tolerance)
            self.kernels.value_pools[key] = pool
        return pool

    # ------------------------------------------------------------------
    # The five matchers
    # ------------------------------------------------------------------
    def _kb_overlap(
        self, parsed: dict[int, object], prop: KBProperty
    ) -> float | None:
        pool = self._pool(prop)
        if not parsed or len(pool) == 0:
            return None
        hits = sum(1 for value in parsed.values() if pool.contains_equal(value))
        return hits / len(parsed)

    def _kb_label(self, header: str, prop: KBProperty) -> float | None:
        normalized = normalize_label(header)
        if not normalized:
            return None
        return max(
            label_similarity(normalized, normalize_label(label), self.kernels)
            for label in prop.all_labels()
        )

    def _kb_duplicate(
        self, table: WebTable, parsed: dict[int, object], prop: KBProperty
    ) -> float | None:
        evidence = self.evidence
        similarity = TypedSimilarity(prop.data_type, prop.tolerance)
        comparable = 0
        equal = 0
        for row_index, value in parsed.items():
            uri = evidence.row_instance.get((table.table_id, row_index))
            if uri is None or uri not in self.kb:
                continue
            fact = self.kb.get(uri).fact(prop.name)
            if fact is None:
                continue
            comparable += 1
            if similarity.equal(value, fact, self.kernels):
                equal += 1
        if comparable == 0:
            return None
        return equal / comparable

    def _wt_duplicate(
        self, table: WebTable, parsed: dict[int, object], prop: KBProperty
    ) -> float | None:
        evidence = self.evidence
        similarity = TypedSimilarity(prop.data_type, prop.tolerance)
        comparable = 0
        supported = 0
        for row_index, value in parsed.items():
            cluster = evidence.cluster_of_row.get((table.table_id, row_index))
            if cluster is None:
                continue
            others = [
                other_value
                for other_value, other_table in evidence.cluster_values.get(
                    (cluster, prop.name), ()
                )
                if other_table != table.table_id
            ]
            if not others:
                continue
            comparable += 1
            if any(
                similarity.equal(value, other, self.kernels) for other in others
            ):
                supported += 1
        if comparable == 0:
            return None
        return supported / comparable
