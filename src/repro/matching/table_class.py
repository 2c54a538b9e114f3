"""Table-to-class matching (Section 3.1, after Ritze et al.).

Combines row-to-instance and duplicate-based attribute matching: rows vote
for classes through label-based candidate instances, candidate classes are
then scored by how well the table's value columns match their properties
(via the facts of the candidate instances), and the best aggregate wins.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.datatypes import DataType, candidate_property_types
from repro.datatypes.normalization import NormalizationError, normalize_value
from repro.datatypes.similarity import TypedSimilarity
from repro.kb.instance import KBInstance
from repro.kb.knowledge_base import KnowledgeBase
from repro.webtables.table import WebTable

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache


@dataclass
class TableClassResult:
    """Outcome of table-to-class matching for one table."""

    class_name: str | None
    score: float
    #: Per-row best candidate instance of the chosen class (duplicate-based
    #: evidence; reused by the KBT fusion scorer).
    row_candidates: dict[int, KBInstance] = field(default_factory=dict)


class TableClassMatcher:
    """Scores candidate classes for a table and picks the best.

    ``kernels`` (a session's :class:`repro.perf.KernelCache`) memoizes the
    label similarity of text values; it changes no score.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        candidate_limit: int = 5,
        min_row_fraction: float = 0.3,
        kernels: "KernelCache | None" = None,
    ) -> None:
        self.kb = kb
        self.candidate_limit = candidate_limit
        self.min_row_fraction = min_row_fraction
        self.kernels = kernels

    def match(
        self,
        table: WebTable,
        column_types: dict[int, DataType],
        label_column: int | None,
    ) -> TableClassResult:
        """Match one table to a knowledge base class.

        Returns a ``None`` class when no class receives candidate
        instances for at least ``min_row_fraction`` of the rows.
        """
        if label_column is None or table.n_rows == 0:
            return TableClassResult(None, 0.0)
        candidates_per_row = self._row_candidates(table, label_column)
        class_votes: Counter[str] = Counter()
        for row_candidates in candidates_per_row.values():
            for class_name in {instance.class_name for instance in row_candidates}:
                class_votes[class_name] += 1
        minimum_votes = max(2, int(self.min_row_fraction * table.n_rows))
        candidate_classes = [
            class_name
            for class_name, votes in class_votes.items()
            if votes >= minimum_votes
        ]
        if not candidate_classes:
            return TableClassResult(None, 0.0)

        best_class: str | None = None
        best_score = 0.0
        best_row_map: dict[int, KBInstance] = {}
        for class_name in sorted(candidate_classes):
            score, row_map = self._score_class(
                table, column_types, label_column, class_name, candidates_per_row
            )
            score += class_votes[class_name]
            if score > best_score:
                best_score = score
                best_class = class_name
                best_row_map = row_map
        return TableClassResult(best_class, best_score, best_row_map)

    # ------------------------------------------------------------------
    def _row_candidates(
        self, table: WebTable, label_column: int
    ) -> dict[int, list[KBInstance]]:
        candidates: dict[int, list[KBInstance]] = {}
        for row in table.iter_rows():
            label = row.cell(label_column)
            if label is None:
                continue
            found = self.kb.candidates_by_label(label, self.candidate_limit)
            if found:
                candidates[row.index] = found
        return candidates

    def _score_class(
        self,
        table: WebTable,
        column_types: dict[int, DataType],
        label_column: int,
        class_name: str,
        candidates_per_row: dict[int, list[KBInstance]],
    ) -> tuple[float, dict[int, KBInstance]]:
        """Duplicate-based attribute evidence for one candidate class.

        For every value column, count cells equal to the property facts of
        the row's candidate instances; the column's score is the count of
        its best property, and the class evidence is the sum over columns.
        """
        properties = self.kb.schema.properties_of(class_name)
        # (column, property) → matched cell count
        matches: Counter[tuple[int, str]] = Counter()
        row_best: dict[int, KBInstance] = {}
        row_hits: Counter[int] = Counter()
        parse_cache: dict[tuple[int, int, DataType], object | None] = {}

        for row_index, instances in candidates_per_row.items():
            class_instances = [
                instance for instance in instances
                if instance.class_name == class_name
            ]
            if not class_instances:
                continue
            row = table.row(row_index)
            for instance in class_instances:
                hits = 0
                for column in range(table.n_columns):
                    if column == label_column:
                        continue
                    detected = column_types.get(column)
                    if detected is None or detected not in (
                        DataType.TEXT, DataType.DATE, DataType.QUANTITY
                    ):
                        continue
                    cell = row.cell(column)
                    if cell is None:
                        continue
                    admissible = candidate_property_types(detected)
                    for property_name, prop in properties.items():
                        if prop.data_type not in admissible:
                            continue
                        fact = instance.fact(property_name)
                        if fact is None:
                            continue
                        key = (row_index, column, prop.data_type)
                        if key not in parse_cache:
                            try:
                                parse_cache[key] = normalize_value(cell, prop.data_type)
                            except NormalizationError:
                                parse_cache[key] = None
                        parsed = parse_cache[key]
                        if parsed is None:
                            continue
                        similarity = TypedSimilarity(prop.data_type, prop.tolerance)
                        if similarity.equal(parsed, fact, self.kernels):
                            matches[(column, property_name)] += 1
                            hits += 1
                if hits > row_hits.get(row_index, -1):
                    row_hits[row_index] = hits
                    row_best[row_index] = instance

        per_column_best: dict[int, int] = defaultdict(int)
        for (column, __), count in matches.items():
            per_column_best[column] = max(per_column_best[column], count)
        return float(sum(per_column_best.values())), row_best
