"""Ingest-time corpus filtering (the paper's corpus-filtering step).

The paper runs its pipeline over a *filtered* slice of the web-scale
corpus: tables must look relational, have a subject (label) column
holding entity names, and — for a targeted extraction run — match one of
the target classes.  Filters are cheap per-table predicates applied
while the ingest stream flows into the :class:`~repro.corpus.store.CorpusStore`,
so rejected tables never cost disk or index space.

A filter is anything with a ``name`` attribute and an
``accept(table) -> bool`` method; :class:`CorpusStore.ingest` counts
rejections per filter name in its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.datatypes.detection import detect_column_type
from repro.matching.label_attribute import detect_label_attribute
from repro.text.tokenize import normalize_label
from repro.webtables.table import WebTable


class TableAnalysis:
    """Lazily computed per-table column typing + label-column detection.

    Column typing is the dominant per-table cost on the ingest path and
    several filters need it (subject-column filter, class-restriction
    filter) — one ``TableAnalysis`` instance is shared across them so
    the work happens at most once per table.
    """

    __slots__ = ("table", "_column_types", "_label_column", "_label_done")

    def __init__(self, table: WebTable) -> None:
        self.table = table
        self._column_types: dict[int, object] | None = None
        self._label_column: int | None = None
        self._label_done = False

    @property
    def column_types(self) -> dict:
        if self._column_types is None:
            self._column_types = {
                column: detect_column_type(self.table.column(column))
                for column in range(self.table.n_columns)
            }
        return self._column_types

    @property
    def label_column(self) -> int | None:
        if not self._label_done:
            self._label_column = detect_label_attribute(
                self.table, self.column_types
            )
            self._label_done = True
        return self._label_column


@runtime_checkable
class CorpusFilter(Protocol):
    """Ingest-time accept/reject predicate over a single table.

    ``analysis`` shares lazily computed column typing between filters
    (and the label index); ``accept`` must also work when it is omitted.
    """

    name: str

    def accept(
        self, table: WebTable, analysis: TableAnalysis | None = None
    ) -> bool: ...


@dataclass
class ShapeFilter:
    """Reject degenerate tables by shape (the relational-table heuristic)."""

    min_rows: int = 2
    min_columns: int = 2
    max_columns: int | None = None
    name: str = "shape"

    def accept(
        self, table: WebTable, analysis: TableAnalysis | None = None
    ) -> bool:
        if table.n_rows < self.min_rows or table.n_columns < self.min_columns:
            return False
        if self.max_columns is not None and table.n_columns > self.max_columns:
            return False
        return True


@dataclass
class SubjectColumnFilter:
    """Require a detectable subject (label) column with enough distinct names.

    Uses the pipeline's own label-attribute detection (Section 3.1), so a
    table that passes this filter is guaranteed to get a label column at
    schema-matching time.
    """

    min_unique_labels: int = 2
    name: str = "subject_column"

    def accept(
        self, table: WebTable, analysis: TableAnalysis | None = None
    ) -> bool:
        analysis = analysis if analysis is not None else TableAnalysis(table)
        if analysis.label_column is None:
            return False
        unique = {
            normalize_label(cell)
            for cell in table.column(analysis.label_column)
            if cell is not None and normalize_label(cell)
        }
        return len(unique) >= self.min_unique_labels


class ClassRestrictionFilter:
    """Keep only tables whose table-to-class match hits a target class.

    Wraps the pipeline's :class:`~repro.matching.table_class.TableClassMatcher`
    so ingest-time restriction agrees with what schema matching would
    decide later.  ``min_score`` trades recall for corpus size.
    """

    name = "class_restriction"

    def __init__(
        self,
        kb,
        class_names: tuple[str, ...] | list[str],
        *,
        min_score: float = 0.0,
        candidate_limit: int = 5,
    ) -> None:
        from repro.matching.table_class import TableClassMatcher

        self._matcher = TableClassMatcher(kb, candidate_limit)
        self._classes = frozenset(class_names)
        self._min_score = min_score

    def accept(
        self, table: WebTable, analysis: TableAnalysis | None = None
    ) -> bool:
        analysis = analysis if analysis is not None else TableAnalysis(table)
        result = self._matcher.match(
            table, analysis.column_types, analysis.label_column
        )
        return (
            result.class_name in self._classes
            and result.score >= self._min_score
        )


@dataclass
class HeaderKeywordFilter:
    """Keep tables whose header mentions at least one keyword (KB-free)."""

    keywords: tuple[str, ...] = ()
    name: str = "header_keyword"
    _normalized: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._normalized = frozenset(
            normalize_label(keyword) for keyword in self.keywords
        )

    def accept(
        self, table: WebTable, analysis: TableAnalysis | None = None
    ) -> bool:
        for cell in table.header:
            if normalize_label(cell) in self._normalized:
                return True
        return False


def passes(
    table: WebTable, filters, analysis: TableAnalysis | None = None
) -> str | None:
    """The name of the first filter rejecting ``table``, or ``None``."""
    if analysis is None:
        analysis = TableAnalysis(table)
    for corpus_filter in filters:
        if not corpus_filter.accept(table, analysis):
            return corpus_filter.name
    return None
