"""Corpus-level schema matching orchestration.

One :meth:`SchemaMatcher.match_corpus` call performs the full schema
matching phase of one pipeline iteration:

1. detect column data types and the label attribute per table,
2. match each table to a class,
3. run a *preliminary* attribute-to-property pass (KB matchers only),
4. derive WT-Label header statistics from the preliminary mapping,
5. rerun attribute matching with the web-table matchers enabled — plus the
   duplicate-based matchers when clustering/new-detection feedback from a
   previous iteration is supplied, in which case only the run's own
   classes are scored.

Steps 1–2 and the per-table attribute passes score every table
independently against read-only KB state; the attribute passes see only
class-matched tables.  Both run through an
:class:`~repro.parallel.SerialExecutor` via pure batch callables
(:class:`_AnalyzeBatch`, :class:`_AttributeBatch`), so the executor's
observers time them and its errors name the failing tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Collection, Mapping

from repro.datatypes import DataType
from repro.datatypes.detection import detect_column_type
from repro.kb.knowledge_base import KnowledgeBase
from repro.matching.attribute_property import (
    AttributePropertyMatcher,
    MatcherFeedback,
)
from repro.matching.correspondences import SchemaMapping, TableMapping
from repro.matching.label_attribute import detect_label_attribute
from repro.matching.learning import AttributeMatchingModel
from repro.matching.matchers import (
    DuplicateEvidence,
    HeaderStatistics,
    MATCHER_NAMES_FIRST_ITERATION,
    MATCHER_NAMES_SECOND_ITERATION,
)
from repro.matching.table_class import TableClassMatcher
from repro.parallel import SerialExecutor, dispatch_dirty
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import WebTable

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache


@dataclass
class SchemaMatcherModels:
    """Learned attribute models per (class, matcher-configuration).

    ``preliminary`` models use the KB matchers only — they produce the
    mapping from which WT-Label header statistics are derived;
    ``first_iteration`` adds WT-Label; ``second_iteration`` adds the two
    duplicate-based matchers.  Unlearned classes fall back to uniform
    weights.
    """

    preliminary: dict[str, AttributeMatchingModel] = field(default_factory=dict)
    first_iteration: dict[str, AttributeMatchingModel] = field(default_factory=dict)
    second_iteration: dict[str, AttributeMatchingModel] = field(default_factory=dict)

    def for_class(self, class_name: str, mode: str) -> AttributeMatchingModel:
        """Model for a class in one of the modes: preliminary/first/second."""
        if mode == "second":
            model = self.second_iteration.get(class_name)
            if model is not None:
                return model
            return AttributeMatchingModel.uniform(
                class_name, MATCHER_NAMES_SECOND_ITERATION
            )
        if mode == "first":
            model = self.first_iteration.get(class_name)
            if model is not None:
                return model
            return AttributeMatchingModel.uniform(
                class_name, MATCHER_NAMES_FIRST_ITERATION
            )
        if mode == "preliminary":
            model = self.preliminary.get(class_name)
            if model is not None:
                return model
            return AttributeMatchingModel.uniform(
                class_name, ("kb_overlap", "kb_label")
            )
        raise ValueError(f"unknown model mode: {mode!r}")


@dataclass
class TableWalk:
    """The tables one :meth:`SchemaMatcher.match_corpus` call visits when
    the matcher's caches hold a class decision for every other table of
    the corpus (an incremental run's matcher, warmed by
    :meth:`repro.pipeline.artifacts.IncrementalBackend.warm_matcher`)."""

    #: Tables without a cached class decision.
    pending: list[str]
    #: Tables whose cached decision names a class (read-only).
    classed: Collection[str]


class _Layer(dict):
    """A matcher cache over a shared mapping it never writes: lookups
    fall through to ``base``, writes stay in the layer.  ``len`` and
    iteration see the layer only."""

    __slots__ = ("base",)

    def __init__(self, base: Mapping) -> None:
        super().__init__()
        self.base = base

    def __missing__(self, key):
        return self.base[key]

    def __contains__(self, key) -> bool:
        return dict.__contains__(self, key) or key in self.base

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        return self.base.get(key, default)


def _analyze_table(
    table: WebTable,
) -> tuple[dict[int, DataType], int | None]:
    """Column data types + label column of one table (pure)."""
    column_types = {
        column: detect_column_type(table.column(column))
        for column in range(table.n_columns)
    }
    label_column = detect_label_attribute(table, column_types)
    return column_types, label_column


class _AnalyzeBatch:
    """Batch function for phase A (types, label column, class).

    Items are ``(table, need_class, cached_analysis)`` triples — a
    non-``None`` cached analysis (types + label column) is reused so a
    table analyzed in an earlier call is never re-typed just to compute
    its class decision.  Results are ``(column_types, label_column,
    class_decision-or-None)``.  Pure: depends only on the item and the
    owning matcher's :class:`TableClassMatcher`, which reads KB state
    only.
    """

    def __init__(self, matcher: TableClassMatcher) -> None:
        self.matcher = matcher

    def __call__(
        self, items: list[tuple[WebTable, bool, tuple | None]]
    ) -> list[tuple[dict[int, DataType], int | None, tuple[str | None, float] | None]]:
        results = []
        for table, need_class, cached_analysis in items:
            if cached_analysis is not None:
                column_types, label_column = cached_analysis
            else:
                column_types, label_column = _analyze_table(table)
            decision = None
            if need_class:
                result = self.matcher.match(table, column_types, label_column)
                decision = (result.class_name, result.score)
            results.append((column_types, label_column, decision))
        return results


class _AttributeBatch:
    """Batch function for one attribute-to-property pass.

    Items are ``(table, base TableMapping)`` pairs — the caller only
    dispatches tables with a known class — and results are the attribute
    correspondence dict per table.  Per-class matchers are cached on the
    instance, so a pass builds exactly one per class.  ``kernels``
    memoizes label similarity and the KB-side attribute scores.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        models: SchemaMatcherModels,
        mode: str,
        feedback_by_class: dict[str, MatcherFeedback],
        kernels: "KernelCache | None" = None,
    ) -> None:
        self.kb = kb
        self.models = models
        self.mode = mode
        self.feedback_by_class = feedback_by_class
        self.kernels = kernels
        self._matchers: dict[str, AttributePropertyMatcher] = {}

    def __call__(
        self, items: list[tuple[WebTable, TableMapping]]
    ) -> list[dict]:
        results: list[dict] = []
        for table, table_mapping in items:
            class_name = table_mapping.class_name
            matcher = self._matchers.get(class_name)
            if matcher is None:
                matcher = AttributePropertyMatcher(
                    self.kb,
                    class_name,
                    self.models.for_class(class_name, self.mode),
                    self.feedback_by_class.get(class_name),
                    kernels=self.kernels,
                )
                self._matchers[class_name] = matcher
            results.append(
                matcher.match_table(
                    table,
                    table_mapping.column_types,
                    table_mapping.label_column,
                )
            )
        return results


class SchemaMatcher:
    """The schema matching component of the pipeline.

    ``executor`` runs the per-table work of :meth:`match_corpus` and
    wraps a failing table in :class:`~repro.parallel.ExecutorError`
    with the labels of the tables in its batch.

    Tables are fetched from the corpus and dispatched in bounded *waves*
    (``wave_size``), so peak memory tracks the wave, not the corpus —
    a lazy store-backed corpus view is never materialized wholesale.

    ``kernels`` (a session's :class:`repro.perf.KernelCache`) memoizes
    the label similarities of table-to-class and attribute matching and
    the KB-side attribute scores of each column; the mapping is the same
    without it.
    """

    #: Tables materialized per dispatch wave (corpus-size independent).
    wave_size = 1024

    def __init__(
        self,
        kb: KnowledgeBase,
        models: SchemaMatcherModels | None = None,
        candidate_limit: int = 5,
        executor: SerialExecutor = SerialExecutor(),
        kernels: "KernelCache | None" = None,
    ) -> None:
        self.kb = kb
        self.models = models or SchemaMatcherModels()
        self.candidate_limit = candidate_limit
        self.kernels = kernels
        self.table_class_matcher = TableClassMatcher(
            kb, candidate_limit, kernels=kernels
        )
        self.executor = executor
        #: Optional persistent per-table attribute cache (the incremental
        #: engine binds a
        #: :class:`repro.pipeline.artifacts._MatcherAttributeCache`);
        #: ``None`` keeps the stateless legacy path.
        self.attribute_cache = None
        self._analysis_cache: dict[
            str, tuple[dict[int, DataType], int | None]
        ] = {}
        self._class_cache: dict[str, tuple[str | None, float]] = {}
        #: The tables the last :meth:`match_corpus` call analyzed or
        #: classed, in the order it dispatched them.
        self.analyzed: list[str] = []

    def share(
        self,
        analyses: Mapping[str, tuple],
        decisions: Mapping[str, tuple[str | None, float]],
    ) -> None:
        """Read cached analyses and class decisions through to shared
        mappings (a session's analysis memo) instead of copying them;
        what this matcher computes stays its own."""
        self._analysis_cache = _Layer(analyses)
        self._class_cache = _Layer(decisions)

    # ------------------------------------------------------------------
    def analyze_table(self, corpus: TableCorpus, table_id: str):
        """Detected column types and label column (cached per table)."""
        if table_id not in self._analysis_cache:
            self._analysis_cache[table_id] = _analyze_table(corpus.get(table_id))
        return self._analysis_cache[table_id]

    def table_class(
        self, corpus: TableCorpus, table_id: str
    ) -> tuple[str | None, float]:
        """Table-to-class decision (cached per table)."""
        if table_id not in self._class_cache:
            table = corpus.get(table_id)
            column_types, label_column = self.analyze_table(corpus, table_id)
            result = self.table_class_matcher.match(table, column_types, label_column)
            self._class_cache[table_id] = (result.class_name, result.score)
        return self._class_cache[table_id]

    # ------------------------------------------------------------------
    def match_corpus(
        self,
        corpus: TableCorpus,
        evidence: DuplicateEvidence | None = None,
        table_ids: list[str] | None = None,
        known_classes: dict[str, str] | None = None,
        classes: Collection[str] | None = None,
        walk: TableWalk | None = None,
    ) -> SchemaMapping:
        """Full schema matching over (a subset of) the corpus.

        ``evidence`` enables the duplicate-based matchers (iteration 2);
        ``known_classes`` bypasses table-to-class matching for tables whose
        class is externally known (gold standard experiments).
        ``classes`` (the evidence's class and its descendants) comes with
        ``evidence`` and scopes its final pass to the tables of those
        classes, because the evidence is that class's; every other table
        keeps its class but no attributes.  Without evidence the pass is
        corpus-wide (iteration 1).

        ``table_ids`` defaults to the corpus's tables; a session run
        passes the ids of its corpus snapshot, so the store is not
        listed again.  A ``walk`` replaces both passes over the tables:
        phase A visits only its pending tables, and the mapping is built
        from its classed tables and the pending ones phase A classed —
        the same entries, with no pass over every table.  It needs
        ``table_ids`` and ``known_classes`` left as ``None``.

        The returned mapping has an entry, in table-id order, for every
        table matched to a KB class, and none for the others: their class
        decisions stay in the matcher's cache.  Its column types are
        copied from the analysis cache, which an incremental run shares
        with the session's analysis memo.
        """
        if evidence is not None and classes is None:
            raise ValueError("evidence needs the classes it applies to")
        if walk is not None:
            ids = walk.pending
        else:
            ids = table_ids if table_ids is not None else corpus.table_ids()
        # Phase A: types, label columns, classes — dispatched in waves
        # for tables whose analysis is not already cached (the matcher
        # persists across pipeline iterations, so iteration 2 is all
        # cache hits; an incremental run reads the session's analysis
        # memo through, so only the delta is dispatched).
        pending: list[tuple[str, bool]] = []
        for table_id in ids:
            externally_classed = (
                known_classes is not None and table_id in known_classes
            )
            need_class = not externally_classed and table_id not in self._class_cache
            if table_id in self._analysis_cache and not need_class:
                continue
            pending.append((table_id, need_class))
        analyze = _AnalyzeBatch(self.table_class_matcher)
        for wave_start in range(0, len(pending), self.wave_size):
            wave = pending[wave_start : wave_start + self.wave_size]
            items = [
                (corpus.get(table_id), need, self._analysis_cache.get(table_id))
                for table_id, need in wave
            ]
            analyses = self.executor.map_batches(
                analyze,
                items,
                task_name="schema_match/analyze",
                label=lambda item: item[0].table_id,
            )
            for (table, *__), (column_types, label_column, decision) in zip(
                items, analyses
            ):
                self._analysis_cache[table.table_id] = (column_types, label_column)
                if decision is not None:
                    self._class_cache[table.table_id] = decision
        self.analyzed = [table_id for table_id, __ in pending]
        if walk is not None:
            ids = {
                *walk.classed,
                *(
                    table_id for table_id in self.analyzed
                    if self._class_cache[table_id][0] is not None
                ),
            }
        # The base entry of every table matched to a KB class — on a
        # realistic web corpus most tables match nothing, and nothing
        # downstream reads an unclassed table's entry.  The cached
        # analyses are shared and read-only, so each entry copies its
        # column types once.
        kb_classes = frozenset(
            kb_class.name for kb_class in self.kb.schema.classes()
        )
        matched: dict[str, TableMapping] = {}
        for table_id in sorted(ids):
            if known_classes is not None and table_id in known_classes:
                class_name, class_score = known_classes[table_id], 1.0
            else:
                class_name, class_score = self._class_cache[table_id]
            if class_name not in kb_classes:
                continue
            column_types, label_column = self._analysis_cache[table_id]
            matched[table_id] = TableMapping(
                table_id=table_id,
                class_name=class_name,
                class_score=class_score,
                label_column=label_column,
                column_types=dict(column_types),
            )

        # Phase B: preliminary attribute matching (KB matchers only) over
        # the class-matched tables.  It feeds only the header statistics,
        # which read correspondences, and an unclassed table has none.
        preliminary = self._attribute_pass(
            corpus, matched, feedback_by_class={}, mode="preliminary"
        )

        # Phase C: WT-Label statistics from the preliminary mapping, then
        # the final pass with the corpus matchers (and duplicate evidence,
        # scoped to ``classes``).
        header_stats = HeaderStatistics.from_correspondences(
            [
                correspondence
                for attributes in preliminary.values()
                for correspondence in attributes.values()
            ],
            corpus,
        )
        scored = matched
        if evidence is not None:
            scored = {
                table_id: table_mapping
                for table_id, table_mapping in matched.items()
                if table_mapping.class_name in classes
            }
        feedback_by_class = {
            class_name: MatcherFeedback(header_stats=header_stats, evidence=evidence)
            for class_name in {
                table_mapping.class_name for table_mapping in scored.values()
            }
        }
        mode = "second" if evidence is not None else "first"
        final = self._attribute_pass(corpus, scored, feedback_by_class, mode)
        # A table the final pass did not score goes in as its base entry.
        mapping = SchemaMapping()
        for table_id, table_mapping in matched.items():
            attributes = final.get(table_id)
            if attributes is not None:
                table_mapping = replace(table_mapping, attributes=attributes)
            mapping.add(table_mapping)
        return mapping

    # ------------------------------------------------------------------
    def _attribute_pass(
        self,
        corpus: TableCorpus,
        matched: dict[str, TableMapping],
        feedback_by_class: dict[str, MatcherFeedback],
        mode: str,
    ) -> dict[str, dict]:
        """The attribute correspondences of each class-matched table."""
        cache = self.attribute_cache
        batch = _AttributeBatch(
            self.kb, self.models, mode, feedback_by_class, self.kernels
        )
        attributes_by_id: dict[str, dict] = {}
        entries = list(matched.items())
        for wave_start in range(0, len(entries), self.wave_size):
            wave = entries[wave_start : wave_start + self.wave_size]
            cached: list[dict | None] = [
                cache.load(mode, table_mapping, feedback_by_class)
                if cache is not None
                else None
                for __, table_mapping in wave
            ]
            # Only the dirty subset is worth a corpus fetch — a table
            # served from the attribute cache is never even decoded.
            items = [
                (
                    corpus.get(table_id)
                    if cached[position] is None
                    else None,
                    table_mapping,
                )
                for position, (table_id, table_mapping) in enumerate(wave)
            ]
            attribute_maps = dispatch_dirty(
                batch,
                items,
                cached,
                executor=self.executor,
                task_name=f"schema_match/attributes[{mode}]",
                label=lambda item: item[1].table_id,
            )
            if cache is not None:
                for (__, table_mapping), was_cached, attributes in zip(
                    wave, cached, attribute_maps
                ):
                    if was_cached is None:
                        cache.save(
                            mode, table_mapping, feedback_by_class, attributes
                        )
            for (table_id, __), attributes in zip(wave, attribute_maps):
                attributes_by_id[table_id] = attributes
        return attributes_by_id
