"""Session-scoped kernel caches shared across pipeline runs.

The string kernels are pure functions of their *content* arguments, so
their memos may outlive a single pipeline run: a token-pair similarity
computed while clustering ``Song`` is equally valid for ``Settlement``,
for the next iteration, and even after the corpus changed.  The same
holds for the knowledge-base side of attribute matching: a column's
parse and its KB-Overlap and KB-Label scores depend only on the
column's cells and header and on the (immutable) session knowledge
base.  Row-pair caches, keyed by row *identity*, are not held here:
each :class:`~repro.clustering.similarity.RowSimilarity` lives for one
cluster stage and takes its pair cache with it.

The cache is passed explicitly to the components a run builds; there is
no module-level memo, so two sessions in one process never share one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.datatypes import DataType
    from repro.matching.pools import ValuePool

#: Same shape as :data:`repro.text.monge_elkan.TokenPairMemo` — not
#: imported, because the kernels in :mod:`repro.text` bump the counters
#: of this package and the alias would close an import cycle.
TokenPairMemo = dict[tuple[str, str], float]

#: A column's cells, top to bottom (``None`` for an empty cell).
ColumnCells = tuple[str | None, ...]


class KernelCache:
    """The bundle of kernel memos one :class:`~repro.api.RunSession` owns.

    * ``token_sim`` — the canonical-pair Monge-Elkan inner memo;
    * ``label_tokens`` — label → its :func:`~repro.text.tokenize.tokenize`
      tokens, which :func:`~repro.text.monge_elkan.label_similarity`
      scores over ``token_sim``;
    * ``parsed_columns`` — (data type, column cells) → row index → the
      cell parsed as that type (parseable cells only);
    * ``value_pools`` — (class, property) → the property's KB
      :class:`~repro.matching.pools.ValuePool`;
    * ``attribute_scores`` — (class, property, header, column cells) →
      the column's (KB-Overlap, KB-Label) scores.

    Every key is content, never a table id, so the memos are safe across
    runs and corpus epochs; the epoch guard clears them anyway to bound
    memory.  The last two read the knowledge base, which a session
    holds fixed.  An :class:`~repro.matching.matchers.AttributeMatchers`
    built outside a session (training) makes a private cache.
    """

    def __init__(self) -> None:
        self.token_sim: TokenPairMemo = {}
        self.label_tokens: dict[str, tuple[str, ...]] = {}
        self.parsed_columns: dict[
            tuple["DataType", ColumnCells], dict[int, object]
        ] = {}
        self.value_pools: dict[tuple[str, str], "ValuePool"] = {}
        self.attribute_scores: dict[
            tuple[str, str, str, ColumnCells],
            tuple[float | None, float | None],
        ] = {}

    def cache_info(self) -> dict[str, int]:
        """Sizes of everything this cache currently holds."""
        return {
            "token_pairs": len(self.token_sim),
            "label_tokens": len(self.label_tokens),
            "parsed_columns": len(self.parsed_columns),
            "value_pools": len(self.value_pools),
            "attribute_scores": len(self.attribute_scores),
        }

    def clear(self) -> None:
        """Drop every memo."""
        self.token_sim.clear()
        self.label_tokens.clear()
        self.parsed_columns.clear()
        self.value_pools.clear()
        self.attribute_scores.clear()
