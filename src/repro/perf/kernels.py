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

Memory is bounded by corpus epochs, not by a size knob: at every corpus
change the session calls :meth:`KernelCache.age`, which retires what no
run has used since the change before (see there).

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
    runs and corpus epochs.  The last two read the knowledge base, which
    a session holds fixed.  An
    :class:`~repro.matching.matchers.AttributeMatchers` built outside a
    session (training) makes a private cache.

    The session's epoch guard calls :meth:`age` at every corpus change,
    which bounds memory at two epochs' working sets: each memo of
    :data:`AGED` starts the new epoch empty, and its previous contents
    wait in :attr:`retiring`.  A lookup that misses the live memo looks
    there before computing and moves a found entry back (:meth:`recall`,
    or the ``retiring`` argument of
    :func:`~repro.text.monge_elkan.monge_elkan_symmetric_memo`), so only
    the miss path pays for the bound.  ``value_pools`` is keyed only on
    the session's fixed knowledge base and never ages.
    """

    #: The memos :meth:`age` retires from.
    AGED = ("token_sim", "label_tokens", "parsed_columns", "attribute_scores")

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
        #: Per aged memo: the entries of the epoch before the current
        #: one that no run has used in the current one.  The next
        #: :meth:`age` drops them.
        self.retiring: dict[str, dict] = {name: {} for name in self.AGED}

    def recall(self, memo: str, key):
        """The miss path of memo ``memo``: the value ``key`` had in the
        previous epoch, moved back into the live memo; ``None`` when it
        had none (or it was retired)."""
        value = self.retiring[memo].pop(key, None)
        if value is not None:
            getattr(self, memo)[key] = value
        return value

    def age(self) -> int:
        """Start a new corpus epoch; returns how many entries it retired.

        Drops every entry no run has read or written since the previous
        call, and sets the rest aside in :attr:`retiring` for one more
        epoch.  An entry the current epoch used survives; one unused for
        two corpus changes is gone.
        """
        retired = 0
        for name in self.AGED:
            retired += len(self.retiring[name])
            self.retiring[name] = getattr(self, name)
            setattr(self, name, {})
        return retired

    def cache_info(self) -> dict[str, int]:
        """Sizes of everything this cache currently holds, live and
        retiring entries together."""
        return {
            "token_pairs": self._held("token_sim"),
            "label_tokens": self._held("label_tokens"),
            "parsed_columns": self._held("parsed_columns"),
            "value_pools": len(self.value_pools),
            "attribute_scores": self._held("attribute_scores"),
        }

    def clear(self) -> None:
        """Drop every memo."""
        for name in self.AGED:
            getattr(self, name).clear()
            self.retiring[name].clear()
        self.value_pools.clear()

    def _held(self, name: str) -> int:
        return len(getattr(self, name)) + len(self.retiring[name])
