"""Session-scoped kernel caches shared across pipeline runs.

The string kernels are pure functions of their *content* arguments, so
their memos may outlive a single pipeline run: a token-pair similarity
computed while clustering ``Song`` is equally valid for ``Settlement``,
for the next iteration, and even after the corpus changed.  Row-pair
caches, keyed by row *identity*, are not held here: each
:class:`~repro.clustering.similarity.RowSimilarity` lives for one
cluster stage and takes its pair cache with it.

The cache is passed explicitly to the components a run builds; there is
no module-level memo, so two sessions in one process never share one.
"""

from __future__ import annotations

#: Same shape as :data:`repro.text.monge_elkan.TokenPairMemo` — not
#: imported, because the kernels in :mod:`repro.text` bump the counters
#: of this package and the alias would close an import cycle.
TokenPairMemo = dict[tuple[str, str], float]


class KernelCache:
    """The bundle of kernel memos one :class:`~repro.api.RunSession` owns.

    * ``token_sim`` — the canonical-pair Monge-Elkan inner memo;
    * ``label_tokens`` — label → its :func:`~repro.text.tokenize.tokenize`
      tokens, which :func:`~repro.text.monge_elkan.label_similarity`
      scores over ``token_sim``.

    Both are content-keyed, so they are safe across runs and corpus
    epochs; the epoch guard clears them anyway to bound memory.
    """

    def __init__(self) -> None:
        self.token_sim: TokenPairMemo = {}
        self.label_tokens: dict[str, tuple[str, ...]] = {}

    def cache_info(self) -> dict[str, int]:
        """Sizes of everything this cache currently holds."""
        return {
            "token_pairs": len(self.token_sim),
            "label_tokens": len(self.label_tokens),
        }

    def clear(self) -> None:
        """Drop every memo."""
        self.token_sim.clear()
        self.label_tokens.clear()
