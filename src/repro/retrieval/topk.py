"""Vectorized sparse TF-IDF top-k retrieval (the recall stage).

:class:`NgramTopKRetriever` holds one *posting matrix* over a label
universe: per feature (char n-gram by default), the slots of the labels
containing it and their term frequencies.  A query is answered by one
numpy-batched sparse dot — for each query feature, a fancy-indexed
``scores[slots] += weights`` over the feature's posting arrays —
followed by an exact deterministic top-k cut (ties broken by label
lexicographic order, like the exact scan it feeds).

Two feature spaces share the machinery, and the production recall stage
(:class:`HybridTopKRetriever`) runs both:

* char n-grams (:class:`NgramTopKRetriever`) — robust to typos, the
  channel that recovers misspelled labels;
* token sets (:class:`TokenTopKRetriever`) — binary term frequencies
  under the *same* smoothed-IDF formula as the exact token scan, so its
  ranking agrees with the exact cosine wherever fuzzy expansions don't
  contribute.  Deep score plateaus (many labels sharing only generic
  tokens, ranked apart by their norms) are recalled in exact-scan order,
  which char-level similarity cannot guarantee.

The posting lists grow by :meth:`add_label` alone (no re-tokenization
of earlier labels), while the *derived* numpy structures (IDF weights,
label norms) are rebuilt lazily on the first query after an add.

numpy is an optional dependency of this module alone: the exact
candidate path never imports it, and constructing a retriever without
numpy raises a descriptive error instead of failing at import time.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.perf.counters import bump
from repro.retrieval.ngram import NGRAM_SIZE, char_ngrams
from repro.text.tokenize import tokenize

try:  # pragma: no cover - exercised implicitly by every fast-mode test
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None


def numpy_available() -> bool:
    """Whether the vectorized recall stage can run in this process."""
    return _np is not None


class NgramTopKRetriever:
    """Incremental char-ngram TF-IDF top-k retrieval over a label set.

    Scores are the cosine of TF-IDF gram vectors, in ``[0, 1]``.  The
    retriever is recall-oriented: callers oversample (ask for more than
    they need) and rerank the survivors with an exact kernel.
    """

    #: Kernel counter bumped with the number of labels scored per query.
    scored_counter = "retrieval.ngram_scored"

    #: When true, label-side posting weights are binary (the norms stay
    #: TF-IDF): a feature contributes exactly the query-side weight to
    #: the dot, mirroring the exact scan's membership-only accumulation.
    binary_postings = False

    def __init__(self, ngram_size: int = NGRAM_SIZE) -> None:
        if _np is None:
            raise RuntimeError(
                "fast candidate generation needs numpy, which is not "
                "installed in this environment; use candidate_mode='exact' "
                "(the default) instead"
            )
        self.ngram_size = ngram_size
        #: Labels in slot order; ``_known`` makes re-adds no-ops.
        self._labels: list[str] = []
        self._known: set[str] = set()
        #: gram -> ([slots], [term frequencies]), grown append-only.
        self._postings: dict[str, tuple[list[int], list[int]]] = {}
        #: Label count the built arrays were derived from; they are
        #: rebuilt once adds moved it on.
        self._built_size = -1
        self._weights: dict[str, tuple[object, object]] = {}
        self._norms = None

    def featurize(self, text: str) -> "Counter[str]":
        """Sparse features of one label or query (char n-grams here)."""
        return char_ngrams(text, self.ngram_size)

    def __len__(self) -> int:
        """Number of labels."""
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._known

    def add_label(self, label: str) -> None:
        """Register one label (idempotent — re-adding is a no-op)."""
        if not label or label in self._known:
            return
        slot = len(self._labels)
        self._known.add(label)
        self._labels.append(label)
        for gram, frequency in self.featurize(label).items():
            posting = self._postings.get(gram)
            if posting is None:
                self._postings[gram] = ([slot], [frequency])
            else:
                posting[0].append(slot)
                posting[1].append(frequency)

    # -- derived numpy structures --------------------------------------
    def _build(self) -> None:
        """Derive IDF posting weights and label norms.

        O(total postings) of pure numpy work, no string processing —
        the price of a batch of adds, paid once on the next query.
        """
        n_labels = len(self._labels)
        norms_squared = _np.zeros(n_labels)
        weights: dict[str, tuple[object, object]] = {}
        for gram, (slots, frequencies) in self._postings.items():
            slot_array = _np.asarray(slots, dtype=_np.intp)
            frequency_array = _np.asarray(frequencies, dtype=_np.float64)
            idf = math.log((1 + n_labels) / (1 + slot_array.size)) + 1.0
            gram_weights = frequency_array * idf
            # Slots are unique within a gram's posting list, so the
            # fancy-indexed accumulation is safe.
            norms_squared[slot_array] += gram_weights * gram_weights
            weights[gram] = (
                slot_array, None if self.binary_postings else gram_weights
            )
        self._weights = weights
        self._norms = _np.sqrt(norms_squared)
        self._built_size = n_labels

    def _idf(self, document_frequency: int) -> float:
        return math.log((1 + len(self._labels)) / (1 + document_frequency)) + 1.0

    # -- retrieval ------------------------------------------------------
    def top_k(self, query: str, k: int) -> list[tuple[str, float]]:
        """The ``k`` labels most feature-cosine-similar to ``query``.

        Deterministic: exact top-k by ``(-score, label)``, boundary ties
        included before the cut.  Labels sharing no feature with the
        query never appear (score 0 is not a candidate).
        """
        return self.retrieve(self.featurize(query), k)

    def retrieve(self, query_grams, k: int) -> list[tuple[str, float]]:
        """Top-``k`` against explicit query features.

        ``query_grams`` maps feature → query-side term weight (the
        per-feature IDF is applied here); fractional weights are allowed,
        which lets a caller inject fuzzy-expanded tokens at the exact
        scan's 0.7 penalty.
        """
        if k <= 0 or not self._labels:
            return []
        if not query_grams:
            return []
        if self._built_size != len(self._labels):
            self._build()
        scores = _np.zeros(len(self._labels))
        query_norm_squared = 0.0
        # Sorted gram iteration: the float accumulation order must not
        # depend on the process's hash seed.
        for gram in sorted(query_grams):
            frequency = query_grams[gram]
            entry = self._weights.get(gram)
            if entry is None:
                query_weight = frequency * self._idf(0)
                query_norm_squared += query_weight * query_weight
                continue
            slot_array, gram_weights = entry
            query_weight = frequency * self._idf(int(slot_array.size))
            query_norm_squared += query_weight * query_weight
            if gram_weights is None:
                scores[slot_array] += query_weight
            else:
                scores[slot_array] += gram_weights * query_weight
        if query_norm_squared <= 0.0:
            return []
        candidate_slots = _np.nonzero(scores > 0.0)[0]
        if candidate_slots.size == 0:
            return []
        bump(self.scored_counter, int(candidate_slots.size))
        similarities = scores[candidate_slots] / (
            self._norms[candidate_slots] * math.sqrt(query_norm_squared)
        )
        if candidate_slots.size > k:
            # Partition for the kth-best value, then keep every slot at
            # or above it so boundary ties survive for the exact
            # (-score, label) sort below.
            partition = _np.argpartition(-similarities, k - 1)
            kth_value = similarities[partition[k - 1]]
            keep = similarities >= kth_value
            candidate_slots = candidate_slots[keep]
            similarities = similarities[keep]
        ranked = sorted(
            zip(similarities.tolist(), candidate_slots.tolist()),
            key=lambda pair: (-pair[0], self._labels[pair[1]]),
        )
        return [
            (self._labels[slot], min(1.0, similarity))
            for similarity, slot in ranked[:k]
        ]

    def labels(self) -> list[str]:
        """The labels, in insertion order."""
        return list(self._labels)


class TokenTopKRetriever(NgramTopKRetriever):
    """Token-set top-k — the recall channel that mirrors exact ranking.

    Features are a label's token *set*; postings are binary on the label
    side while norms keep the same smoothed IDF the exact scan uses
    (``log((1+N)/(1+df)) + 1``).  Queried through :meth:`retrieve` with
    the exact scan's expanded term weights, its dot product and label
    norms equal the exact scorer's, so its ranking reproduces the exact
    ranking (up to float accumulation order) — including deep score
    plateaus, where the order is decided by token-IDF label norms and
    char-level similarity cannot follow.
    """

    scored_counter = "retrieval.token_scored"
    binary_postings = True

    def featurize(self, text: str) -> "Counter[str]":
        return Counter(set(tokenize(text)))


class HybridTopKRetriever:
    """The production recall stage: token ∪ char-ngram channel top-k.

    Maintains both channels over the same label universe (adds forward
    to each) and answers ``top_k`` with the deduplicated union
    of their individual top-k lists — the token channel reproduces the
    exact ranking for clean queries, the ngram channel recovers typo'd
    ones.  Callers rerank the union with the exact kernel, so channel
    scores only need to be recall-good, never precision-final.
    """

    def __init__(self, ngram_size: int = NGRAM_SIZE) -> None:
        self.token = TokenTopKRetriever(ngram_size)
        self.ngram = NgramTopKRetriever(ngram_size)

    def __len__(self) -> int:
        return len(self.token)

    def __contains__(self, label: str) -> bool:
        return label in self.token

    def add_label(self, label: str) -> None:
        self.token.add_label(label)
        self.ngram.add_label(label)

    def labels(self) -> list[str]:
        return self.token.labels()

    def top_k(
        self, query: str, k: int, token_features=None
    ) -> list[tuple[str, float]]:
        """Union of both channels' top-``k``, best channel score each.

        ``token_features`` (feature → term weight) replaces the token
        channel's own query featurization when given — the caller can
        inject fuzzy-expanded query tokens so typo-lifted labels are
        recalled by the token channel too.  Deterministically ordered by
        ``(-score, label)``; may return up to ``2k`` labels (the
        caller's rerank cuts back).
        """
        if token_features is not None:
            token_hits = self.token.retrieve(token_features, k)
        else:
            token_hits = self.token.top_k(query, k)
        best: dict[str, float] = {}
        for label, score in token_hits:
            best[label] = score
        for label, score in self.ngram.top_k(query, k):
            prior = best.get(label)
            if prior is None or score > prior:
                best[label] = score
        return sorted(best.items(), key=lambda pair: (-pair[1], pair[0]))
