"""Top-k label retrieval over an inverted token index."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.index.inverted import InvertedIndex
from repro.perf.counters import bump
from repro.text.tokenize import normalize_label, tokenize

#: The candidate-generation modes (mirrored by
#: :data:`repro.retrieval.CANDIDATE_MODES`; defined here too so the
#: exact path never imports the retrieval package).
CANDIDATE_MODES = ("exact", "fast")


def _checked_mode(mode: str) -> str:
    """Validate a candidate mode, with the known modes in the error."""
    if mode not in CANDIDATE_MODES:
        known = ", ".join(CANDIDATE_MODES)
        raise ValueError(
            f"unknown candidate_mode {mode!r}; expected one of: {known}"
        )
    return mode


@dataclass(frozen=True)
class LabelMatch:
    """One retrieved label with its retrieval score and attached payloads."""

    label: str
    score: float
    payloads: tuple[Hashable, ...]


class LabelIndex:
    """Recall-oriented label search (the pipeline's Lucene substitute).

    Labels are normalized and tokenized; each distinct normalized label is
    one *document*.  Queries score candidate labels by IDF-weighted token
    overlap (a cheap cosine) and optionally expand query tokens to
    edit-distance-1 neighbours, which recovers typo'd web table labels.

    Candidate generation is two-mode (see ``docs/architecture.md``,
    "Candidate generation"):

    * ``exact`` (the default) — every label sharing an (expanded) query
      token is scored; the result is provably identical to
      :meth:`search_reference`, the kept-verbatim pre-optimization scan.
    * ``fast`` — a vectorized two-channel TF-IDF retriever
      (:class:`repro.retrieval.HybridTopKRetriever`: token-set recall
      that mirrors the exact non-fuzzy ranking, plus char-ngram recall
      for typo'd labels) recalls an oversampled candidate set and only
      the survivors are reranked by
      the exact cosine scorer.  Recall against the oracle is measured
      and gated (``BENCH_retrieval.json``); any candidate the recall
      stage surfaces receives a score byte-identical to exact mode's.
    """

    #: Fast mode oversampling: the recall stage retrieves
    #: ``max(limit * recall_multiplier, recall_min)`` candidates before
    #: the exact rerank cuts back to ``limit``.
    recall_multiplier = 4
    recall_min = 32

    def __init__(self, fuzzy: bool = True, candidate_mode: str = "exact") -> None:
        self._index = InvertedIndex()
        self._payloads: dict[str, list[Hashable]] = defaultdict(list)
        self._fuzzy = fuzzy
        self._generation = 0
        self.candidate_mode = _checked_mode(candidate_mode)
        #: Lazily built recall stage (fast mode only); kept in sync by
        #: :meth:`add` once it exists.
        self._retriever = None
        #: Per-label norm memo, invalidated by the generation counter —
        #: any add shifts IDFs globally, so the whole memo goes.
        self._norm_cache: dict[str, float] = {}
        self._norm_generation = -1

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (workers rebuild lazily)."""
        state = self.__dict__.copy()
        state["_retriever"] = None
        state["_norm_cache"] = {}
        state["_norm_generation"] = -1
        return state

    def add(self, label: str, payload: Hashable) -> None:
        """Register ``payload`` (an instance URI, a row id, ...) under a label."""
        normalized = normalize_label(label)
        if not normalized:
            return
        if normalized not in self._payloads:
            self._index.add(normalized, tokenize(normalized))
            if self._retriever is not None:
                self._retriever.add_label(normalized)
        self._payloads[normalized].append(payload)
        self._generation += 1

    def __len__(self) -> int:
        """Number of distinct normalized labels."""
        return len(self._payloads)

    def labels(self) -> list[str]:
        return list(self._payloads)

    def payloads_for(self, label: str) -> tuple[Hashable, ...]:
        """Payloads registered under the exact normalized form of ``label``."""
        return tuple(self._payloads.get(normalize_label(label), ()))

    def search(
        self, query: str, limit: int = 10, mode: str | None = None
    ) -> list[LabelMatch]:
        """Top-``limit`` labels most similar to ``query``.

        Deterministic: ties are broken by label lexicographic order.
        ``mode`` overrides the index's :attr:`candidate_mode` for this
        query (``"exact"`` or ``"fast"``).
        """
        resolved = self.candidate_mode if mode is None else _checked_mode(mode)
        if resolved == "fast":
            return self._search_fast(query, limit)
        return self._search_exact(query, limit)

    def _search_exact(self, query: str, limit: int) -> list[LabelMatch]:
        """The full scan: score every label sharing an (expanded) token.

        Identical to :meth:`search_reference` by construction — the only
        delta is the generation-memoized per-label norm, which computes
        the same float from the same sorted token iteration.
        """
        # Binary vector semantics: duplicate query tokens count once.
        query_tokens = list(dict.fromkeys(tokenize(normalize_label(query))))
        if not query_tokens:
            return []
        scores: dict[str, float] = defaultdict(float)
        for expanded, weight in self._weighted_expansions(query_tokens):
            for label in self._index.postings(expanded):
                scores[label] += weight
        if not scores:
            return []
        query_norm = math.sqrt(
            sum(self._index.idf(token) ** 2 for token in query_tokens)
        )
        matches = []
        for label, dot in scores.items():
            denominator = query_norm * self._label_norm(label)
            score = dot / denominator if denominator > 0 else 0.0
            # Fuzzy expansions of one token can slightly overshoot the
            # exact-cosine bound; clamp to keep scores in [0, 1].
            score = min(1.0, score)
            matches.append(LabelMatch(label, score, tuple(self._payloads[label])))
        matches.sort(key=lambda match: (-match.score, match.label))
        return matches[:limit]

    def search_reference(self, query: str, limit: int = 10) -> list[LabelMatch]:
        """The pre-optimization full scan, kept verbatim.

        The equivalence oracle for exact mode (hypothesis-tested to be
        identical) and the recall oracle for fast mode (whose measured
        recall@k against it gates ``candidate_mode='fast'``).
        """
        query_tokens = list(dict.fromkeys(tokenize(normalize_label(query))))
        if not query_tokens:
            return []
        scores: dict[str, float] = defaultdict(float)
        for token in query_tokens:
            expansions = (
                self._index.similar_tokens(token) if self._fuzzy else
                ({token} if self._index.postings(token) else set())
            )
            # Sorted iteration: per-label float accumulation order must
            # not depend on the process's hash seed.
            for expanded in sorted(expansions):
                weight = self._index.idf(expanded)
                # Penalize fuzzy (non-exact) expansions slightly so exact
                # token matches dominate.
                if expanded != token:
                    weight *= 0.7
                for label in self._index.postings(expanded):
                    scores[label] += weight
        if not scores:
            return []
        query_norm = math.sqrt(
            sum(self._index.idf(token) ** 2 for token in query_tokens)
        )
        matches = []
        for label, dot in scores.items():
            # Sorted iteration over the token *set*: the norm's float
            # accumulation order must not depend on the hash seed (a
            # 1-ulp drift here flips top-k ties at the limit boundary).
            label_tokens = sorted(self._index.tokens_of(label))
            label_norm = math.sqrt(
                sum(self._index.idf(token) ** 2 for token in label_tokens)
            )
            denominator = query_norm * label_norm
            score = dot / denominator if denominator > 0 else 0.0
            score = min(1.0, score)
            matches.append(LabelMatch(label, score, tuple(self._payloads[label])))
        matches.sort(key=lambda match: (-match.score, match.label))
        return matches[:limit]

    def _search_fast(self, query: str, limit: int) -> list[LabelMatch]:
        """Retrieve-then-rerank: ngram top-k recall, exact rerank.

        The recall stage oversamples (``recall_multiplier`` ×
        ``limit``, floored at ``recall_min``); every surviving candidate
        is scored by the same weighted-expansion cosine as exact mode —
        same floats, same tie-breaking — so the only possible divergence
        from :meth:`search_reference` is a candidate the recall stage
        missed, which is exactly what the benchmark's recall@k measures.
        """
        normalized = normalize_label(query)
        query_tokens = list(dict.fromkeys(tokenize(normalized)))
        if not query_tokens:
            return []
        weighted = self._weighted_expansions(query_tokens)
        # Token-channel query features: the expanded tokens at the exact
        # scan's term weights (1.0 exact, 0.7 fuzzy, occurrences summed)
        # — so typo-lifted labels are recalled alongside clean ones.
        token_features: dict[str, float] = {}
        for expanded, weight in weighted:
            term = weight / self._index.idf(expanded) if weight else 0.0
            token_features[expanded] = token_features.get(expanded, 0.0) + term
        recall_k = max(limit * self.recall_multiplier, self.recall_min)
        bump("retrieval.queries")
        candidates = self._ensure_retriever().top_k(
            normalized, recall_k, token_features=token_features
        )
        bump("retrieval.recall_candidates", len(candidates))
        if not candidates:
            return []
        query_norm = math.sqrt(
            sum(self._index.idf(token) ** 2 for token in query_tokens)
        )
        matches = []
        for label, __ in candidates:
            label_tokens = self._index.tokens_of(label)
            # Same (token, expansion) sequence as the exact scan, with
            # non-members contributing nothing — the partial sums agree
            # float for float with exact mode's per-label accumulation.
            dot = 0.0
            for expanded, weight in weighted:
                if expanded in label_tokens:
                    dot += weight
            if dot <= 0.0:
                continue
            denominator = query_norm * self._label_norm(label)
            score = dot / denominator if denominator > 0 else 0.0
            score = min(1.0, score)
            matches.append(LabelMatch(label, score, tuple(self._payloads[label])))
        bump("retrieval.rerank_survivors", len(matches))
        matches.sort(key=lambda match: (-match.score, match.label))
        return matches[:limit]

    def _weighted_expansions(self, query_tokens) -> "list[tuple[str, float]]":
        """The scan's scoring sequence: (expanded token, weight) pairs.

        Token-major, expansions sorted — the shared accumulation order
        both candidate modes score with.
        """
        weighted: list[tuple[str, float]] = []
        for token in query_tokens:
            expansions = (
                self._index.similar_tokens(token) if self._fuzzy else
                ({token} if self._index.postings(token) else set())
            )
            # Sorted iteration: per-label float accumulation order must
            # not depend on the process's hash seed.
            for expanded in sorted(expansions):
                weight = self._index.idf(expanded)
                # Penalize fuzzy (non-exact) expansions slightly so exact
                # token matches dominate.
                if expanded != token:
                    weight *= 0.7
                weighted.append((expanded, weight))
        return weighted

    def _label_norm(self, label: str) -> float:
        """Memoized ``sqrt(sum idf²)`` over a label's tokens.

        IDFs shift with every :meth:`add`, so the memo keys on the
        generation counter: stale generation ⇒ the whole memo is
        dropped.  The computed value is bit-identical to the reference
        scan's (same sorted token iteration, same float operations).
        """
        if self._norm_generation != self._generation:
            self._norm_cache.clear()
            self._norm_generation = self._generation
        norm = self._norm_cache.get(label)
        if norm is None:
            bump("label_index.norm_computed")
            label_tokens = sorted(self._index.tokens_of(label))
            norm = math.sqrt(
                sum(self._index.idf(token) ** 2 for token in label_tokens)
            )
            self._norm_cache[label] = norm
        else:
            bump("label_index.norm_memo_hits")
        return norm

    def _ensure_retriever(self):
        """The recall stage, built on first fast query, then maintained."""
        if self._retriever is None:
            from repro.retrieval.topk import HybridTopKRetriever

            retriever = HybridTopKRetriever()
            for label in self._payloads:
                retriever.add_label(label)
            self._retriever = retriever
        return self._retriever
