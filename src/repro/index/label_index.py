"""Top-k label retrieval over an inverted token index."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.index.inverted import InvertedIndex
from repro.perf.counters import bump
from repro.text.tokenize import normalize_label, tokenize


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
    overlap (a cheap cosine) and expand query tokens to edit-distance-1
    neighbours, which recovers typo'd web table labels.

    :meth:`search` scores every label sharing an (expanded) query token,
    with each label's norm memoized per index generation; the tests hold
    it identical to the unmemoized scan (see ``docs/architecture.md``,
    "Candidate generation").
    """

    def __init__(self) -> None:
        self._index = InvertedIndex()
        self._payloads: dict[str, list[Hashable]] = defaultdict(list)
        self._generation = 0
        #: Per-label norm memo, invalidated by the generation counter —
        #: any add shifts IDFs globally, so the whole memo goes.  It is
        #: pickled with the generation it belongs to, so an unpickled
        #: copy keeps every norm it had computed.
        self._norm_cache: dict[str, float] = {}
        self._norm_generation = -1

    def add(self, label: str, payload: Hashable) -> None:
        """Register ``payload`` (an instance URI, a row id, ...) under a label."""
        normalized = normalize_label(label)
        if not normalized:
            return
        if normalized not in self._payloads:
            self._index.add(normalized, tokenize(normalized))
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

    def search(self, query: str, limit: int = 10) -> list[LabelMatch]:
        """Top-``limit`` labels most similar to ``query``.

        Deterministic: ties are broken by label lexicographic order.
        Identical to the unmemoized scan by construction — the only
        delta is the generation-memoized per-label norm, which computes
        the same float from the same sorted token iteration.
        """
        # Binary vector semantics: duplicate query tokens count once.
        query_tokens = list(dict.fromkeys(tokenize(normalize_label(query))))
        if not query_tokens:
            return []
        scores: dict[str, float] = defaultdict(float)
        for token in query_tokens:
            expansions = self._index.similar_tokens(token)
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
            denominator = query_norm * self._label_norm(label)
            score = dot / denominator if denominator > 0 else 0.0
            # Fuzzy expansions of one token can slightly overshoot the
            # exact-cosine bound; clamp to keep scores in [0, 1].
            score = min(1.0, score)
            matches.append(LabelMatch(label, score, tuple(self._payloads[label])))
        matches.sort(key=lambda match: (-match.score, match.label))
        return matches[:limit]

    def _label_norm(self, label: str) -> float:
        """Memoized ``sqrt(sum idf²)`` over a label's tokens.

        IDFs shift with every :meth:`add`, so the memo keys on the
        generation counter: stale generation ⇒ the whole memo is
        dropped.  The computed value is bit-identical to the unmemoized
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
