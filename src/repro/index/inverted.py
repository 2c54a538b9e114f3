"""A minimal token inverted index."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Iterable

from repro.perf.counters import bump

#: Fuzzy candidates must be at least this long to leave the deletion
#: index (and the prefix buckets) useful; queries below
#: :data:`MIN_FUZZY_QUERY_LEN` only ever match exactly.
MIN_FUZZY_QUERY_LEN = 4
_MIN_CANDIDATE_LEN = MIN_FUZZY_QUERY_LEN - 1


def deletion_neighborhood(token: str) -> list[str]:
    """The token plus every string one character-deletion away.

    The SymSpell invariant this index relies on: two strings are within
    Levenshtein distance 1 iff their depth-1 deletion neighborhoods
    intersect (an insertion's neighborhood contains the original, a
    deletion's the result, and a substitution's both reach the string
    with the touched position removed).
    """
    return [token] + [
        token[:position] + token[position + 1 :] for position in range(len(token))
    ]


class InvertedIndex:
    """Maps tokens to the set of document ids containing them.

    Documents are arbitrary hashable ids; the index tracks document count
    for IDF computation and token lengths for prefix-bucket fuzzy lookup.

    Documents are only ever added: re-adding a document with identical
    content is an idempotent no-op, and re-adding it with different
    content raises.

    Fuzzy token expansion (:meth:`similar_tokens`, edit distance 1) is
    served by a SymSpell-style deletion-neighborhood map — a handful of
    hash lookups instead of a linear scan over the prefix bucket —
    while reproducing the prefix-bucket scan's result set *exactly* (the
    candidate set is post-filtered to the same first-two-characters
    bucket and verified with the bounded edit-distance kernel).  The
    prefix buckets serve only :meth:`similar_tokens_reference`, the
    scan kept as the equivalence oracle.  :meth:`add` extends both
    structures.
    """

    def __init__(self) -> None:
        self._postings: dict[str, set[Hashable]] = defaultdict(set)
        self._doc_tokens: dict[Hashable, frozenset[str]] = {}
        # First-two-characters buckets of the reference scan.
        self._prefix_buckets: dict[str, set[str]] = defaultdict(set)
        # Deletion string -> indexed tokens whose depth-1 neighborhood
        # contains it (only tokens long enough to ever match fuzzily).
        self._delete_neighbors: dict[str, set[str]] = {}

    def _register_token(self, token: str) -> None:
        """First occurrence of a token: enter the fuzzy structures."""
        self._prefix_buckets[token[:2]].add(token)
        if len(token) >= _MIN_CANDIDATE_LEN:
            for delete in deletion_neighborhood(token):
                bucket = self._delete_neighbors.get(delete)
                if bucket is None:
                    self._delete_neighbors[delete] = {token}
                else:
                    bucket.add(token)

    def add(self, doc_id: Hashable, tokens: Iterable[str]) -> None:
        """Index a document under its tokens.

        Re-adding a document with the *same* token set is a no-op;
        re-adding with different tokens raises.
        """
        token_set = frozenset(tokens)
        existing = self._doc_tokens.get(doc_id)
        if existing is not None:
            if existing == token_set:
                return
            raise ValueError(
                f"document already indexed with different content: {doc_id!r}"
            )
        self._doc_tokens[doc_id] = token_set
        for token in token_set:
            if token not in self._postings:
                self._register_token(token)
            self._postings[token].add(doc_id)

    def __len__(self) -> int:
        return len(self._doc_tokens)

    def __contains__(self, doc_id: Hashable) -> bool:
        return doc_id in self._doc_tokens

    def tokens_of(self, doc_id: Hashable) -> frozenset[str]:
        return self._doc_tokens[doc_id]

    def postings(self, token: str) -> set[Hashable]:
        """Documents containing ``token`` (empty set when unseen)."""
        return self._postings.get(token, set())

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency of a token."""
        total = len(self._doc_tokens)
        if total == 0:
            return 0.0
        frequency = len(self._postings.get(token, ()))
        return math.log((1 + total) / (1 + frequency)) + 1.0

    def similar_tokens(self, token: str) -> set[str]:
        """Indexed tokens within one edit of ``token``.

        Only tokens sharing the first two characters and of comparable
        length are considered, which bounds the candidate set without a
        trie; short tokens (< 4 chars) only match exactly, mirroring
        common fuzzy search practice.  Candidates come from the
        deletion-neighborhood map; the result set is identical to
        :meth:`similar_tokens_reference` at ``max_distance=1`` for every
        input (the hypothesis suite in ``tests/test_perf_kernels.py``
        holds this under random sequences of adds).
        """
        if token in self._postings:
            result = {token}
        else:
            result = set()
        if len(token) < MIN_FUZZY_QUERY_LEN:
            return result
        from repro.text.levenshtein import levenshtein_within

        bump("similar_tokens.delete_lookups")
        prefix = token[:2]
        length = len(token)
        candidates: set[str] = set()
        for delete in deletion_neighborhood(token):
            neighbors = self._delete_neighbors.get(delete)
            if neighbors is not None:
                candidates.update(neighbors)
        bump("similar_tokens.delete_candidates", len(candidates))
        for candidate in candidates:
            if candidate in result:
                continue
            # The legacy scan only saw the query's own prefix bucket
            # and rejected on the length gap; apply the same filters
            # so the result set cannot shift.
            if candidate[:2] != prefix:
                continue
            if abs(len(candidate) - length) > 1:
                continue
            if levenshtein_within(candidate, token, 1) is not None:
                result.add(candidate)
        return result

    def similar_tokens_reference(
        self, token: str, max_distance: int = 1
    ) -> set[str]:
        """The pre-optimization prefix-bucket scan, kept verbatim.

        The equivalence oracle for :meth:`similar_tokens` — the tests
        assert both produce the same set, and ``benchmarks/
        bench_kernels.py`` measures the speedup against it.
        """
        if token in self._postings:
            result = {token}
        else:
            result = set()
        if len(token) < MIN_FUZZY_QUERY_LEN or max_distance <= 0:
            return result
        from repro.text.levenshtein import levenshtein

        for candidate in self._prefix_buckets.get(token[:2], ()):
            if candidate in result:
                continue
            if abs(len(candidate) - len(token)) > max_distance:
                continue
            if levenshtein(candidate, token) <= max_distance:
                result.add(candidate)
        return result
