"""Monge-Elkan hybrid string similarity.

The paper uses Monge-Elkan with Levenshtein as the inner similarity for both
the row-level LABEL metric (Section 3.2) and the entity-to-instance LABEL
metric (Section 3.4).  Monge-Elkan aligns each token of one string with its
best-matching token of the other and averages those best scores, which makes
it robust to token reordering ("John Smith" vs "Smith, John") and to extra
qualifier tokens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.perf.counters import bump
from repro.text.levenshtein import levenshtein_similarity
from repro.text.tokenize import tokenize

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache

InnerSimilarity = Callable[[str, str], float]

#: A shared token-pair similarity memo: canonical ``(min, max)`` token
#: pair → inner similarity.  Levenshtein similarity is symmetric and
#: pure, so one entry serves both directions, every row pair of a run,
#: and every metric that compares the same two tokens.
TokenPairMemo = dict[tuple[str, str], float]


def monge_elkan(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner: InnerSimilarity = levenshtein_similarity,
) -> float:
    """One-directional Monge-Elkan score from ``tokens_a`` to ``tokens_b``.

    For every token in ``tokens_a`` the best inner similarity against any
    token of ``tokens_b`` is taken; the result is the mean of those maxima.
    Empty token lists yield 0.0 (nothing to align).
    """
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(inner(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


def monge_elkan_symmetric(
    tokens_a: Sequence[str], tokens_b: Sequence[str]
) -> float:
    """Symmetrized Monge-Elkan: mean of both directions.

    The raw measure is asymmetric (a subset of tokens scores 1.0 against a
    superset); averaging both directions restores symmetry, which the
    clustering fitness function requires.

    Levenshtein similarity is symmetric, so the ``n×m`` token-pair
    matrix is filled once and both directions' maxima are taken from
    it: row maxima give ``monge_elkan(tokens_a, tokens_b)``, column
    maxima ``monge_elkan(tokens_b, tokens_a)``.  Both sums accumulate
    in the same order as :func:`monge_elkan`, so the result is
    bit-identical to averaging the two one-directional calls.
    """
    if not tokens_a or not tokens_b:
        return 0.0
    # Similarities lie in [0, 1], so 0.0 can start every maximum.
    best_b = [0.0] * len(tokens_b)
    forward_total = 0.0
    for token_a in tokens_a:
        best_a = 0.0
        for position, token_b in enumerate(tokens_b):
            score = levenshtein_similarity(token_a, token_b)
            if score > best_a:
                best_a = score
            if score > best_b[position]:
                best_b[position] = score
        forward_total += best_a
    return _mean_of_directions(forward_total, len(tokens_a), best_b)


def monge_elkan_symmetric_memo(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    memo: TokenPairMemo,
    retiring: TokenPairMemo | None = None,
) -> float:
    """:func:`monge_elkan_symmetric` through a shared token-pair memo.

    The memo keys on the canonical sorted token pair and serves one
    value for both directions, which is sound because Levenshtein
    similarity is symmetric.  The result is bit-identical to the plain
    version (the hypothesis property in ``tests/test_text.py`` proves
    it), while every entry of the single ``n×m`` pair matrix is first
    looked up in ``memo`` — labels within a block share most of their
    tokens, so across the pairs of a clustering run the memo absorbs
    the overwhelming majority of inner calls.

    ``retiring`` is the memo's previous-epoch generation
    (:meth:`repro.perf.KernelCache.age`): a pair that misses ``memo`` is
    taken from it, and moved into ``memo``, before it is computed.  It
    is read on the miss path only; a pair served from either counts as
    a memo hit.
    """
    if not tokens_a or not tokens_b:
        return 0.0
    hits = 0
    misses = 0
    best_b = [0.0] * len(tokens_b)
    forward_total = 0.0
    for token_a in tokens_a:
        best_a = 0.0
        for position, token_b in enumerate(tokens_b):
            key = (
                (token_a, token_b)
                if token_a <= token_b
                else (token_b, token_a)
            )
            score = memo.get(key)
            if score is None:
                if retiring:
                    score = retiring.pop(key, None)
                if score is None:
                    score = levenshtein_similarity(token_a, token_b)
                    misses += 1
                else:
                    hits += 1
                memo[key] = score
            else:
                hits += 1
            if score > best_a:
                best_a = score
            if score > best_b[position]:
                best_b[position] = score
        forward_total += best_a
    bump("monge_elkan.pair_memo_hits", hits)
    bump("monge_elkan.pair_memo_misses", misses)
    return _mean_of_directions(forward_total, len(tokens_a), best_b)


def _mean_of_directions(
    forward_total: float, n_a: int, best_b: list[float]
) -> float:
    """Average the forward score with the one the column maxima give.

    The column maxima are summed with a plain loop, in order, exactly as
    :func:`monge_elkan` sums its maxima: the built-in ``sum`` compensates
    float rounding on Python 3.12+ and could differ in the last bit.
    """
    backward_total = 0.0
    for score in best_b:
        backward_total += score
    forward = forward_total / n_a
    backward = backward_total / len(best_b)
    return (forward + backward) / 2.0


def label_similarity(
    label_a: str, label_b: str, kernels: "KernelCache | None" = None
) -> float:
    """Similarity of two natural-language labels in [0, 1].

    Tokenizes both labels and applies symmetric Monge-Elkan with Levenshtein
    inner similarity — the exact configuration named in the paper.

    With ``kernels`` (a session's :class:`repro.perf.KernelCache`) each
    label is tokenized once and scored through
    :func:`monge_elkan_symmetric_memo` over the session's token-pair
    memo; the result is bit-identical to the plain path.
    """
    if kernels is None:
        return monge_elkan_symmetric(tokenize(label_a), tokenize(label_b))
    tokens = kernels.label_tokens
    tokens_a = tokens.get(label_a)
    if tokens_a is None:
        tokens_a = kernels.recall("label_tokens", label_a)
        if tokens_a is None:
            tokens_a = tokens[label_a] = tuple(tokenize(label_a))
    tokens_b = tokens.get(label_b)
    if tokens_b is None:
        tokens_b = kernels.recall("label_tokens", label_b)
        if tokens_b is None:
            tokens_b = tokens[label_b] = tuple(tokenize(label_b))
    return monge_elkan_symmetric_memo(
        tokens_a, tokens_b, kernels.token_sim, kernels.retiring["token_sim"]
    )
