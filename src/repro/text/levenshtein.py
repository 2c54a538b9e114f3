"""Levenshtein edit distance, its normalized similarity, and the
threshold-bounded variant the hot paths use.

Implemented with the classic two-row dynamic program; no third-party string
library is available offline, and the pipeline calls this in tight loops, so
the implementation keeps allocations minimal.

Both distance functions strip the common prefix and suffix first (typo'd
labels mostly differ in one spot).  :func:`levenshtein` is the unbounded
kernel under every label comparison: it fills the full two-row DP over
the stripped cores with inline comparisons, taking the diagonal cell
directly on a character match.  :func:`levenshtein_within` is the kernel
the candidate-pruning paths call when a threshold ``k`` is known up
front: it also rejects on the length gap, and then fills only the
Ukkonen band of width ``2k+1`` — O(k·min(len)) instead of O(len²) —
returning the *exact* distance when it is ≤ ``k`` and ``None``
otherwise.  ``tests/test_text.py`` holds :func:`levenshtein` equal to a
textbook DP kept in the test file, and :func:`levenshtein_within` equal
to thresholding :func:`levenshtein`, as hypothesis properties.
"""

from __future__ import annotations

from repro.perf.counters import bump


def levenshtein(a: str, b: str) -> int:
    """Return the edit distance (insert/delete/substitute, unit cost)."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    len_a, len_b = len(a), len(b)
    # Strip the common prefix and suffix; neither affects the distance.
    start = 0
    while start < len_a and a[start] == b[start]:
        start += 1
    while len_a > start and a[len_a - 1] == b[len_b - 1]:
        len_a -= 1
        len_b -= 1
    a = a[start:len_a]
    b = b[start:len_b]
    len_a -= start
    len_b -= start
    if len_a == 0:
        return len_b
    # Two-row dynamic program, the shorter core on the outer loop.
    # ``diagonal``, ``up`` and ``left`` are the substitution, deletion
    # and insertion predecessors of the cell being filled.  Adjacent
    # cells differ by at most one, so on a character match the diagonal
    # alone is the minimum.
    previous = list(range(len_b + 1))
    current = [0] * (len_b + 1)
    for i, char_a in enumerate(a, start=1):
        diagonal = i - 1
        left = current[0] = i
        j = 0
        for char_b in b:
            j += 1
            up = previous[j]
            if char_a == char_b:
                value = diagonal
            else:
                value = diagonal if diagonal < up else up
                if left < value:
                    value = left
                value += 1
            current[j] = value
            left = value
            diagonal = up
        previous, current = current, previous
    return previous[len_b]


def levenshtein_within(a: str, b: str, max_distance: int) -> int | None:
    """The exact edit distance when it is ≤ ``max_distance``, else ``None``.

    Equivalent to ``d := levenshtein(a, b); d if d <= max_distance else
    None`` but several-fold cheaper for small thresholds: the length gap
    rejects without touching characters, the shared prefix/suffix is
    stripped (typo'd labels mostly differ in one spot), and the dynamic
    program only fills the diagonal band of width ``2·max_distance + 1``
    (cells outside it cannot lie on a path of cost ≤ ``max_distance``).
    """
    if max_distance < 0:
        return None
    if a == b:
        bump("levenshtein_within.exact_equal")
        return 0
    if max_distance == 0:
        # Unequal strings cannot be within distance zero.
        bump("levenshtein_within.zero_threshold_exit")
        return None
    if len(a) > len(b):
        a, b = b, a
    len_a, len_b = len(a), len(b)
    if len_b - len_a > max_distance:
        bump("levenshtein_within.length_gap_exit")
        return None
    # Strip the common prefix and suffix; neither affects the distance.
    start = 0
    while start < len_a and a[start] == b[start]:
        start += 1
    while len_a > start and a[len_a - 1] == b[len_b - 1]:
        len_a -= 1
        len_b -= 1
    a = a[start:len_a]
    b = b[start:len_b]
    len_a -= start
    len_b -= start
    if len_a == 0:
        # All remaining edits are insertions; the gap check above already
        # guarantees len_b <= max_distance.
        bump("levenshtein_within.affix_exit")
        return len_b
    # Banded dynamic program over the stripped cores.  Cells outside the
    # band hold the sentinel (max_distance + 1), which also clamps values
    # that exceed the threshold — min(true distance, sentinel) is exactly
    # what each cell computes, so a final value ≤ max_distance is exact.
    sentinel = max_distance + 1
    previous = [j if j <= max_distance else sentinel for j in range(len_b + 1)]
    current = [sentinel] * (len_b + 1)
    for i in range(1, len_a + 1):
        char_a = a[i - 1]
        low = i - max_distance
        if low < 1:
            low = 1
            current[0] = i
            row_best = i
        else:
            current[low - 1] = sentinel  # left band edge: no entry point
            row_best = sentinel
        high = i + max_distance
        if high > len_b:
            high = len_b
        for j in range(low, high + 1):
            value = previous[j - 1] + (0 if char_a == b[j - 1] else 1)
            deletion = previous[j] + 1
            if deletion < value:
                value = deletion
            insertion = current[j - 1] + 1
            if insertion < value:
                value = insertion
            if value > sentinel:
                value = sentinel
            current[j] = value
            if value < row_best:
                row_best = value
        if row_best >= sentinel:
            # The whole band exceeded the threshold; no later row recovers.
            bump("levenshtein_within.band_exceeded")
            return None
        if high < len_b:
            current[high + 1] = sentinel  # right band edge for the next row
        previous, current = current, previous
    distance = previous[len_b]
    if distance > max_distance:
        bump("levenshtein_within.band_exceeded")
        return None
    bump("levenshtein_within.band_computed")
    return distance


def levenshtein_similarity(a: str, b: str) -> float:
    """Normalized Levenshtein similarity in [0, 1].

    ``1 - distance / max(len)``; two empty strings are maximally similar.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest
