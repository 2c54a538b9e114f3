"""Unit and property tests for the string toolkit."""

from __future__ import annotations

import math
import unicodedata

from hypothesis import given, strategies as st

from repro.perf import KernelCache
from repro.text import (
    binary_cosine,
    clean_cell,
    jaccard,
    label_similarity,
    levenshtein,
    levenshtein_similarity,
    levenshtein_within,
    monge_elkan,
    monge_elkan_symmetric,
    monge_elkan_symmetric_memo,
    normalize_label,
    term_vector,
    tokenize,
)
from repro.text.tokenize import _fold_ascii


class TestCleanCell:
    def test_none_becomes_empty(self):
        assert clean_cell(None) == ""

    def test_whitespace_collapsed(self):
        assert clean_cell("  a \t b\n c ") == "a b c"

    def test_accents_folded(self):
        assert clean_cell("Mönchengladbach") == "Monchengladbach"

    def test_non_string_coerced(self):
        assert clean_cell(42) == "42"


def _nfkd_fold(text: str) -> str:
    """Accent folding without the ASCII shortcut: the reference."""
    decomposed = unicodedata.normalize("NFKD", text)
    return decomposed.encode("ascii", "ignore").decode("ascii")


class TestFoldAscii:
    def test_every_ascii_code_point_equals_the_nfkd_path(self):
        for code_point in range(128):
            character = chr(code_point)
            assert _fold_ascii(character) == _nfkd_fold(character) == character
        everything = "".join(map(chr, range(128)))
        assert _fold_ascii(everything) == _nfkd_fold(everything)

    @given(st.text())
    def test_equals_the_nfkd_path(self, text):
        assert _fold_ascii(text) == _nfkd_fold(text)

    def test_non_ascii_is_still_folded(self):
        assert _fold_ascii("Mönchengladbach") == "Monchengladbach"
        assert _fold_ascii("ﬁne café") == "fine cafe"


class TestNormalizeLabel:
    def test_lowercases_and_strips_punctuation(self):
        assert normalize_label("Smith, John!") == "smith john"

    def test_empty_input(self):
        assert normalize_label("") == ""
        assert normalize_label(None) == ""

    def test_idempotent(self):
        once = normalize_label("The  Long-Road (song)")
        assert normalize_label(once) == once


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Green Day - 21 Guns") == ["green", "day", "21", "guns"]

    def test_none_yields_empty(self):
        assert tokenize(None) == []

    def test_punctuation_only(self):
        assert tokenize("...!!!") == []


def _textbook_levenshtein(a: str, b: str) -> int:
    """The unit-cost edit distance as the full (len(a)+1)×(len(b)+1) DP.

    Independent of the production kernel: no affix stripping, no row
    reuse, no shortcut on a character match.
    """
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("kitten", "kitten") == 0

    def test_known_distance(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_similarity_bounds(self):
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0

    @given(st.text(), st.text())
    def test_equals_textbook_dp(self, a, b):
        assert levenshtein(a, b) == _textbook_levenshtein(a, b)

    @given(st.text(alphabet="ab", max_size=16),
           st.text(alphabet="ab", max_size=16))
    def test_small_alphabet_equals_textbook_dp(self, a, b):
        # Dense matches exercise affix stripping and the diagonal shortcut.
        assert levenshtein(a, b) == _textbook_levenshtein(a, b)


class TestLevenshteinWithin:
    """The banded kernel must agree with the reference *everywhere*."""

    def test_known_values(self):
        assert levenshtein_within("kitten", "sitting", 3) == 3
        assert levenshtein_within("kitten", "sitting", 2) is None
        assert levenshtein_within("same", "same", 0) == 0
        assert levenshtein_within("ab", "ba", 2) == 2

    def test_negative_threshold(self):
        assert levenshtein_within("a", "a", -1) is None

    def test_length_gap_rejects_without_dp(self):
        assert levenshtein_within("ab", "abcdef", 2) is None

    def test_prefix_suffix_stripping(self):
        # Only the middle differs; the band never sees the shared affixes.
        assert levenshtein_within("prefix-A-suffix", "prefix-B-suffix", 1) == 1

    @given(st.text(max_size=12), st.text(max_size=12),
           st.integers(min_value=0, max_value=8))
    def test_equivalent_to_thresholded_reference(self, a, b, k):
        distance = levenshtein(a, b)
        expected = distance if distance <= k else None
        assert levenshtein_within(a, b, k) == expected

    @given(st.text(max_size=12), st.text(max_size=12),
           st.integers(min_value=0, max_value=8))
    def test_symmetry(self, a, b, k):
        assert levenshtein_within(a, b, k) == levenshtein_within(b, a, k)

    @given(st.text(alphabet="ab", max_size=16),
           st.text(alphabet="ab", max_size=16))
    def test_small_alphabet_stresses_the_band(self, a, b):
        # Dense near-matches exercise every band-edge branch.
        for k in range(4):
            distance = levenshtein(a, b)
            expected = distance if distance <= k else None
            assert levenshtein_within(a, b, k) == expected


class TestMongeElkan:
    def test_reordered_tokens_score_high(self):
        assert label_similarity("John Smith", "Smith, John") > 0.9

    def test_unrelated_labels_score_low(self):
        assert label_similarity("John Smith", "Quartz Banana") < 0.5

    def test_empty_tokens(self):
        assert monge_elkan([], ["a"]) == 0.0
        assert monge_elkan(["a"], []) == 0.0

    def test_subset_asymmetry_fixed_by_symmetric(self):
        forward = monge_elkan(["john"], ["john", "smith"])
        backward = monge_elkan(["john", "smith"], ["john"])
        assert forward != backward
        symmetric = monge_elkan_symmetric(["john"], ["john", "smith"])
        assert math.isclose(symmetric, (forward + backward) / 2)

    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4),
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4),
    )
    def test_symmetric_version_is_symmetric(self, a, b):
        assert math.isclose(
            monge_elkan_symmetric(a, b), monge_elkan_symmetric(b, a)
        )

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4))
    def test_self_similarity_is_one(self, tokens):
        assert math.isclose(monge_elkan_symmetric(tokens, tokens), 1.0)

    @given(
        st.lists(st.text(min_size=1, max_size=6), max_size=4),
        st.lists(st.text(min_size=1, max_size=6), max_size=4),
    )
    def test_symmetric_equals_mean_of_both_directions(self, a, b):
        # The one-directional function fills its own matrix per
        # direction, so it is an independent oracle for the one-matrix
        # symmetric kernel; exact equality, not isclose.
        expected = (monge_elkan(a, b) + monge_elkan(b, a)) / 2
        assert monge_elkan_symmetric(a, b) == expected

    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=4), max_size=5),
        st.lists(st.text(alphabet="ab", min_size=1, max_size=4), max_size=5),
    )
    def test_symmetric_equals_mean_of_both_directions_on_ties(self, a, b):
        # A two-letter alphabet makes tied maxima and repeated tokens common.
        expected = (monge_elkan(a, b) + monge_elkan(b, a)) / 2
        assert monge_elkan_symmetric(a, b) == expected

    @given(
        st.lists(st.text(min_size=1, max_size=6), max_size=4),
        st.lists(st.text(min_size=1, max_size=6), max_size=4),
    )
    def test_memoized_version_is_bit_identical(self, a, b):
        memo = {}
        assert monge_elkan_symmetric_memo(a, b, memo) == monge_elkan_symmetric(a, b)
        # A warm memo must not change the value either.
        assert monge_elkan_symmetric_memo(a, b, memo) == monge_elkan_symmetric(a, b)


_label = st.one_of(
    st.text(max_size=16),
    st.lists(
        st.sampled_from(["green", "greene", "Day", "days", "dáy", "!!", "21"]),
        max_size=4,
    ).map(" ".join),
)


class TestMemoizedLabelSimilarity:
    @given(_label, _label)
    def test_bit_identical_to_the_plain_path(self, a, b):
        expected = monge_elkan_symmetric(tokenize(a), tokenize(b))
        kernels = KernelCache()
        assert label_similarity(a, b) == expected
        assert label_similarity(a, b, kernels) == expected
        # Swapped arguments on the same (now warm) memo.
        assert label_similarity(b, a, kernels) == expected
        assert label_similarity(a, b, kernels) == expected
        assert label_similarity(a, a, kernels) == (
            monge_elkan_symmetric(tokenize(a), tokenize(a))
        )

    def test_labels_without_tokens_score_zero(self):
        kernels = KernelCache()
        for a, b in [("", ""), ("!!", "!!"), ("", "green"), ("!!", "green")]:
            assert label_similarity(a, b, kernels) == 0.0
            assert label_similarity(b, a, kernels) == 0.0
            assert label_similarity(a, b) == 0.0

    def test_equal_labels_score_one(self):
        kernels = KernelCache()
        assert label_similarity("Green Day", "Green Day", kernels) == 1.0
        assert kernels.cache_info() == {
            "token_pairs": 3,
            "label_tokens": 1,
            "parsed_columns": 0,
            "value_pools": 0,
            "attribute_scores": 0,
        }


class TestTermVectors:
    def test_term_vector_unions_fragments(self):
        vector = term_vector(["green day", None, "21 guns"])
        assert vector == frozenset({"green", "day", "21", "guns"})

    def test_cosine_identical(self):
        vector = frozenset({"a", "b"})
        assert binary_cosine(vector, vector) == 1.0

    def test_cosine_disjoint(self):
        assert binary_cosine(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_cosine_empty(self):
        assert binary_cosine(frozenset(), frozenset({"a"})) == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    @given(
        st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
        st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
    )
    def test_cosine_bounds_and_symmetry(self, a, b):
        score = binary_cosine(a, b)
        assert 0.0 <= score <= 1.0
        assert math.isclose(score, binary_cosine(b, a))

    @given(
        st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
        st.frozensets(st.text(min_size=1, max_size=4), max_size=8),
    )
    def test_jaccard_le_cosine(self, a, b):
        # For binary vectors, Jaccard is a lower bound of cosine.
        assert jaccard(a, b) <= binary_cosine(a, b) + 1e-12 or (not a and not b)
