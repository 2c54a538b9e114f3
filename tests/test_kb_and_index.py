"""Unit tests for the knowledge base and the label index."""

from __future__ import annotations

import math
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DataType
from repro.index import InvertedIndex, LabelIndex
from repro.kb import KBClass, KBInstance, KBProperty, KBSchema, KnowledgeBase
from repro.kb.profiling import class_profile, property_densities
from repro.perf.counters import kernel_counters, reset_kernel_counters
from repro.text.tokenize import normalize_label, tokenize


def make_schema() -> KBSchema:
    schema = KBSchema()
    schema.add_class(KBClass("Thing"))
    schema.add_class(KBClass("Agent", parent="Thing"))
    schema.add_class(KBClass("Person", parent="Agent"))
    schema.add_class(
        KBClass(
            "Athlete",
            parent="Person",
            properties={
                "team": KBProperty("team", DataType.INSTANCE_REFERENCE),
                "height": KBProperty("height", DataType.QUANTITY),
            },
        )
    )
    schema.add_class(KBClass("Player", parent="Athlete"))
    schema.add_class(KBClass("Work", parent="Thing"))
    schema.add_class(KBClass("Album", parent="Work"))
    return schema


class TestSchema:
    def test_ancestry(self):
        schema = make_schema()
        assert schema.ancestry("Player") == [
            "Player", "Athlete", "Person", "Agent", "Thing",
        ]

    def test_descendants(self):
        schema = make_schema()
        assert schema.descendants("Athlete") == {"Athlete", "Player"}

    def test_properties_inherited(self):
        schema = make_schema()
        assert "team" in schema.properties_of("Player")

    def test_unknown_parent_rejected(self):
        schema = KBSchema()
        with pytest.raises(ValueError):
            schema.add_class(KBClass("Orphan", parent="Missing"))

    def test_duplicate_class_rejected(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.add_class(KBClass("Thing"))

    def test_share_parent_within_branch(self):
        schema = make_schema()
        assert schema.share_parent("Player", "Athlete")
        assert schema.share_parent("Athlete", "Player")

    def test_share_parent_across_branches_is_false(self):
        schema = make_schema()
        assert not schema.share_parent("Player", "Album")

    def test_type_overlap_full(self):
        schema = make_schema()
        assert schema.type_overlap({"Player"}, "Player") == 1.0

    def test_type_overlap_partial(self):
        schema = make_schema()
        overlap = schema.type_overlap({"Athlete"}, "Player")
        assert 0.0 < overlap < 1.0

    def test_type_overlap_disjoint_branch(self):
        schema = make_schema()
        # Album still shares the root Thing.
        assert schema.type_overlap({"Album"}, "Player") == pytest.approx(1 / 5)


def make_kb() -> KnowledgeBase:
    kb = KnowledgeBase(make_schema())
    kb.add_instance(
        KBInstance(
            "kb:p1", "Player", ("John Smith",),
            facts={"team": "Packers", "height": 1.88}, page_links=100,
        )
    )
    kb.add_instance(
        KBInstance(
            "kb:p2", "Player", ("Jon Smith", "J. Smith"),
            facts={"team": "Bears"}, page_links=10,
        )
    )
    kb.add_instance(
        KBInstance("kb:a1", "Athlete", ("Mary Jones",), facts={"height": 1.70})
    )
    return kb


class TestKnowledgeBase:
    def test_duplicate_uri_rejected(self):
        kb = make_kb()
        with pytest.raises(ValueError):
            kb.add_instance(KBInstance("kb:p1", "Player", ("X",)))

    def test_unknown_class_rejected(self):
        kb = make_kb()
        with pytest.raises(ValueError):
            kb.add_instance(KBInstance("kb:x", "Nope", ("X",)))

    def test_instances_of_includes_subclasses(self):
        kb = make_kb()
        athletes = kb.instances_of("Athlete")
        assert {instance.uri for instance in athletes} == {"kb:p1", "kb:p2", "kb:a1"}

    def test_instances_of_exact(self):
        kb = make_kb()
        players = kb.instances_of("Athlete", include_subclasses=False)
        assert {instance.uri for instance in players} == {"kb:a1"}

    def test_exact_label_lookup(self):
        kb = make_kb()
        found = kb.instances_with_label("john smith")
        assert [instance.uri for instance in found] == ["kb:p1"]

    def test_candidates_by_label_fuzzy(self):
        kb = make_kb()
        candidates = kb.candidates_by_label("John Smith")
        uris = [instance.uri for instance in candidates]
        assert "kb:p1" in uris
        assert "kb:p2" in uris  # typo'd variant found

    def test_search_cache_consistency(self):
        kb = make_kb()
        first = kb.label_matches("john smith")
        second = kb.label_matches("john smith")
        assert first == second

    def test_property_values(self):
        kb = make_kb()
        assert sorted(kb.property_values("Player", "team")) == ["Bears", "Packers"]

    def test_popularity_rank(self):
        kb = make_kb()
        assert kb.popularity_rank(["kb:p2", "kb:p1"]) == ["kb:p1", "kb:p2"]

    def test_profiling(self):
        kb = make_kb()
        profile = class_profile(kb, "Player")
        assert profile.instances == 2
        assert profile.facts == 3
        densities = property_densities(kb, "Player")
        by_name = {row.property_name: row.density for row in densities}
        assert by_name["team"] == 1.0
        assert by_name["height"] == 0.5


class TestInvertedIndex:
    def test_add_and_postings(self):
        index = InvertedIndex()
        index.add("d1", ["green", "day"])
        assert index.postings("green") == {"d1"}
        assert index.postings("unknown") == set()

    def test_duplicate_doc_rejected(self):
        index = InvertedIndex()
        index.add("d1", ["a"])
        with pytest.raises(ValueError):
            index.add("d1", ["b"])

    def test_identical_readd_is_idempotent(self):
        index = InvertedIndex()
        index.add("d1", ["green", "day"])
        index.add("d1", ["day", "green"])  # same content, any order
        assert index.postings("green") == {"d1"}
        assert len(index) == 1

    def test_idf_reflects_growth(self):
        index = InvertedIndex()
        index.add("d1", ["common", "rare"])
        before = index.idf("rare")
        index.add("d2", ["common"])
        assert index.idf("rare") > before  # total grew with the corpus

    def test_idf_orders_rarity(self):
        index = InvertedIndex()
        index.add("d1", ["common", "rare"])
        index.add("d2", ["common"])
        assert index.idf("rare") > index.idf("common")

    def test_similar_tokens_edit_distance_one(self):
        index = InvertedIndex()
        index.add("d1", ["smith"])
        assert "smith" in index.similar_tokens("smyth")

    def test_short_tokens_exact_only(self):
        index = InvertedIndex()
        index.add("d1", ["cat"])
        assert index.similar_tokens("car") == set()


class TestLabelIndex:
    def test_exact_payloads(self):
        index = LabelIndex()
        index.add("John Smith", "u1")
        index.add("John Smith", "u2")
        assert set(index.payloads_for("john  smith")) == {"u1", "u2"}

    def test_search_ranks_exact_above_fuzzy(self):
        index = LabelIndex()
        index.add("John Smith", "u1")
        index.add("Jon Smith", "u2")
        results = index.search("John Smith")
        assert results[0].label == "john smith"

    def test_search_limit(self):
        index = LabelIndex()
        for position in range(20):
            index.add(f"Smith {position}", position)
        assert len(index.search("Smith", limit=5)) == 5

    def test_empty_query(self):
        index = LabelIndex()
        index.add("John", "u1")
        assert index.search("!!!") == []

    def test_deterministic_tie_break(self):
        index = LabelIndex()
        index.add("Alpha Song", 1)
        index.add("Beta Song", 2)
        first = index.search("Song")
        second = index.search("Song")
        assert [match.label for match in first] == [match.label for match in second]

    @given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=20))
    def test_search_never_crashes(self, labels):
        index = LabelIndex()
        for position, label in enumerate(labels):
            index.add(label, position)
        for label in labels:
            for match in index.search(label):
                assert 0.0 <= match.score <= 1.0 + 1e-9

    def test_pickle_keeps_the_norm_memo(self):
        index = LabelIndex()
        for label in ("green day", "green days", "oasis band", "green oasis"):
            index.add(label, label)
        expected = index.search("green day", 10)
        clone = pickle.loads(pickle.dumps(index))
        reset_kernel_counters()
        assert clone.search("green day", 10) == expected
        counters = kernel_counters()
        assert counters.get("label_index.norm_computed", 0) == 0
        assert counters["label_index.norm_memo_hits"] == len(expected)


_token = st.text(alphabet="abcdef", min_size=1, max_size=6)
_label = st.lists(_token, min_size=1, max_size=4).map(" ".join)


def _matches(index: LabelIndex, query: str, limit: int):
    return [
        (match.label, match.score, match.payloads)
        for match in index.search(query, limit)
    ]


def _reference(index: LabelIndex, query: str, limit: int):
    """``LabelIndex.search`` before its per-label norm memo, kept verbatim
    as the oracle: every norm is computed afresh from the index."""
    inverted = index._index
    query_tokens = list(dict.fromkeys(tokenize(normalize_label(query))))
    if not query_tokens:
        return []
    scores: dict[str, float] = defaultdict(float)
    for token in query_tokens:
        expansions = inverted.similar_tokens(token)
        # Sorted iteration: per-label float accumulation order must
        # not depend on the process's hash seed.
        for expanded in sorted(expansions):
            weight = inverted.idf(expanded)
            # Penalize fuzzy (non-exact) expansions slightly so exact
            # token matches dominate.
            if expanded != token:
                weight *= 0.7
            for label in inverted.postings(expanded):
                scores[label] += weight
    if not scores:
        return []
    query_norm = math.sqrt(sum(inverted.idf(token) ** 2 for token in query_tokens))
    matches = []
    for label, dot in scores.items():
        # Sorted iteration over the token *set*: the norm's float
        # accumulation order must not depend on the hash seed (a
        # 1-ulp drift here flips top-k ties at the limit boundary).
        label_tokens = sorted(inverted.tokens_of(label))
        label_norm = math.sqrt(
            sum(inverted.idf(token) ** 2 for token in label_tokens)
        )
        denominator = query_norm * label_norm
        score = dot / denominator if denominator > 0 else 0.0
        score = min(1.0, score)
        matches.append((label, score, tuple(index._payloads[label])))
    matches.sort(key=lambda match: (-match[1], match[0]))
    return matches[:limit]


class TestExactModeEquivalence:
    """``search`` ≡ ``_reference``, the kept-verbatim unmemoized scan."""

    @given(
        st.lists(_label, min_size=1, max_size=25),
        st.lists(_label, min_size=1, max_size=10),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150)
    def test_identical_on_random_vocabularies(self, labels, queries, limit):
        index = LabelIndex()
        for position, label in enumerate(labels):
            index.add(label, f"payload-{position}")
        for query in queries:
            assert _matches(index, query, limit) == _reference(
                index, query, limit
            )

    @given(
        st.lists(_label, min_size=1, max_size=15),
        st.lists(_label, max_size=8),
        st.lists(_label, min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_identical_after_mutations(self, labels, additions, queries):
        """The norm memo survives later adds without going stale."""
        index = LabelIndex()
        for position, label in enumerate(labels):
            index.add(label, position)
        # Interleave queries so the memo is warm before each add.
        for position, label in enumerate(additions, start=len(labels)):
            assert _matches(index, "query probe", 5) == _reference(
                index, "query probe", 5
            )
            index.add(label, position)
        for query in queries:
            assert _matches(index, query, 5) == _reference(index, query, 5)

    def test_norm_memo_matches_fresh_computation(self):
        index = LabelIndex()
        for label in ("green day", "green days", "oasis band", "green oasis"):
            index.add(label, label)
        index.search("green", 10)  # warm the memo
        for label in index.labels():
            memoized = index._label_norm(label)
            fresh = math.sqrt(
                sum(
                    index._index.idf(token) ** 2
                    for token in sorted(index._index.tokens_of(label))
                )
            )
            assert memoized == fresh

    def test_norm_memo_hits_and_invalidation_counters(self):
        index = LabelIndex()
        for label in ("green day", "green days", "oasis"):
            index.add(label, label)
        reset_kernel_counters()
        index.search("green day", 10)
        computed = kernel_counters().get("label_index.norm_computed", 0)
        assert computed > 0
        index.search("green day", 10)
        after = kernel_counters()
        assert after.get("label_index.norm_computed", 0) == computed
        assert after.get("label_index.norm_memo_hits", 0) > 0
        index.add("new label", "p")  # mutation drops the memo
        index.search("green day", 10)
        assert kernel_counters()["label_index.norm_computed"] > computed
