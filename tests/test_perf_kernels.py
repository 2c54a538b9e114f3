"""The similarity-kernel optimization layer (repro.perf + fast kernels).

The contract of every optimization in this layer is *exactness*: the
fast path must reproduce its reference byte for byte.  The hypothesis
suites here hold that under adversarial inputs — random vocabularies
with add sequences for the deletion-neighborhood fuzzy index, and
random token lists for the memoized Monge-Elkan — plus unit coverage of
the perf plumbing (counters, KernelCache, the kernel counters a run's
span log carries, and blocking's per-call label cache).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clustering.blocking import build_blocks
from repro.clustering.metrics import BowMetric, LabelMetric
from repro.clustering.similarity import RowSimilarity
from repro.index.inverted import InvertedIndex
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.perf import (
    KernelCache,
    bump,
    counter_delta,
    kernel_counters,
    reset_kernel_counters,
)
from repro.text.monge_elkan import label_similarity
from repro.text.tokenize import normalize_label, tokenize
from repro.text.vectors import term_vector

# ---------------------------------------------------------------------------
# Deletion-neighborhood fuzzy expansion ≡ the prefix-bucket scan
# ---------------------------------------------------------------------------

_token = st.text(alphabet="abcde", min_size=1, max_size=8)


class TestSimilarTokensEquivalence:
    @given(
        st.lists(st.lists(_token, min_size=1, max_size=5), min_size=1, max_size=12),
        st.lists(_token, min_size=1, max_size=20),
    )
    @settings(max_examples=200)
    def test_equivalent_over_random_vocabularies(self, documents, queries):
        index = InvertedIndex()
        for doc_id, tokens in enumerate(documents):
            index.add(doc_id, tokens)
        for query in queries:
            assert index.similar_tokens(query) == (
                index.similar_tokens_reference(query)
            )

    @given(
        st.lists(st.lists(_token, min_size=1, max_size=4), min_size=2, max_size=10),
        st.lists(
            st.tuples(st.sampled_from(["add", "readd"]),
                      st.integers(min_value=0, max_value=9),
                      st.lists(_token, min_size=1, max_size=4)),
            max_size=8,
        ),
        st.lists(_token, min_size=1, max_size=10),
    )
    @settings(max_examples=100)
    def test_equivalent_after_mutations(self, documents, mutations, queries):
        """The delete-neighborhood map is maintained through later adds
        and idempotent re-adds, with queries in between."""
        index = InvertedIndex()
        for doc_id, tokens in enumerate(documents):
            index.add(doc_id, tokens)
        for operation, position, tokens in mutations:
            assert index.similar_tokens(tokens[0]) == (
                index.similar_tokens_reference(tokens[0])
            )
            if operation == "add":
                index.add(len(index), tokens)
            else:
                doc_id = position % len(index)
                index.add(doc_id, index.tokens_of(doc_id))  # idempotent re-add
        for query in queries:
            assert index.similar_tokens(query) == (
                index.similar_tokens_reference(query)
            )

    def test_typo_found_through_deletion_neighborhood(self):
        index = InvertedIndex()
        index.add("d1", ["smith"])
        assert index.similar_tokens("smyth") == {"smith"}

    def test_prefix_bucket_semantics_preserved(self):
        # "bbcd" is one edit from "abcd" but shares no two-char prefix;
        # the legacy scan never saw it, so the fast path must not either.
        index = InvertedIndex()
        index.add("d1", ["bbcd"])
        assert index.similar_tokens("abcd") == set()
        assert index.similar_tokens_reference("abcd") == set()


# ---------------------------------------------------------------------------
# Kernel counters + KernelCache
# ---------------------------------------------------------------------------


class TestCounters:
    def test_bump_snapshot_delta_reset(self):
        reset_kernel_counters()
        baseline = kernel_counters()
        bump("test.counter")
        bump("test.counter", 4)
        delta = counter_delta(baseline)
        assert delta["test.counter"] == 5
        reset_kernel_counters()
        assert kernel_counters().get("test.counter") is None

    def test_delta_drops_zero_entries(self):
        bump("test.static", 3)
        baseline = kernel_counters()
        assert "test.static" not in counter_delta(baseline)


def _record(row_id, label):
    norm = normalize_label(label)
    return RowRecord(
        row_id=("t", row_id),
        table_id="t",
        label=label,
        norm_label=norm,
        tokens=term_vector([label]),
        values={},
        label_tokens=tuple(tokenize(norm)),
    )


def _similarity(kernels=None):
    return RowSimilarity(
        [LabelMetric(kernels), BowMetric()],
        StaticWeightedAggregator({"LABEL": 0.7, "BOW": 0.3}, threshold=0.6),
    )


class TestKernelCache:
    def test_clear_drops_token_memo(self):
        kernels = KernelCache()
        similarity = _similarity(kernels)
        similarity.score(_record(1, "green day"), _record(2, "green days"))
        assert kernels.cache_info()["token_pairs"] > 0
        kernels.clear()
        assert kernels.cache_info() == {
            "token_pairs": 0,
            "label_tokens": 0,
            "parsed_columns": 0,
            "value_pools": 0,
            "attribute_scores": 0,
        }

    def test_age_keeps_what_the_latest_epoch_used(self):
        """An entry used since the latest corpus change survives the next
        one; an entry unused for two changes is gone; value pools stay."""
        kernels = KernelCache()
        label_similarity("green day", "green days", kernels)
        kernels.value_pools["Song", "artist"] = pool = object()
        assert kernels.age() == 0  # change 1: everything was used
        assert ("day", "days") in kernels.retiring["token_sim"]
        label_similarity("day", "days", kernels)  # served, not computed
        assert ("day", "days") in kernels.token_sim
        assert kernels.age() == 5  # change 2: 3 pairs and 2 labels
        assert set(kernels.retiring["token_sim"]) == {("day", "days")}
        assert set(kernels.retiring["label_tokens"]) == {"day", "days"}
        assert kernels.token_sim == kernels.label_tokens == {}
        assert kernels.value_pools == {("Song", "artist"): pool}
        assert kernels.age() == 3  # change 3: unused since change 2
        assert kernels.cache_info() == {
            "token_pairs": 0,
            "label_tokens": 0,
            "parsed_columns": 0,
            "value_pools": 1,
            "attribute_scores": 0,
        }

    def test_recalled_pairs_count_as_memo_hits(self):
        kernels = KernelCache()
        label_similarity("green day", "green days", kernels)
        kernels.age()
        baseline = kernel_counters()
        label_similarity("green day", "green days", kernels)
        delta = counter_delta(baseline)
        assert delta.get("monge_elkan.pair_memo_misses", 0) == 0
        assert delta["monge_elkan.pair_memo_hits"] == 4

    def test_shared_memo_changes_nothing_but_speed(self):
        kernels = KernelCache()
        shared = _similarity(kernels)
        private = _similarity()
        pairs = [
            (_record(1, "the long road"), _record(2, "the long roads")),
            (_record(3, "long road"), _record(4, "the long road")),
        ]
        for a, b in pairs:
            assert shared.score(a, b) == private.score(a, b)

    def test_row_similarity_cache_info_counts_hits_and_misses(self):
        similarity = _similarity()
        a, b = _record(1, "alpha beta"), _record(2, "alpha betas")
        similarity.score(a, b)
        similarity.score(b, a)  # canonical pair: served from cache
        info = similarity.cache_info()
        assert info == {"entries": 1, "hits": 1, "misses": 1}
        similarity.clear()
        assert similarity.cache_info() == {"entries": 0, "hits": 0, "misses": 0}


class TestSessionWiring:
    def test_session_clear_cache_clears_kernels(self, tiny_world):
        from repro.api import RunSession

        session = RunSession(tiny_world)
        session.run("Song")
        assert session.kernels.cache_info()["token_pairs"] > 0
        session.clear_cache()
        assert session.kernels.cache_info()["token_pairs"] == 0

    def test_runs_share_the_session_token_memo(self, tiny_world):
        from repro.api import RunSession

        session = RunSession(tiny_world)
        session.run("Song")
        first = session.kernels.cache_info()["token_pairs"]
        assert first > 0
        session.run("Settlement")
        assert session.kernels.cache_info()["token_pairs"] >= first

    def test_fresh_sessions_start_with_empty_memos(self, tiny_world):
        """No memo outlives its session: two fresh sessions in one process
        compute the same token pairs on their first run."""
        from repro.api import RunSession

        misses = []
        for __ in range(2):
            session = RunSession(tiny_world)
            baseline = kernel_counters()
            session.run("Song", use_cache=False)
            misses.append(
                counter_delta(baseline)["monge_elkan.pair_memo_misses"]
            )
            assert session.kernels.cache_info()["label_tokens"] > 0
        assert misses[0] == misses[1] > 0

    def test_epoch_guard_retires_memos_unused_for_two_changes(
        self, tiny_world
    ):
        from repro.api import RunSession
        from repro.webtables import TableCorpus

        *table_ids, second, held_back = tiny_world.tables_of_class("Song")
        corpus = TableCorpus(
            [tiny_world.corpus.get(table_id) for table_id in table_ids]
        )
        session = RunSession(
            knowledge_base=tiny_world.knowledge_base, corpus=corpus
        )
        session.run("Song", use_cache=False)
        kernels = session.kernels
        before = kernels.cache_info()
        assert all(size > 0 for size in before.values()), before
        corpus.add(tiny_world.corpus.get(second))  # a new corpus epoch
        session._guard_corpus_epoch()
        # The first change retires nothing: the run used every entry.
        assert kernels.cache_info() == before
        corpus.add(tiny_world.corpus.get(held_back))  # no run in between
        session._guard_corpus_epoch()
        assert kernels.cache_info() == {
            "token_pairs": 0,
            "label_tokens": 0,
            "parsed_columns": 0,
            "value_pools": before["value_pools"],
            "attribute_scores": 0,
        }


# ---------------------------------------------------------------------------
# Blocking's per-call label universe and cache
# ---------------------------------------------------------------------------


class TestPerCallBlocking:
    def test_repeated_labels_search_once(self):
        records = [
            _record(1, "green day"),
            _record(2, "oasis"),
            _record(3, "green day"),
        ]
        reset_kernel_counters()
        blocks = build_blocks(records)
        counters = kernel_counters()
        assert counters.get("blocking.label_searches", 0) == 2
        assert counters.get("blocking.label_cache_hits", 0) == 1
        assert blocks[("t", 1)] == blocks[("t", 3)]

    def test_universe_is_the_records_labels(self):
        alone = build_blocks([_record(1, "green day")])
        assert next(iter(alone.values())) == frozenset({"green day"})
        grown = build_blocks([_record(1, "green day"), _record(2, "green days")])
        assert grown[("t", 1)] == frozenset({"green day", "green days"})

    def test_different_max_similar_narrows_blocks(self):
        records = [
            _record(1, "green day"),
            _record(2, "green days"),
            _record(3, "green daze"),
        ]
        wide = build_blocks(records, max_similar=3)
        narrow = build_blocks(records, max_similar=1)
        assert len(narrow[("t", 1)]) <= len(wide[("t", 1)])


# ---------------------------------------------------------------------------
# Kernel counters in the span log
# ---------------------------------------------------------------------------


class TestPerfHarness:
    def test_trace_summary_kernel_counters_match_run_delta(self, tiny_world):
        from repro.api import RunSession
        from repro.obs import trace_summary

        session = RunSession(tiny_world)
        baseline = kernel_counters()
        session.run("Song", trace=True)
        delta = counter_delta(baseline)
        summary = trace_summary(session.last_trace.events())
        assert summary["kernel_counters"] == delta
        assert delta.get("monge_elkan.pair_memo_misses", 0) > 0
