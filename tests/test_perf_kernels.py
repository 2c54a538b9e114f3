"""The similarity-kernel optimization layer (repro.perf + fast kernels).

The contract of every optimization in this layer is *exactness*: the
fast path must reproduce its reference byte for byte.  The hypothesis
suites here hold that under adversarial inputs — random vocabularies
with mutation sequences for the deletion-neighborhood fuzzy index, and
random token lists for the memoized Monge-Elkan — plus unit coverage of
the perf plumbing (counters, KernelCache, the kernel counters a run's
span log carries, and the generation-keyed block cache).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.clustering.blocking import build_blocks
from repro.clustering.metrics import BowMetric, LabelMetric
from repro.clustering.similarity import RowSimilarity
from repro.corpus.indexing import CorpusLabelIndex
from repro.index.inverted import InvertedIndex
from repro.index.label_index import LabelIndex
from repro.matching.records import RowRecord
from repro.ml.aggregation import StaticWeightedAggregator
from repro.perf import (
    KernelCache,
    bump,
    counter_delta,
    kernel_counters,
    reset_kernel_counters,
)
from repro.text.tokenize import normalize_label, tokenize
from repro.text.vectors import term_vector
from repro.webtables.table import WebTable

# ---------------------------------------------------------------------------
# Deletion-neighborhood fuzzy expansion ≡ the prefix-bucket scan
# ---------------------------------------------------------------------------

_token = st.text(alphabet="abcde", min_size=1, max_size=8)


class TestSimilarTokensEquivalence:
    @given(
        st.lists(st.lists(_token, min_size=1, max_size=5), min_size=1, max_size=12),
        st.lists(_token, min_size=1, max_size=20),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_equivalent_over_random_vocabularies(self, documents, queries, k):
        index = InvertedIndex()
        for doc_id, tokens in enumerate(documents):
            index.add(doc_id, tokens)
        for query in queries:
            assert index.similar_tokens(query, k) == (
                index.similar_tokens_reference(query, k)
            )

    @given(
        st.lists(st.lists(_token, min_size=1, max_size=4), min_size=2, max_size=10),
        st.lists(
            st.tuples(st.sampled_from(["remove", "replace", "readd"]),
                      st.integers(min_value=0, max_value=9),
                      st.lists(_token, min_size=1, max_size=4)),
            max_size=8,
        ),
        st.lists(_token, min_size=1, max_size=10),
    )
    @settings(max_examples=100)
    def test_equivalent_after_mutations(self, documents, mutations, queries):
        """The delete-neighborhood map is maintained through remove/replace."""
        index = InvertedIndex()
        live = {}
        for doc_id, tokens in enumerate(documents):
            index.add(doc_id, tokens)
            live[doc_id] = tokens
        for operation, position, tokens in mutations:
            if not live:
                break
            doc_id = sorted(live)[position % len(live)]
            if operation == "remove":
                index.remove(doc_id)
                del live[doc_id]
            elif operation == "replace":
                index.add_or_replace(doc_id, tokens)
                live[doc_id] = tokens
            else:
                index.add(doc_id, live[doc_id])  # idempotent re-add
        for query in queries:
            for k in (0, 1, 2):
                assert index.similar_tokens(query, k) == (
                    index.similar_tokens_reference(query, k)
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
    memo = kernels.token_sim if kernels is not None else None
    return RowSimilarity(
        [LabelMetric(memo=memo), BowMetric()],
        StaticWeightedAggregator({"LABEL": 0.7, "BOW": 0.3}, threshold=0.6),
    )


class TestKernelCache:
    def test_register_and_clear_drops_pair_caches_and_memo(self):
        kernels = KernelCache()
        similarity = kernels.register(_similarity(kernels))
        similarity.score(_record(1, "green day"), _record(2, "green days"))
        assert kernels.cache_info()["token_pairs"] > 0
        assert kernels.cache_info()["pair_scores"] == 1
        kernels.clear()
        assert kernels.cache_info()["token_pairs"] == 0
        assert kernels.cache_info()["pair_scores"] == 0
        assert similarity.cache_info() == {"entries": 0, "hits": 0, "misses": 0}

    def test_shared_memo_changes_nothing_but_speed(self):
        kernels = KernelCache()
        shared = kernels.register(_similarity(kernels))
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

    def test_label_metric_pickles_without_its_memo(self):
        import pickle

        kernels = KernelCache()
        metric = LabelMetric(memo=kernels.token_sim)
        metric.compute(_record(1, "green day"), _record(2, "green days"))
        assert kernels.token_sim  # the memo filled
        clone = pickle.loads(pickle.dumps(metric))
        assert clone._memo == {}  # workers start cold, not with the session memo
        # and the clone still scores identically
        a, b = _record(1, "green day"), _record(2, "green days")
        assert clone.compute(a, b) == metric.compute(a, b)


class TestSessionWiring:
    # Serial executor throughout: process-pool workers keep their kernel
    # memos (and counters) to themselves, so the main-process numbers
    # these tests assert on are only guaranteed in-process.

    def test_session_clear_cache_clears_kernels(self, tiny_world):
        from repro.api import RunSession

        session = RunSession(tiny_world)
        session.run("Song", executor="serial")
        assert session.kernels.cache_info()["token_pairs"] > 0
        session.clear_cache()
        assert session.kernels.cache_info()["token_pairs"] == 0

    def test_runs_share_the_session_token_memo(self, tiny_world):
        from repro.api import RunSession

        session = RunSession(tiny_world)
        session.run("Song", executor="serial")
        first = session.kernels.cache_info()["token_pairs"]
        assert first > 0
        session.run("Settlement", executor="serial")
        assert session.kernels.cache_info()["token_pairs"] >= first


# ---------------------------------------------------------------------------
# Generation-keyed per-label block cache
# ---------------------------------------------------------------------------


def _label_table(table_id, labels):
    return WebTable(
        table_id=table_id,
        header=("name", "year"),
        rows=[(label, str(2000 + i)) for i, label in enumerate(labels)],
        url=f"http://example.test/{table_id}",
    )


class TestBlockCacheGeneration:
    def test_generation_bumps_on_mutation(self):
        index = LabelIndex()
        generation = index.generation
        index.add("John Smith", "u1")
        assert index.generation > generation
        generation = index.generation
        index.remove("John Smith", "u1")
        assert index.generation > generation

    def test_blank_label_add_keeps_generation(self):
        index = LabelIndex()
        generation = index.generation
        index.add("   ", "u1")
        assert index.generation == generation

    def test_corpus_label_index_exposes_generation(self):
        index = CorpusLabelIndex()
        generation = index.generation
        index.add_table(_label_table("t1", ["green day", "oasis"]))
        assert index.generation > generation

    def test_unchanged_index_serves_blocks_from_cache(self):
        index = CorpusLabelIndex()
        index.add_table(_label_table("t1", ["green day", "green days", "oasis"]))
        records = [_record(1, "green day"), _record(2, "oasis")]
        reset_kernel_counters()
        first = build_blocks(records, index=index)
        searched_first = kernel_counters().get("blocking.label_searches", 0)
        assert searched_first == 2
        second = build_blocks(records, index=index)
        after = kernel_counters()
        assert after.get("blocking.label_searches", 0) == searched_first
        assert after.get("blocking.label_cache_hits", 0) >= 2
        assert second == first

    def test_mutated_index_recomputes_blocks(self):
        index = CorpusLabelIndex()
        index.add_table(_label_table("t1", ["green day"]))
        records = [_record(1, "green day")]
        first = build_blocks(records, index=index)
        index.add_table(_label_table("t2", ["green days"]))
        second = build_blocks(records, index=index)
        assert "green days" in next(iter(second.values()))
        assert first != second

    def test_different_max_similar_does_not_share_cache(self):
        index = CorpusLabelIndex()
        index.add_table(
            _label_table("t1", ["green day", "green days", "green daze"])
        )
        records = [_record(1, "green day")]
        wide = build_blocks(records, max_similar=3, index=index)
        narrow = build_blocks(records, max_similar=1, index=index)
        assert len(next(iter(narrow.values()))) <= len(next(iter(wide.values())))


# ---------------------------------------------------------------------------
# Kernel counters in the span log
# ---------------------------------------------------------------------------


class TestPerfHarness:
    def test_trace_summary_kernel_counters_match_run_delta(self, tiny_world):
        from repro.api import RunSession
        from repro.obs import trace_summary

        session = RunSession(tiny_world)
        baseline = kernel_counters()
        session.run("Song", executor="serial", trace=True)
        delta = counter_delta(baseline)
        summary = trace_summary(session.last_trace.events())
        assert summary["kernel_counters"] == delta
        assert delta.get("monge_elkan.pair_memo_misses", 0) > 0
