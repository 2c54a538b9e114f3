"""The retrieve-then-rerank candidate layer (repro.retrieval).

Two contracts, each with its own suite:

* **Exact mode is the reference** — hypothesis holds
  ``LabelIndex.search`` (exact) identical to ``search_reference`` (the
  kept-verbatim scan) on random vocabularies, including when adds
  follow queries; the per-label norm memo is equality-checked against
  the fresh computation it replaces.
* **Fast mode is gated approximation** — a retriever grown by adds
  between queries matches a from-scratch rebuild, recall on the
  deterministic synthetic workloads meets the committed floor, and
  ``candidate_mode='fast'`` is refused unless a committed
  ``BENCH_retrieval.json`` gate passes.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.blocking import build_blocks
from repro.index.label_index import CANDIDATE_MODES, LabelIndex
from repro.kb import KBClass, KBInstance, KBSchema, KnowledgeBase
from repro.matching.records import RowRecord
from repro.perf.counters import kernel_counters, reset_kernel_counters
from repro.pipeline.pipeline import PipelineConfig
from repro.retrieval.gate import (
    ENV_BENCH_PATH,
    ENV_UNGATED,
    ensure_fast_mode_allowed,
)
from repro.retrieval.ngram import char_ngrams
from repro.text.tokenize import normalize_label, tokenize
from repro.text.vectors import term_vector

numpy = pytest.importorskip("numpy")

from repro.retrieval.topk import (  # noqa: E402 - needs numpy present
    HybridTopKRetriever,
    NgramTopKRetriever,
)

_token = st.text(alphabet="abcdef", min_size=1, max_size=6)
_label = st.lists(_token, min_size=1, max_size=4).map(" ".join)


def _matches(index: LabelIndex, query: str, limit: int, mode=None):
    return [
        (match.label, match.score, match.payloads)
        for match in index.search(query, limit, mode=mode)
    ]


def _reference(index: LabelIndex, query: str, limit: int):
    return [
        (match.label, match.score, match.payloads)
        for match in index.search_reference(query, limit)
    ]


# ---------------------------------------------------------------------------
# Exact mode ≡ the kept-verbatim reference scan
# ---------------------------------------------------------------------------


class TestExactModeEquivalence:
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


# ---------------------------------------------------------------------------
# The recall stage (growth by adds, determinism)
# ---------------------------------------------------------------------------


class TestTopKRetriever:
    def test_needs_numpy_error_is_descriptive(self, monkeypatch):
        import repro.retrieval.topk as topk_module

        monkeypatch.setattr(topk_module, "_np", None)
        with pytest.raises(RuntimeError, match="candidate_mode='exact'"):
            NgramTopKRetriever()
        assert not topk_module.numpy_available()

    def test_char_ngrams_padding_and_short_strings(self):
        grams = char_ngrams("ab")
        assert grams == {" ab": 1, "ab ": 1}
        assert char_ngrams("") == {}
        assert sum(char_ngrams("abc").values()) == len(" abc ") - 2

    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "query"]), _label),
            min_size=1,
            max_size=40,
        ),
        _label,
    )
    @settings(max_examples=100)
    def test_incremental_equals_rebuilt(self, operations, query):
        """Adds interleaved with queries (each query builds the derived
        arrays the next add outdates) match a from-scratch build on the
        same labels — full ranking, scores to float tolerance."""
        incremental = NgramTopKRetriever()
        live: list[str] = []
        for operation, label in operations:
            if operation == "add":
                incremental.add_label(label)
                if label and label not in live:
                    live.append(label)
            else:
                incremental.top_k(label, 3)
        fresh = NgramTopKRetriever()
        for label in live:
            fresh.add_label(label)
        assert len(incremental) == len(fresh) == len(live)
        assert sorted(incremental.labels()) == sorted(fresh.labels())
        incremental_ranking = incremental.top_k(query, len(live) + 1)
        fresh_ranking = fresh.top_k(query, len(live) + 1)
        assert [label for label, __ in incremental_ranking] == [
            label for label, __ in fresh_ranking
        ]
        for (__, a), (__, b) in zip(incremental_ranking, fresh_ranking):
            assert a == pytest.approx(b, abs=1e-9)

    def test_deterministic_tiebreak_by_label(self):
        retriever = NgramTopKRetriever()
        for label in ("zz twin", "aa twin", "mm twin"):
            retriever.add_label(label)
        top = retriever.top_k("twin", 3)
        scores = [score for __, score in top]
        assert scores[0] == pytest.approx(scores[1]) == pytest.approx(scores[2])
        assert [label for label, __ in top] == ["aa twin", "mm twin", "zz twin"]

    def test_hybrid_forwards_membership_and_mutations(self):
        hybrid = HybridTopKRetriever()
        hybrid.add_label("green day")
        assert "green day" in hybrid and len(hybrid) == 1
        assert hybrid.top_k("green days", 5)[0][0] == "green day"
        hybrid.add_label("green days")
        assert "green days" in hybrid and len(hybrid) == 2
        assert hybrid.token.labels() == hybrid.ngram.labels() == [
            "green day", "green days"
        ]
        assert hybrid.top_k("green days", 5)[0][0] == "green days"


# ---------------------------------------------------------------------------
# Fast mode: recall + counters + pickling
# ---------------------------------------------------------------------------


def _song_index(n: int = 300) -> LabelIndex:
    index = LabelIndex()
    for number in range(n):
        label = f"song number {number} by artist {number % 9}"
        if number % 7 == 0:
            label = label.replace("number", "numbre")
        index.add(label, number)
    return index


class TestFastMode:
    def test_recall_meets_floor_on_synthetic_workload(self):
        """Mean recall@10 of fast against exact on ~1.2k stem-skewed
        labels, queried clean and with a typo'd first token."""
        from repro.retrieval.gate import RECALL_FLOOR

        pool = (
            "station", "garden", "branch", "record", "valley", "market",
            "bridge", "harbor", "meadow", "turner", "walker", "fisher",
        )
        stems = [f"{pool[number % 12]}{number // 12}" for number in range(64)]
        labels = [
            f"{stems[number % 64]} {stems[(number // 64) % 64]} {number % 97}"
            for number in range(1200)
        ]
        index = LabelIndex()
        for label in labels:
            index.add(label, label)
        recalls = []
        for number in range(60):
            query = labels[(number * 37) % len(labels)]
            if number % 3 == 1:
                first, rest = query.split(" ", 1)
                position = number % max(1, len(first) - 1)
                query = f"{first[:position]}x{first[position + 1:]} {rest}"
            wanted = {match.label for match in index.search(query, 10)}
            recalled = {
                match.label for match in index.search(query, 10, mode="fast")
            }
            recalls.append(len(wanted & recalled) / len(wanted))
        assert sum(recalls) / len(recalls) >= RECALL_FLOOR

    def test_recalled_candidates_score_byte_identical_to_exact(self):
        index = _song_index()
        for query in (
            "song number 42 by artist 6",
            "sonng numbre 14 by artst 0",
            "artist 3",
        ):
            exact_scores = {
                match.label: match.score for match in index.search(query, 20)
            }
            for match in index.search(query, 20, mode="fast"):
                if match.label in exact_scores:
                    assert match.score == exact_scores[match.label]

    def test_fast_mode_bumps_retrieval_counters(self):
        index = _song_index(60)
        reset_kernel_counters()
        index.search("song number 7 by artist 7", 10, mode="fast")
        counters = kernel_counters()
        assert counters.get("retrieval.queries") == 1
        assert counters.get("retrieval.recall_candidates", 0) > 0
        assert counters.get("retrieval.rerank_survivors", 0) > 0
        assert counters.get("retrieval.token_scored", 0) > 0
        assert counters.get("retrieval.ngram_scored", 0) > 0

    def test_mode_validation(self):
        index = LabelIndex()
        index.add("green day", "p")
        with pytest.raises(ValueError, match="unknown candidate_mode"):
            index.search("green", 5, mode="weird")
        with pytest.raises(ValueError, match="unknown candidate_mode"):
            LabelIndex(candidate_mode="weird")
        assert CANDIDATE_MODES == ("exact", "fast")

    def test_default_mode_attribute_drives_search(self):
        index = _song_index(40)
        fast_default = LabelIndex(candidate_mode="fast")
        for label in index.labels():
            fast_default.add(label, label)
        query = "song number 3 by artist 3"
        assert [m.label for m in fast_default.search(query, 5)] == [
            m.label for m in index.search(query, 5, mode="fast")
        ]

    def test_pickle_drops_retriever_and_rebuilds(self):
        index = _song_index(50)
        index.search("song number 3 by artist 3", 5, mode="fast")
        assert index._retriever is not None
        clone = pickle.loads(pickle.dumps(index))
        assert clone._retriever is None
        assert clone._norm_cache == {}
        query = "song number 12 by artist 3"
        assert _matches(clone, query, 5, mode="fast") == _matches(
            index, query, 5, mode="fast"
        )

    def test_retriever_maintained_through_index_mutations(self):
        index = _song_index(40)
        index.search("song", 5, mode="fast")  # builds the recall stage
        index.add("brand new label entirely", "p")
        matches = index.search("brand new label entirely", 3, mode="fast")
        assert matches and matches[0].label == "brand new label entirely"


# ---------------------------------------------------------------------------
# The admission gate
# ---------------------------------------------------------------------------


def _write_gate_document(path, passed: bool, recall: float = 0.99):
    document = {
        "schema": "repro.bench.retrieval/v1",
        "benchmarks": {},
        "gate": {
            "recall_floor": 0.95,
            "min_speedup": 2.0,
            "recall_at_k": recall,
            "speedup": 3.0,
            "passed": passed,
        },
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


class TestFastModeGate:
    def test_broken_override_names_the_bad_path(self, tmp_path, monkeypatch):
        # A set-but-typo'd REPRO_RETRIEVAL_BENCH must not masquerade as
        # "no committed benchmark": the error names the bad path.
        monkeypatch.delenv(ENV_UNGATED, raising=False)
        missing = tmp_path / "missing.json"
        monkeypatch.setenv(ENV_BENCH_PATH, str(missing))
        with pytest.raises(ValueError, match="nonexistent path") as caught:
            ensure_fast_mode_allowed()
        assert str(missing) in str(caught.value)
        assert ENV_BENCH_PATH in str(caught.value)

    def test_refused_when_gate_failed(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_UNGATED, raising=False)
        document = _write_gate_document(
            tmp_path / "BENCH_retrieval.json", passed=False, recall=0.5
        )
        monkeypatch.setenv(ENV_BENCH_PATH, str(document))
        with pytest.raises(ValueError, match="did not pass"):
            ensure_fast_mode_allowed()

    def test_admitted_by_passing_document(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_UNGATED, raising=False)
        document = _write_gate_document(
            tmp_path / "BENCH_retrieval.json", passed=True
        )
        monkeypatch.setenv(ENV_BENCH_PATH, str(document))
        gate = ensure_fast_mode_allowed()
        assert gate["passed"] is True

    def test_ungated_escape_hatch(self, monkeypatch):
        monkeypatch.setenv(ENV_UNGATED, "1")
        assert ensure_fast_mode_allowed() == {"ungated": True}

    def test_pipeline_config_validates_and_gates(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_UNGATED, raising=False)
        with pytest.raises(ValueError, match="unknown candidate_mode"):
            PipelineConfig(candidate_mode="weird")
        assert PipelineConfig(candidate_mode=" EXACT ").candidate_mode == (
            "exact"
        )
        failing = _write_gate_document(
            tmp_path / "failing.json", passed=False, recall=0.5
        )
        monkeypatch.setenv(ENV_BENCH_PATH, str(failing))
        with pytest.raises(ValueError, match="did not pass"):
            PipelineConfig(candidate_mode="fast")
        passing = _write_gate_document(tmp_path / "passing.json", passed=True)
        monkeypatch.setenv(ENV_BENCH_PATH, str(passing))
        assert PipelineConfig(candidate_mode="fast").candidate_mode == "fast"

    def test_candidate_mode_changes_config_hash(self, monkeypatch):
        from repro.api import config_hash

        monkeypatch.setenv(ENV_UNGATED, "1")
        exact = PipelineConfig(candidate_mode="exact")
        fast = PipelineConfig(candidate_mode="fast")
        assert config_hash(exact) != config_hash(fast)


# ---------------------------------------------------------------------------
# Mode threading through the consumers
# ---------------------------------------------------------------------------


def _record(number: int, label: str) -> RowRecord:
    norm = normalize_label(label)
    return RowRecord(
        row_id=(f"t{number}", 0),
        table_id=f"t{number}",
        label=label,
        norm_label=norm,
        tokens=term_vector([label]),
        values={},
        label_tokens=tuple(tokenize(norm)),
    )


class TestModeThreading:
    def test_kb_search_cache_is_mode_keyed(self):
        schema = KBSchema()
        schema.add_class(KBClass("Thing"))
        kb = KnowledgeBase(schema)
        for number in range(30):
            kb.add_instance(
                KBInstance(
                    f"kb:i{number}", "Thing", (f"entity number {number}",)
                )
            )
        exact = kb.label_matches("entity number 3", 5)
        fast = kb.label_matches("entity number 3", 5, mode="fast")
        keys = set(kb._search_cache)
        assert ("entity number 3", 5, "exact") in keys
        assert ("entity number 3", 5, "fast") in keys
        assert [m.label for m in exact] == [m.label for m in fast]
        assert kb.candidates_by_label("entity number 3", 5, mode="fast")

    def test_blocking_fast_mode_matches_exact_on_clean_labels(self):
        records = [_record(n, f"entity number {n}") for n in range(25)]
        exact_blocks = build_blocks(records, 4)
        fast_blocks = build_blocks(records, 4, candidate_mode="fast")
        assert fast_blocks == exact_blocks
