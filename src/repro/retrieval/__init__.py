"""Retrieve-then-rerank candidate generation (the recall layer).

Candidate retrieval used to be exact-scan shaped: every query scored
every label sharing a token.  This package adds the cheap *recall*
stage of a two-phase retrieve-then-rerank pipeline — a vectorized
char-ngram TF-IDF top-k retriever (:class:`NgramTopKRetriever`) whose
survivors are re-scored by the existing exact kernels — behind the
``candidate_mode`` knob:

* ``exact`` (the default) — the candidate set is provably identical to
  the full scan; golden fixtures stay byte-identical.
* ``fast`` — top-k recall with a measured recall floor.  Refused unless
  the committed ``BENCH_retrieval.json`` gate passes
  (:func:`ensure_fast_mode_allowed`), so approximation never lands
  silently.

The exact scans are kept verbatim as reference oracles
(``LabelIndex.search_reference``), which the tests hold the exact path
identical to.  That makes every recall-stage miss measurable:
``benchmarks/bench_retrieval.py`` reports fast mode's recall@k against
the exact path and is the only writer of the document the gate reads.
"""

from repro.retrieval.gate import (
    RECALL_FLOOR,
    RETRIEVAL_BENCH_FILE,
    ensure_fast_mode_allowed,
    find_retrieval_baseline,
    load_retrieval_baseline,
)
from repro.index.label_index import CANDIDATE_MODES
from repro.retrieval.ngram import char_ngrams
from repro.retrieval.topk import (
    HybridTopKRetriever,
    NgramTopKRetriever,
    TokenTopKRetriever,
    numpy_available,
)

__all__ = [
    "CANDIDATE_MODES",
    "HybridTopKRetriever",
    "NgramTopKRetriever",
    "RECALL_FLOOR",
    "RETRIEVAL_BENCH_FILE",
    "TokenTopKRetriever",
    "char_ngrams",
    "ensure_fast_mode_allowed",
    "find_retrieval_baseline",
    "load_retrieval_baseline",
    "numpy_available",
]
