"""The six row similarity metrics (Section 3.2).

Every metric compares two :class:`~repro.matching.records.RowRecord` and
returns ``(score, confidence)`` with both in sensible ranges, or ``None``
when the metric cannot judge the pair (no overlapping values, no implicit
attributes).  The aggregation layer (see :mod:`repro.ml.aggregation`)
combines them into one normalized score.
"""

from __future__ import annotations

from typing import Mapping, Protocol

from repro.clustering.implicit import ImplicitAttribute, value_key
from repro.clustering.phi import PhiVectorizer
from repro.datatypes.similarity import TypedSimilarity
from repro.matching.records import RowRecord
from repro.perf.kernels import KernelCache
from repro.text.monge_elkan import label_similarity, monge_elkan_symmetric_memo
from repro.text.vectors import binary_cosine

#: Canonical metric names in the paper's aggregation order (Table 7).
ROW_METRIC_NAMES = (
    "LABEL", "BOW", "PHI", "ATTRIBUTE", "IMPLICIT_ATT", "SAME_TABLE",
)

MetricOutput = tuple[float, float] | None


class RowMetric(Protocol):
    """A row-pair similarity metric."""

    name: str

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        ...


class LabelMetric:
    """Monge-Elkan (Levenshtein inner) similarity of the row labels.

    Inner token-pair similarities route through a
    :class:`repro.perf.KernelCache` — pass the session's so every metric
    (and every run) reuses each token pair's similarity; without one the
    metric memoizes privately for its own lifetime.  The memo changes
    nothing but speed (values are pure and canonical-keyed).
    """

    name = "LABEL"

    def __init__(self, kernels: KernelCache | None = None) -> None:
        self._kernels = kernels if kernels is not None else KernelCache()

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        if a.label_tokens and b.label_tokens:
            return (
                monge_elkan_symmetric_memo(
                    a.label_tokens,
                    b.label_tokens,
                    self._kernels.token_sim,
                    self._kernels.retiring["token_sim"],
                ),
                1.0,
            )
        return label_similarity(a.norm_label, b.norm_label, self._kernels), 1.0


class BowMetric:
    """Cosine similarity of binary bag-of-words vectors over all cells."""

    name = "BOW"

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        return binary_cosine(a.tokens, b.tokens), 1.0


class PhiMetric:
    """Similarity of the two rows' *tables* via PHI label correlation."""

    name = "PHI"

    def __init__(self, vectorizer: PhiVectorizer) -> None:
        self._vectorizer = vectorizer
        self._cache: dict[tuple[str, str], float] = {}

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        key = (
            (a.table_id, b.table_id)
            if a.table_id <= b.table_id
            else (b.table_id, a.table_id)
        )
        if key not in self._cache:
            self._cache[key] = self._vectorizer.table_similarity(*key)
        similarity = self._cache[key]
        # PHI correlations live in [-1, 1]; clamp to the metric range.
        return max(0.0, similarity), 1.0


class AttributeMetric:
    """Agreement of values matched to the same knowledge base property.

    Overlapping value pairs are judged equal/unequal with the data-type
    similarity function; the score is the fraction of agreeing pairs and
    the confidence the number of pairs compared.  ``kernels`` memoizes
    the label similarity of text values.
    """

    name = "ATTRIBUTE"

    def __init__(
        self,
        similarities: Mapping[str, TypedSimilarity],
        kernels: KernelCache | None = None,
    ) -> None:
        self._similarities = similarities
        self._kernels = kernels

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        shared = a.values.keys() & b.values.keys()
        if not shared:
            return None
        agreeing = 0
        compared = 0
        for property_name in shared:
            similarity = self._similarities.get(property_name)
            if similarity is None:
                continue
            compared += 1
            if similarity.equal(
                a.values[property_name], b.values[property_name], self._kernels
            ):
                agreeing += 1
        if compared == 0:
            return None
        return agreeing / compared, float(compared)


class ImplicitAttMetric:
    """Agreement of implicit table attributes (and explicit counterparts).

    Each implicit attribute of one row's table is compared against the
    other row's implicit attributes or, failing that, its explicit matched
    value for the same property; the result is the confidence-weighted
    average agreement, with the summed confidences as metric confidence.
    """

    name = "IMPLICIT_ATT"

    def __init__(
        self, implicit_by_table: Mapping[str, Mapping[str, ImplicitAttribute]]
    ) -> None:
        self._implicit = implicit_by_table

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        pairs: list[tuple[float, float]] = []
        pairs.extend(self._directed(a, b))
        pairs.extend(self._directed(b, a))
        if not pairs:
            return None
        total_weight = sum(weight for __, weight in pairs)
        if total_weight == 0.0:
            return None
        score = sum(sim * weight for sim, weight in pairs) / total_weight
        return score, total_weight

    def _directed(
        self, source: RowRecord, target: RowRecord
    ) -> list[tuple[float, float]]:
        source_implicit = self._implicit.get(source.table_id, {})
        target_implicit = self._implicit.get(target.table_id, {})
        pairs: list[tuple[float, float]] = []
        for property_name, attribute in source_implicit.items():
            other = target_implicit.get(property_name)
            if other is not None:
                agreement = 1.0 if attribute.key == other.key else 0.0
                pairs.append((agreement, attribute.confidence * other.confidence))
            elif property_name in target.values:
                explicit_key = value_key(target.values[property_name])
                agreement = 1.0 if attribute.key == explicit_key else 0.0
                pairs.append((agreement, attribute.confidence))
        return pairs


class SameTableMetric:
    """Rows of one table usually describe different entities.

    Emits 0.0 for same-table pairs and 1.0 otherwise; the aggregation
    learns the (small) weight this signal deserves.
    """

    name = "SAME_TABLE"

    def compute(self, a: RowRecord, b: RowRecord) -> MetricOutput:
        return (0.0 if a.table_id == b.table_id else 1.0), 1.0
