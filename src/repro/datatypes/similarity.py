"""Per-type value similarity functions and equivalence thresholds.

Each data type carries a similarity function and an equivalence threshold
used to decide whether two values are equal (Section 3.1).  The quantity
tolerance is expressed relative to the magnitude of the compared values and
is learnable per property (the paper's "learned tolerance range",
Section 4.2); the default matches the pipeline-wide setting used when no
per-property tolerance has been learned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.datatypes.types import DataType
from repro.datatypes.values import DateValue
from repro.text.monge_elkan import label_similarity
from repro.text.tokenize import normalize_label

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perf.kernels import KernelCache

#: Default equivalence thresholds per data type.
DEFAULT_THRESHOLDS: dict[DataType, float] = {
    DataType.TEXT: 0.85,
    DataType.NOMINAL_STRING: 1.0,
    DataType.INSTANCE_REFERENCE: 0.85,
    DataType.DATE: 1.0,
    DataType.QUANTITY: 0.95,
    DataType.NOMINAL_INTEGER: 1.0,
}

#: Default relative tolerance for quantity comparison: values within 5% of
#: each other's magnitude score above the 0.95 equivalence threshold.
DEFAULT_QUANTITY_TOLERANCE = 0.05


def _quantity_similarity(a: float, b: float) -> float:
    """Relative-closeness similarity: 1 at equality, 0 at 100% deviation."""
    if a == b:
        return 1.0
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / scale)


def _date_similarity(a: DateValue, b: DateValue) -> float:
    """Binary date similarity at the coarser granularity of the two values.

    A year-granular value equals any day-granular value of the same year;
    two day-granular values must agree on the full date.
    """
    if a.year != b.year:
        return 0.0
    if a.is_day_granular and b.is_day_granular:
        return 1.0 if (a.month, a.day) == (b.month, b.day) else 0.0
    return 1.0


@dataclass(frozen=True)
class TypedSimilarity:
    """Similarity + equivalence decision for one data type.

    ``tolerance`` only affects ``QUANTITY``: it widens the equivalence band
    by lowering the effective threshold to ``1 - tolerance``.

    The ``kernels`` argument of :meth:`similarity` and :meth:`equal` (a
    session's :class:`repro.perf.KernelCache`) memoizes the label
    similarity of ``TEXT`` and ``INSTANCE_REFERENCE`` values; it changes
    no result.
    """

    data_type: DataType
    tolerance: float = DEFAULT_QUANTITY_TOLERANCE

    def similarity(self, a, b, kernels: "KernelCache | None" = None) -> float:
        """Similarity of two already-normalized values, in [0, 1]."""
        data_type = self.data_type
        if data_type is DataType.TEXT or data_type is DataType.INSTANCE_REFERENCE:
            return label_similarity(str(a), str(b), kernels)
        if data_type is DataType.NOMINAL_STRING:
            return 1.0 if normalize_label(str(a)) == normalize_label(str(b)) else 0.0
        if data_type is DataType.NOMINAL_INTEGER:
            return 1.0 if int(a) == int(b) else 0.0
        if data_type is DataType.QUANTITY:
            return _quantity_similarity(float(a), float(b))
        if data_type is DataType.DATE:
            return _date_similarity(a, b)
        raise ValueError(f"unknown data type: {data_type}")

    def equal(self, a, b, kernels: "KernelCache | None" = None) -> bool:
        """Whether two normalized values count as the same value."""
        threshold = DEFAULT_THRESHOLDS[self.data_type]
        if self.data_type is DataType.QUANTITY:
            threshold = 1.0 - self.tolerance
        return self.similarity(a, b, kernels) >= threshold


def value_similarity(data_type: DataType, a, b) -> float:
    """Convenience wrapper: similarity under the type's default settings."""
    return TypedSimilarity(data_type).similarity(a, b)


def values_equal(data_type: DataType, a, b) -> bool:
    """Convenience wrapper: equivalence under the type's default settings."""
    return TypedSimilarity(data_type).equal(a, b)
