"""Exact percentiles on small samples.

The service layer reports request latencies on sample sets small enough
(hundreds to a few thousand requests) that interpolation artifacts would
dominate the tail.  The helper therefore implements the **nearest-rank**
definition: ``percentile(samples, q)`` is the smallest element such that
at least ``q`` percent of the sample is ≤ it.  Properties the hypothesis
suite pins down:

* the result is always an element of ``samples`` (never interpolated);
* ``q=0`` is the minimum, ``q=100`` the maximum;
* monotone in ``q`` and invariant under permutation of ``samples``;
* on a sample of ``n`` distinct values, ``q`` just above ``100·k/n``
  selects the ``(k+1)``-th order statistic — the exact small-sample
  semantics "p99 of 100 requests is the 99th-slowest" people expect.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

__all__ = ["exact_percentile", "percentile_summary"]


def exact_percentile(samples: Sequence[float] | Iterable[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sample.

    ``samples`` may be any iterable of numbers (it is sorted internally,
    the input is never mutated); ``q`` is in ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("exact_percentile needs a non-empty sample")
    # max(1, ...) guards two edges at once: q == 0 (the minimum by
    # definition) and tiny q where q/100*n underflows to 0.0, which would
    # otherwise index ordered[-1] and answer the *maximum*.
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_summary(
    samples: Sequence[float] | Iterable[float],
    percentiles: Sequence[float] = (50.0, 90.0, 99.0),
) -> Mapping[str, float] | None:
    """Count/mean/min/max plus the requested exact percentiles.

    The latency-report shape of ``GET /metrics`` (keys like ``p50`` /
    ``p99``; fractional percentiles render with an underscore:
    ``p99_9``).  ``None`` on an
    empty sample — an endpoint nobody hit has no latency distribution,
    and the callers render that as absence rather than zeros.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    summary: dict[str, float] = {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
    }
    for q in percentiles:
        label = f"{q:g}".replace(".", "_")
        summary[f"p{label}"] = exact_percentile(ordered, q)
    return summary
