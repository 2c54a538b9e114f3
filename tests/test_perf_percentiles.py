"""The exact nearest-rank percentile helper (`repro.perf.percentiles`).

Behind the service's ``GET /metrics`` latency report — the properties
here are the contract it relies on for small samples.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.perf import exact_percentile, percentile_summary

samples_strategy = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=60,
)

q_strategy = st.floats(min_value=0.0, max_value=100.0)


class TestExactPercentile:
    def test_known_small_samples(self):
        assert exact_percentile([1, 2, 3, 4], 50) == 2
        assert exact_percentile([1, 2, 3, 4], 75) == 3
        assert exact_percentile([1, 2, 3, 4], 76) == 4
        assert exact_percentile([4, 3, 2, 1], 100) == 4
        assert exact_percentile([4, 3, 2, 1], 0) == 1
        # p99 of 100 requests is the 99th-slowest, not an interpolation.
        latencies = list(range(1, 101))
        assert exact_percentile(latencies, 99) == 99
        assert exact_percentile(latencies, 99.1) == 100

    def test_singleton_is_every_percentile(self):
        for q in (0, 1, 50, 99, 100):
            assert exact_percentile([7.5], q) == 7.5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="non-empty"):
            exact_percentile([], 50)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            exact_percentile([1.0], 101)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            exact_percentile([1.0], -0.5)

    @given(samples=samples_strategy, q=q_strategy)
    def test_result_is_a_sample_element(self, samples, q):
        assert exact_percentile(samples, q) in samples

    @given(samples=samples_strategy, q1=q_strategy, q2=q_strategy)
    def test_monotone_in_q(self, samples, q1, q2):
        low, high = sorted((q1, q2))
        assert exact_percentile(samples, low) <= exact_percentile(samples, high)

    @given(samples=samples_strategy, q=q_strategy, seed=st.integers(0, 2**16))
    def test_permutation_invariant(self, samples, q, seed):
        import random

        shuffled = list(samples)
        random.Random(seed).shuffle(shuffled)
        assert exact_percentile(shuffled, q) == exact_percentile(samples, q)

    @given(samples=samples_strategy, q=q_strategy)
    def test_nearest_rank_definition(self, samples, q):
        """At least q% of the sample is <= the reported percentile, and
        the reported value is the smallest element achieving that."""
        value = exact_percentile(samples, q)
        required = max(1, math.ceil(q / 100.0 * len(samples)))
        at_most = sum(1 for sample in samples if sample <= value)
        assert at_most >= required
        smaller = [sample for sample in samples if sample < value]
        if smaller:
            below = max(smaller)
            assert sum(1 for sample in samples if sample <= below) < required

    @given(samples=samples_strategy)
    def test_extremes(self, samples):
        assert exact_percentile(samples, 0) == min(samples)
        assert exact_percentile(samples, 100) == max(samples)


class TestPercentileSummary:
    def test_empty_sample_is_none(self):
        assert percentile_summary([]) is None

    def test_shape_and_values(self):
        summary = percentile_summary([3.0, 1.0, 2.0])
        assert summary == {
            "count": 3,
            "mean": 2.0,
            "min": 1.0,
            "max": 3.0,
            "p50": 2.0,
            "p90": 3.0,
            "p99": 3.0,
        }

    def test_fractional_percentile_label(self):
        summary = percentile_summary([1.0, 2.0], percentiles=(99.9,))
        assert "p99_9" in summary

    @given(samples=samples_strategy)
    def test_consistent_with_exact_percentile(self, samples):
        summary = percentile_summary(samples)
        assert summary["count"] == len(samples)
        assert summary["p50"] == exact_percentile(samples, 50)
        assert summary["p99"] == exact_percentile(samples, 99)
        assert summary["min"] <= summary["p50"] <= summary["p99"] <= summary["max"]
