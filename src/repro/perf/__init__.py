"""The kernel optimization layer.

Three pieces:

* :mod:`repro.perf.counters` — process-wide kernel counters (calls,
  cache hits, early exits) the optimized kernels bump on their hot
  paths; the tracing observer attaches their per-stage deltas to the
  run's span log, which ``repro run --json`` and ``/metrics`` sum.
* :mod:`repro.perf.kernels` — :class:`KernelCache`, the session-scoped
  memo bundle (token-pair similarities + registered row-pair caches)
  cleared at the corpus-epoch guard.
* :mod:`repro.perf.percentiles` — exact nearest-rank percentiles for
  the small latency samples the service's ``GET /metrics`` reports.

The speed claims of the optimized kernels are measured by
``benchmarks/bench_kernels.py``; end-to-end timings come from the
``perfbench/`` harness.
"""

from repro.perf.counters import (
    bump,
    counter_delta,
    kernel_counters,
    reset_kernel_counters,
)
from repro.perf.kernels import KernelCache
from repro.perf.percentiles import exact_percentile, percentile_summary

__all__ = [
    "KernelCache",
    "bump",
    "counter_delta",
    "exact_percentile",
    "kernel_counters",
    "percentile_summary",
    "reset_kernel_counters",
]
