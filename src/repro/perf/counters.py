"""Process-wide kernel counters (calls, cache hits, early exits).

The similarity kernels are called millions of times per run, far too
often to time individually — instead they *count*: every optimized code
path bumps a named counter, and the perf harness reads the deltas.  The
registry is one flat ``dict[str, int]`` behind three functions, which
keeps a bump to a single dict operation on the hot paths.

Counter names are dotted ``<kernel>.<event>`` strings, e.g.
``levenshtein_within.band_exceeded`` or ``similar_tokens.delete_hits``;
the full inventory lives in ``docs/architecture.md`` ("Performance").

Counters are per-process, and the pipeline runs all of its work in the
process that drives it, so a run's counts cover all of its work.
:func:`bump` is a plain read-modify-write, so it is not safe against
concurrent threads; the pipeline bumps from one thread per process.
"""

from __future__ import annotations

__all__ = ["bump", "kernel_counters", "reset_kernel_counters", "counter_delta"]

_COUNTERS: dict[str, int] = {}


def bump(name: str, amount: int = 1) -> None:
    """Increment one counter (creating it at zero)."""
    _COUNTERS[name] = _COUNTERS.get(name, 0) + amount


def kernel_counters() -> dict[str, int]:
    """A snapshot of every counter (a copy; safe to hold)."""
    return dict(_COUNTERS)


def reset_kernel_counters() -> None:
    """Zero the registry (benchmarks isolate measurements with this)."""
    _COUNTERS.clear()


def counter_delta(
    baseline: dict[str, int], current: dict[str, int] | None = None
) -> dict[str, int]:
    """Counters accumulated since ``baseline`` (non-zero entries only)."""
    if current is None:
        current = kernel_counters()
    delta = {}
    for name, value in current.items():
        grown = value - baseline.get(name, 0)
        if grown:
            delta[name] = grown
    return delta
