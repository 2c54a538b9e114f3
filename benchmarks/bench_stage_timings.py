"""Benchmark: per-stage wall time of a default pipeline run.

Sums the stage spans of the run's trace, so the reported split is
exactly what ``repro run --json`` and the service's ``/metrics`` report.
"""

from repro.obs import trace_summary
from repro.pipeline.stages import DEFAULT_STAGE_NAMES


def test_stage_timings(benchmark, env):
    def run_traced():
        result = env.session.run("Song", use_cache=False, trace=True)
        return trace_summary(env.session.last_trace.events()), result

    timings, result = benchmark.pedantic(run_traced, rounds=1, iterations=1)
    print()
    for name, seconds in timings["stage_seconds"].items():
        print(f"{name:<12}  {seconds:8.3f}s")
    assert set(timings["stage_seconds"]) == set(DEFAULT_STAGE_NAMES)
    assert result.final.entities
