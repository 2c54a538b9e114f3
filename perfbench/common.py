"""Shared helpers: checkout paths, the pinned environment, statistics.

The benchmark runs from the root of a checkout and builds nothing: the
program is the pure-Python package under ``src/``.  Everything the
benchmark writes goes under ``.bench_out/`` in the same checkout.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Environment variables that would silently change how the program runs
#: (executor backend, pool size, armed faults, queue spool).  They are
#: removed from the benchmark process and from every service subprocess;
#: the settings below are passed explicitly instead.
PINNED_ENV = ("REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_FAULTS", "REPRO_QUEUE_DIR")
EXECUTOR = "serial"
WORKERS = 1
CANDIDATE_MODE = "exact"

#: Percentiles considered for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class GateFailure(Exception):
    """A correctness gate tripped: the run fails, no metric is reported."""


def prepare_environment() -> None:
    """Drop the pinned variables and make ``src/`` importable.

    Raises :class:`SystemExit` when the checkout holds no program, so the
    benchmark fails without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pin_cpu()


def pin_cpu() -> int:
    """Pin this process to one CPU, the highest it may use.

    Called before any thread starts, so every thread of the benchmark and
    every process it starts (the service) inherit the same single CPU,
    and the speed gauge times the CPU the measured work runs on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def service_env() -> dict[str, str]:
    """Environment for a service subprocess: pinned, with ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def pipeline_config():
    """The one pipeline configuration every workload runs with."""
    from repro.pipeline.pipeline import PipelineConfig

    return PipelineConfig(
        executor=EXECUTOR, workers=WORKERS, candidate_mode=CANDIDATE_MODE
    )


def environment_record() -> dict:
    return {
        "cpus": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "executor": EXECUTOR,
        "workers": WORKERS,
        "candidate_mode": CANDIDATE_MODE,
    }


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``inf`` entries allowed)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[high] == ordered[low]:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` with fewer than twenty
    samples (not even the median has ten beyond it).
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, percentile(values, p)
    return None


def timing_summary(values, unit: str) -> dict:
    """Median plus tail, with the sample count, of one timing series."""
    summary = {"unit": unit, "samples": len(values), "p50": median(values)}
    found = tail(values)
    if found is not None:
        summary["tail_percentile"], summary["tail"] = found
    return summary


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a running child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def declared_metrics() -> dict:
    """``end_to_end`` and ``per_layer`` declarations from BENCHMARK.json."""
    document = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m for m in document["end_to_end"]},
        "per_layer": {m["name"]: m for m in document["per_layer"]},
        "workloads": [w["name"] for w in document["workloads"]],
    }


def log(message: str) -> None:
    """Progress and human-readable figures go to stderr."""
    print(message, file=sys.stderr, flush=True)
