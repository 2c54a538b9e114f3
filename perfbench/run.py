"""The repository's benchmark: batch extraction, incremental refresh, served reads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-core --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --workload serve-read --trace 1   # per-layer metrics

Human-readable figures go to stderr.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A tripped correctness gate exits
with status 1 and prints no result.  ``--workload all`` prints one such
line per workload.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("batch-core", "refresh-longtail", "serve-read")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms": "ms"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import batch
    import gauge
    import service

    spans_file = None
    if trace:
        common.OUT.mkdir(parents=True, exist_ok=True)
        spans_file = common.OUT / f"spans-{name}-seed{seed}.ndjson"
    gauge.start()
    try:
        if name == "batch-core":
            report = batch.run_traced(seed, seconds, spans_file) if trace else batch.run(seed, seconds)
        elif name == "refresh-longtail":
            report = service.refresh_longtail(seed, seconds, spans_file)
        else:
            report = service.serve_read(seed, seconds, spans_file)
        report["gauge"] = gauge.active().summary()
        return report
    finally:
        gauge.stop()


def end_to_end(report: dict) -> dict:
    """Reduce a workload's raw series to the declared end-to-end metrics."""
    raw = report["metrics"]
    values = {
        "setup_s": common.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_ms": raw["op_ms"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(report: dict) -> dict:
    import layers

    return {
        name: {"value": value, "unit": layers.UNITS[name]}
        for name, value in report["per_layer"].items()
    }


def human_summary(report: dict, metrics: dict) -> None:
    common.log(f"== {report['workload']}  gate: {report['gate']['gate']}  "
               f"attempted {report['attempted']}  failed {report['failed']}")
    common.log(f"   environment {json.dumps(common.environment_record())}")
    common.log(f"   inputs {json.dumps(report['inputs'])}")
    common.log(f"   speed gauge {json.dumps(report['gauge'])}")
    if "metrics" in report:
        common.log(f"   op = {report['op']}: {json.dumps(report['op_summary'])}")
        common.log(f"   setup runs: {len(report['metrics']['setup_s'])}")
    for label, stats in report.get("phases", {}).items():
        common.log(f"   reads {label}: {json.dumps(stats)}")
    if "read_max_rps" in report:
        common.log(f"   read_max_rps = {report['read_max_rps']} 1/s")
    for name, metric in metrics.items():
        common.log(f"   {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the service it started: the
    # exit runs every pending ``finally``.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    common.prepare_environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except common.GateFailure as failure:
            common.log(f"correctness gate failed on {name}: {failure}")
            return 1
        metrics = per_layer(report) if args.trace else end_to_end(report)
        human_summary(report, metrics)
        print(json.dumps({
            "correct": True,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
