"""Self-checks of the benchmark itself, on small inputs.

Run from the root of a checkout: ``python3 perfbench/selfcheck.py``
(about a minute on 2 CPUs).  It checks that

* a small pass of every workload, untraced and traced, prints exactly the
  metric names ``BENCHMARK.json`` declares;
* the correctness gates trip on a tampered digest (``batch-core``), on
  altered served bytes (``serve-read``, ``refresh-longtail``);
* ``loadgen.late_ms`` grows when the load generator is stalled on purpose.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

SEED = 3
SECONDS = 2.0


def shrink() -> None:
    """Small inputs and a single set-up, so every check runs quickly."""
    import batch
    import inputs
    import service

    inputs.WORLD_SCALE = 0.1
    inputs.ROW_BUDGET = {"Song": 40, "Settlement": 20, "GridironFootballPlayer": 30, None: 10}
    inputs.INPUTS_VERSION = "selfcheck"
    batch.SETUPS = 1
    service.SERVE_SETUPS = service.REFRESH_SETUPS = 1
    service.FILLER_TABLES = 100
    service.CYCLE_SECONDS = 1.0


def expect_gate_failure(label: str, action) -> bool:
    try:
        action()
    except common.GateFailure as failure:
        common.log(f"ok: {label} trips the gate ({str(failure)[:120]})")
        return True
    common.log(f"FAIL: {label} did not trip the gate")
    return False


def check_names(label: str, got, declared) -> bool:
    if set(got) == set(declared):
        common.log(f"ok: {label} prints the {len(declared)} declared names")
        return True
    common.log(f"FAIL: {label}: missing {sorted(set(declared) - set(got))}, "
               f"undeclared {sorted(set(got) - set(declared))}")
    return False


def tamper_point_lookup(outcomes) -> None:
    for outcome in outcomes:
        if outcome.request.expect_id:
            outcome.body = outcome.body.replace(
                outcome.request.expect_id.encode("utf-8"), b"tampered", 1
            )
            return
    raise AssertionError("no point lookup to tamper with")


def tamper_canonical(served: dict) -> dict:
    name = sorted(served)[0]
    blob = served[name]
    return {**served, name: blob[:-2] + bytes([blob[-2] ^ 1]) + blob[-1:]}


def stalled_late_ms(stall_seconds: float) -> float:
    import loadgen
    import service

    svc, *_ = service.set_up(
        SEED, 1, common.OUT / "selfcheck-stall", lambda w: (w.tables, None), None
    )
    try:
        pick = service.list_picker()
        plan = loadgen.schedule(20, 2.0, pick, SEED)
        stall = loadgen.StallPlan(0.5, stall_seconds) if stall_seconds else None
        outcomes = loadgen.run(svc.host, svc.port, plan, stall=stall)
    finally:
        svc.stop()
    return service.read_stats(outcomes)["late_ms"]


def main() -> int:
    common.prepare_environment()
    shrink()
    import batch
    import gauge
    import run
    import service

    declared = common.declared_metrics()
    results = [check_names("workload list", run.WORKLOADS, declared["workloads"])]
    for name in run.WORKLOADS:
        report = run.run_workload(name, SEED, SECONDS, trace=False)
        results.append(check_names(f"{name} untraced", run.end_to_end(report), declared["end_to_end"]))
        report = run.run_workload(name, SEED, SECONDS, trace=True)
        results.append(check_names(f"{name} traced", report["per_layer"], declared["per_layer"]))
    # The direct workload calls below need the speed gauge running.
    gauge.start()
    wrong = {name: "0" * 64 for name in batch.inputs.CLASSES}
    results.append(expect_gate_failure(
        "batch-core with a tampered digest",
        lambda: batch.run(SEED, 0.0, expected_override=wrong),
    ))
    results.append(expect_gate_failure(
        "serve-read with an altered point-lookup body",
        lambda: service.serve_read(SEED, SECONDS, tamper=tamper_point_lookup),
    ))
    results.append(expect_gate_failure(
        "refresh-longtail with altered canonical bytes",
        lambda: service.refresh_longtail(SEED, SECONDS, tamper=tamper_canonical),
    ))
    calm, stalled = stalled_late_ms(0.0), stalled_late_ms(1.0)
    grew = stalled > calm + 50.0
    common.log(f"{'ok' if grew else 'FAIL'}: loadgen.late_ms {calm:.2f} ms calm, "
               f"{stalled:.2f} ms with a 1 s generator stall")
    results.append(grew)
    common.log(f"{sum(results)}/{len(results)} self-checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
