"""Deterministic fault injection (see :mod:`repro.faults.registry`)."""

from repro.faults.registry import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    POINTS,
    arm,
    armed,
    check,
    current_plan,
    disarm,
    fault_stats,
    parse_spec,
)

__all__ = [
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "POINTS",
    "arm",
    "armed",
    "check",
    "current_plan",
    "disarm",
    "fault_stats",
    "parse_spec",
]
