"""Deterministic fault injection for the hot I/O boundaries.

Crash-recovery code is only trustworthy if every failure path can be
*provoked on demand*: a journal resume that has never seen a dead
writer thread, or a transaction rollback that has never seen an
interrupted writer, is dead code with a comforting name.  This module
is the one switchboard for provoking those failures — a registry of **named
injection points** compiled into the production code paths
(:data:`POINTS` is the authoritative inventory), armed by an explicit
plan so the same failure reproduces exactly, run after run.

Usage, production side (one line per boundary)::

    from repro import faults
    ...
    faults.check("artifacts.put")   # inside the put's transaction

A disarmed check is a few attribute loads — there is no plan object to
consult, so shipping the checks costs nothing.

Usage, test/operator side::

    REPRO_FAULTS="corpus.shard_write:crash@2" repro ingest ...

or in-process::

    with faults.armed("artifacts.put:raise@1"):
        ...

Arming sources, later wins: the ``REPRO_FAULTS`` environment variable
(read once, by :func:`current_plan` — the CLI calls it before any
command runs, other processes at their first check; subprocesses
inherit it, which is how the chaos suite kills real ``repro serve`` /
``repro ingest`` processes at exact points), then :func:`arm` /
:func:`armed`; ``with armed(spec):`` around a
:meth:`~repro.api.RunSession.run` call arms a plan for that run only.

Spec grammar (one rule)::

    spec   := point ":" action ["@" N]
    action := "crash" | "raise"
    N      := integer >= 1                        (default: 1)

The rule fires on the ``N``-th hit of ``point`` and on no other.
``crash`` kills the process with SIGKILL (``os._exit`` where signals
are unavailable) — no cleanup handlers, no flushes: the honest model of
power loss.  ``raise`` raises :class:`FaultInjected` (kills only the
calling thread — how the tests simulate a dead service writer without
killing pytest).
"""

from __future__ import annotations

import os
import re
import signal
import sys
import threading

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

#: Environment variable carrying a fault spec for this process tree.
FAULTS_ENV = "REPRO_FAULTS"

ACTIONS = ("crash", "raise")

#: The accepted spec form, quoted by every rejection.
GRAMMAR = "point:action[@N] with action 'crash' or 'raise' and N >= 1"

_RULE = re.compile(r"(?P<point>[^:@]+):(?P<action>[^:@]+)(?:@(?P<hit>[0-9]+))?")

#: The authoritative injection-point inventory: every ``check()`` call
#: site is listed here, and the spec parser rejects unknown names — a
#: typo in a chaos matrix must fail loudly, not silently never fire.
POINTS: dict[str, str] = {
    "corpus.shard_write": (
        "CorpusStore shard write, before the shard transaction "
        "commits (a crash loses this shard's writes, never corrupts them)"
    ),
    "artifacts.put": (
        "ArtifactStore.put inside its transaction, after the row's "
        "INSERT and before COMMIT (a crash or raise leaves no row)"
    ),
    "serve.writer": (
        "KBService writer loop, after dequeuing a job and before "
        "executing it — the single writer dies with work queued "
        "(restart/resume path)"
    ),
    "serve.request": (
        "HTTP request dispatch, before routing — a handler thread fails "
        "mid-request"
    ),
}


class FaultInjected(RuntimeError):
    """The exception the ``raise`` action throws at an injection point."""

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(
            f"injected fault at {point!r} (hit {hit}) — armed via "
            f"{FAULTS_ENV} or repro.faults.arm()"
        )
        self.point = point
        self.hit = hit


def _reject(spec: str, reason: str) -> ValueError:
    return ValueError(f"fault spec {spec!r}: {reason}; expected {GRAMMAR}")


def parse_spec(spec: str) -> "FaultPlan":
    """Compile a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Raises :class:`ValueError` quoting the spec and the grammar — a
    chaos matrix with a typo must fail at arm time, not silently never
    fire.
    """
    match = _RULE.fullmatch(spec.strip())
    if match is None:
        raise _reject(spec, "does not parse")
    point, action = match["point"], match["action"]
    if point not in POINTS:
        known = ", ".join(sorted(POINTS))
        raise _reject(
            spec,
            f"unknown injection point {point!r} (registered points: {known})",
        )
    if action not in ACTIONS:
        raise _reject(spec, f"unknown fault action {action!r}")
    hit = int(match["hit"] or 1)
    if hit < 1:
        raise _reject(spec, f"hit {hit} is below 1")
    return FaultPlan(point, action, hit, spec=spec)


class FaultPlan:
    """One armed rule plus per-point hit accounting."""

    def __init__(self, point: str, action: str, hit: int, *, spec: str) -> None:
        self.point = point
        self.action = action
        self.hit = hit
        self.spec = spec
        self.fired = 0
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}

    def check(self, point: str) -> None:
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            if point != self.point or hit != self.hit:
                return
            self.fired += 1
        if self.action == "raise":
            raise FaultInjected(point, hit)
        # crash: die the way a power cut does — no atexit, no finally,
        # no flush.  The stderr line is best-effort debugging breadcrumb
        # (an unbuffered write, so it usually survives).
        try:
            sys.stderr.write(
                f"repro.faults: crashing process {os.getpid()} at "
                f"{point!r} (hit {hit})\n"
            )
            sys.stderr.flush()
        except Exception:  # pragma: no cover - stderr gone already
            pass
        if hasattr(signal, "SIGKILL"):
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(137)  # pragma: no cover - non-POSIX fallback

    def stats(self) -> dict:
        """Hit/fired counters per point (``/metrics``, test assertions)."""
        with self._lock:
            return {
                "spec": self.spec,
                "points": {
                    point: {
                        "hits": self._hits.get(point, 0),
                        "fired": self.fired if point == self.point else 0,
                    }
                    for point in sorted({self.point, *self._hits})
                },
            }


# -- module state -------------------------------------------------------
_state_lock = threading.Lock()
_plan: FaultPlan | None = None
_env_loaded = False


def current_plan() -> FaultPlan | None:
    """The plan in force, parsing ``REPRO_FAULTS`` on the first call.

    A malformed spec raises :class:`ValueError` here; ``repro``'s CLI
    calls this before it dispatches, so every command fails on one.
    """
    global _env_loaded, _plan
    if not _env_loaded:
        with _state_lock:
            if not _env_loaded:
                spec = os.environ.get(FAULTS_ENV, "").strip()
                if spec and _plan is None:
                    _plan = parse_spec(spec)
                _env_loaded = True
    return _plan


def check(point: str) -> None:
    """The injection hook compiled into production code paths.

    Disarmed (the overwhelmingly common case) this is a couple of loads
    and a ``None`` comparison.  Armed, it counts the hit and fires the
    plan's action when this is the armed point's ``N``-th hit.
    """
    plan = _plan if _env_loaded else current_plan()
    if plan is None:
        return
    plan.check(point)


def arm(plan: "FaultPlan | str | None") -> FaultPlan | None:
    """Install a plan (or spec string) process-wide; returns the previous.

    ``None`` disarms.  Arming wins over ``REPRO_FAULTS`` — the env is
    only consulted while nothing was armed explicitly.
    """
    global _plan, _env_loaded
    if isinstance(plan, str):
        plan = parse_spec(plan)
    with _state_lock:
        previous = _plan
        _plan = plan
        _env_loaded = True
    return previous


def disarm() -> None:
    """Remove any armed plan (and suppress ``REPRO_FAULTS`` re-arming)."""
    arm(None)


class armed:
    """Context manager: arm a plan for a scope, restore what was there."""

    def __init__(self, plan: "FaultPlan | str") -> None:
        self.plan = parse_spec(plan) if isinstance(plan, str) else plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._previous = arm(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        arm(self._previous)


def fault_stats() -> dict | None:
    """The armed plan's counters, or ``None`` when disarmed."""
    plan = current_plan()
    return None if plan is None else plan.stats()
