"""Deterministic fault injection for the hot I/O boundaries.

Crash-recovery code is only trustworthy if every failure path can be
*provoked on demand*: a journal resume that has never seen a dead
writer thread, or an orphan-tmp sweep that has never seen an
interrupted writer, is dead code with a comforting name.  This module
is the one switchboard for provoking those failures — a registry of **named
injection points** compiled into the production code paths
(:data:`POINTS` is the authoritative inventory), armed by an explicit
plan so the same failure reproduces exactly, run after run.

Usage, production side (one line per boundary)::

    from repro import faults
    ...
    faults.check("artifacts.put")   # between mkstemp and os.replace

A disarmed check is a few attribute loads — there is no plan object to
consult, so shipping the checks costs nothing.

Usage, test/operator side::

    REPRO_FAULTS="corpus.shard_write:crash@2" repro ingest ...

or in-process::

    with faults.armed("artifacts.put:raise@1"):
        ...

Arming sources, later wins: the ``REPRO_FAULTS`` environment variable
(read once, lazily — subprocesses inherit it, which is how the chaos
suite kills real ``repro serve`` / ``repro ingest`` processes at exact
points), then :func:`arm` / :func:`armed`; ``with armed(spec):`` around
a :meth:`~repro.api.RunSession.run` call arms a plan for that run only.

Spec grammar (rules joined by ``;``)::

    rule   := point ":" action [":" param] ["@" window] ["~" prob ["/" seed]]
    action := "crash" | "raise" | "latency"
    window := N | N "+" | N "-" M | "*"          (default: 1 — first hit only)
    prob   := float in (0, 1]                     (default: 1 — always fire)

``crash`` kills the process with SIGKILL (``os._exit`` where signals are
unavailable) — no cleanup handlers, no flushes: the honest model of
power loss.  ``raise`` raises :class:`FaultInjected` (kills only the
calling thread — how the tests simulate a dead service writer without
killing pytest).  ``latency`` sleeps ``param`` seconds and continues.
``prob`` draws from a per-rule ``random.Random(seed)`` stream, so a
probabilistic schedule is still exactly reproducible: the same seed and
the same hit sequence fire on the same hits.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from random import Random

__all__ = [
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "POINTS",
    "arm",
    "armed",
    "check",
    "disarm",
    "fault_stats",
    "parse_spec",
    "register_point",
]

#: Environment variable carrying a fault spec for this process tree.
FAULTS_ENV = "REPRO_FAULTS"

ACTIONS = ("crash", "raise", "latency")

#: The authoritative injection-point inventory: every ``check()`` call
#: site registers here, and the spec parser rejects unknown names — a
#: typo in a chaos matrix must fail loudly, not silently never fire.
POINTS: dict[str, str] = {
    "corpus.shard_write": (
        "CorpusStore shard sub-batch write, before the shard transaction "
        "commits (a crash loses this shard's writes, never corrupts them)"
    ),
    "artifacts.put": (
        "ArtifactStore.put between the temp-file write and the atomic "
        "os.replace (a crash strands an orphan *.tmp, never a torn object)"
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


def register_point(name: str, description: str) -> None:
    """Register an extension injection point (tests, custom stages)."""
    POINTS.setdefault(name, description)


class FaultInjected(RuntimeError):
    """The exception the ``raise`` action throws at an injection point."""

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(
            f"injected fault at {point!r} (hit {hit}) — armed via "
            f"{FAULTS_ENV} or repro.faults.arm()"
        )
        self.point = point
        self.hit = hit


@dataclass
class FaultRule:
    """One parsed spec rule: when a point's hit counter should fire."""

    point: str
    action: str
    param: float | None = None
    first_hit: int = 1
    last_hit: int | None = 1  #: ``None`` = open-ended (``N+`` windows)
    probability: float = 1.0
    seed: int = 0
    #: Per-rule deterministic stream for probabilistic schedules.
    _rng: Random = field(default=None, repr=False)  # type: ignore[assignment]
    fired: int = 0

    def __post_init__(self) -> None:
        self._rng = Random(self.seed)

    def matches(self, hit: int) -> bool:
        if hit < self.first_hit:
            return False
        if self.last_hit is not None and hit > self.last_hit:
            return False
        if self.probability < 1.0:
            # One draw per in-window hit keeps the stream aligned with
            # the hit sequence — reproducible for a fixed seed.
            return self._rng.random() < self.probability
        return True

    def describe(self) -> str:
        window = (
            f"@{self.first_hit}+"
            if self.last_hit is None
            else f"@{self.first_hit}"
            if self.last_hit == self.first_hit
            else f"@{self.first_hit}-{self.last_hit}"
        )
        param = f":{self.param:g}" if self.param is not None else ""
        prob = (
            f"~{self.probability:g}/{self.seed}"
            if self.probability < 1.0
            else ""
        )
        return f"{self.point}:{self.action}{param}{window}{prob}"


def _parse_rule(text: str) -> FaultRule:
    body = text.strip()
    probability, seed = 1.0, 0
    if "~" in body:
        body, prob_text = body.split("~", 1)
        if "/" in prob_text:
            prob_text, seed_text = prob_text.split("/", 1)
            try:
                seed = int(seed_text)
            except ValueError:
                raise ValueError(
                    f"fault rule {text!r}: seed {seed_text!r} is not an "
                    f"integer"
                ) from None
        try:
            probability = float(prob_text)
        except ValueError:
            raise ValueError(
                f"fault rule {text!r}: probability {prob_text!r} is not a "
                f"number"
            ) from None
        if not 0.0 < probability <= 1.0:
            raise ValueError(
                f"fault rule {text!r}: probability must be in (0, 1], got "
                f"{probability}"
            )
    first_hit, last_hit = 1, 1
    if "@" in body:
        body, window = body.split("@", 1)
        window = window.strip()
        try:
            if window == "*":
                first_hit, last_hit = 1, None
            elif window.endswith("+"):
                first_hit, last_hit = int(window[:-1]), None
            elif "-" in window:
                low, high = window.split("-", 1)
                first_hit, last_hit = int(low), int(high)
            else:
                first_hit = last_hit = int(window)
        except ValueError:
            raise ValueError(
                f"fault rule {text!r}: bad hit window {window!r} "
                f"(expected N, N+, N-M or *)"
            ) from None
        if first_hit < 1 or (last_hit is not None and last_hit < first_hit):
            raise ValueError(
                f"fault rule {text!r}: hit window must start at >= 1 and "
                f"not end before it starts"
            )
    parts = body.split(":")
    if len(parts) < 2:
        raise ValueError(
            f"fault rule {text!r} needs at least point:action "
            f"(e.g. 'artifacts.put:crash@2')"
        )
    point, action = parts[0].strip(), parts[1].strip().lower()
    param: float | None = None
    if len(parts) == 3:
        try:
            param = float(parts[2])
        except ValueError:
            raise ValueError(
                f"fault rule {text!r}: parameter {parts[2]!r} is not a "
                f"number"
            ) from None
    elif len(parts) > 3:
        raise ValueError(f"fault rule {text!r} has too many ':' fields")
    if point not in POINTS:
        known = ", ".join(sorted(POINTS))
        raise ValueError(
            f"unknown injection point {point!r}; registered points: {known}"
        )
    if action not in ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r}; expected one of: "
            f"{', '.join(ACTIONS)}"
        )
    if action == "latency":
        if param is None or param < 0:
            raise ValueError(
                f"fault rule {text!r}: latency needs a non-negative "
                f"seconds parameter (e.g. 'serve.request:latency:0.2')"
            )
    elif param is not None:
        raise ValueError(
            f"fault rule {text!r}: action {action!r} takes no parameter"
        )
    return FaultRule(
        point=point,
        action=action,
        param=param,
        first_hit=first_hit,
        last_hit=last_hit,
        probability=probability,
        seed=seed,
    )


def parse_spec(spec: str) -> "FaultPlan":
    """Compile a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Raises :class:`ValueError` with the offending rule quoted — a chaos
    matrix with a typo must fail at arm time, not silently never fire.
    """
    rules = [
        _parse_rule(chunk)
        for chunk in spec.split(";")
        if chunk.strip()
    ]
    if not rules:
        raise ValueError(
            "fault spec is empty; expected rules like "
            "'corpus.shard_write:crash@2' joined by ';'"
        )
    return FaultPlan(rules, spec=spec)


class FaultPlan:
    """A compiled set of rules plus per-point hit accounting."""

    def __init__(self, rules: list[FaultRule], *, spec: str | None = None):
        self.spec = spec
        self._lock = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.point, []).append(rule)
        self._hits: dict[str, int] = {}

    def check(self, point: str) -> None:
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            fired: FaultRule | None = None
            for rule in self._rules.get(point, ()):
                if rule.matches(hit):
                    rule.fired += 1
                    fired = rule
                    break
        if fired is None:
            return
        self._act(fired, point, hit)

    @staticmethod
    def _act(rule: FaultRule, point: str, hit: int) -> None:
        if rule.action == "latency":
            time.sleep(rule.param or 0.0)
            return
        if rule.action == "raise":
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
                        "fired": sum(
                            rule.fired for rule in self._rules.get(point, ())
                        ),
                        "rules": [
                            rule.describe()
                            for rule in self._rules.get(point, ())
                        ],
                    }
                    for point in sorted(
                        set(self._rules) | set(self._hits)
                    )
                },
            }


# -- module state -------------------------------------------------------
_state_lock = threading.Lock()
_plan: FaultPlan | None = None
_env_loaded = False


def _current_plan() -> FaultPlan | None:
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
    and a ``None`` comparison.  Armed, it counts the hit and performs
    whichever rule fires first for this point.
    """
    plan = _plan if _env_loaded else _current_plan()
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
    """Context manager: arm a plan for a scope, restore what was there.

    Accepts a spec string, a :class:`FaultPlan`, or ``None`` — the last
    is a no-op scope, so a caller holding an optional spec can always
    enter one without touching an environment-armed plan.
    """

    def __init__(self, plan: "FaultPlan | str | None") -> None:
        if isinstance(plan, str):
            plan = parse_spec(plan)
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan | None:
        if self.plan is not None:
            self._previous = arm(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        if self.plan is not None:
            arm(self._previous)


def fault_stats() -> dict | None:
    """The armed plan's counters, or ``None`` when disarmed."""
    plan = _current_plan()
    return None if plan is None else plan.stats()
