"""Trace exporters: Chrome/Perfetto JSON and a human-readable tree.

Both exporters consume the flat event records of
:mod:`repro.obs.trace` — either live from ``Tracer.events()`` or parsed
back from a persisted NDJSON log via :func:`~repro.obs.trace.read_events`
— so ``repro trace`` renders identically whether a run just finished in
this process or happened last week on a server.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from repro.obs.trace import span_index

__all__ = ["to_chrome_trace", "render_tree", "trace_summary"]


def to_chrome_trace(events: Iterable[dict]) -> dict:
    """Convert a trace to the Chrome Trace Event JSON format.

    The resulting document loads directly in ``chrome://tracing`` and
    https://ui.perfetto.dev.  Spans become complete (``ph: "X"``) events;
    points become instant (``ph: "i"``) events.  Timestamps are
    microseconds relative to the earliest event, so traces start at 0.
    """
    events = list(events)
    spans = span_index(events)
    origin = min(
        (record["ts"] for record in events if "ts" in record),
        default=0.0,
    )

    def micros(seconds: float) -> int:
        return int(round(seconds * 1_000_000))

    trace_events: list[dict] = []
    for span_id, span in sorted(spans.items()):
        attrs = dict(span.get("attrs", {}))
        trace_events.append(
            {
                "name": span.get("name", span_id),
                "cat": span.get("kind", "span"),
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": micros(span.get("ts", origin) - origin),
                "dur": micros(span.get("dur") or 0.0),
                "args": {"span": span_id, "parent": span.get("parent"), **attrs},
            }
        )
    for record in events:
        if record.get("type") != "point":
            continue
        trace_events.append(
            {
                "name": record.get("name", "point"),
                "cat": record.get("kind", "point"),
                "ph": "i",
                "s": "p",
                "pid": 1,
                "tid": 1,
                "ts": micros(record.get("ts", origin) - origin),
                "args": dict(record.get("attrs", {})),
            }
        )
    trace_events.sort(key=lambda entry: (entry["ts"], entry["name"]))
    trace_id = next(
        (record["trace"] for record in events if "trace" in record), None
    )
    return {
        "displayTimeUnit": "ms",
        "otherData": {"trace": trace_id},
        "traceEvents": trace_events,
    }


def chrome_trace_json(events: Iterable[dict]) -> str:
    """:func:`to_chrome_trace` serialized ready for a ``.json`` file."""
    return json.dumps(to_chrome_trace(events), indent=2, sort_keys=True) + "\n"


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def render_tree(events: Iterable[dict], *, attrs: bool = True) -> str:
    """Render a trace as an indented tree, spans ordered by start time.

    Open spans (begin without end — a crashed or still-running trace)
    render with ``(open)`` instead of a duration.  Point events appear
    under their parent span prefixed with ``·``.
    """
    events = list(events)
    spans = span_index(events)
    children: dict[str | None, list[dict]] = {}
    for span_id, span in spans.items():
        span = dict(span, _id=span_id, _point=False)
        children.setdefault(span.get("parent"), []).append(span)
    for record in events:
        if record.get("type") != "point":
            continue
        children.setdefault(record.get("parent"), []).append(
            dict(record, _id=None, _point=True)
        )
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.get("ts", 0.0), span.get("seq", 0)))

    # Roots: parent is None, or names a span this log never recorded
    # (a service-owned parent when rendering just the run's log).
    roots = [
        node
        for parent, nodes in children.items()
        for node in nodes
        if parent is None or parent not in spans
    ]
    roots.sort(key=lambda span: (span.get("ts", 0.0), span.get("seq", 0)))

    lines: list[str] = []

    def describe(node: dict) -> str:
        name = node.get("name", "?")
        if node["_point"]:
            text = f"· {name}"
        else:
            duration = node.get("dur")
            timing = f"{duration:.3f}s" if duration is not None else "open"
            text = f"{name} ({node.get('kind', 'span')}, {timing})"
        if attrs:
            text += _format_attrs(node.get("attrs", {}))
        return text

    def walk(node: dict, prefix: str, tail: bool, top: bool) -> None:
        if top:
            lines.append(describe(node))
            child_prefix = ""
        else:
            lines.append(prefix + ("└─ " if tail else "├─ ") + describe(node))
            child_prefix = prefix + ("   " if tail else "│  ")
        branch = children.get(node["_id"], []) if node["_id"] else []
        for position, child in enumerate(branch):
            walk(child, child_prefix, position == len(branch) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    if not lines:
        return "(empty trace)"
    return "\n".join(lines)


def trace_summary(events: Iterable[dict]) -> dict:
    """Aggregate shape of a trace: span counts and seconds per kind,
    plus the run's timings — stage seconds by stage name and the summed
    per-stage kernel-counter deltas.

    The stage totals read the ``end`` records directly rather than the
    span index: span ids restart in every trace, so the events of
    several runs concatenated still sum to the sum of their summaries.
    """
    events = list(events)
    spans = span_index(events)
    counts: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for span in spans.values():
        kind = span.get("kind", "span")
        counts[kind] = counts.get(kind, 0) + 1
        seconds[kind] = seconds.get(kind, 0.0) + (span.get("dur") or 0.0)
    stage_seconds: Counter = Counter()
    kernel_counters: Counter = Counter()
    for record in events:
        if record.get("type") != "end" or record.get("kind") != "stage":
            continue
        stage_seconds[record.get("name", "?")] += record.get("dur") or 0.0
        kernel_counters.update(record.get("attrs", {}).get("kernels", {}))
    return {
        "spans": len(spans),
        "by_kind": {
            kind: {"count": counts[kind], "seconds": round(seconds[kind], 6)}
            for kind in sorted(counts)
        },
        "stage_seconds": dict(sorted(stage_seconds.items())),
        "kernel_counters": dict(sorted(kernel_counters.items())),
    }
