"""The observer that turns pipeline/executor events into trace spans.

:class:`TracingObserver` implements both observer protocols, so one
instance passed to ``RunSession.run(observers=[...])`` covers the whole
hierarchy: the orchestrator's run/iteration/stage hooks produce live
``begin``/``end`` spans, and the executor — which receives every
``ExecutorObserver`` automatically — reports each batch's compute
seconds, which land as complete ``chunk:<task>`` span records parented
to the stage that dispatched them.

Per-stage kernel summaries come from the module-global counters of
:mod:`repro.perf.counters`: a snapshot at stage start, the non-zero
delta attached to the stage's ``end`` record.  Those ``end`` records
are the run's only timing record: :func:`~repro.obs.export.trace_summary`
sums them into stage seconds and kernel counters for ``repro run
--json`` and the service's ``/metrics``.

The byte-neutrality contract lives here by construction: the observer
only *reads* pipeline state and writes to its own event log, so a traced
run's ``PipelineResult`` is byte-identical to an untraced one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.obs.trace import Span, Tracer
from repro.parallel import ExecutorObserver
from repro.perf.counters import counter_delta, kernel_counters
from repro.pipeline.stages import PipelineObserver

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.pipeline.pipeline import PipelineConfig
    from repro.pipeline.result import PipelineResult

__all__ = ["TracingObserver"]


class TracingObserver(PipelineObserver, ExecutorObserver):
    """Records one pipeline run as a span tree under ``tracer``.

    ``parent`` roots the pipeline span under an outer span (the
    RunSession run span, the service's job span); ``None`` leaves the
    tracer's ``default_parent`` in charge.  The observer is reusable
    across sequential runs but not across concurrent ones — it tracks
    the current iteration/stage span as plain attributes, mirroring the
    single-run lifecycle of the orchestrator that drives it.
    """

    def __init__(self, tracer: Tracer, *, parent: str | None = None) -> None:
        self.tracer = tracer
        self.parent = parent
        self._pipeline: Span | None = None
        self._iteration: Span | None = None
        self._stage: Span | None = None
        self._stage_kernel_baseline: dict[str, int] | None = None

    # -- PipelineObserver hooks -----------------------------------------
    def on_run_started(self, class_name: str, config: "PipelineConfig") -> None:
        self._pipeline = self.tracer.begin(
            f"pipeline:{class_name}",
            "pipeline",
            parent=self.parent,
            attrs={
                "class": class_name,
                "executor": config.executor,
                "workers": config.workers,
                "iterations": config.iterations,
            },
        )

    def on_iteration_started(self, class_name: str, iteration: int) -> None:
        self._iteration = self.tracer.begin(
            f"iteration {iteration}",
            "iteration",
            parent=self._pipeline.span_id if self._pipeline else None,
            attrs={"iteration": iteration},
        )

    def on_stage_started(
        self, class_name: str, iteration: int, stage_name: str
    ) -> None:
        self._stage = self.tracer.begin(
            stage_name,
            "stage",
            parent=self._iteration.span_id if self._iteration else None,
        )
        self._stage_kernel_baseline = kernel_counters()

    def on_stage_finished(
        self, class_name: str, iteration: int, stage_name: str, seconds: float
    ) -> None:
        if self._stage is None:
            return
        attrs: dict = {}
        if self._stage_kernel_baseline is not None:
            kernels = {
                name: grown
                for name, grown in counter_delta(
                    self._stage_kernel_baseline
                ).items()
                if grown
            }
            if kernels:
                attrs["kernels"] = kernels
        self.tracer.end(self._stage, attrs or None)
        self._stage = None
        self._stage_kernel_baseline = None

    def on_iteration_finished(self, class_name: str, iteration: int) -> None:
        if self._iteration is not None:
            self.tracer.end(self._iteration)
            self._iteration = None

    def on_run_finished(self, result: "PipelineResult") -> None:
        if self._pipeline is None:
            return
        final = result.iterations[-1] if result.iterations else None
        attrs = None
        if final is not None:
            attrs = {
                "records": len(final.records),
                "clusters": len(final.clusters),
                "entities": len(final.entities),
            }
        self.tracer.end(self._pipeline, attrs)
        self._pipeline = None

    # -- ExecutorObserver hooks -----------------------------------------
    def on_map_started(
        self, task_name: str, n_items: int, n_chunks: int
    ) -> None:
        self.tracer.point(
            f"map:{task_name}",
            "executor",
            parent=self._current_parent(),
            attrs={"items": n_items, "chunks": n_chunks},
        )

    def on_chunk_finished(
        self, task_name: str, chunk_index: int, n_items: int, seconds: float
    ) -> None:
        self.tracer.span(
            f"chunk:{task_name}",
            "chunk",
            parent=self._current_parent(),
            ts=time.time() - seconds,
            dur=seconds,
            attrs={"chunk_index": chunk_index, "n_items": n_items},
        )

    # -- internals ------------------------------------------------------
    def _current_parent(self) -> str | None:
        for span in (self._stage, self._iteration, self._pipeline):
            if span is not None:
                return span.span_id
        return self.parent
