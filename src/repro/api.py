"""Service layer: :class:`RunSession` — the façade for running pipelines.

A session owns the heavyweight inputs (knowledge base + web table
corpus, loaded or generated once) and hands out pipeline runs on top of
them:

* ``session.run("Song")`` — one class, default stages.
* ``session.run_many(["Song", "Settlement"])`` — batch runs sharing all
  session state.
* ``session.run("Song", stages=("schema_match", "cluster"))`` — a
  partial stage sequence (names resolve against
  :data:`repro.pipeline.stages.STAGES`; stage instances, such as a
  test's fake, are used as-is).
* ``observers=`` — per-stage timing/progress hooks
  (:class:`~repro.pipeline.stages.PipelineObserver`).

Every run goes through the session's content-keyed
:class:`~repro.pipeline.artifacts.ArtifactStore` — in memory by default,
on disk under ``<store>/artifacts`` for :meth:`RunSession.from_corpus_store`
sessions.  Each default stage, each table's analysis and each entity's
detection is keyed on fingerprints of all of its inputs, so a repeated
run loads every stage, a run after a corpus delta recomputes only what
the delta touched, and a run for a second class reuses the
class-independent table analyses of the first — from the session's
in-memory analysis memo, without reading the store again.
``use_cache=False`` reuses and stores nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Collection, Iterable, Sequence

from repro.kb.knowledge_base import KnowledgeBase
from repro.ml.aggregation import StaticWeightedAggregator
from repro.newdetect.detector import Classification
from repro.parallel import ExecutorObserver, make_executor
from repro.perf.kernels import KernelCache
from repro.pipeline.artifacts import (
    ARTIFACTS_DIRNAME,
    FINGERPRINTS,
    AnalysisMemo,
    ArtifactStore,
    IncrementalBackend,
    IncrementalRunReport,
)
from repro.pipeline.delta import (
    SnapshotOrder,
    corpus_patch,
    corpus_state,
    digest,
    fingerprint_corpus_patch,
    fingerprint_corpus_state,
    fingerprint_kb,
    pickle_digest,
)
from repro.pipeline.dedup import deduplicate_entities
from repro.pipeline.pipeline import (
    _DEFAULT_ENTITY_WEIGHTS,
    _DEFAULT_ROW_WEIGHTS,
    PipelineConfig,
    PipelineModels,
    build_duplicate_evidence,
)
from repro.pipeline.result import PipelineResult
from repro.pipeline.stages import (
    DEFAULT_STAGE_NAMES,
    PipelineObserver,
    PipelineStage,
    PipelineState,
    resolve_stages,
)
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import RowId

__all__ = [
    "RunSession",
    "ProgressObserver",
    "config_hash",
]


#: Config fields that cannot influence stage outputs, so runs differing
#: only in these share cache entries.
_NON_SEMANTIC_CONFIG_FIELDS = frozenset({"executor", "workers"})


def config_hash(config: PipelineConfig) -> str:
    """A stable short hash of a config's *semantic* field values.

    Used for cache keying; fields in :data:`_NON_SEMANTIC_CONFIG_FIELDS`
    (the executor knobs) are excluded because they cannot change any
    artifact.
    """
    payload = {
        config_field.name: getattr(config, config_field.name)
        for config_field in dataclasses.fields(config)
        if config_field.name not in _NON_SEMANTIC_CONFIG_FIELDS
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def _store_counters(store: ArtifactStore) -> dict:
    """An artifact-store handle's running totals; a run span records
    how far its run moved them."""
    return {
        "gets": store.hits + store.misses,
        "hits": store.hits,
        "puts": store.writes,
        "get_s": store.get_seconds,
        "put_s": store.put_seconds,
    }


class ProgressObserver(PipelineObserver):
    """Prints one line per finished stage (CLI-friendly progress)."""

    def __init__(self, stream=None) -> None:
        import sys

        self._stream = stream if stream is not None else sys.stderr

    def on_stage_finished(
        self, class_name: str, iteration: int, stage_name: str, seconds: float
    ) -> None:
        print(
            f"[{class_name}] iteration {iteration} · {stage_name}: "
            f"{seconds:.2f}s",
            file=self._stream,
        )


class _PersistentStage:
    """Wraps a default stage with the session's artifact store.

    Only registry-resolved default stages are wrapped (their inputs are
    exactly fingerprintable); the key embeds every input's digest, so a
    hit is byte-identical to recomputing by the purity invariant of
    :mod:`repro.pipeline.artifacts`.  On a miss the inner stage runs —
    with its per-table/per-entity caches warmed by the same backend —
    and the state fields it ``provides`` are stored, with the
    fingerprints of those the next stages' keys name; a hit brings them
    back, so its outputs are never fingerprinted.
    """

    def __init__(self, inner: PipelineStage, backend: IncrementalBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.provides = inner.provides
        self._backend = backend

    def run(self, state: PipelineState) -> PipelineState:
        backend = self._backend
        key = backend.stage_key(self.name, state)
        if key is None:  # pragma: no cover - defensive; names are vetted
            return self.inner.run(state)
        cached = backend.store.get(key)
        if cached is not None:
            fingerprints = cached.pop(FINGERPRINTS)
            for field_name, value in cached.items():
                setattr(state, field_name, value)
            backend.record_stage(self.name, state.iteration, "hit")
            backend.stage_outputs(self.name, state, key, fingerprints)
            return state
        backend.record_stage(self.name, state.iteration, "miss")
        state = self.inner.run(state)
        stored = {
            field_name: getattr(state, field_name)
            for field_name in self.provides
        }
        stored[FINGERPRINTS] = backend.stage_outputs(self.name, state, key)
        backend.store.put(key, stored)
        return state


class RunSession:
    """A long-lived service over one world (KB + corpus).

    The expensive inputs are loaded once and shared by every run; the
    artifact store makes repeated and partially-overlapping runs skip
    work whose inputs are unchanged.  Construct directly from a synthetic
    :class:`~repro.synthesis.world.World`, from explicit KB/corpus
    objects, via :meth:`from_seed`, or via :meth:`from_directory` for a
    world saved by ``repro build-world``.
    """

    def __init__(
        self,
        world=None,
        *,
        knowledge_base: KnowledgeBase | None = None,
        corpus: TableCorpus | None = None,
        config: PipelineConfig | None = None,
        models: PipelineModels | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> None:
        if world is not None:
            knowledge_base = world.knowledge_base
            corpus = world.corpus
        if knowledge_base is None or corpus is None:
            raise ValueError(
                "RunSession needs a world or both knowledge_base and corpus"
            )
        self.world = world
        self.knowledge_base = knowledge_base
        self.corpus = corpus
        self.config = config or PipelineConfig()
        self.models = models
        self.observers: list[PipelineObserver] = list(observers)
        #: Session-scoped kernel memos (token pairs, label tokens, and
        #: attribute matching's parsed columns, value pools and KB-side
        #: scores) shared by every run; the corpus-epoch guard ages them
        #: (:meth:`KernelCache.age`) to bound memory.
        self.kernels = KernelCache()
        #: Table analyses of every cached run, keyed on (table id,
        #: content hash, candidate limit), so a class run reads from the
        #: artifact store only the analyses this session has not seen.
        #: Not in :attr:`kernels`: its keys name tables, so the epoch
        #: guard evicts the tables a snapshot change touched instead.
        #: Values are shared with the matchers; read-only.
        self.analysis_memo = AnalysisMemo()
        #: Strong references keep cache-key identity tokens stable.
        self._identity_registry: list[object] = []
        self._default_models: dict[str, PipelineModels] = {}
        #: The stage cache of every run: in memory until
        #: :meth:`attach_artifact_store` switches it to a directory.
        self.artifact_store = ArtifactStore()
        #: Reuse/recompute statistics of the latest cached run.
        self.last_incremental_report: IncrementalRunReport | None = None
        #: The :class:`repro.obs.Tracer` of the latest traced run
        #: (``trace=`` on :meth:`run`); ``None`` until one runs.
        self.last_trace = None
        self._corpus_epoch: str | None = None
        #: The snapshot the epoch was taken from (shared, read-only).
        self._corpus_snapshot: dict[str, str] | None = None
        #: The snapshot ids' ranks, kept in step with the snapshot.
        self._corpus_order: SnapshotOrder | None = None
        self._kb_fp: str | None = None
        self._models_fps: dict[int, str] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int = 7,
        scale: float = 1.0,
        *,
        classes: list[str] | None = None,
        config: PipelineConfig | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> "RunSession":
        """Generate the synthetic world once and serve runs over it."""
        from repro.synthesis.api import build_world
        from repro.synthesis.profiles import WorldScale

        world = build_world(seed=seed, scale=WorldScale(scale), classes=classes)
        return cls(world=world, config=config, observers=observers)

    @classmethod
    def from_directory(
        cls,
        directory: str | Path,
        *,
        config: PipelineConfig | None = None,
        observers: Iterable[PipelineObserver] = (),
    ) -> "RunSession":
        """Serve runs over a world saved by ``repro build-world``."""
        from repro.io import load_world_directory

        knowledge_base, corpus = load_world_directory(directory)
        return cls(
            knowledge_base=knowledge_base,
            corpus=corpus,
            config=config,
            observers=observers,
        )

    @classmethod
    def from_corpus_store(
        cls,
        store,
        *,
        knowledge_base: KnowledgeBase | None = None,
        kb_path: str | Path | None = None,
        cache_size: int = 256,
        config: PipelineConfig | None = None,
        observers: Iterable[PipelineObserver] = (),
        artifacts: bool = True,
    ) -> "RunSession":
        """Serve runs over a sharded on-disk corpus (``repro ingest``).

        ``store`` is a :class:`repro.corpus.CorpusStore` or the directory
        of one; the corpus is served through a lazy bounded-memory
        :class:`~repro.corpus.view.StoredCorpusView`, so the session never
        materializes it.  The knowledge base comes from
        ``knowledge_base=``, ``kb_path=``, or — by convention — a
        ``knowledge_base.json`` saved inside the store directory.
        ``artifacts`` (default on) attaches the persistent artifact store
        conventionally located at ``<store directory>/artifacts``, so
        runs reuse work across processes; with it off the session keeps
        an in-memory store like any other.
        """
        from repro.corpus.store import CorpusStore
        from repro.io import load_knowledge_base
        from repro.io.serialize import WORLD_KB_FILE

        if not isinstance(store, CorpusStore):
            store = CorpusStore.open(store)
        if knowledge_base is None:
            if kb_path is None:
                candidate = Path(store.directory) / WORLD_KB_FILE
                if not candidate.exists():
                    raise ValueError(
                        "from_corpus_store needs a knowledge base: pass "
                        "knowledge_base= or kb_path=, or save one as "
                        f"{candidate}"
                    )
                kb_path = candidate
            knowledge_base = load_knowledge_base(kb_path)
        session = cls(
            knowledge_base=knowledge_base,
            corpus=store.as_corpus(cache_size=cache_size),
            config=config,
            observers=observers,
        )
        if artifacts:
            session.attach_artifact_store(
                Path(store.directory) / ARTIFACTS_DIRNAME
            )
        return session

    # -- artifact store -------------------------------------------------
    def attach_artifact_store(
        self, store: ArtifactStore | str | Path
    ) -> ArtifactStore:
        """Switch to a persistent artifact store (created if needed).

        Store-backed sessions get this automatically under the
        corpus-store directory; in-memory sessions may point it anywhere
        to keep their artifacts beyond the process.
        """
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.artifact_store = store
        return store

    # -- running --------------------------------------------------------
    def run(
        self,
        class_name: str,
        *,
        stages: Sequence[PipelineStage | str] | None = None,
        observers: Iterable[PipelineObserver] = (),
        config: PipelineConfig | None = None,
        models: PipelineModels | None = None,
        table_ids: list[str] | None = None,
        row_ids: set[RowId] | None = None,
        known_classes: dict[str, str] | None = None,
        use_cache: bool = True,
        trace=None,
    ) -> PipelineResult:
        """Run the pipeline for one class over the session's world.

        Each of ``config.iterations`` iterations runs the stage sequence
        (the paper's four components by default), and its entities and
        KB correspondences feed the next iteration's duplicate-based
        schema matchers (Figure 1).  Without ``models=`` (or session
        models) the run is untrained, with static metric weights.
        Every keyword overrides one aspect of the run without
        rebuilding any session state.  ``table_ids`` restricts schema
        matching to a table subset, ``row_ids`` restricts clustering to
        specific rows, and ``known_classes`` bypasses table-to-class
        matching (gold-standard experiments).

        Every default stage first consults :attr:`artifact_store` under
        keys that fingerprint *all* of its inputs; schema matching
        re-analyzes only tables whose content it has not seen, and
        detection re-classifies only entities whose content it has not
        seen.  The result is byte-identical
        (``PipelineResult.canonical_json()``) to a from-scratch run over
        the same corpus — stored artifacts are pure functions of their
        keys.  What the run loaded versus computed is counted as it goes
        and lands in :attr:`last_incremental_report`.
        ``use_cache=False`` reuses and stores nothing: the run computes
        every stage and sets :attr:`last_incremental_report` to ``None``.
        Either way the run first takes the session's
        corpus-epoch guard, so it never reads tables cached before the
        corpus last changed.

        Failures in work dispatched through the executor (schema
        matching, new detection) surface as
        :class:`~repro.parallel.ExecutorError` naming the task and the
        originating items.  Other stages raise their original exception
        types.

        ``trace`` records the run as a span tree (:mod:`repro.obs`):
        ``True`` logs to ``<artifact store>/traces/<trace-id>.ndjson``
        when the store has a directory (in-memory otherwise), a path logs
        there, and a :class:`repro.obs.Tracer` records into the caller's
        trace (left open — the caller owns its lifecycle).  The root
        span carries the config hash, the run's stage hits and misses,
        its artifact-store gets, hits, puts and seconds in get and put
        (``artifacts``), and its kernel-cache totals; its first child is
        the epoch guard's ``corpus_guard`` span (kind ``guard``); the
        finished tracer is exposed as :attr:`last_trace`.  Tracing never changes
        results — ``canonical_json()`` is byte-identical either way.
        """
        config = config if config is not None else self.config
        models = self._resolve_models(models, config)
        stage_specs = list(stages) if stages is not None else list(
            DEFAULT_STAGE_NAMES
        )
        stage_list: list[PipelineStage] = resolve_stages(stage_specs)
        restriction = self._restriction_key(table_ids, row_ids, known_classes)
        tracer, owns_tracer = self._resolve_trace(trace)
        run_span = None
        extra_observers: list[PipelineObserver] = list(observers)
        if tracer is not None:
            run_span = tracer.begin(
                f"run:{class_name}",
                "run",
                attrs={
                    "class": class_name,
                    "incremental": use_cache,
                    "config": config_hash(config),
                },
            )
            from repro.obs import TracingObserver

            extra_observers.append(
                TracingObserver(tracer, parent=run_span.span_id)
            )
        state, epoch = self._guard_corpus_epoch(tracer, run_span)
        store_before = _store_counters(self.artifact_store)
        backend: IncrementalBackend | None = None
        if use_cache:
            backend = IncrementalBackend(
                self.artifact_store,
                corpus_state=state,
                corpus_fp=epoch,
                corpus_order=self._corpus_order,
                analyses=self.analysis_memo,
                kb_fp=self._kb_fingerprint(),
                models_fp=self._models_fingerprint(models),
                config_fp=config_hash(config),
                restriction_fp=digest(list(map(repr, restriction))),
                class_name=class_name,
            )
            # Substituted instances always run: a custom stage that
            # reuses a default stage's name is never served its artifact.
            stage_list = [
                _PersistentStage(stage, backend)
                if isinstance(spec, str) and spec in DEFAULT_STAGE_NAMES
                else stage
                for spec, stage in zip(stage_specs, stage_list)
            ]
        try:
            result = self._drive(
                class_name,
                config,
                models,
                stage_list,
                [*self.observers, *extra_observers],
                table_ids=table_ids,
                row_ids=row_ids,
                known_classes=known_classes,
                incremental=backend,
                corpus_ids=state,
            )
        except BaseException as error:
            if tracer is not None:
                tracer.end(
                    run_span,
                    {
                        "status": "error",
                        "error": f"{type(error).__name__}: {error}",
                    },
                )
                if owns_tracer:
                    tracer.close()
                self.last_trace = tracer
            raise
        # An uncached run measured no reuse: it must not leave the
        # previous cached run's counts behind.
        self.last_incremental_report = (
            backend.report if backend is not None else None
        )
        if tracer is not None:
            attrs: dict = {
                "status": "ok",
                "kernel_cache": self.kernels.cache_info(),
            }
            if backend is not None:
                attrs["stage_hits"] = backend.report.stage_hits()
                attrs["stage_misses"] = backend.report.stage_misses()
                store_after = _store_counters(self.artifact_store)
                attrs["artifacts"] = {
                    name: round(store_after[name] - before, 6)
                    for name, before in store_before.items()
                }
            tracer.end(run_span, attrs)
            if owns_tracer:
                tracer.close()
            self.last_trace = tracer
        return result

    def _drive(
        self,
        class_name: str,
        config: PipelineConfig,
        models: PipelineModels,
        stage_list: list[PipelineStage],
        observers: list[PipelineObserver],
        *,
        table_ids: list[str] | None,
        row_ids: set[RowId] | None,
        known_classes: dict[str, str] | None,
        incremental: IncrementalBackend | None,
        corpus_ids: Iterable[str],
    ) -> PipelineResult:
        """The stage loop of Figure 1: ``config.iterations`` passes over
        ``stage_list``, each iteration's entities and correspondences
        fed back as the next one's duplicate evidence.

        The loop builds its own executor, observed by every
        :class:`~repro.parallel.ExecutorObserver` among ``observers``.
        """
        executor = make_executor(
            config.executor,
            config.workers,
            observers=[
                observer
                for observer in observers
                if isinstance(observer, ExecutorObserver)
            ],
        )
        state = PipelineState(
            kb=self.knowledge_base,
            corpus=self.corpus,
            class_name=class_name,
            config=config,
            models=models,
            executor=executor,
            kernels=self.kernels,
            table_ids=table_ids,
            row_ids=row_ids,
            known_classes=known_classes,
            incremental=incremental,
            corpus_ids=corpus_ids,
        )
        result = PipelineResult(class_name=class_name)
        for observer in observers:
            observer.on_run_started(class_name, config)
        for iteration in range(1, config.iterations + 1):
            state.iteration = iteration
            for observer in observers:
                observer.on_iteration_started(class_name, iteration)
            for stage in stage_list:
                for observer in observers:
                    observer.on_stage_started(class_name, iteration, stage.name)
                started = time.perf_counter()
                state = stage.run(state)
                elapsed = time.perf_counter() - started
                for observer in observers:
                    observer.on_stage_finished(
                        class_name, iteration, stage.name, elapsed
                    )
            artifacts = state.artifacts()
            result.iterations.append(artifacts)
            state.evidence = build_duplicate_evidence(
                artifacts.entities, artifacts.detection
            )
            for observer in observers:
                observer.on_iteration_finished(class_name, iteration)
        if config.dedup_new_entities:
            self._dedup_final(result)
        for observer in observers:
            observer.on_run_finished(result)
        return result

    def _dedup_final(self, result: PipelineResult) -> None:
        """Merge near-duplicate new entities in the final iteration."""
        final = result.final
        detection = final.detection
        new_ids = {
            entity_id
            for entity_id, classification in detection.classifications.items()
            if classification is Classification.NEW
        }
        new_entities = [
            entity for entity in final.entities if entity.entity_id in new_ids
        ]
        others = [
            entity for entity in final.entities if entity.entity_id not in new_ids
        ]
        merged = deduplicate_entities(
            new_entities, self.knowledge_base, result.class_name,
            kernels=self.kernels,
        )
        final.entities = others + merged.entities
        kept = {entity.entity_id for entity in merged.entities}
        for entity_id in new_ids - kept:
            detection.classifications.pop(entity_id, None)
            detection.best_scores.pop(entity_id, None)

    def run_many(
        self,
        class_names: Iterable[str],
        **kwargs,
    ) -> dict[str, PipelineResult]:
        """Batch runs over several classes, in input order.

        Duplicate class names run once — the result mapping is keyed by
        class name, so a repeat could only overwrite its first entry.
        """
        return {
            class_name: self.run(class_name, **kwargs)
            for class_name in dict.fromkeys(class_names)
        }

    # -- cache administration ------------------------------------------
    def clear_cache(self) -> None:
        """Drop the kernel memos, the analysis memo, and every artifact
        of an in-memory store (a store with a directory keeps what it
        wrote)."""
        if self.artifact_store.directory is None:
            self.artifact_store = ArtifactStore()
        self.kernels.clear()
        self.analysis_memo.clear()

    def service_stats(self) -> dict:
        """Every cache/store statistic of this session, as one document.

        The read-only monitoring surface a long-lived holder (the
        ``repro serve`` service's ``GET /metrics``) reports: the kernel
        memo bundle, the analysis memo's size, this artifact-store
        handle's counters and the size of the latest run's corpus
        snapshot (``None`` before the first run).  Purely observational:
        calling it changes no cache state, and it reads neither the
        corpus store nor the artifact directory, so a request thread
        opens no connection and walks no object; ``describe()`` and
        ``repro fsck`` walk the store.
        """
        store = self.artifact_store
        snapshot = self._corpus_snapshot
        return {
            "kernel_cache": self.kernels.cache_info(),
            "analysis_memo": len(self.analysis_memo),
            "artifact_store": {
                "directory": (
                    str(store.directory)
                    if store.directory is not None
                    else None
                ),
                **store.stats(),
            },
            "corpus_tables": (
                len(snapshot) if snapshot is not None else None
            ),
            "kb_instances": len(self.knowledge_base),
        }

    # -- internals ------------------------------------------------------
    def _resolve_trace(self, trace):
        """``(tracer, owns)`` from a ``trace=`` argument.

        ``owns`` says whether this run must close the tracer when it
        finishes — a caller-supplied :class:`~repro.obs.Tracer` stays
        open (the service keeps recording its publish span after the
        pipeline returns).
        """
        if trace is None or trace is False:
            return None, False
        from repro.obs import Tracer, new_trace_id

        if isinstance(trace, Tracer):
            return trace, False
        if trace is True:
            trace_id = new_trace_id()
            path = None
            if self.artifact_store.directory is not None:
                path = (
                    self.artifact_store.directory
                    / "traces"
                    / f"{trace_id}.ndjson"
                )
            return Tracer(path=path, trace_id=trace_id), True
        return Tracer(path=trace), True

    def _guard_corpus_epoch(
        self, tracer=None, run_span=None
    ) -> tuple[dict[str, str], str]:
        """Snapshot the corpus; the session's corpus-epoch guard.

        Taken by every run, cached or not.  When the snapshot is the
        previous one (a store handle hands back the very same mapping
        when no shard changed) the previous epoch stays, with no digest.
        When the session's own store handle made every change since —
        the service's ingest, say — the handle patched the snapshot and
        names the patch (:func:`~repro.pipeline.delta.corpus_patch`):
        the new epoch is digested from the previous epoch and the patch
        (:func:`~repro.pipeline.delta.fingerprint_corpus_patch`), and
        the changed and removed ids come from the patch, so the guard's
        work follows the delta, not the corpus.  A snapshot that was
        read instead — the session's first run, a write by another
        handle or process, an in-memory corpus — is compared with the
        previous one and, if its ``(table id, content hash)`` sequence
        differs, digested whole, its delta taken by a set difference.

        A new epoch evicts the ids whose content changed or went away
        from the analysis memo and from a live store-backed corpus
        view's table cache, so no run reads a table the store has since
        replaced, and the kernel memos age (:meth:`KernelCache.age`),
        which retires what no run used since the change before.  The
        session's first run empties the view's cache and the memo whole
        (``_corpus_epoch`` starts as None).  Stored artifacts stay:
        their keys embed content fingerprints or epochs, so none of them
        can go stale.  An epoch names one snapshot, but one snapshot may
        get several epochs — a fresh session digests whole what this one
        patched — which costs a ``schema_match`` stage miss served from
        the per-table artifacts.  Returns the snapshot and its epoch,
        which the run's backend keys on.

        With a ``tracer``, a ``corpus_guard`` span (kind ``guard``, not
        a stage) under ``run_span`` records whether the epoch was
        reused, how the snapshot was had (``snapshot``: ``"cached"``,
        ``"patched"`` or ``"read"``) and what the change cost.
        """
        span = None
        if tracer is not None:
            span = tracer.begin(
                "corpus_guard",
                "guard",
                parent=run_span.span_id if run_span is not None else None,
            )
        state = corpus_state(self.corpus)
        previous = self._corpus_snapshot
        attrs = {
            "reused": True,
            "snapshot": "cached",
            "changed": 0,
            "removed": 0,
            "memo_pruned": 0,
            "view_evicted": 0,
            "kernel_retired": 0,
        }
        if state is previous:
            epoch = self._corpus_epoch
        elif (patch := corpus_patch(self.corpus, previous, state)) is not None:
            attrs["snapshot"] = "patched"
            epoch = fingerprint_corpus_patch(self._corpus_epoch, patch)
            touched = dict.fromkeys(table_id for table_id, __ in patch)
            attrs.update(
                self._start_epoch(
                    changed=[
                        table_id for table_id in touched
                        if table_id in state
                        and previous.get(table_id) != state[table_id]
                    ],
                    removed=[
                        table_id for table_id in touched
                        if table_id in previous and table_id not in state
                    ],
                )
            )
            self._corpus_order.apply(patch)
            self._corpus_epoch, self._corpus_snapshot = epoch, state
        else:
            attrs["snapshot"] = "read"
            # Order-sensitive, as the fingerprint is: the same pairs in
            # another ingest order are another epoch.
            if previous is not None and list(state.items()) == list(
                previous.items()
            ):
                epoch = self._corpus_epoch
                self._corpus_snapshot = state
            else:
                epoch = fingerprint_corpus_state(state, order=list(state))
                if previous is None:
                    attrs.update(self._start_epoch(changed=state, removed=()))
                else:
                    attrs.update(
                        self._start_epoch(
                            changed={
                                table_id
                                for table_id, __ in state.items()
                                - previous.items()
                            },
                            removed=previous.keys() - state.keys(),
                        )
                    )
                self._corpus_order = SnapshotOrder(state)
                self._corpus_epoch, self._corpus_snapshot = epoch, state
        if span is not None:
            tracer.end(span, attrs)
        return state, epoch

    def _start_epoch(
        self, changed: Collection[str], removed: Collection[str]
    ) -> dict:
        """Evict what a snapshot change touched; the guard span's attrs.

        The first epoch (no snapshot before) drops the memo and the
        view's cache whole."""
        invalidate = getattr(self.corpus, "invalidate", None)
        if self._corpus_snapshot is None:
            pruned = len(self.analysis_memo)
            self.analysis_memo.clear()
            evicted = invalidate() if invalidate is not None else 0
        else:
            touched = [*changed, *removed]
            pruned = self.analysis_memo.evict(changed, removed)
            evicted = invalidate(touched) if invalidate is not None else 0
        return {
            "reused": False,
            "changed": len(changed),
            "removed": len(removed),
            "memo_pruned": pruned,
            "view_evicted": evicted,
            "kernel_retired": self.kernels.age(),
        }

    def _kb_fingerprint(self) -> str:
        """The session KB's structural digest, computed once.

        Sessions treat the knowledge base as immutable (every run shares
        it); mutating it mid-session requires a fresh session.
        """
        if self._kb_fp is None:
            self._kb_fp = fingerprint_kb(self.knowledge_base)
        return self._kb_fp

    def _models_fingerprint(self, models: PipelineModels) -> str:
        token = self._identity_token(models)
        fingerprint = self._models_fps.get(token)
        if fingerprint is None:
            fingerprint = pickle_digest(models)
            self._models_fps[token] = fingerprint
        return fingerprint

    def _resolve_models(
        self, models: PipelineModels | None, config: PipelineConfig
    ) -> PipelineModels:
        if models is not None:
            return models
        if self.models is not None:
            return self.models
        key = config_hash(config)
        if key not in self._default_models:
            self._default_models[key] = PipelineModels(
                row_aggregator=StaticWeightedAggregator(
                    {
                        name: _DEFAULT_ROW_WEIGHTS[name]
                        for name in config.row_metric_names
                    },
                    threshold=0.60,
                ),
                entity_aggregator=StaticWeightedAggregator(
                    {
                        name: _DEFAULT_ENTITY_WEIGHTS[name]
                        for name in config.entity_metric_names
                    },
                    threshold=0.60,
                ),
            )
        return self._default_models[key]

    def _identity_token(self, obj: object) -> int:
        """A session-stable identity token for an unhashable key part."""
        for token, known in enumerate(self._identity_registry):
            if known is obj:
                return token
        self._identity_registry.append(obj)
        return len(self._identity_registry) - 1

    @staticmethod
    def _restriction_key(
        table_ids: list[str] | None,
        row_ids: set[RowId] | None,
        known_classes: dict[str, str] | None,
    ) -> tuple:
        return (
            tuple(table_ids) if table_ids is not None else None,
            tuple(sorted(row_ids)) if row_ids is not None else None,
            tuple(sorted(known_classes.items()))
            if known_classes is not None
            else None,
        )
