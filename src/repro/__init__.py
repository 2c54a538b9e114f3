"""Long Tail Entity Extraction (LTEE) from web table data.

Reproduction of Oulabi & Bizer, "Extending Cross-Domain Knowledge Bases with
Long Tail Entities using Web Table Data", EDBT 2019.

The public API is organised around a **service layer** and **composable
stages**:

* :class:`RunSession` (:mod:`repro.api`) — owns a world (KB + corpus)
  loaded once, serves single runs, batch runs, stage substitution,
  observer hooks and a content-keyed artifact store across runs.
* :mod:`repro.pipeline.stages` — the paper's four Figure-1 components as
  :class:`PipelineStage` objects (``schema_match`` →
  ``cluster`` → ``fuse`` → ``detect``) over a shared
  :class:`PipelineState`.

Module map:

* :mod:`repro.kb` — the knowledge base to be extended.
* :mod:`repro.webtables` — the relational web table corpus.
* :mod:`repro.corpus` — scalable corpus backend: streaming readers,
  the sharded on-disk :class:`CorpusStore` and ingest-time filters
  (``repro ingest``, :meth:`RunSession.from_corpus_store`).
* :mod:`repro.matching` — schema matching (table-to-class and
  attribute-to-property).
* :mod:`repro.clustering` — row clustering via correlation clustering.
* :mod:`repro.fusion` — entity creation (value fusion).
* :mod:`repro.newdetect` — new-instance detection.
* :mod:`repro.parallel` — the in-process executor for the hot paths:
  a ``map_batches`` API with input-order results, per-batch observer
  hooks (which tracing turns into ``chunk:<task>`` spans) and failure
  provenance.
* :mod:`repro.pipeline` — stage protocol, orchestration and the paper's
  evaluation protocols.
* :mod:`repro.api` — the :class:`RunSession` service layer.
* :mod:`repro.serve` — the long-lived HTTP service over a persistent
  session (``repro serve``): single-writer ingest queue, immutable
  atomically-swapped result snapshots, entity/fact/provenance reads,
  health + metrics, and the thin :class:`ServiceClient`.
* :mod:`repro.synthesis` — a seeded synthetic substitute for DBpedia 2014
  and the WDC 2012 corpus (see DESIGN.md for the substitution argument).
* :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    from repro import RunSession
    from repro.obs import trace_summary

    session = RunSession.from_seed(seed=7, scale=0.25)
    result = session.run("Song", trace=True)
    print(result.summary())
    # The run's span log is its timing record: stage seconds and
    # kernel counters are summed from it.
    print(trace_summary(session.last_trace.events())["stage_seconds"])

    # Batch runs share the session's world and artifact store:
    results = session.run_many(["Song", "Settlement"])

Any knowledge base and corpus run the same way; ``use_cache=False``
computes every stage afresh::

    from repro import RunSession, build_world

    world = build_world(seed=7)
    session = RunSession(
        knowledge_base=world.knowledge_base, corpus=world.corpus
    )
    result = session.run("Song", use_cache=False)
"""

__all__ = [
    "PipelineConfig",
    "PipelineModels",
    "PipelineResult",
    "RunSession",
    "ProgressObserver",
    "config_hash",
    "PipelineStage",
    "PipelineState",
    "PipelineObserver",
    "STAGES",
    "DEFAULT_STAGE_NAMES",
    "SchemaMatchStage",
    "ClusterStage",
    "FuseStage",
    "DetectStage",
    "build_duplicate_evidence",
    "build_world",
    "build_gold_standard",
    "CorpusStore",
    "StoredCorpusView",
    "IngestReport",
    "ArtifactStore",
    "IncrementalRunReport",
    "open_table_stream",
    "ExecutorError",
    "ExecutorObserver",
    "SerialExecutor",
    "make_executor",
    "KBService",
    "ServiceClient",
    "ServiceError",
    "__version__",
]

__version__ = "1.5.0"

# Lazy attribute resolution keeps `import repro.text` cheap and lets the
# submodules stay independent.
_LAZY_EXPORTS = {
    "PipelineConfig": ("repro.pipeline.pipeline", "PipelineConfig"),
    "PipelineModels": ("repro.pipeline.pipeline", "PipelineModels"),
    "build_duplicate_evidence": (
        "repro.pipeline.pipeline",
        "build_duplicate_evidence",
    ),
    "PipelineResult": ("repro.pipeline.result", "PipelineResult"),
    "RunSession": ("repro.api", "RunSession"),
    "ProgressObserver": ("repro.api", "ProgressObserver"),
    "config_hash": ("repro.api", "config_hash"),
    "PipelineStage": ("repro.pipeline.stages", "PipelineStage"),
    "PipelineState": ("repro.pipeline.stages", "PipelineState"),
    "PipelineObserver": ("repro.pipeline.stages", "PipelineObserver"),
    "STAGES": ("repro.pipeline.stages", "STAGES"),
    "DEFAULT_STAGE_NAMES": ("repro.pipeline.stages", "DEFAULT_STAGE_NAMES"),
    "SchemaMatchStage": ("repro.pipeline.stages", "SchemaMatchStage"),
    "ClusterStage": ("repro.pipeline.stages", "ClusterStage"),
    "FuseStage": ("repro.pipeline.stages", "FuseStage"),
    "DetectStage": ("repro.pipeline.stages", "DetectStage"),
    "build_world": ("repro.synthesis.api", "build_world"),
    "build_gold_standard": ("repro.synthesis.api", "build_gold_standard"),
    "CorpusStore": ("repro.corpus.store", "CorpusStore"),
    "StoredCorpusView": ("repro.corpus.view", "StoredCorpusView"),
    "IngestReport": ("repro.corpus.store", "IngestReport"),
    "ArtifactStore": ("repro.pipeline.artifacts", "ArtifactStore"),
    "IncrementalRunReport": (
        "repro.pipeline.artifacts",
        "IncrementalRunReport",
    ),
    "open_table_stream": ("repro.corpus.readers", "open_table_stream"),
    "ExecutorError": ("repro.parallel", "ExecutorError"),
    "ExecutorObserver": ("repro.parallel", "ExecutorObserver"),
    "SerialExecutor": ("repro.parallel", "SerialExecutor"),
    "make_executor": ("repro.parallel", "make_executor"),
    "KBService": ("repro.serve", "KBService"),
    "ServiceClient": ("repro.serve", "ServiceClient"),
    "ServiceError": ("repro.serve", "ServiceError"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)
