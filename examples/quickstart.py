"""Quickstart: extend a knowledge base with long tail entities.

Builds the synthetic world (a scaled DBpedia-like knowledge base plus a
WDC-like web table corpus) inside a :class:`repro.RunSession`, runs the
untrained default pipeline on the Song class with per-stage timing, and
prints the new entities it proposes.  A second part demonstrates the
scalable path: streaming the corpus into a sharded on-disk
:class:`repro.CorpusStore` (what ``repro ingest`` does) and serving the
same run from disk with bounded memory.

Run with::

    python examples/quickstart.py

To keep the knowledge base up as a long-lived HTTP service instead of a
one-shot batch run (ingest deltas, trigger incremental runs, query
entities/facts with provenance), see ``examples/serve_quickstart.py``
and ``python -m repro serve --store <store> --port 8023``.
"""

import tempfile
from pathlib import Path

from repro import RunSession
from repro.obs import trace_summary


def main() -> None:
    print("Building synthetic world (KB + web table corpus) ...")
    session = RunSession.from_seed(seed=7, scale=0.25)
    world = session.world
    kb = session.knowledge_base
    print(f"  knowledge base: {len(kb):,} instances")
    print(f"  corpus: {len(session.corpus):,} tables, "
          f"{session.corpus.total_rows():,} rows")

    print("\nRunning the pipeline (untrained defaults) on class Song ...")
    # A traced run records its stages as spans; the per-stage wall time
    # is summed from that span log.
    result = session.run("Song", trace=True)
    print(result.summary())
    print("\nPer-stage wall time:")
    timings = trace_summary(session.last_trace.events())
    for name, seconds in timings["stage_seconds"].items():
        print(f"  {name:<12}  {seconds:8.3f}s")

    print("\nTop proposed new songs:")
    new_entities = sorted(
        result.new_entities(), key=lambda entity: -entity.fact_count()
    )
    for entity in new_entities[:10]:
        facts = ", ".join(
            f"{name}={value}" for name, value in sorted(entity.facts.items())
        )
        print(f"  {entity.primary_label!r}: {facts}")

    truly_new = sum(
        1
        for entity in new_entities
        if (gt := _majority_gt(entity, world)) is not None
        and not world.entities[gt].in_kb
    )
    print(
        f"\n{len(new_entities)} entities proposed as new; "
        f"{truly_new} verified new against ground truth."
    )

    # The session stores stage artifacts: an identical re-run is ~free.
    session.run("Song")
    hits = session.last_incremental_report.stage_hits()
    print(f"re-run served from the artifact store: {hits} stage hits")

    ingest_and_rerun(session, result)


def ingest_and_rerun(session, in_memory_result) -> None:
    """The scalable path: stream the corpus into a sharded on-disk store.

    Equivalent CLI (on a saved world / any JSONL, CSV-dir or WDC dump)::

        repro build-world --output world/
        repro ingest world/corpus.jsonl --store store/ --shards 4 \\
            --min-rows 2 --require-subject-column
        # then in Python: RunSession.from_corpus_store("store/")
    """
    from repro import CorpusStore
    from repro.corpus import ShapeFilter, SubjectColumnFilter

    print("\nIngesting the corpus into a sharded on-disk store ...")
    with tempfile.TemporaryDirectory() as tmp:
        store = CorpusStore.create(Path(tmp) / "store", shards=4)
        report = store.ingest(
            iter(session.corpus),  # any WebTable stream works here
            filters=[ShapeFilter(min_rows=2), SubjectColumnFilter()],
        )
        print(f"  {report.summary()}")
        print(f"  shards: {store.shard_sizes()}")

        disk_session = RunSession.from_corpus_store(
            store, knowledge_base=session.knowledge_base
        )
        disk_result = disk_session.run("Song")
        same = (
            disk_result.summary_dict() == in_memory_result.summary_dict()
        )
        print(f"  store-backed re-run matches in-memory run: {same}")
        print(f"  corpus cache: {disk_session.corpus.cache_info()}")


def _majority_gt(entity, world):
    from collections import Counter

    votes = Counter(
        world.row_truth[row_id]
        for row_id in entity.row_ids()
        if row_id in world.row_truth
    )
    if not votes:
        return None
    gt_id, count = votes.most_common(1)[0]
    return gt_id if count * 2 > len(entity.rows) else None


if __name__ == "__main__":
    main()
