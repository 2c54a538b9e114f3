"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build-world`` — generate the synthetic world and save corpus / KB /
  gold standards to a directory.
* ``run`` — run the (default, untrained) pipeline for one or more
  classes through a :class:`repro.api.RunSession` and print the
  summaries (``--json`` for machine-readable output, ``--stages`` to
  substitute the stage sequence, ``--fusion`` / ``--iterations`` to
  change the paper knobs).  ``--store`` runs over an ingested corpus
  store instead of the synthetic world and serves unchanged artifacts
  from the store's persistent artifact store.  Every class run is
  traced (in memory unless ``--trace`` names a log), and ``--json``'s
  ``stage_seconds`` and ``kernel_counters`` are summed from those span
  logs.
* ``experiment`` — regenerate one paper table/figure by experiment id
  (``table01`` … ``table12``, ``figure01``, ``ranked_eval``).
* ``ingest`` — stream web tables (JSONL / CSV directory / WDC JSON) into
  a sharded on-disk corpus store with optional ingest-time filtering;
  the result serves ``RunSession.from_corpus_store``.  ``--then-run``
  chains a store-served pipeline run for the named classes straight
  after the ingest — the ingest→run loop of a continuously growing
  corpus in one command.  ``--json`` emits the full machine-readable
  :class:`~repro.corpus.store.IngestReport` (including the
  inserted/replaced/dirty table ids), the same document the service's
  ``POST /ingest`` answers with.
* ``serve`` — hold a persistent session over a corpus store and serve
  it over HTTP: ``POST /ingest``, ``POST /runs`` + ``GET /runs/<id>``,
  ``GET /entities`` / ``GET /facts`` with provenance, ``GET /health`` /
  ``GET /metrics``, and ``GET /runs/<id>/events`` streaming each run's
  trace live as NDJSON.  One writer thread serializes all mutations;
  readers see immutable atomically-swapped snapshots byte-identical to
  batch ``repro run --store`` output.  ``--access-log`` prints
  one structured line per request (method, path, status, ms, trace id).
* ``trace`` — render a recorded run trace (an NDJSON event log written
  by ``run --trace``, ``ingest --trace`` or the service) as a span tree
  on stdout; ``--chrome out.json`` exports the same events as a Chrome
  ``chrome://tracing`` / Perfetto trace, ``--summary`` prints per-kind
  span counts and total seconds.
* ``fsck`` — verify a store directory's integrity offline (CorpusStore
  shards, artifact store, service journal) and optionally
  repair it: ``--repair`` quarantines corrupt objects under
  ``<store>/quarantine/`` and prunes or rebuilds what the stores can
  regenerate.  Exit 0 = clean after this invocation, 1 = unrepaired
  findings remain, 2 = usage error.

Ctrl-C anywhere exits cleanly: no traceback, exit code 130 (the shell
convention for SIGINT), with the serve loop closing its server + writer
thread on the way out.  SIGTERM gets the matching graceful contract on
the long-lived commands: ``serve`` stops accepting, drains its writer
queue, and exits 143.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

CLASS_CHOICES = ("GridironFootballPlayer", "Song", "Settlement")

EXPERIMENT_IDS = tuple(
    [f"table{number:02d}" for number in range(1, 13)] + ["figure01", "ranked_eval"]
)


def _cmd_build_world(args: argparse.Namespace) -> int:
    from repro.io import save_gold_standard, save_world_directory
    from repro.synthesis.api import build_gold_standard, build_world
    from repro.synthesis.profiles import CLASS_SPECS, WorldScale

    world = build_world(seed=args.seed, scale=WorldScale(args.scale))
    output = save_world_directory(world, Path(args.output))
    for class_name in CLASS_SPECS:
        gold = build_gold_standard(world, class_name)
        save_gold_standard(gold, output / f"gold_{class_name}.json")
    print(f"world written to {output}/ "
          f"({len(world.corpus)} tables, {len(world.knowledge_base)} instances)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import ProgressObserver, RunSession
    from repro.obs import Tracer, trace_summary
    from repro.pipeline.pipeline import PipelineConfig
    from repro.pipeline.stages import STAGES

    stages = args.stages.split(",") if args.stages else None
    if stages is not None:
        unknown = [name for name in stages if name not in STAGES]
        if unknown:
            known = ", ".join(STAGES)
            print(f"error: unknown stage(s) {', '.join(unknown)}; "
                  f"registered stages: {known}")
            return 2
    if not args.store:
        unknown = [name for name in args.classes if name not in CLASS_CHOICES]
        if unknown:
            print(f"error: unknown class(es) {', '.join(unknown)}; "
                  f"the synthetic world holds {', '.join(CLASS_CHOICES)}")
            return 2
    try:
        config = PipelineConfig(
            iterations=args.iterations,
            fusion_scoring=args.fusion,
            dedup_new_entities=args.dedup,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    observers = [] if args.quiet else [ProgressObserver()]
    try:
        if args.store:
            session = RunSession.from_corpus_store(
                args.store, kb_path=args.kb, config=config,
                observers=observers,
            )
        else:
            session = RunSession.from_seed(
                seed=args.seed, scale=args.scale, config=config,
                observers=observers,
            )
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}")
        return 2
    results = {}
    reports = {}
    traces = {}
    events: list[dict] = []
    class_names = list(dict.fromkeys(args.classes))
    try:
        for class_name in class_names:
            # Every run is traced: the span log is where stage seconds
            # and kernel counters come from.  Without --trace it stays
            # in memory.
            destination = _trace_destination(
                args.trace, class_name, len(class_names)
            )
            results[class_name] = session.run(
                class_name,
                stages=stages,
                trace=destination if destination is not None else Tracer(),
            )
            run_events = session.last_trace.events()
            events.extend(run_events)
            if destination is not None:
                traces[class_name] = {
                    "path": str(destination),
                    "events": len(run_events),
                }
            reports[class_name] = session.last_incremental_report
    finally:
        session.artifact_store.close()
    if args.as_json:
        timings = trace_summary(events)
        document = {
            "seed": args.seed,
            "scale": args.scale,
            "executor": config.executor,
            "workers": config.workers,
            "results": [result.summary_dict() for result in results.values()],
            "stage_seconds": {
                name: round(seconds, 4)
                for name, seconds in timings["stage_seconds"].items()
            },
            "kernel_counters": timings["kernel_counters"],
        }
        if args.store:
            document["store"] = args.store
        document["incremental"] = {
            class_name: report.to_dict()
            for class_name, report in reports.items()
        }
        if traces:
            document["traces"] = traces
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print("\n\n".join(result.summary() for result in results.values()))
        for class_name, report in reports.items():
            print(f"\nincremental [{class_name}]:")
            print(report.summary())
        for class_name, info in traces.items():
            print(f"trace [{class_name}]: {info['events']} events "
                  f"written to {info['path']}", file=sys.stderr)
    return 0


def _trace_destination(
    trace: str | None, class_name: str, n_classes: int
) -> Path | None:
    """The per-class event-log path of ``run --trace PATH``.

    With one class the path is used verbatim; with several, each class
    gets its own log (``events.ndjson`` → ``events.Song.ndjson``) so
    the per-run sequence numbers stay monotonic within each file.
    """
    if trace is None:
        return None
    path = Path(trace)
    if n_classes == 1:
        return path
    return path.with_name(f"{path.stem}.{class_name}{path.suffix}")


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.corpus import (
        ClassRestrictionFilter,
        CorpusStore,
        ShapeFilter,
        SubjectColumnFilter,
        open_table_stream,
    )

    filters: list = []
    if args.min_rows is not None or args.min_columns is not None:
        filters.append(
            ShapeFilter(
                min_rows=args.min_rows if args.min_rows is not None else 1,
                min_columns=(
                    args.min_columns if args.min_columns is not None else 1
                ),
            )
        )
    if args.require_subject_column:
        filters.append(SubjectColumnFilter())
    if args.classes:
        if not args.kb:
            print("error: --classes needs --kb <knowledge_base.json>")
            return 2
        from repro.io import load_knowledge_base

        filters.append(
            ClassRestrictionFilter(load_knowledge_base(args.kb), args.classes)
        )
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(path=args.trace)
    try:
        stream = open_table_stream(args.input, format=args.format)
        store = CorpusStore.open_or_create(args.store, shards=args.shards)
        report = store.ingest(
            stream,
            filters=filters,
            on_conflict=args.on_conflict,
            batch_size=args.batch_size,
            tracer=tracer,
        )
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}")
        return 2
    finally:
        if tracer is not None:
            n_trace_events = len(tracer.events())
            tracer.close()
    if tracer is not None:
        print(f"trace: {n_trace_events} events written to {args.trace}",
              file=sys.stderr)
    run_results = {}
    run_reports = {}
    if args.then_run:
        from repro.api import RunSession

        try:
            session = RunSession.from_corpus_store(store, kb_path=args.kb)
        except (ValueError, FileNotFoundError) as error:
            print(f"error: --then-run failed: {error}")
            return 2
        try:
            for class_name in dict.fromkeys(args.then_run):
                run_results[class_name] = session.run(class_name)
                run_reports[class_name] = session.last_incremental_report
        finally:
            session.artifact_store.close()
    if args.as_json:
        document = {
            "store": str(store.directory),
            "shards": store.n_shards,
            "tables": len(store),
            "rows": store.total_rows(),
            # The full shared report shape — counters plus the
            # inserted/replaced/dirty table ids the service also emits.
            "report": report.to_dict(),
        }
        if run_results:
            document["results"] = [
                result.summary_dict() for result in run_results.values()
            ]
            document["incremental"] = {
                class_name: run_report.to_dict()
                for class_name, run_report in run_reports.items()
            }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"ingested into {store.directory} "
              f"({store.n_shards} shards): {report.summary()}")
        print(f"store now holds {len(store)} tables / "
              f"{store.total_rows()} rows")
        for class_name, result in run_results.items():
            print()
            print(result.summary())
            print(f"incremental [{class_name}]:")
            print(run_reports[class_name].summary())
    return 0


class _Terminated(BaseException):
    """Raised by the SIGTERM handler to unwind a long-lived command.

    A ``BaseException``, like ``KeyboardInterrupt``: the signal can land
    while ``serve_forever`` is starting a handler thread, and
    ``socketserver`` swallows any ``Exception`` raised there.
    """


def _cmd_serve(args: argparse.Namespace) -> int:
    import gc
    import signal

    from repro.serve import KBService, make_server

    config = None
    if args.executor is not None or args.workers is not None:
        from repro.pipeline.pipeline import PipelineConfig

        overrides = {}
        if args.executor is not None:
            overrides["executor"] = args.executor
        if args.workers is not None:
            overrides["workers"] = args.workers
        try:
            config = PipelineConfig(**overrides)
        except ValueError as error:
            print(f"error: {error}")
            return 2
    try:
        service = KBService.from_store(
            args.store, kb_path=args.kb, config=config,
            max_queue_depth=args.max_queue_depth,
        )
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}")
        return 2
    recovered = [
        document
        for document in service.run_documents()
        if document.get("recovered")
    ]
    if recovered:
        print(f"recovered {len(recovered)} pending run(s) from the "
              f"journal: "
              f"{', '.join(doc['run_id'] for doc in recovered)}",
              file=sys.stderr)
    # The knowledge base and the rest of the start-up heap live as long
    # as the service; frozen, they leave the collector's generations, so
    # a full pass that lands inside a refresh cycle no longer walks them.
    gc.collect()
    gc.freeze()
    service.start()
    if args.warm:
        for class_name in dict.fromkeys(args.warm):
            document = service.submit_run(class_name)
            print(f"warming: queued {document['run_id']} "
                  f"[{class_name}]", file=sys.stderr)
    try:
        server = make_server(
            service, host=args.host, port=args.port, quiet=args.quiet,
            access_log=args.access_log,
            request_timeout=args.request_timeout or None,
            max_body_bytes=args.max_body_bytes,
        )
    except ValueError as error:
        service.close()
        print(f"error: {error}")
        return 2
    host, port = server.server_address[:2]
    print(f"serving {args.store} on http://{host}:{port} "
          f"(Ctrl-C to stop)", file=sys.stderr)

    # SIGTERM must escape serve_forever on the main thread; calling
    # server.shutdown() from the handler would deadlock (it waits for
    # the very loop the handler interrupted), so the handler raises.
    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        raise _Terminated()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    # A shell starts a background job with SIGINT ignored, and Python
    # then installs no Ctrl-C handler; serve still stops on SIGINT.
    previous_int = signal.signal(signal.SIGINT, signal.default_int_handler)
    exit_code = 0
    try:
        server.serve_forever()
    except _Terminated:
        print("terminated", file=sys.stderr)
        exit_code = 143
    finally:
        # Runs on Ctrl-C and SIGTERM too — the cleanup releases the
        # port and lets the writer drain every queued job (close()
        # enqueues its stop sentinel *behind* pending work).
        signal.signal(signal.SIGTERM, previous)
        signal.signal(signal.SIGINT, previous_int)
        server.server_close()
        service.close()
    return exit_code


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.fsck import run_fsck

    try:
        report = run_fsck(
            args.store, repair=args.repair, quarantine_dir=args.quarantine
        )
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 2
    document = report.to_dict()
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        checked = ", ".join(
            f"{component} " + "/".join(
                f"{count} {unit}" for unit, count in counts.items()
            )
            for component, counts in document["checked"].items()
        )
        print(f"fsck {report.store}: checked {checked}")
        for finding in report.findings:
            marker = "repaired" if finding.repaired else finding.severity
            print(f"  [{marker}] {finding.component}.{finding.kind}: "
                  f"{finding.detail}")
            if finding.action:
                print(f"      -> {finding.action}")
        summary = document["summary"]
        verdict = "clean" if report.clean else "NOT clean"
        print(f"{verdict}: {summary['errors']} error(s), "
              f"{summary['warnings']} warning(s), "
              f"{summary['repaired']} repaired")
    return 0 if report.clean else 1


def _resolve_trace_log(target: str, run_id: str | None) -> Path:
    """Locate the event log ``repro trace`` should render.

    ``target`` is an NDJSON file, a corpus-store / artifact directory
    (searched under ``traces/``, then flat), or a directory plus
    ``--run`` naming one log by stem.  Directories resolve to the most
    recently modified log when ``--run`` is not given.
    """
    path = Path(target)
    if path.is_file():
        return path
    if path.is_dir():
        for candidate_dir in (path / "traces", path / "artifacts" / "traces", path):
            if not candidate_dir.is_dir():
                continue
            if run_id is not None:
                candidate = candidate_dir / f"{run_id}.ndjson"
                if candidate.is_file():
                    return candidate
                continue
            logs = sorted(
                candidate_dir.glob("*.ndjson"),
                key=lambda p: p.stat().st_mtime,
            )
            if logs:
                return logs[-1]
        if run_id is not None:
            raise FileNotFoundError(
                f"no event log for run '{run_id}' under {path}"
            )
        raise FileNotFoundError(f"no *.ndjson event logs under {path}")
    raise FileNotFoundError(f"no such trace: {target}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        chrome_trace_json,
        read_events,
        render_tree,
        trace_summary,
    )

    try:
        log_path = _resolve_trace_log(args.trace, args.run)
        events = list(read_events(log_path))
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}")
        return 2
    if not events:
        print(f"error: {log_path} holds no events")
        return 2
    print(f"trace: {log_path} ({len(events)} events)", file=sys.stderr)
    if args.chrome:
        output = Path(args.chrome)
        output.write_text(chrome_trace_json(events), encoding="utf-8")
        print(f"chrome trace written to {output} "
              f"(load via chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    if args.summary:
        summary = trace_summary(events)
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif not args.chrome or args.tree:
        print(render_tree(events, attrs=not args.no_attrs))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.env import get_env

    module = importlib.import_module(f"repro.experiments.{args.experiment}")
    env = get_env(seed=args.seed, scale_factor=args.scale)
    print(module.run(env).format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.parallel import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Long Tail Entity Extraction from web tables "
                    "(Oulabi & Bizer, EDBT 2019 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build-world", help="generate + save the world")
    build.add_argument("--seed", type=int, default=7)
    build.add_argument("--scale", type=float, default=0.25)
    build.add_argument("--output", default="world_out")
    build.set_defaults(handler=_cmd_build_world)

    run = subparsers.add_parser("run", help="run the default pipeline")
    run.add_argument("classes", nargs="+",
                     metavar="class",
                     help=f"one or more of {CLASS_CHOICES} (any KB class "
                          f"with --store)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--scale", type=float, default=0.25)
    run.add_argument("--store", default=None,
                     help="run over an ingested corpus store directory "
                          "instead of the synthetic seed world, reusing "
                          "the artifacts stored under it and recomputing "
                          "only what the corpus delta invalidates "
                          "(--seed/--scale are ignored)")
    run.add_argument("--kb", default=None,
                     help="knowledge base JSON for --store (default: "
                          "knowledge_base.json inside the store)")
    run.add_argument("--iterations", type=int, default=2,
                     help="pipeline iterations (paper default: 2)")
    run.add_argument("--fusion", choices=("voting", "kbt", "matching"),
                     default="voting",
                     help="fusion scoring approach (Section 3.3)")
    run.add_argument("--stages", default=None,
                     help="comma-separated stage names to run instead of "
                          "the full schema_match,cluster,fuse,detect")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print a machine-readable JSON report")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-stage progress lines on stderr")
    run.add_argument("--dedup", action="store_true",
                     help="deduplicate new entities (Section 5 extension)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a span/event trace of the run to PATH "
                          "(NDJSON; render with `repro trace PATH`); with "
                          "several classes each gets its own "
                          "PATH.<class>.ndjson log")
    run.set_defaults(handler=_cmd_run)

    ingest = subparsers.add_parser(
        "ingest", help="stream web tables into a sharded corpus store"
    )
    ingest.add_argument("input", help="JSONL file, CSV directory, or WDC dump")
    ingest.add_argument("--store", required=True,
                        help="corpus store directory (created if missing)")
    ingest.add_argument("--format", choices=("jsonl", "csvdir", "wdc"),
                        default=None,
                        help="source layout (default: sniffed from the path)")
    ingest.add_argument("--shards", type=int, default=4,
                        help="shard count when creating a new store")
    ingest.add_argument("--batch-size", type=int, default=512)
    ingest.add_argument("--on-conflict", choices=("skip", "replace", "error"),
                        default="skip",
                        help="policy when an id arrives with changed content")
    ingest.add_argument("--min-rows", type=int, default=None)
    ingest.add_argument("--min-columns", type=int, default=None)
    ingest.add_argument("--require-subject-column", action="store_true",
                        help="drop tables without a detectable label column")
    ingest.add_argument("--kb", default=None,
                        help="knowledge base JSON for --classes restriction")
    ingest.add_argument("--classes", nargs="*", default=None,
                        help="keep only tables matching these KB classes")
    ingest.add_argument("--then-run", nargs="+", default=None,
                        metavar="CLASS", dest="then_run",
                        help="after ingesting, run the pipeline "
                             "incrementally for these classes (needs a "
                             "knowledge base via --kb or "
                             "knowledge_base.json in the store)")
    ingest.add_argument("--trace", default=None, metavar="PATH",
                        help="record per-shard write spans to PATH "
                             "(NDJSON; render with `repro trace PATH`)")
    ingest.add_argument("--json", action="store_true", dest="as_json")
    ingest.set_defaults(handler=_cmd_ingest)


    serve = subparsers.add_parser(
        "serve", help="serve a corpus store's knowledge base over HTTP"
    )
    serve.add_argument("--store", required=True,
                       help="corpus store directory to serve (the session "
                            "holds it, plus its artifact store, for the "
                            "whole process lifetime)")
    serve.add_argument("--kb", default=None,
                       help="knowledge base JSON (default: "
                            "knowledge_base.json inside the store)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--executor", choices=EXECUTOR_NAMES,
                       default=None,
                       help="executor for the writer's runs; 'serial' "
                            "(in this process) is the only one")
    serve.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; must be >= 1")
    serve.add_argument("--warm", nargs="*", default=None, metavar="CLASS",
                       help="queue an incremental run for these classes at "
                            "startup so the first readers hit a published "
                            "snapshot")
    serve.add_argument("--quiet", action="store_true", default=True,
                       help=argparse.SUPPRESS)
    serve.add_argument("--verbose", action="store_false", dest="quiet",
                       help="log one line per served HTTP request")
    serve.add_argument("--access-log", action="store_true",
                       dest="access_log",
                       help="print one structured JSON line per request "
                            "to stderr (method, path, status, ms, trace "
                            "id)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       dest="request_timeout", metavar="SECONDS",
                       help="per-request socket read timeout; a hung "
                            "client gets 408 instead of pinning a "
                            "handler thread (default: 30; 0 disables)")
    serve.add_argument("--max-body-bytes", type=int,
                       default=64 * 1024 * 1024, dest="max_body_bytes",
                       metavar="BYTES",
                       help="reject request bodies larger than this with "
                            "413, unread (default: 64 MiB)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       dest="max_queue_depth", metavar="N",
                       help="bound on queued writer jobs; past it new "
                            "ingests/runs get 503 + Retry-After "
                            "(default: 256)")
    serve.set_defaults(handler=_cmd_serve)

    fsck = subparsers.add_parser(
        "fsck",
        help="verify (and optionally repair) a store's on-disk integrity",
    )
    fsck.add_argument("--store", required=True,
                      help="store directory to check: a corpus store "
                           "(its artifacts/ ride along) or a bare "
                           "artifact store")
    fsck.add_argument("--repair", action="store_true",
                      help="quarantine corrupt objects under "
                           "<store>/quarantine/ and prune or rebuild "
                           "what the stores regenerate on their own")
    fsck.add_argument("--quarantine", default=None, metavar="DIR",
                      help="where --repair moves corrupt bytes "
                           "(default: <store>/quarantine)")
    fsck.add_argument("--output", default=None, metavar="PATH",
                      help="also write the machine-readable report JSON "
                           "to PATH")
    fsck.add_argument("--json", action="store_true", dest="as_json",
                      help="print the machine-readable report instead "
                           "of the human summary")
    fsck.set_defaults(handler=_cmd_fsck)

    trace = subparsers.add_parser(
        "trace", help="render a recorded run trace"
    )
    trace.add_argument("trace",
                       help="an NDJSON event log, or a directory holding "
                            "one (a corpus store's artifacts are searched "
                            "under traces/)")
    trace.add_argument("--run", default=None, metavar="RUN_ID",
                       help="with a directory: pick the log of this run "
                            "id (default: the most recently modified)")
    trace.add_argument("--chrome", default=None, metavar="OUT_JSON",
                       help="export a Chrome chrome://tracing / Perfetto "
                            "trace JSON to OUT_JSON")
    trace.add_argument("--tree", action="store_true",
                       help="print the span tree even when --chrome is "
                            "given")
    trace.add_argument("--no-attrs", action="store_true",
                       help="hide span attributes in the tree")
    trace.add_argument("--summary", action="store_true",
                       help="print per-kind span counts and seconds "
                            "instead of the tree")
    trace.set_defaults(handler=_cmd_trace)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("experiment", choices=EXPERIMENT_IDS)
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--scale", type=float, default=0.25)
    experiment.set_defaults(handler=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.faults import current_plan

    # A malformed REPRO_FAULTS fails every command, also one that would
    # reach no injection point (a run served wholly from its cache).
    try:
        current_plan()
    except ValueError as error:
        print(f"error: {error}")
        return 2
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # A clean interrupt contract for every command: `serve` has
        # closed its server + writer thread, so all that is left is to
        # exit without a traceback, non-zero.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
