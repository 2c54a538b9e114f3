"""Scalable corpus subsystem: streaming ingestion, sharded storage, filtering.

The paper's pipeline consumes a *filtered slice* of a web-scale table
corpus; this package makes that practical:

* :mod:`repro.corpus.readers` — streaming readers for JSONL, CSV
  directories and WDC-style JSON dumps, yielding one
  :class:`~repro.webtables.table.WebTable` at a time.
* :mod:`repro.corpus.store` — :class:`CorpusStore`, a sharded,
  content-addressed SQLite store with idempotent batch ingestion.
* :mod:`repro.corpus.view` — :class:`StoredCorpusView`, a lazy
  :class:`~repro.webtables.corpus.TableCorpus`-compatible view so every
  pipeline stage runs unchanged against the on-disk backend.
* :mod:`repro.corpus.filters` — ingest-time corpus filtering (shape,
  subject-column, class restriction), the paper's corpus-filtering step.

Entry points: ``repro ingest`` (CLI) and
:meth:`repro.api.RunSession.from_corpus_store`.
"""

from repro.corpus.filters import (
    ClassRestrictionFilter,
    CorpusFilter,
    HeaderKeywordFilter,
    ShapeFilter,
    SubjectColumnFilter,
    TableAnalysis,
)
from repro.corpus.readers import (
    READER_FORMATS,
    iter_csv_directory,
    iter_jsonl,
    iter_wdc,
    open_table_stream,
    sniff_format,
)
from repro.corpus.store import CorpusStore, IngestReport, content_hash, shard_of
from repro.corpus.view import StoredCorpusView

__all__ = [
    "CorpusStore",
    "StoredCorpusView",
    "IngestReport",
    "CorpusFilter",
    "ShapeFilter",
    "SubjectColumnFilter",
    "ClassRestrictionFilter",
    "HeaderKeywordFilter",
    "TableAnalysis",
    "open_table_stream",
    "sniff_format",
    "iter_jsonl",
    "iter_csv_directory",
    "iter_wdc",
    "READER_FORMATS",
    "content_hash",
    "shard_of",
]
