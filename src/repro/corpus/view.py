"""A lazy, cache-bounded :class:`TableCorpus` view over a :class:`CorpusStore`.

Every pipeline stage takes a :class:`~repro.webtables.corpus.TableCorpus`;
:class:`StoredCorpusView` *is* one (subclass), but resolves tables from
the sharded store on demand and keeps only a bounded LRU cache of
materialized :class:`WebTable` objects in memory.  Store-backed and
in-memory runs therefore execute the exact same stage code over the same
table order, which is what makes the two paths produce identical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

from repro.corpus.store import CorpusStore
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import Row, RowId, WebTable


class StoredCorpusView(TableCorpus):
    """Drop-in corpus backed by an on-disk store instead of a dict.

    ``cache_size`` bounds the number of decoded tables held in memory
    (schema matching revisits tables heavily, so even a small cache
    absorbs most lookups).  :meth:`add` writes through to the store with
    the same duplicate-id semantics as the in-memory corpus.
    """

    def __init__(self, store: CorpusStore, cache_size: int = 256) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        super().__init__()
        self.store = store
        self._cache_size = cache_size
        self._cache: OrderedDict[str, WebTable] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- mutation -------------------------------------------------------
    def add(self, table: WebTable) -> None:
        try:
            outcome = self.store.put(table, on_conflict="error")
        except ValueError:
            raise ValueError(
                f"duplicate table id: {table.table_id!r} — already stored "
                f"with different content in {self.store.directory}"
            ) from None
        if outcome != "inserted":
            # Same strictness as TableCorpus.add: re-adding raises even
            # when the content is identical.
            raise ValueError(
                f"duplicate table id: {table.table_id!r} — already stored "
                f"in {self.store.directory}"
            )
        self._remember(table)

    # -- reads ----------------------------------------------------------
    def get(self, table_id: str) -> WebTable:
        cached = self._cache.get(table_id)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(table_id)
            return cached
        self.cache_misses += 1
        table = self.store.get(table_id)  # raises a descriptive KeyError
        self._remember(table)
        return table

    def row(self, row_id: RowId) -> Row:
        table_id, row_index = row_id
        return self.get(table_id).row(row_index)

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self) -> Iterator[WebTable]:
        return iter(self.store)

    def __contains__(self, table_id: str) -> bool:
        return table_id in self._cache or table_id in self.store

    def table_ids(self) -> list[str]:
        return self.store.table_ids()

    def total_rows(self) -> int:
        return self.store.total_rows()

    def invalidate(self, table_ids: Iterable[str] | None = None) -> int:
        """Drop cached tables after the backing store mutated; returns
        how many were dropped.

        Incremental ingestion rewrites store content underneath a live
        view; the view must not keep serving pre-delta tables.  With no
        argument the whole cache is dropped; with ``table_ids`` (the
        session's epoch guard passes the ids whose content changed) only
        those entries are evicted.
        """
        if table_ids is None:
            dropped = len(self._cache)
            self._cache.clear()
            return dropped
        dropped = 0
        for table_id in table_ids:
            if self._cache.pop(table_id, None) is not None:
                dropped += 1
        return dropped

    # -- diagnostics ----------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "capacity": self._cache_size,
        }

    # -- internals ------------------------------------------------------
    def _remember(self, table: WebTable) -> None:
        self._cache[table.table_id] = table
        self._cache.move_to_end(table.table_id)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
