"""Tests for the scalable corpus subsystem (repro.corpus).

Covers the streaming readers, the sharded on-disk store (conflict
policies, sharding, multiprocess ingest, reopening), the lazy
TableCorpus-compatible view, ingest-time filters, the incremental corpus
label index, and the `repro ingest` CLI — plus a hypothesis round-trip
property: ingest → store → reload preserves tables, ids, and row
resolution exactly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.corpus import (
    CorpusStore,
    HeaderKeywordFilter,
    ShapeFilter,
    StoredCorpusView,
    SubjectColumnFilter,
    content_hash,
    iter_csv_directory,
    iter_jsonl,
    iter_wdc,
    open_table_stream,
    shard_of,
    sniff_format,
)
from repro.webtables.corpus import TableCorpus
from repro.webtables.table import WebTable

#: A ``label_index.json`` as older releases left it in a store directory.
LEGACY_LABEL_INDEX = '{"fuzzy":true,"tables":{"t0":[["entity 0 row 0",0]]}}'


def make_table(number: int, rows: int = 3, url: str | None = None) -> WebTable:
    return WebTable(
        table_id=f"t{number}",
        header=("name", "year"),
        rows=[(f"entity {number} row {row}", str(2000 + row)) for row in range(rows)],
        url=url if url is not None else f"http://example.org/{number}",
    )


# ----------------------------------------------------------------------
# Streaming readers
# ----------------------------------------------------------------------
class TestReaders:
    def test_jsonl_streams_tables(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for number in range(3):
                table = make_table(number)
                handle.write(json.dumps({
                    "table_id": table.table_id,
                    "header": list(table.header),
                    "rows": [list(row) for row in table.rows],
                    "url": table.url,
                }) + "\n")
        tables = list(iter_jsonl(path))
        assert [table.table_id for table in tables] == ["t0", "t1", "t2"]
        assert tables[0].rows[0] == ("entity 0 row 0", "2000")

    def test_jsonl_pads_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text(json.dumps({
            "table_id": "r1",
            "header": ["a", "b", "c"],
            "rows": [["1"], ["1", "2", "3", "4"]],
        }) + "\n", encoding="utf-8")
        (table,) = list(iter_jsonl(path))
        assert table.rows == [("1", None, None), ("1", "2", "3")]

    def test_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"table_id": "x"\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            list(iter_jsonl(path))

    def test_csv_directory(self, tmp_path):
        (tmp_path / "beta.csv").write_text(
            "name,year\nsong b,2001\n", encoding="utf-8"
        )
        (tmp_path / "alpha.csv").write_text(
            "name,year\nsong a,2000\nsong a2,2002\n", encoding="utf-8"
        )
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        tables = list(iter_csv_directory(tmp_path))
        assert [table.table_id for table in tables] == ["alpha", "beta"]
        assert tables[0].n_rows == 2
        assert tables[0].header == ("name", "year")

    def test_wdc_directory_column_major(self, tmp_path):
        record = {
            "relation": [
                ["name", "song x", "song y"],
                ["year", "2000", "2001"],
            ],
            "hasHeader": True,
            "headerRowIndex": 0,
            "url": "http://example.org/wdc",
        }
        (tmp_path / "one.json").write_text(json.dumps(record), encoding="utf-8")
        (table,) = list(iter_wdc(tmp_path))
        assert table.table_id == "one"
        assert table.header == ("name", "year")
        assert table.rows == [("song x", "2000"), ("song y", "2001")]
        assert table.url == "http://example.org/wdc"

    def test_wdc_headerless_synthesizes_header(self, tmp_path):
        record = {"relation": [["a", "b"], ["1", "2"]], "hasHeader": False}
        (tmp_path / "nohead.json").write_text(json.dumps(record), encoding="utf-8")
        (table,) = list(iter_wdc(tmp_path))
        assert table.header == ("col0", "col1")
        assert table.n_rows == 2

    def test_wdc_jsonl_dump(self, tmp_path):
        path = tmp_path / "dump.json"
        lines = [
            json.dumps({"relation": [["name", "x"]], "tableId": "wdc-1"}),
            json.dumps({"relation": []}),  # non-relational: skipped
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tables = list(iter_wdc(path))
        assert [table.table_id for table in tables] == ["wdc-1"]

    def test_sniffing(self, tmp_path):
        (tmp_path / "x.csv").write_text("a\n1\n", encoding="utf-8")
        assert sniff_format(tmp_path) == "csvdir"
        assert sniff_format(tmp_path / "corpus.jsonl") == "jsonl"
        assert sniff_format(tmp_path / "dump.json") == "wdc"
        with pytest.raises(ValueError, match="cannot sniff"):
            sniff_format(tmp_path / "corpus.parquet")

    def test_open_table_stream_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus format"):
            open_table_stream(tmp_path / "x.jsonl", format="parquet")


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestCorpusStore:
    def test_create_open_roundtrip(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=3)
        store.ingest([make_table(number) for number in range(10)])
        store.close()
        reopened = CorpusStore.open(tmp_path / "store")
        assert len(reopened) == 10
        assert reopened.n_shards == 3
        assert reopened.get("t7").rows == make_table(7).rows
        assert reopened.table_ids() == [f"t{number}" for number in range(10)]

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="repro ingest"):
            CorpusStore.open(tmp_path / "nowhere")

    def test_create_refuses_overwrite(self, tmp_path):
        CorpusStore.create(tmp_path / "store")
        with pytest.raises(ValueError, match="already exists"):
            CorpusStore.create(tmp_path / "store")

    def test_sharding_is_stable_and_spread(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=4)
        store.ingest(make_table(number) for number in range(100))
        sizes = store.shard_sizes()
        assert sum(sizes.values()) == 100
        assert all(size > 0 for size in sizes.values())
        for number in (0, 42, 99):
            assert shard_of(f"t{number}", 4) == shard_of(f"t{number}", 4)

    def test_idempotent_reingest(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=2)
        first = store.ingest([make_table(1), make_table(2)])
        second = store.ingest([make_table(1), make_table(2)])
        assert (first.inserted, second.inserted) == (2, 0)
        assert second.identical == 2
        assert len(store) == 2

    def test_conflict_skip_keeps_stored_version(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store")
        store.ingest([make_table(1, rows=3)])
        report = store.ingest([make_table(1, rows=5)], on_conflict="skip")
        assert report.conflicts == 1
        assert store.get("t1").n_rows == 3

    def test_conflict_replace(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store")
        store.ingest([make_table(1, rows=3)])
        report = store.ingest([make_table(1, rows=5)], on_conflict="replace")
        assert report.replaced == 1
        assert store.get("t1").n_rows == 5

    def test_conflict_error(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store")
        store.ingest([make_table(1, rows=3)])
        with pytest.raises(ValueError, match="conflict"):
            store.ingest([make_table(1, rows=5)], on_conflict="error")

    def test_get_missing_is_descriptive(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store")
        store.ingest([make_table(1)])
        with pytest.raises(KeyError, match="not in corpus store"):
            store.get("absent")

    def test_iteration_order_is_ingest_order(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=5)
        numbers = [5, 3, 8, 1, 9, 0]
        store.ingest(make_table(number) for number in numbers)
        assert [table.table_id for table in store] == [
            f"t{number}" for number in numbers
        ]
        # Order survives reopening and further batches.
        store.close()
        reopened = CorpusStore.open(tmp_path / "store")
        reopened.ingest([make_table(77)])
        assert reopened.table_ids()[-1] == "t77"
        assert reopened.table_ids()[:6] == [f"t{number}" for number in numbers]

    def test_total_rows_and_row_resolution(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest([make_table(1, rows=2), make_table(2, rows=4)])
        assert store.total_rows() == 6
        assert store.row(("t2", 3)).cells == ("entity 2 row 3", "2003")

    def test_content_hash_ignores_id_but_not_content(self):
        base = make_table(1)
        same_content = WebTable(
            table_id="other", header=base.header, rows=list(base.rows),
            url=base.url,
        )
        assert content_hash(base) == content_hash(same_content)
        assert content_hash(base) != content_hash(make_table(1, rows=4))

    def test_replace_preserves_ingest_order(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=3)
        store.ingest([make_table(1), make_table(2), make_table(3)])
        store.ingest([make_table(1, rows=6)], on_conflict="replace")
        assert store.table_ids() == ["t1", "t2", "t3"]
        assert store.get("t1").n_rows == 6

    def test_conflict_error_leaves_all_shards_untouched(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=4)
        store.ingest([make_table(1)])
        # One genuinely new table plus a conflicting one, in one batch:
        # the error must abort before *any* shard commits.
        with pytest.raises(ValueError, match="conflict"):
            store.ingest(
                [make_table(50), make_table(1, rows=9)], on_conflict="error"
            )
        assert "t50" not in store
        assert store.get("t1").n_rows == 3
        assert len(store) == 1

    def test_unchanged_store_hands_back_its_last_snapshot(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=4)
        store.ingest(make_table(number) for number in range(12))
        first = store.content_hashes()
        assert store.content_hashes() is first
        # An identical re-ingest writes nothing, so nothing moves.
        store.ingest([make_table(3)])
        assert store.content_hashes() is first
        store.ingest([make_table(3, rows=5)], on_conflict="replace")
        replaced = store.content_hashes()
        assert replaced is not first
        assert replaced["t3"] == content_hash(make_table(3, rows=5))

    def test_remove_tables_invalidates_the_cached_snapshot(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest(make_table(number) for number in range(6))
        assert "t4" in store.content_hashes()
        assert store.remove_tables(["t4"]) == ["t4"]
        assert sorted(store.content_hashes()) == [
            "t0", "t1", "t2", "t3", "t5"
        ]

    def test_snapshot_after_a_stopped_ingest_holds_committed_shards(
        self, tmp_path
    ):
        """An ingest stopped at its second shard write leaves the first
        shard committed; the next snapshot holds exactly what is stored."""
        from repro import faults
        from repro.faults import FaultInjected

        store = CorpusStore.create(tmp_path / "store", shards=4)
        store.ingest(make_table(number) for number in range(8))
        before = store.content_hashes()
        batch = [make_table(number) for number in range(8, 40)]
        with faults.armed("corpus.shard_write:raise@2"):
            with pytest.raises(FaultInjected):
                store.ingest(batch)
        snapshot = store.content_hashes()
        new_ids = set(snapshot) - set(before)
        assert new_ids  # the first shard's write committed
        first_shard = min(shard_of(table.table_id, 4) for table in batch)
        assert new_ids == {
            table.table_id
            for table in batch
            if shard_of(table.table_id, 4) == first_shard
        }
        reopened = CorpusStore.open(store.directory)
        assert reopened.content_hashes() == snapshot

    def test_ingest_reuses_one_connection_per_shard(
        self, tmp_path, monkeypatch
    ):
        import repro.corpus.store as store_module

        opened = []
        real_connect = store_module._connect

        def counting_connect(path):
            opened.append(path)
            return real_connect(path)

        monkeypatch.setattr(store_module, "_connect", counting_connect)
        store = CorpusStore.create(tmp_path / "store", shards=4)
        report = store.ingest(
            [make_table(number) for number in range(24)], batch_size=5
        )
        store.ingest([make_table(3, rows=7)], on_conflict="replace")
        with pytest.raises(ValueError, match="conflict"):
            store.ingest([make_table(4, rows=7)], on_conflict="error")
        assert report.inserted == 24
        assert store.get("t3").n_rows == 7
        assert len(opened) <= store.n_shards

    def test_skip_counts_within_batch_duplicate_of_rejected_content(
        self, tmp_path
    ):
        store = CorpusStore.create(tmp_path / "store")
        store.ingest([make_table(9, rows=3)])
        report = store.ingest(
            [make_table(9, rows=5), make_table(9, rows=5)],
            on_conflict="skip",
        )
        # Neither copy of the rejected content is stored, so neither may
        # count as "identical".
        assert report.conflicts == 2
        assert report.identical == 0
        assert store.get("t9").n_rows == 3

    def test_filters_counted_per_name(self, tmp_path):
        store = CorpusStore.create(tmp_path / "store")
        tiny = WebTable("tiny", ("a", "b"), [("1", "2")])
        report = store.ingest(
            [make_table(1), tiny],
            filters=[ShapeFilter(min_rows=2)],
        )
        assert report.inserted == 1
        assert report.filtered == {"shape": 1}
        assert "tiny" not in store


# ----------------------------------------------------------------------
# Lazy view
# ----------------------------------------------------------------------
class TestStoredCorpusView:
    @pytest.fixture()
    def view(self, tmp_path) -> StoredCorpusView:
        store = CorpusStore.create(tmp_path / "store", shards=2)
        store.ingest(make_table(number) for number in range(20))
        return store.as_corpus(cache_size=4)

    def test_is_a_table_corpus(self, view):
        assert isinstance(view, TableCorpus)

    def test_reads_match_store(self, view):
        assert len(view) == 20
        assert view.total_rows() == 60
        assert "t3" in view
        assert view.get("t3").table_id == "t3"
        assert view.row(("t4", 1)).cells[0] == "entity 4 row 1"
        assert view.table_ids() == [f"t{number}" for number in range(20)]
        assert next(iter(view)).table_id == "t0"

    def test_cache_is_bounded_lru(self, view):
        for number in range(20):
            view.get(f"t{number}")
        info = view.cache_info()
        assert info["size"] == 4
        assert info["misses"] == 20
        view.get("t19")
        assert view.cache_info()["hits"] == 1

    def test_missing_table_raises_keyerror(self, view):
        with pytest.raises(KeyError, match="not in corpus store"):
            view.get("absent")

    def test_write_through_add(self, view):
        view.add(make_table(100))
        assert "t100" in view.store
        with pytest.raises(ValueError, match="duplicate table id"):
            view.add(make_table(100, rows=5))
        # Same strictness as TableCorpus.add: identical re-add raises too.
        with pytest.raises(ValueError, match="duplicate table id"):
            view.add(make_table(100))


# ----------------------------------------------------------------------
# Filters
# ----------------------------------------------------------------------
class TestFilters:
    def test_shape_filter(self):
        assert ShapeFilter(min_rows=2).accept(make_table(1))
        assert not ShapeFilter(min_rows=4).accept(make_table(1))
        assert not ShapeFilter(max_columns=1).accept(make_table(1))

    def test_subject_column_filter(self):
        assert SubjectColumnFilter().accept(make_table(1))
        numeric_only = WebTable(
            "numbers", ("a", "b"), [("1", "2"), ("3", "4"), ("5", "6")]
        )
        assert not SubjectColumnFilter().accept(numeric_only)
        repeated = WebTable(
            "same", ("name", "n"), [("dup", "1"), ("dup", "2"), ("dup", "3")]
        )
        assert not SubjectColumnFilter(min_unique_labels=2).accept(repeated)

    def test_header_keyword_filter(self):
        keyword_filter = HeaderKeywordFilter(keywords=("Year",))
        assert keyword_filter.accept(make_table(1))
        assert not keyword_filter.accept(
            WebTable("w", ("foo", "bar"), [("a", "b")])
        )

    def test_analysis_is_computed_once_and_shared(self, monkeypatch):
        import repro.corpus.filters as filters_module

        calls = {"count": 0}
        real_detect = filters_module.detect_column_type

        def counting_detect(cells):
            calls["count"] += 1
            return real_detect(cells)

        monkeypatch.setattr(
            filters_module, "detect_column_type", counting_detect
        )
        from repro.corpus import TableAnalysis
        from repro.corpus.filters import passes

        table = make_table(1)
        analysis = TableAnalysis(table)
        # Two analysis-using filters plus a later label-column read share
        # one pass of column typing (one call per column).
        assert passes(table, [SubjectColumnFilter(), SubjectColumnFilter()],
                      analysis) is None
        assert analysis.label_column == 0
        assert calls["count"] == table.n_columns

    def test_class_restriction_filter_against_seed_kb(self, tiny_world):
        from repro.corpus import ClassRestrictionFilter

        corpus_filter = ClassRestrictionFilter(
            tiny_world.knowledge_base, ("Song",)
        )
        decisions = [
            corpus_filter.accept(table) for table in tiny_world.corpus
        ]
        assert any(decisions)
        assert not all(decisions)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestIngestCli:
    def _write_jsonl(self, path, count=5):
        with open(path, "w", encoding="utf-8") as handle:
            for number in range(count):
                table = make_table(number)
                handle.write(json.dumps({
                    "table_id": table.table_id,
                    "header": list(table.header),
                    "rows": [list(row) for row in table.rows],
                    "url": table.url,
                }) + "\n")

    def test_ingest_command(self, tmp_path, capsys):
        source = tmp_path / "corpus.jsonl"
        self._write_jsonl(source)
        # A store written by an older release may still hold the label
        # index it used to keep; ingest and fsck ignore the file.
        CorpusStore.create(tmp_path / "store", shards=2).close()
        legacy = tmp_path / "store" / "label_index.json"
        legacy.write_text(LEGACY_LABEL_INDEX, encoding="utf-8")
        code = cli_main([
            "ingest", str(source), "--store", str(tmp_path / "store"),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "5 inserted" in output
        store = CorpusStore.open(tmp_path / "store")
        assert len(store) == 5
        assert legacy.read_text(encoding="utf-8") == LEGACY_LABEL_INDEX
        assert cli_main(["fsck", "--store", str(tmp_path / "store")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ingest_json_report_and_reingest(self, tmp_path, capsys):
        source = tmp_path / "corpus.jsonl"
        self._write_jsonl(source)
        store_dir = str(tmp_path / "store")
        assert cli_main(["ingest", str(source), "--store", store_dir]) == 0
        capsys.readouterr()
        assert cli_main(
            ["ingest", str(source), "--store", store_dir, "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["tables"] == 5
        assert document["report"]["identical"] == 5
        assert document["report"]["inserted"] == 0

    def test_ingest_classes_without_kb_errors(self, tmp_path, capsys):
        source = tmp_path / "corpus.jsonl"
        self._write_jsonl(source)
        code = cli_main([
            "ingest", str(source), "--store", str(tmp_path / "store"),
            "--classes", "Song",
        ])
        assert code == 2
        assert "--kb" in capsys.readouterr().out

    def test_ingest_bad_input_errors(self, tmp_path, capsys):
        code = cli_main([
            "ingest", str(tmp_path / "missing.parquet"),
            "--store", str(tmp_path / "store"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Round-trip property: ingest → store → reload
# ----------------------------------------------------------------------
_cell = st.one_of(st.none(), st.text(max_size=8))
_table_strategy = st.builds(
    lambda number, width, rows: WebTable(
        table_id=f"p{number}",
        header=tuple(f"col{position}" for position in range(width)),
        rows=[tuple(row[:width]) for row in rows],
        url=f"http://property.example/{number}",
    ),
    number=st.integers(min_value=0, max_value=9999),
    width=st.integers(min_value=1, max_value=4),
    rows=st.lists(
        st.lists(_cell, min_size=4, max_size=4), min_size=0, max_size=5
    ),
)


class TestRoundTripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tables=st.lists(_table_strategy, min_size=1, max_size=10))
    def test_ingest_store_reload_is_lossless(self, tmp_path, tables):
        unique: dict[str, WebTable] = {}
        for table in tables:
            unique.setdefault(table.table_id, table)
        tables = list(unique.values())
        directory = tmp_path / f"store-{len(list(tmp_path.iterdir()))}"
        store = CorpusStore.create(directory, shards=3)
        store.ingest(iter(tables), batch_size=3)
        store.close()

        reloaded = CorpusStore.open(directory)
        assert reloaded.table_ids() == [table.table_id for table in tables]
        for table in tables:
            stored = reloaded.get(table.table_id)
            assert stored.table_id == table.table_id
            assert stored.header == table.header
            assert stored.rows == table.rows
            assert stored.url == table.url
            for row_index in range(table.n_rows):
                assert (
                    reloaded.row((table.table_id, row_index)).cells
                    == table.rows[row_index]
                )
        assert reloaded.total_rows() == sum(table.n_rows for table in tables)
        reloaded.close()
