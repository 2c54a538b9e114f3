"""Tests for persistence round-trips and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datatypes import DateValue
from repro.io import (
    load_corpus,
    load_gold_standard,
    load_knowledge_base,
    save_corpus,
    save_gold_standard,
    save_knowledge_base,
)
from repro.io.serialize import decode_value, encode_value


class TestValueEncoding:
    def test_date_round_trip(self):
        for value in (DateValue(1987), DateValue(1987, 3, 14)):
            assert decode_value(encode_value(value)) == value

    def test_scalars_pass_through(self):
        for value in ("text", 42, 3.14, True, None):
            assert decode_value(encode_value(value)) == value

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())


class TestCorpusRoundTrip:
    def test_round_trip(self, tiny_world, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(tiny_world.corpus, path)
        loaded = load_corpus(path)
        assert len(loaded) == len(tiny_world.corpus)
        for table_id in tiny_world.corpus.table_ids()[:10]:
            original = tiny_world.corpus.get(table_id)
            restored = loaded.get(table_id)
            assert restored.header == original.header
            assert restored.rows == original.rows
            assert restored.url == original.url


class TestKnowledgeBaseRoundTrip:
    def test_round_trip(self, tiny_world, tmp_path):
        path = tmp_path / "kb.json"
        save_knowledge_base(tiny_world.knowledge_base, path)
        loaded = load_knowledge_base(path)
        assert len(loaded) == len(tiny_world.knowledge_base)
        for class_name in ("Song", "Settlement"):
            original = tiny_world.knowledge_base.instances_of(class_name)
            restored = loaded.instances_of(class_name)
            assert len(original) == len(restored)
        sample = tiny_world.knowledge_base.instances_of("Song")[0]
        restored = loaded.get(sample.uri)
        assert restored.facts == sample.facts
        assert restored.labels == sample.labels
        assert restored.page_links == sample.page_links

    def test_schema_preserved(self, tiny_world, tmp_path):
        path = tmp_path / "kb.json"
        save_knowledge_base(tiny_world.knowledge_base, path)
        loaded = load_knowledge_base(path)
        original_schema = tiny_world.knowledge_base.schema
        assert loaded.schema.ancestry("Song") == original_schema.ancestry("Song")
        original_props = original_schema.properties_of("Settlement")
        loaded_props = loaded.schema.properties_of("Settlement")
        assert set(original_props) == set(loaded_props)
        assert (
            loaded_props["populationTotal"].tolerance
            == original_props["populationTotal"].tolerance
        )


class TestGoldStandardRoundTrip:
    def test_round_trip(self, song_gold, tmp_path):
        path = tmp_path / "gold.json"
        save_gold_standard(song_gold, path)
        loaded = load_gold_standard(path)
        assert loaded.class_name == song_gold.class_name
        assert loaded.table_ids == song_gold.table_ids
        assert len(loaded.clusters) == len(song_gold.clusters)
        assert loaded.attribute_correspondences == (
            song_gold.attribute_correspondences
        )
        assert loaded.facts == song_gold.facts

    def test_file_is_plain_json(self, song_gold, tmp_path):
        path = tmp_path / "gold.json"
        save_gold_standard(song_gold, path)
        document = json.loads(path.read_text())
        assert document["class_name"] == "Song"


class TestWorldDirectoryRoundTrip:
    def test_round_trip(self, tiny_world, tmp_path):
        from repro.io import load_world_directory, save_world_directory

        directory = save_world_directory(tiny_world, tmp_path / "world")
        kb, corpus = load_world_directory(directory)
        assert len(kb) == len(tiny_world.knowledge_base)
        assert len(corpus) == len(tiny_world.corpus)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_run_rejects_unknown_stage(self, capsys):
        assert main(["run", "Song", "--stages", "bogus"]) == 2
        assert "unknown stage" in capsys.readouterr().out

    def test_run_rejects_unknown_class(self, capsys):
        assert main(["run", "NotAClass"]) == 2
        assert "unknown class" in capsys.readouterr().out

    def test_run_rejects_bad_iterations(self, capsys):
        assert main(["run", "Song", "--iterations", "0"]) == 2
        assert "iterations" in capsys.readouterr().out

    def test_run_json_round_trips(self, capsys):
        exit_code = main(
            ["run", "Song", "Settlement", "--scale", "0.1", "--seed", "3",
             "--iterations", "1", "--stages", "schema_match,cluster,fuse",
             "--json", "--quiet"]
        )
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["class_name"] for entry in document["results"]] == [
            "Song", "Settlement",
        ]
        for entry in document["results"]:
            assert entry["iterations"] == 1
            assert entry["entities"] >= 0
        assert set(document["stage_seconds"]) == {
            "schema_match", "cluster", "fuse",
        }
        assert any(
            name.startswith("monge_elkan.") for name in document["kernel_counters"]
        )

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_experiment_command_runs(self, capsys):
        exit_code = main(["experiment", "table03", "--scale", "0.25"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 3" in output

    def test_build_world_writes_files(self, tmp_path, capsys):
        exit_code = main(
            ["build-world", "--scale", "0.1", "--seed", "3",
             "--output", str(tmp_path / "world")]
        )
        assert exit_code == 0
        assert (tmp_path / "world" / "corpus.jsonl").exists()
        assert (tmp_path / "world" / "knowledge_base.json").exists()
        assert (tmp_path / "world" / "gold_Song.json").exists()


class TestCLIIngestJson:
    """`repro ingest --json` emits the full shared IngestReport shape —
    the same document `POST /ingest` on the service answers with."""

    @pytest.fixture()
    def corpus_jsonl(self, tiny_world, tmp_path):
        path = tmp_path / "tables.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for table in list(tiny_world.corpus)[:4]:
                handle.write(json.dumps({
                    "table_id": table.table_id,
                    "header": list(table.header),
                    "rows": [list(row) for row in table.rows],
                    "url": table.url,
                }) + "\n")
        return path

    def test_ingest_json_reports_table_ids(
        self, corpus_jsonl, tmp_path, capsys
    ):
        store = tmp_path / "store"
        exit_code = main(
            ["ingest", str(corpus_jsonl), "--store", str(store), "--json"]
        )
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        report = document["report"]
        assert report["inserted"] == 4
        assert len(report["inserted_ids"]) == 4
        assert report["replaced_ids"] == []
        assert sorted(report["dirty_ids"]) == sorted(report["inserted_ids"])
        assert document["tables"] == 4

    def test_reingest_replace_reports_dirty_ids(
        self, corpus_jsonl, tmp_path, capsys
    ):
        store = tmp_path / "store"
        assert main(
            ["ingest", str(corpus_jsonl), "--store", str(store), "--json"]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["ingest", str(corpus_jsonl), "--store", str(store),
             "--json", "--on-conflict", "replace"]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)["report"]
        # Identical bytes are recognized, not re-written: nothing dirty.
        assert report["inserted"] == 0
        assert report["identical"] == 4
        assert report["dirty_ids"] == []


class TestCLIInterrupt:
    """Ctrl-C exits cleanly: no traceback, exit code 130."""

    def test_run_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_run", interrupted)
        assert main(["run", "Song"]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_serve", interrupted)
        assert main(["serve", "--store", "unused"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_serve_missing_store_is_an_error(self, tmp_path, capsys):
        exit_code = main(["serve", "--store", str(tmp_path / "missing")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().out


class TestCLITrace:
    """`repro run --trace` records a log `repro trace` can render and
    export; `repro ingest --trace` does the same for shard writes."""

    @pytest.fixture()
    def run_log(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        assert main(
            ["run", "Song", "--scale", "0.1", "--seed", "3",
             "--iterations", "1", "--quiet", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_run_trace_json_reports_log(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        assert main(
            ["run", "Song", "--scale", "0.1", "--seed", "3",
             "--iterations", "1", "--quiet", "--json",
             "--trace", str(path)]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traces"]["Song"]["path"] == str(path)
        assert document["traces"]["Song"]["events"] > 0
        assert path.is_file()

    def test_trace_renders_tree(self, run_log, capsys):
        assert main(["trace", str(run_log)]) == 0
        output = capsys.readouterr().out
        assert "run:Song (run," in output
        assert "pipeline:Song (pipeline," in output
        assert "└─" in output or "├─" in output

    def test_trace_resolves_directory_and_run_id(
        self, run_log, tmp_path, capsys
    ):
        # Directory form: traces/ inside the target, picked by --run.
        traces = tmp_path / "artifacts" / "traces"
        traces.mkdir(parents=True)
        (traces / "run-0001.ndjson").write_text(run_log.read_text())
        assert main(
            ["trace", str(tmp_path), "--run", "run-0001"]
        ) == 0
        assert "run:Song" in capsys.readouterr().out
        assert main(["trace", str(tmp_path), "--run", "run-0002"]) == 2
        assert "run-0002" in capsys.readouterr().out

    def test_trace_chrome_export(self, run_log, tmp_path, capsys):
        output = tmp_path / "chrome.json"
        assert main(
            ["trace", str(run_log), "--chrome", str(output)]
        ) == 0
        # --chrome alone suppresses the tree.
        assert capsys.readouterr().out == ""
        document = json.loads(output.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]
        phases = {entry["ph"] for entry in document["traceEvents"]}
        assert phases <= {"X", "i"}

    def test_trace_summary(self, run_log, capsys):
        assert main(["trace", str(run_log), "--summary"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spans"] > 0
        assert "stage" in document["by_kind"]

    def test_trace_missing_is_an_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.ndjson")]) == 2
        assert "error" in capsys.readouterr().out

    def test_ingest_trace_records_shard_spans(
        self, tiny_world, tmp_path, capsys
    ):
        jsonl = tmp_path / "tables.jsonl"
        with jsonl.open("w", encoding="utf-8") as handle:
            for table in list(tiny_world.corpus)[:6]:
                handle.write(json.dumps({
                    "table_id": table.table_id,
                    "header": list(table.header),
                    "rows": [list(row) for row in table.rows],
                    "url": table.url,
                }) + "\n")
        log = tmp_path / "ingest.ndjson"
        assert main(
            ["ingest", str(jsonl), "--store", str(tmp_path / "store"),
             "--trace", str(log)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(log)]) == 0
        output = capsys.readouterr().out
        assert "ingest_batch (ingest," in output
        assert "shard-" in output
