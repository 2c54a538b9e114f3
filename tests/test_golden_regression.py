"""Golden regression: the default pipeline on committed fixed corpora.

``tests/golden/`` holds two small committed worlds (corpus + knowledge
base) and the canonical JSON the default pipeline produced on them:

* ``world`` / ``expected_Song.json`` — built with ``build_world(seed=11,
  scale=0.08, classes=["Song"])``;
* ``world_settlement`` / ``expected_Settlement.json`` — built with
  ``build_world(seed=23, scale=0.07, classes=["Settlement"])``, a second
  entity class so schema drift that only affects one class profile still
  trips a fixture.

The tests rerun the pipeline and diff byte-for-byte:

* against the committed expectation — any semantic drift in matching,
  clustering, fusion or detection shows up as a diff, not as a silently
  shifted metric;
* over a corpus store — runs served from the persistent artifact
  store must reproduce the committed bytes (the incremental engine's
  acceptance criterion).

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c "
    from pathlib import Path
    from repro.api import RunSession
    for world, cls in [('world', 'Song'),
                       ('world_settlement', 'Settlement')]:
        session = RunSession.from_directory(f'tests/golden/{world}')
        blob = session.run(cls, use_cache=False).canonical_json()
        Path(f'tests/golden/expected_{cls}.json').write_text(blob)"

and explain the diff in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunSession
from repro.corpus.store import CorpusStore
from repro.io import load_world_directory, save_knowledge_base
from repro.io.serialize import WORLD_KB_FILE

GOLDEN_DIR = Path(__file__).parent / "golden"

#: class name -> (world directory, expected canonical JSON file)
GOLDEN_CASES = {
    "Song": (GOLDEN_DIR / "world", GOLDEN_DIR / "expected_Song.json"),
    "Settlement": (
        GOLDEN_DIR / "world_settlement",
        GOLDEN_DIR / "expected_Settlement.json",
    ),
}

#: The executor names the config accepts; each test below runs per name.
EXECUTORS = ("serial",)


@pytest.fixture(scope="module", params=sorted(GOLDEN_CASES))
def golden_case(request):
    class_name = request.param
    world_dir, expected_file = GOLDEN_CASES[class_name]
    return class_name, world_dir, expected_file


@pytest.fixture(scope="module")
def golden_session(golden_case):
    __, world_dir, __ = golden_case
    return RunSession.from_directory(world_dir)


@pytest.fixture(scope="module")
def expected_blob(golden_case) -> str:
    *__, expected_file = golden_case
    return expected_file.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def golden_store(golden_case, tmp_path_factory):
    """The golden world ingested into an on-disk corpus store."""
    class_name, world_dir, __ = golden_case
    knowledge_base, corpus = load_world_directory(world_dir)
    store = CorpusStore.create(
        tmp_path_factory.mktemp(f"golden_store_{class_name}"), shards=2
    )
    store.ingest(iter(corpus))
    save_knowledge_base(knowledge_base, store.directory / WORLD_KB_FILE)
    return store


@pytest.fixture(scope="module")
def incremental_session(golden_store):
    return RunSession.from_corpus_store(golden_store)


def test_fixture_is_committed_and_wellformed(golden_case, expected_blob):
    class_name, world_dir, __ = golden_case
    assert (world_dir / "corpus.jsonl").exists()
    assert (world_dir / "knowledge_base.json").exists()
    document = json.loads(expected_blob)
    assert document["summary"]["class_name"] == class_name
    assert document["summary"]["entities"] > 0


def test_default_pipeline_matches_golden(
    golden_case, golden_session, expected_blob
):
    """The default pipeline reproduces the committed artifacts."""
    class_name = golden_case[0]
    result = golden_session.run(class_name, use_cache=False)
    assert result.canonical_json() == expected_blob


@pytest.mark.parametrize("executor", EXECUTORS)
def test_explicit_exact_candidate_mode_matches_golden(
    golden_case, golden_session, expected_blob, executor
):
    """``candidate_mode='exact'``, spelled out, reproduces the golden bytes.

    ``exact`` is the only value the field accepts, and the end-to-end
    benchmark builds its config with it and with ``executor``/``workers``
    spelled out: that config must match the committed bytes.
    """
    from repro.pipeline.pipeline import PipelineConfig

    class_name = golden_case[0]
    result = golden_session.run(
        class_name,
        use_cache=False,
        config=PipelineConfig(
            executor=executor, workers=1, candidate_mode="exact"
        ),
    )
    assert result.canonical_json() == expected_blob


@pytest.mark.parametrize("executor", EXECUTORS)
def test_incremental_runs_byte_identical_to_golden(
    golden_case, golden_store, incremental_session, expected_blob, executor
):
    """Store-served incremental runs reproduce the committed bytes."""
    from repro.pipeline.pipeline import PipelineConfig

    class_name = golden_case[0]
    result = incremental_session.run(
        class_name, config=PipelineConfig(executor=executor)
    )
    assert result.canonical_json() == expected_blob


def test_incremental_store_serves_second_backend(
    golden_case, incremental_session
):
    """After the incremental run above, a rerun is fully store-served."""
    class_name = golden_case[0]
    incremental_session.run(class_name)
    report = incremental_session.last_incremental_report
    assert report.stage_misses() == 0
    assert report.analysis_computed == 0
    assert report.attributes_computed == 0
    assert report.entities_computed == 0
