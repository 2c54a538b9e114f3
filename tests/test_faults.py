"""The fault-injection registry: grammar, schedules, arming, runs.

The subsystem's one promise is *determinism*: the same spec against the
same hit sequence fires at exactly the same hit, every run.  The tests
here pin the spec grammar (including its rejection messages — a chaos
matrix with a typo must fail at arm time, not silently never fire), the
hit schedule, the arm/disarm/restore protocol, and
the two integration seams: ``REPRO_FAULTS`` in a child process and an
:func:`armed` scope around :meth:`RunSession.run`.

The ``crash`` action is deliberately *not* exercised in-process (it is
SIGKILL); the chaos suite (``test_chaos.py``) proves it against real
subprocesses.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.faults import (
    FaultInjected,
    POINTS,
    arm,
    armed,
    disarm,
    fault_stats,
    parse_spec,
)
from repro.faults.registry import GRAMMAR
from test_signals import make_golden_store, subprocess_env

SRC_DIR = Path(__file__).parent.parent / "src"


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Every test starts and ends disarmed (module state is global)."""
    disarm()
    yield
    disarm()


# -- spec grammar -------------------------------------------------------
class TestGrammar:
    def test_minimal_rule_defaults_to_first_hit(self):
        plan = parse_spec("artifacts.put:raise")
        assert (plan.point, plan.action, plan.hit) == (
            "artifacts.put", "raise", 1
        )

    @pytest.mark.parametrize(
        "window, expected",
        [
            ("@3", ("raise", 3)),
            # Open, ranged and wildcard windows are not in the grammar.
            ("@2+", None),
            ("@2-5", None),
            ("@*", None),
        ],
    )
    def test_window_forms(self, window, expected):
        spec = f"corpus.shard_write:raise{window}"
        if expected is None:
            with pytest.raises(ValueError, match=re.escape(GRAMMAR)):
                parse_spec(spec)
        else:
            plan = parse_spec(spec)
            assert (plan.action, plan.hit) == expected

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("nosuch.point:raise", "unknown injection point"),
            ("artifacts.put:explode", "unknown fault action"),
            ("artifacts.put:latency", "unknown fault action"),
            ("artifacts.put:raise@zero", "does not parse"),
            ("artifacts.put:raise@0", "below 1"),
            ("artifacts.put", "does not parse"),
            ("artifacts.put:raise:3", "does not parse"),
            ("", "does not parse"),
        ],
    )
    def test_rejections_name_the_offence(self, spec, fragment):
        with pytest.raises(ValueError) as caught:
            parse_spec(spec)
        message = str(caught.value)
        assert repr(spec) in message
        assert fragment in message
        assert GRAMMAR in message

    @pytest.mark.parametrize(
        "spec",
        [
            "serve.request:latency:0.25",
            "artifacts.put:latency:0.1:9",
            "artifacts.put:raise~0.5",
            "artifacts.put:raise~0.5/7",
            "artifacts.put:raise@1;serve.writer:crash@2",
            " ; ; ",
        ],
    )
    def test_retired_forms_are_rejected(self, spec):
        """Latency, probabilities and rule lists are not part of the
        grammar; ``REPRO_FAULTS`` carrying one must fail
        loudly, quoting the spec and the accepted form."""
        with pytest.raises(ValueError) as caught:
            parse_spec(spec)
        assert repr(spec) in str(caught.value)
        assert GRAMMAR in str(caught.value)

    def test_unknown_point_message_lists_the_inventory(self):
        with pytest.raises(ValueError) as caught:
            parse_spec("typo.point:raise")
        for point in POINTS:
            assert point in str(caught.value)


# -- schedules ----------------------------------------------------------
class TestSchedules:
    def test_exact_hit_window_fires_once(self):
        plan = parse_spec("serve.writer:raise@3")
        plan.check("serve.writer")
        plan.check("serve.writer")
        with pytest.raises(FaultInjected) as caught:
            plan.check("serve.writer")
        assert caught.value.point == "serve.writer"
        assert caught.value.hit == 3
        # Past the armed hit the point is quiet again.
        plan.check("serve.writer")
        assert plan.stats()["points"]["serve.writer"] == {
            "hits": 4,
            "fired": 1,
        }

    def test_hits_are_counted_per_point(self):
        plan = parse_spec("artifacts.put:raise@2")
        # Hits on *other* points never advance this point's counter.
        plan.check("corpus.shard_write")
        plan.check("artifacts.put")
        plan.check("corpus.shard_write")
        with pytest.raises(FaultInjected):
            plan.check("artifacts.put")
        assert plan.stats()["points"]["corpus.shard_write"] == {
            "hits": 2,
            "fired": 0,
        }


# -- arming protocol ----------------------------------------------------
class TestArming:
    def test_disarmed_check_is_a_no_op(self):
        faults.check("artifacts.put")  # nothing armed: must not raise
        assert fault_stats() is None

    def test_armed_scope_fires_and_restores(self):
        with armed("artifacts.put:raise@1"):
            with pytest.raises(FaultInjected):
                faults.check("artifacts.put")
        faults.check("artifacts.put")  # scope over: disarmed again
        assert fault_stats() is None

    def test_nested_arming_restores_the_outer_plan(self):
        arm("corpus.shard_write:raise@1")
        with armed("artifacts.put:raise@1"):
            faults.check("corpus.shard_write")  # inner plan: this point is quiet
        with pytest.raises(FaultInjected):
            faults.check("corpus.shard_write")  # outer plan restored

    def test_arm_returns_the_previous_plan(self):
        first = parse_spec("corpus.shard_write:raise@1")
        assert arm(first) is None
        assert arm("artifacts.put:raise@1") is first

    def test_fault_stats_reflect_the_armed_plan(self):
        with armed("serve.writer:raise@5"):
            faults.check("serve.writer")
            faults.check("serve.writer")
            stats = fault_stats()
            assert stats["spec"] == "serve.writer:raise@5"
            assert stats["points"]["serve.writer"]["hits"] == 2
            assert stats["points"]["serve.writer"]["fired"] == 0

    def test_environment_arms_a_child_process(self):
        """``REPRO_FAULTS`` is read lazily in whatever process inherits it
        — the seam the chaos suite kills real subprocesses through."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        env["REPRO_FAULTS"] = "artifacts.put:raise@2"
        script = (
            "from repro import faults\n"
            "faults.check('artifacts.put')\n"
            "try:\n"
            "    faults.check('artifacts.put')\n"
            "except faults.FaultInjected as error:\n"
            "    print('fired at hit', error.hit)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "fired at hit 2" in completed.stdout


# -- run integration ----------------------------------------------------
class TestRunIntegration:
    def test_armed_scope_covers_a_session_run(self, tiny_world, tmp_path):
        """A plan armed around a run fires inside it, and a run after the
        scope goes through."""
        from repro.api import RunSession
        from repro.webtables import TableCorpus

        table_ids = tiny_world.tables_of_class("Song")[:4]
        session = RunSession(
            knowledge_base=tiny_world.knowledge_base,
            corpus=TableCorpus(
                [tiny_world.corpus.get(table_id) for table_id in table_ids]
            ),
        )
        session.attach_artifact_store(tmp_path / "artifacts")
        with armed("artifacts.put:raise@1"):
            with pytest.raises(FaultInjected):
                session.run("Song")
        result = session.run("Song")
        assert result.summary_dict()["class_name"] == "Song"

    def test_malformed_environment_fails_a_fully_cached_cli_run(
        self, tmp_path
    ):
        """A run served wholly from its store's cache reaches no
        injection point; a malformed ``REPRO_FAULTS`` must fail it all
        the same, with the grammar's message."""
        store_dir = make_golden_store(tmp_path / "store")
        command = [
            sys.executable, "-m", "repro",
            "run", "Song", "--store", str(store_dir), "--quiet",
        ]
        warm = subprocess.run(
            command, env=subprocess_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert warm.returncode == 0, warm.stderr
        spec = "artifacts.put:raise@2+"
        rejected = subprocess.run(
            command, env=subprocess_env(REPRO_FAULTS=spec),
            capture_output=True, text=True, timeout=300,
        )
        assert rejected.returncode == 2, rejected.stdout + rejected.stderr
        assert repr(spec) in rejected.stdout
        assert GRAMMAR in rejected.stdout
