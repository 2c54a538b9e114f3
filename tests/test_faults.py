"""The fault-injection registry: grammar, schedules, arming, runs.

The subsystem's one promise is *determinism*: the same spec against the
same hit sequence fires at exactly the same hits, every run.  The tests
here pin the spec grammar (including its rejection messages — a chaos
matrix with a typo must fail at arm time, not silently never fire), the
window and probability schedules, the arm/disarm/restore protocol, and
the two integration seams: ``REPRO_FAULTS`` in a child process and an
:func:`armed` scope around :meth:`RunSession.run`.

The ``crash`` action is deliberately *not* exercised in-process (it is
SIGKILL); the chaos suite (``test_chaos.py``) proves it against real
subprocesses.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.faults import (
    FaultInjected,
    FaultPlan,
    POINTS,
    arm,
    armed,
    disarm,
    fault_stats,
    parse_spec,
)

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
        (rule,) = plan._rules["artifacts.put"]
        assert (rule.first_hit, rule.last_hit) == (1, 1)
        assert rule.action == "raise"
        assert rule.probability == 1.0

    @pytest.mark.parametrize(
        "window, expected",
        [
            ("@3", (3, 3)),
            ("@2+", (2, None)),
            ("@2-5", (2, 5)),
            ("@*", (1, None)),
        ],
    )
    def test_window_forms(self, window, expected):
        plan = parse_spec(f"corpus.shard_write:raise{window}")
        (rule,) = plan._rules["corpus.shard_write"]
        assert (rule.first_hit, rule.last_hit) == expected

    def test_latency_parameter_and_probability_with_seed(self):
        plan = parse_spec("serve.request:latency:0.25@2+~0.5/42")
        (rule,) = plan._rules["serve.request"]
        assert rule.action == "latency"
        assert rule.param == 0.25
        assert (rule.first_hit, rule.last_hit) == (2, None)
        assert rule.probability == 0.5
        assert rule.seed == 42

    def test_multiple_rules_split_on_semicolon(self):
        plan = parse_spec(
            "artifacts.put:raise@2; serve.writer:crash ;"
        )
        assert set(plan._rules) == {"artifacts.put", "serve.writer"}

    def test_describe_round_trips_through_the_parser(self):
        spec = "serve.writer:latency:0.1@3-7~0.25/9"
        (rule,) = parse_spec(spec)._rules["serve.writer"]
        (reparsed,) = parse_spec(rule.describe())._rules["serve.writer"]
        assert reparsed.describe() == rule.describe()

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("nosuch.point:raise", "unknown injection point"),
            ("artifacts.put:explode", "unknown fault action"),
            ("artifacts.put:raise@zero", "bad hit window"),
            ("artifacts.put:raise@0", "start at >= 1"),
            ("artifacts.put:raise@5-2", "not end before it starts"),
            ("artifacts.put", "needs at least point:action"),
            ("artifacts.put:latency", "non-negative seconds"),
            ("artifacts.put:raise:3", "takes no parameter"),
            ("artifacts.put:latency:0.1:9", "too many ':' fields"),
            ("artifacts.put:raise~2.0", "must be in (0, 1]"),
            ("artifacts.put:raise~0.5/x", "not an integer"),
            ("artifacts.put:raise~fast", "not a number"),
            ("", "fault spec is empty"),
            (" ; ; ", "fault spec is empty"),
        ],
    )
    def test_rejections_name_the_offence(self, spec, fragment):
        with pytest.raises(ValueError, match=".*"):
            try:
                parse_spec(spec)
            except ValueError as error:
                assert fragment in str(error)
                raise

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
        # Past the window the point is quiet again.
        plan.check("serve.writer")
        assert plan.stats()["points"]["serve.writer"]["fired"] == 1

    def test_open_window_fires_on_every_hit_from_n(self):
        plan = parse_spec("corpus.shard_write:raise@2+")
        plan.check("corpus.shard_write")
        for __ in range(3):
            with pytest.raises(FaultInjected):
                plan.check("corpus.shard_write")

    def test_hits_are_counted_per_point(self):
        plan = parse_spec("artifacts.put:raise@2")
        # Hits on *other* points never advance this point's counter.
        plan.check("corpus.shard_write")
        plan.check("artifacts.put")
        plan.check("corpus.shard_write")
        with pytest.raises(FaultInjected):
            plan.check("artifacts.put")

    def test_latency_delays_and_continues(self):
        plan = parse_spec("serve.request:latency:0.05@1")
        before = time.monotonic()
        plan.check("serve.request")  # fires: sleeps, does not raise
        assert time.monotonic() - before >= 0.045
        stats = plan.stats()["points"]["serve.request"]
        assert stats == {
            "hits": 1,
            "fired": 1,
            "rules": ["serve.request:latency:0.05@1"],
        }

    def test_probabilistic_schedule_is_seed_deterministic(self):
        spec = "corpus.shard_write:raise@*~0.4/7"

        def firing_pattern():
            plan = parse_spec(spec)
            pattern = []
            for __ in range(40):
                try:
                    plan.check("corpus.shard_write")
                except FaultInjected:
                    pattern.append(True)
                else:
                    pattern.append(False)
            return pattern

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        # It is genuinely probabilistic: neither all-fire nor never-fire.
        assert any(first) and not all(first)

    def test_different_seeds_give_different_streams(self):
        patterns = {}
        for seed in (1, 2):
            plan = parse_spec(f"corpus.shard_write:raise@*~0.5/{seed}")
            fired = []
            for __ in range(64):
                try:
                    plan.check("corpus.shard_write")
                except FaultInjected:
                    fired.append(True)
                else:
                    fired.append(False)
            patterns[seed] = fired
        assert patterns[1] != patterns[2]


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

    def test_armed_none_is_a_transparent_scope(self):
        outer = parse_spec("corpus.shard_write:raise@1")
        arm(outer)
        with armed(None):
            # The no-op scope must leave the surrounding plan armed.
            with pytest.raises(FaultInjected):
                faults.check("corpus.shard_write")

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

    def test_register_point_extends_the_inventory(self):
        faults.register_point("test.extension", "a test-only point")
        try:
            plan = parse_spec("test.extension:raise@1")
            with pytest.raises(FaultInjected):
                plan.check("test.extension")
        finally:
            POINTS.pop("test.extension", None)

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
