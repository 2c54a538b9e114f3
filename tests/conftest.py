"""Shared fixtures: a tiny world + gold standards, built once per session."""

from __future__ import annotations

import pytest

from repro.synthesis.api import build_gold_standard, build_world
from repro.synthesis.profiles import WorldScale


@pytest.fixture(scope="session")
def tiny_world():
    """A small but complete world (all three classes, distractors, junk)."""
    return build_world(seed=7, scale=WorldScale.tiny())


@pytest.fixture(scope="session")
def song_gold(tiny_world):
    return build_gold_standard(tiny_world, "Song", seed=13)


@pytest.fixture(scope="session")
def player_gold(tiny_world):
    return build_gold_standard(tiny_world, "GridironFootballPlayer", seed=13)


@pytest.fixture(scope="session")
def settlement_gold(tiny_world):
    return build_gold_standard(tiny_world, "Settlement", seed=13)
