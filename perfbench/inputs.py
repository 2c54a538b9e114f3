"""Workload inputs, made only from the seed.

The program sees a knowledge base and web tables; nothing else crosses
over.  The content is the fixed reference workload: the paper's synthetic
world built from :data:`REFERENCE_SEED`, with tables drawn from it to a
fixed row budget per true class.  The ``--seed`` of a run orders that
content: the order of the tables, the order of the rows inside each
table, the long-tail filler tables, and the read requests.  Per-table content
drawn from the seed instead moved the cost of a pass by up to 40%
between seeds, far more than any bound a change could be judged by.
The refresh workload adds deterministic long-tail filler: tables whose
labels are made-up words that match no knowledge-base instance, which is
what most of a real web-table corpus looks like to a targeted extraction
run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CLASSES = ("Song", "Settlement", "GridironFootballPlayer")

#: Seed of the reference world (the repository's reference workload).
REFERENCE_SEED = 7

#: World the tables are drawn from (``WorldScale`` factor).
WORLD_SCALE = 0.2
#: Rows drawn per true class of a table; ``None`` pools the distractor
#: classes (albums, regions, basketball players) and the junk tables.
ROW_BUDGET = {
    "Song": 100,
    "Settlement": 40,
    "GridironFootballPlayer": 70,
    None: 15,
}
#: Identifies the input design; recorded digests are only valid for it.
INPUTS_VERSION = f"world={REFERENCE_SEED};scale={WORLD_SCALE};budget=" + ",".join(
    f"{name}:{rows}" for name, rows in ROW_BUDGET.items()
)

_SYLLABLES = (
    "ka", "lo", "ve", "tru", "mi", "zen", "qua", "rho",
    "dax", "pel", "sor", "vim", "nek", "ulo", "brin", "tas",
)
_FILLER_HEADERS = (
    ("title", "remark", "ref"),
    ("name", "note", "code", "group"),
    ("entry", "comment", "id"),
)


@dataclass
class Inputs:
    seed: int
    knowledge_base: object
    #: Class and distractor tables, in the order they are handed over.
    tables: list = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(table.n_rows for table in self.tables)


def build_inputs(seed: int) -> Inputs:
    """Reference world; tables drawn to :data:`ROW_BUDGET`, ordered by ``seed``."""
    from repro.synthesis.api import build_world
    from repro.synthesis.profiles import WorldScale
    from repro.webtables.table import WebTable

    world = build_world(seed=REFERENCE_SEED, scale=WorldScale(WORLD_SCALE))
    groups: dict = {name: [] for name in ROW_BUDGET}
    for table in world.corpus:
        true_class = world.table_class_truth.get(table.table_id)
        groups[true_class if true_class in ROW_BUDGET else None].append(table)
    rng = random.Random(REFERENCE_SEED * 7919 + 3)
    chosen = []
    for group, budget in ROW_BUDGET.items():
        pool = sorted(groups[group], key=lambda table: table.table_id)
        rng.shuffle(pool)
        left = budget
        for table in pool:
            if left < 2:
                break
            if table.n_rows <= left:
                chosen.append(table)
                left -= table.n_rows
            else:
                chosen.append(
                    WebTable(table.table_id, table.header, table.rows[:left], table.url)
                )
                left = 0
        if left > 1:
            raise ValueError(
                f"the reference world has too few {group or 'other'} rows "
                f"for a budget of {budget}"
            )
    chosen.sort(key=lambda table: table.table_id)
    order = random.Random(seed)
    order.shuffle(chosen)
    ordered = []
    for table in chosen:
        rows = list(table.rows)
        order.shuffle(rows)
        ordered.append(WebTable(table.table_id, table.header, rows, table.url))
    return Inputs(seed=seed, knowledge_base=world.knowledge_base, tables=ordered)


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def filler_table(seed: int, number: int):
    """One long-tail table that matches no class (deterministic)."""
    from repro.webtables.table import WebTable

    rng = random.Random(seed * 1_000_003 + number)
    header = _FILLER_HEADERS[number % len(_FILLER_HEADERS)]
    rows = []
    for _ in range(rng.randint(3, 8)):
        cells = [f"{_word(rng)} {_word(rng)}"]
        cells += [_word(rng) for _ in range(len(header) - 2)]
        cells.append(f"{_word(rng)}-{rng.randrange(10000):04d}")
        rows.append(tuple(cells))
    return WebTable(
        f"filler-{number:06d}", header, rows, f"http://filler.example/{number}"
    )


def replacement(table, cycle: int):
    """A changed version of a stored table: its rows rotated by one and
    the last one dropped, so its content hash changes but it stays a
    table of the same class."""
    from repro.webtables.table import WebTable

    rows = list(table.rows)
    shift = 1 + cycle % max(1, len(rows) - 1)
    rows = rows[shift:] + rows[:shift]
    if len(rows) > 3:
        rows = rows[:-1]
    return WebTable(table.table_id, table.header, rows, table.url)


@dataclass
class RefreshPlan:
    #: Tables in the store before the timed part.
    initial: list
    #: The tables of each cycle's ingest, in cycle order.
    cycles: list


#: Per-cycle ingest mix of the refresh workload.
HELD_PER_CYCLE = 1
REPLACED_PER_CYCLE = 2
FILLER_PER_CYCLE = 20


def refresh_plan(inputs: Inputs, filler: int, cycles: int) -> RefreshPlan:
    """Initial store content and a fixed sequence of ingest batches.

    Which tables are held back and replaced is part of the fixed content
    (chosen from :data:`REFERENCE_SEED`); the run's seed orders them.
    """
    by_id = {table.table_id: table for table in inputs.tables}
    canonical = sorted(by_id)
    rng = random.Random(REFERENCE_SEED * 104729 + 11)
    rng.shuffle(canonical)
    # Up to two thirds of the class tables are held back, enough for
    # every cycle of a run at the declared measuring time to add one.
    held_count = min(len(canonical) * 2 // 3, HELD_PER_CYCLE * cycles)
    held = [by_id[table_id] for table_id in canonical[:held_count]]
    targets = canonical[held_count:]
    held_ids = set(canonical[:held_count])
    stored = [table for table in inputs.tables if table.table_id not in held_ids]
    initial = stored + [filler_table(inputs.seed, n) for n in range(filler)]
    batches = []
    next_filler = filler
    for cycle in range(cycles):
        batch = held[cycle * HELD_PER_CYCLE:(cycle + 1) * HELD_PER_CYCLE]
        for k in range(REPLACED_PER_CYCLE):
            target = targets[(cycle * REPLACED_PER_CYCLE + k) % len(targets)]
            batch.append(replacement(by_id[target], cycle))
        for _ in range(FILLER_PER_CYCLE):
            batch.append(filler_table(inputs.seed, next_filler))
            next_filler += 1
        batches.append(batch)
    return RefreshPlan(initial=initial, cycles=batches)


def table_record(table) -> dict:
    """The JSON record ``POST /ingest`` takes for one table."""
    return {
        "table_id": table.table_id,
        "header": list(table.header),
        "rows": [list(row) for row in table.rows],
        "url": table.url,
    }
