"""Label blocking for scalable clustering (Section 3.2).

Every distinct normalized row label forms a block.  Each row is assigned
its own label's block plus the blocks of the most similar labels retrieved
from a label index over the rows being clustered, so typo'd and variant
labels still meet.  The greedy clusterer only compares a row against
clusters sharing a block, and KLj only compares cluster pairs sharing a
block.
"""

from __future__ import annotations

from typing import Sequence

from repro.index import LabelIndex
from repro.matching.records import RowRecord
from repro.perf.counters import bump
from repro.webtables.table import RowId


def build_blocks(
    records: Sequence[RowRecord],
    max_similar: int = 6,
) -> dict[RowId, frozenset[str]]:
    """Assign each row the blocks of its ``max_similar`` most similar labels.

    The label universe is the records' own distinct normalized labels,
    indexed afresh on each call; rows sharing a label search once.
    """
    index = LabelIndex()
    for label in dict.fromkeys(record.norm_label for record in records):
        index.add(label, label)
    cache: dict[str, frozenset[str]] = {}
    blocks: dict[RowId, frozenset[str]] = {}
    for record in records:
        label = record.norm_label
        keys = cache.get(label)
        if keys is None:
            bump("blocking.label_searches")
            matches = index.search(label, max_similar)
            keys = frozenset({match.label for match in matches} | {label})
            cache[label] = keys
        else:
            bump("blocking.label_cache_hits")
        blocks[record.row_id] = keys
    return blocks
