"""Why settlements resist augmentation (the paper's hardest class).

The paper finds only 26% of proposed new settlements are correct: almost
everything with legal recognition already has a Wikipedia article, so the
remaining candidates are dominated by corner cases — conflicting
``isPartOf`` values (county vs. province, both correct), outdated
population numbers, and tables that describe regions or mountains rather
than settlements.  This example reproduces those error channels.

Run with::

    python examples/settlement_conflicts.py
"""

from collections import Counter

from repro import RunSession, build_world
from repro.synthesis.profiles import WorldScale


def main() -> None:
    world = build_world(seed=7, scale=WorldScale.tiny())

    conflicted = [
        entity
        for entity in world.entities_of_class("Settlement")
        if "isPartOf" in entity.alt_facts
    ]
    print(f"{len(conflicted)} settlements carry two correct isPartOf values, e.g.:")
    for entity in conflicted[:3]:
        print(f"  {entity.name}: {entity.facts['isPartOf']!r} "
              f"vs {entity.alt_facts['isPartOf']!r}")

    lookalikes = [
        entity
        for entity in world.entities.values()
        if entity.class_name in ("Region", "Mountain")
    ]
    print(f"\n{len(lookalikes)} regions/mountains pollute the corpus "
          "(some with settlement-like names):")
    for entity in lookalikes[:5]:
        print(f"  {entity.name} ({entity.class_name})")

    print("\nRunning the default pipeline on Settlement ...")
    result = RunSession(world=world).run("Settlement")
    print(result.summary())

    print("\nJudging proposed new settlements against ground truth:")
    verdicts = Counter()
    for entity in result.new_entities():
        votes = Counter(
            world.row_truth[row_id]
            for row_id in entity.row_ids()
            if row_id in world.row_truth
        )
        if not votes:
            verdicts["no coherent entity"] += 1
            continue
        gt_id, count = votes.most_common(1)[0]
        truth = world.entities[gt_id]
        if count * 2 <= len(entity.rows):
            verdicts["mixed rows"] += 1
        elif truth.class_name != "Settlement":
            verdicts[f"actually a {truth.class_name}"] += 1
        elif truth.in_kb:
            verdicts["already in KB (missed match)"] += 1
        else:
            verdicts["correct new settlement"] += 1
    for reason, count in verdicts.most_common():
        print(f"  {reason}: {count}")


if __name__ == "__main__":
    main()
