"""Large-scale profiling of the Song class (the paper's Section 5 story).

Songs are the class where web tables have the most to offer: huge numbers
of obscure songs never clear Wikipedia's notability bar.  This example
runs the full-corpus pipeline for songs, profiles the result (Table 11
row), shows the property-density shift of new entities (Table 12), and
demonstrates the homonym problem with cover versions.

Run with::

    python examples/songs_longtail.py
"""

from collections import Counter

from repro import RunSession, build_gold_standard, build_world
from repro.pipeline import train_models
from repro.pipeline.profiling import profile_class_run
from repro.synthesis.profiles import WorldScale
from repro.text.tokenize import normalize_label


def main() -> None:
    world = build_world(seed=7, scale=WorldScale.tiny())
    gold = build_gold_standard(world, "Song")

    print("Training on the gold standard ...")
    models = train_models(world.knowledge_base, world.corpus, gold, seed=5)

    print("Running the pipeline over ALL corpus tables matched to Song ...")
    session = RunSession(world=world, models=models.as_pipeline_models())
    result = session.run("Song")

    profile = profile_class_run(world, result)
    print("\n--- Table 11 row (synthetic scale) ---")
    print(f"rows={profile.total_rows:,} existing={profile.existing_entities:,} "
          f"matchedKB={profile.matched_instances:,} "
          f"ratio={profile.matching_ratio:.2f}")
    print(f"new entities={profile.new_entities:,} (+"
          f"{profile.increase_instances:.0%} vs KB) "
          f"new facts={profile.new_facts:,} (+{profile.increase_facts:.0%})")
    print(f"accuracy: entities={profile.accuracy_new:.2f} "
          f"facts={profile.accuracy_facts:.2f}")

    print("\n--- Table 12: property densities of new songs ---")
    for row in profile.densities:
        print(f"  {row.property_name:15s} {row.facts:6,} {row.density:7.2%}")

    print("\n--- The homonym problem (cover versions) ---")
    label_counts = Counter(
        normalize_label(entity.primary_label)
        for entity in result.final.entities
    )
    homonyms = [label for label, count in label_counts.items() if count > 1]
    print(f"{len(homonyms)} labels are shared by multiple returned entities")
    for label in homonyms[:5]:
        entities = [
            entity
            for entity in result.final.entities
            if normalize_label(entity.primary_label) == label
        ]
        print(f"  {label!r}:")
        for entity in entities[:3]:
            artist = entity.facts.get("musicalArtist", "?")
            print(f"    by {artist} "
                  f"({result.final.detection.classifications[entity.entity_id]})")


if __name__ == "__main__":
    main()
