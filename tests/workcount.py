"""Items a replay reads per utterance, counted on three hand-built shapes.

A replay that costs the same for each utterance reads about as many
items per utterance at any length; one whose steps grow with the
dialogue's history reads more the longer it runs. The counts come from
``propsuite.counting_work``, so they are exact and the same on every
run. Each replay is ``compare``'s: resolutions stop once their outcome
is known and list no candidates.

Print the table at 500 to 8,000 utterances (about half a minute; a
counter that reads nothing at every size has no row):

    PYTHONPATH=src python tests/workcount.py
"""

from __future__ import annotations

from attnsim.driver import ModelKind, replay
from attnsim.transcript_io import parse

from propsuite import counting_work, deep_nesting_text, growing_resumed_text, old_survivor_text

SHAPES = {
    "deep nesting": deep_nesting_text,
    "old survivor": old_survivor_text,
    "growing resumed segment": growing_resumed_text,
}
# (label, model, capacity)
MODELS = (
    ("stack", ModelKind.STACK, None),
    ("cache 7", ModelKind.CACHE, 7),
    ("cache inf", ModelKind.CACHE, None),
)
COUNTERS = ("immediate", "segment_items", "popped")
SIZES = (500, 1000, 2000, 4000, 8000)


def work_per_utterance(text: str, model: ModelKind, capacity: int | None) -> dict[str, float]:
    """Each counter of ``counting_work``, and their ``total``, per utterance
    of one replay of ``text``."""

    transcript = parse(text)
    with counting_work() as counts:
        replay(transcript, model, capacity, candidates=False)
    per_utterance = {name: counts[name] / len(transcript.utterances) for name in COUNTERS}
    return {**per_utterance, "total": sum(per_utterance.values())}


def main() -> None:
    header = ["shape", "model", "counter", *map(str, SIZES), f"{SIZES[-1]} / {SIZES[0]}"]
    print(" | ".join(header))
    print(" | ".join("---" for _ in header))
    for shape, build in SHAPES.items():
        for label, model, capacity in MODELS:
            rows = [work_per_utterance(build(n), model, capacity) for n in SIZES]
            for name in (*COUNTERS, "total"):
                counts = [row[name] for row in rows]
                if not any(counts):
                    continue
                ratio = f"{counts[-1] / counts[0]:.1f}x" if counts[0] else "-"
                cells = [f"{count:,.3f}" for count in counts]
                print(" | ".join([shape, label, name, *cells, ratio]))


if __name__ == "__main__":
    main()
