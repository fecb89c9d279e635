"""Seeded transcript generator for the benchmark.

``generate`` writes one transcript in the attnsim line format from a
``random.Random`` and a ``Shape``. The same generator state and shape give
byte-identical text. The text is well formed by construction; the runner
still parses every transcript during set-up and fails if one is rejected.

Transcripts are made of blocks of utterances. Every block holds the same
segment events and the same number of new items, re-mentions, pronouns,
ellipses, IRUs and surface forms; the seed decides where they fall and what
they refer to. Replay cost therefore depends on the length of a transcript
and hardly on its seed, which keeps the benchmark's figures comparable from
seed to seed.

The generator also counts the records it emitted, so each workload can
show which parts of the format it covers.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

GENDERS = ("m", "f", "n")
NUMBERS = ("sg", "pl")
PREDS = ("lift", "bolt", "ride", "fix", "stack", "carry", "paint")
TAGS = ("liftable", "boltable", "workable")

COVERAGE_KEYS = (
    "PUSH",
    "expect-return",
    "POP",
    "RETURN",
    "IRU",
    "ELLIPSIS",
    "surface-in-segment",
    "CASE",
)

# Per block: the share of utterances that declare 0, 1 and 2 new items, and
# the share that carry each optional record.
NEW_ITEM_SHARES = (0.2, 0.5, 0.3)
REMENTION_SHARE = 0.5
PRONOUN_SHARE = 0.3
ELLIPSIS_SHARE = 0.05
IRU_SHARE = 0.05
SURFACE_SHARE = 0.08


@dataclass(frozen=True)
class Shape:
    """What one generated transcript looks like.

    ``block`` is the number of utterances per block. ``surface_in_segments``
    False keeps surface forms, declared or re-uttered, in the root segment,
    so a return's cued retrieval never names a discarded surface record.
    ``case_gold_outside`` is the share of CASE pronouns whose gold
    antecedent was introduced before the resumed segment opened.
    """

    utterances: int
    block: int = 36
    surface_in_segments: bool = True
    case_gold_outside: float = 0.0


def _count(share: float, block: int) -> int:
    return max(1, round(share * block))


class _Builder:
    def __init__(self, rng: random.Random, shape: Shape) -> None:
        self.rng = rng
        self.shape = shape
        self.lines: list[str] = []
        self.coverage: Counter[str] = Counter({key: 0 for key in COVERAGE_KEYS})
        self.features: dict[str, tuple[str, str]] = {}  # entity/prop -> (gender, num)
        self.introduced_at: dict[str, int] = {}
        self.entities: list[str] = []
        self.props: list[str] = []
        self.surfaces: list[str] = []
        self.recent: list[str] = []  # recently realized entities and props
        self.utt_has_items: list[bool] = []
        self.open_segments: list[tuple[str, int]] = []  # (segment id, push position)
        self.events: dict[int, tuple[str, str, bool]] = {}
        self.new_items: dict[int, int] = {}
        self.marks: dict[str, set[int]] = {}
        self.counts: Counter[str] = Counter()

    def fresh(self, prefix: str) -> str:
        self.counts[prefix] += 1
        return f"{prefix}{self.counts[prefix]}"

    def touch(self, item_id: str) -> None:
        self.recent.append(item_id)
        if len(self.recent) > 40:
            del self.recent[0]

    def plan_block(self, start: int) -> None:
        """Lay out the block of utterances that starts at ``start``.

        The segment events are PUSH a (expect-return), PUSH b, PUSH c (one
        of b and c expects a return), RETURN a, which closes b and c, and
        POP a. The block starts and ends in the root segment.
        """

        rng, size = self.rng, self.shape.block
        offsets = sorted(rng.sample(range(1, size), 5))
        outer, middle, inner = (self.fresh("g") for _ in range(3))
        middle_expects = rng.random() < 0.5
        plan = (
            ("PUSH", outer, True),
            ("PUSH", middle, middle_expects),
            ("PUSH", inner, not middle_expects),
            ("RETURN", outer, False),
            ("POP", outer, False),
        )
        for offset, event in zip(offsets, plan):
            self.events[start + offset] = event

        none, _, two = (round(share * size) for share in NEW_ITEM_SHARES)
        counts = [0] * none + [2] * two + [1] * (size - none - two)
        rng.shuffle(counts)
        self.new_items.update((start + offset, n) for offset, n in enumerate(counts))

        everywhere = range(size)
        at_root = [o for o in everywhere if o < offsets[0] or o >= offsets[-1]]
        surface_pool = everywhere if self.shape.surface_in_segments else at_root
        for name, share, pool in (
            ("remention", REMENTION_SHARE, everywhere),
            ("pronoun", PRONOUN_SHARE, everywhere),
            ("ellipsis", ELLIPSIS_SHARE, everywhere),
            ("iru", IRU_SHARE, range(1, size)),
            ("surface", SURFACE_SHARE, surface_pool),
        ):
            chosen = rng.sample(pool, min(len(pool), _count(share, size)))
            self.marks.setdefault(name, set()).update(start + offset for offset in chosen)

    def marked(self, name: str, index: int) -> bool:
        return index in self.marks[name]

    def boundaries(self, index: int) -> tuple[str, str] | None:
        """Emit the segment event before utterance ``index``; return a
        pending CASE pronoun as (mention id, gold) after a RETURN."""

        if index not in self.events:
            return None
        record, segment_id, expect = self.events.pop(index)
        self.coverage[record] += 1
        if record == "PUSH":
            self.lines.append(f"PUSH {segment_id}" + (" expect-return" if expect else ""))
            self.coverage["expect-return"] += expect
            self.open_segments.append((segment_id, index))
            return None
        self.lines.append(f"{record} {segment_id}")
        position = [segment for segment, _ in self.open_segments].index(segment_id)
        push_position = self.open_segments[position][1]
        if record == "POP":
            del self.open_segments[position:]
            return None
        del self.open_segments[position + 1 :]
        return self.case_after_return(push_position)

    def case_after_return(self, push_position: int) -> tuple[str, str] | None:
        rng = self.rng
        inside = [e for e in self.entities if self.introduced_at[e] >= push_position]
        outside = [e for e in self.entities if self.introduced_at[e] < push_position]
        if outside and rng.random() < self.shape.case_gold_outside:
            gold = rng.choice(outside)
        elif inside:
            gold = rng.choice(inside)
        else:
            return None
        mention_id = self.fresh("m")
        flags = ""
        if rng.random() < 0.3:
            flags += " iru"
        if rng.random() < 0.2:
            flags += " central-competitor"
        self.lines.append(f"CASE {self.fresh('c')} mention={mention_id}{flags}")
        self.coverage["CASE"] += 1
        return mention_id, gold

    def header(self, index: int) -> None:
        rng = self.rng
        header = f"UTT u{index} speaker={rng.choice('AB')}"
        if index > 0 and self.marked("iru", index):
            window = range(max(0, index - 30), index)
            with_items = [i for i in window if self.utt_has_items[i]] or list(window)
            count = min(len(with_items), rng.randint(1, 2))
            antecedents = sorted(rng.sample(with_items, count))
            header += " iru=" + ",".join(f"u{i}" for i in antecedents)
            self.coverage["IRU"] += 1
        self.lines.append(header)

    def declare_entity(self, index: int) -> str:
        rng = self.rng
        entity_id = self.fresh("e")
        gender, number = rng.choice(GENDERS), rng.choice(NUMBERS)
        line = f"ITEM {entity_id} kind=entity gender={gender} num={number}"
        if rng.random() < 0.2:
            line += f" sel={rng.choice(TAGS)}"
        self.lines.append(line)
        self.features[entity_id] = (gender, number)
        self.introduced_at[entity_id] = index
        self.entities.append(entity_id)
        return entity_id

    def declare_prop(self, index: int) -> str:
        rng = self.rng
        prop_id = self.fresh("p")
        line = f"ITEM {prop_id} kind=prop pred={rng.choice(PREDS)}"
        recent_entities = [i for i in self.recent if i.startswith("e")]
        if recent_entities and rng.random() < 0.8:
            args = rng.sample(recent_entities, min(len(recent_entities), rng.randint(1, 2)))
            line += " args=" + ",".join(args)
        self.lines.append(line + " gender=n num=sg")
        self.features[prop_id] = ("n", "sg")
        self.introduced_at[prop_id] = index
        self.props.append(prop_id)
        return prop_id

    def items(self, index: int) -> None:
        rng = self.rng
        realized: list[str] = []
        for _ in range(self.new_items[index]):
            if rng.random() < 0.65 or not self.entities:
                realized.append(self.declare_entity(index))
            else:
                realized.append(self.declare_prop(index))
        if self.marked("remention", index) and self.recent:
            pool = self.recent if rng.random() < 0.9 else self.entities + self.props
            again = rng.choice(pool)
            if again not in realized:
                self.lines.append(f"ITEM {again}")
                realized.append(again)
        if self.marked("surface", index) and self.props:
            if self.surfaces and rng.random() < 0.4:
                self.lines.append(f"ITEM {rng.choice(self.surfaces)}")
            else:
                surface_id = self.fresh("s")
                realizes = rng.choice(self.props[-20:])
                self.lines.append(f"ITEM {surface_id} kind=surface realizes={realizes}")
                self.surfaces.append(surface_id)
            self.coverage["surface-in-segment"] += bool(self.open_segments)
        for item_id in realized:
            self.touch(item_id)
        self.utt_has_items.append(bool(realized))

    def mentions(self, index: int, case: tuple[str, str] | None) -> None:
        rng = self.rng
        if case is not None:
            mention_id, gold = case
            gender, number = self.features[gold]
            self.lines.append(f"PRON {mention_id} gender={gender} num={number} gold={gold}")
        if self.marked("pronoun", index) and self.recent:
            gold = rng.choice(self.recent)
            gender, number = self.features[gold]
            line = f"PRON {self.fresh('m')} gender={gender} num={number}"
            if rng.random() < 0.15:
                line += f" verb={rng.choice(PREDS)}"
            self.lines.append(line + f" gold={gold}")
        if self.marked("ellipsis", index) and self.props:
            self.lines.append(f"ELLIPSIS {self.fresh('m')} gold={rng.choice(self.props[-20:])}")
            self.coverage["ELLIPSIS"] += 1


def generate(rng: random.Random, shape: Shape, dialogue_id: str) -> tuple[str, Counter]:
    """Return transcript text and the count of each coverage record in it."""

    builder = _Builder(rng, shape)
    builder.lines.append(f"DIALOGUE {dialogue_id}")
    for index in range(shape.utterances):
        if index % shape.block == 0:
            builder.plan_block(index)
        case = builder.boundaries(index)
        builder.header(index)
        builder.items(index)
        builder.mentions(index, case)
    return "\n".join(builder.lines) + "\n", builder.coverage
