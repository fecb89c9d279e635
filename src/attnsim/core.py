"""Model-independent discourse domain types and candidate filtering.

Everything here is shared by both attentional models: the items that occupy
attentional stores, the annotated utterance/event structure of a dialogue,
the accessibility snapshot both models produce, and the two pointwise
filters used to narrow antecedent candidates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import AbstractSet, Mapping, Sequence


class ItemKind(Enum):
    ENTITY = "entity"
    PROPOSITION = "prop"
    SURFACE_FORM = "surface"


class Gender(Enum):
    MASC = "masc"
    FEM = "fem"
    NEUT = "neut"
    UNSPECIFIED = "unspecified"


class Number(Enum):
    SG = "sg"
    PL = "pl"
    UNSPECIFIED = "unspecified"


class MentionForm(Enum):
    PRONOUN = "pronoun"
    VP_ELLIPSIS = "vp-ellipsis"


class EventKind(Enum):
    PUSH = "push"
    POP = "pop"
    RETURN = "return"


class StoreEventKind(Enum):
    """What a model did to its stores while processing an utterance."""

    DISPLACE = "Displace"
    STORE = "Store"
    DISCARD = "Discard"
    RETRIEVE = "Retrieve"
    PIN = "Pin"
    UNPIN = "Unpin"
    PUSH_SPACE = "PushSpace"
    POP_SPACE = "PopSpace"


@dataclass(frozen=True)
class StoreEvent:
    kind: StoreEventKind
    target: str


# Capability tags derived from dialogue content (an entity appearing as an
# argument of a proposition with predicate P gets the tag below) share the
# namespace with statically annotated tags but stay distinguishable by shape.
DERIVED_TAG_PREFIX = "pred:"


def derived_tag(lemma: str) -> str:
    return DERIVED_TAG_PREFIX + lemma


@dataclass(frozen=True)
class DiscourseItem:
    """An entity, proposition, or surface-form record occupying a store."""

    id: str
    kind: ItemKind
    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    predicate: str | None = None
    args: tuple[str, ...] = ()
    sel_classes: frozenset[str] = frozenset()
    realizes: str | None = None
    introduced_at: int = 0

    def __post_init__(self) -> None:
        if self.kind is ItemKind.SURFACE_FORM:
            if self.realizes is None:
                raise ValueError(f"surface form {self.id!r} must realize an item")
        elif self.realizes is not None:
            raise ValueError(f"non-surface item {self.id!r} cannot realize an item")
        if self.kind is not ItemKind.PROPOSITION and (self.predicate or self.args):
            raise ValueError(f"predicate/args are proposition-only (item {self.id!r})")


@dataclass(frozen=True)
class Mention:
    """An anaphor to resolve, with its agreement and selectional cues."""

    id: str
    form: MentionForm
    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    verb_lemma: str | None = None
    required_sel_classes: frozenset[str] = frozenset()
    gold_antecedent: str = ""


@dataclass(frozen=True)
class Utterance:
    id: str
    speaker: str
    index: int
    items: tuple[str, ...] = ()
    mentions: tuple[Mention, ...] = ()
    iru_antecedents: tuple[str, ...] = ()

    @property
    def is_iru(self) -> bool:
        return bool(self.iru_antecedents)


@dataclass(frozen=True)
class SegmentEvent:
    """A segment boundary preceding the utterance at ``position``."""

    kind: EventKind
    segment_id: str
    position: int
    expect_return: bool = False


@dataclass(frozen=True)
class CaseRecord:
    """A return-pop case annotation attached to a RETURN event."""

    case_id: str
    mention_id: str
    segment_id: str
    return_position: int
    iru_at_return: bool = False
    central_competitor: bool = False


@dataclass(frozen=True)
class Transcript:
    """An annotated dialogue.

    Lookups by position, id and segment are indexed lazily, once per
    transcript; the indexes live in the instance dict, outside the fields,
    so they take no part in equality or repr. Utterance indexes are
    assumed to increase along ``utterances``, as the parser assigns them.
    """

    dialogue_id: str
    utterances: tuple[Utterance, ...] = ()
    events: tuple[SegmentEvent, ...] = ()
    item_table: Mapping[str, DiscourseItem] = field(default_factory=dict)
    cases: tuple[CaseRecord, ...] = ()

    @cached_property
    def _events_by_position(self) -> dict[int, tuple[SegmentEvent, ...]]:
        grouped: dict[int, list[SegmentEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.position, []).append(event)
        return {position: tuple(events) for position, events in grouped.items()}

    @cached_property
    def _utterances_by_id(self) -> dict[str, Utterance]:
        index: dict[str, Utterance] = {}
        for utt in self.utterances:
            index.setdefault(utt.id, utt)
        return index

    @cached_property
    def _segment_index(self) -> dict[str | None, tuple[tuple[str, ...], list[int]]]:
        """Per innermost segment: its items in first-realization order, and
        the utterance index of each first realization (non-decreasing)."""

        first_seen: dict[str | None, dict[str, int]] = {}
        for utt, seg in zip(self.utterances, segment_assignments(self)):
            seen = first_seen.setdefault(seg, {})
            for item_id in utt.items:
                seen.setdefault(item_id, utt.index)
        return {
            seg: (tuple(seen), list(seen.values())) for seg, seen in first_seen.items()
        }

    def utterance_by_id(self, utt_id: str) -> Utterance:
        return self._utterances_by_id[utt_id]

    def events_at(self, position: int) -> tuple[SegmentEvent, ...]:
        return self._events_by_position.get(position, ())

    def mentions(self) -> tuple[Mention, ...]:
        out: list[Mention] = []
        for utt in self.utterances:
            out.extend(utt.mentions)
        return tuple(out)


def segment_assignments(transcript: Transcript) -> tuple[str | None, ...]:
    """Innermost open segment id for each utterance (None = root)."""

    events_by_position = transcript._events_by_position
    open_stack: list[str] = []
    assign: list[str | None] = []
    for utt in transcript.utterances:
        for event in events_by_position.get(utt.index, ()):
            if event.kind is EventKind.PUSH:
                open_stack.append(event.segment_id)
            elif event.kind is EventKind.POP:
                open_stack.pop()
            else:
                while open_stack and open_stack[-1] != event.segment_id:
                    open_stack.pop()
        assign.append(open_stack[-1] if open_stack else None)
    return tuple(assign)


def segment_items(
    transcript: Transcript, segment_id: str, before: int | None = None
) -> tuple[str, ...]:
    """Items realized by the utterances whose innermost segment is given.

    Order follows the dialogue; repeated realizations keep the first slot.
    With ``before``, only utterances preceding that index contribute.
    """

    items, firsts = transcript._segment_index.get(segment_id, ((), []))
    if before is None:
        return items
    return items[: bisect_left(firsts, before)]


@dataclass(frozen=True)
class AccessibilityView:
    """Snapshot of what a model makes available: immediately accessible
    items in salience order, items recoverable at a cost, and items gone.
    """

    immediate: tuple[str, ...] = ()
    retrievable: frozenset[str] = frozenset()
    lost: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not (
            self.retrievable.isdisjoint(self.immediate)
            and self.lost.isdisjoint(self.immediate)
            and self.retrievable.isdisjoint(self.lost)
        ):
            raise ValueError("accessibility stores must be pairwise disjoint")


def agreement_filter(
    candidates: Sequence[DiscourseItem], mention: Mention
) -> list[DiscourseItem]:
    """Keep candidates whose gender and number are compatible with the mention.

    Unspecified on either side is compatible with anything; order preserved.
    """

    gender, any_gender = mention.gender, Gender.UNSPECIFIED
    number, any_number = mention.number, Number.UNSPECIFIED
    return [
        item
        for item in candidates
        if (gender is any_gender or item.gender is gender or item.gender is any_gender)
        and (number is any_number or item.number is number or item.number is any_number)
    ]


def selection_filter(
    candidates: Sequence[DiscourseItem], required: AbstractSet[str]
) -> list[DiscourseItem]:
    """Keep candidates whose capability tags cover the required set."""

    if not required:
        return list(candidates)
    needed = frozenset(required)
    return [item for item in candidates if item.sel_classes >= needed]
