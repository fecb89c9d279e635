"""Model-independent discourse domain types and candidate filtering.

Everything here is shared by both attentional models: the items that occupy
attentional stores, the annotated utterance/event structure of a dialogue,
the accessibility snapshot both models produce, and the whole
candidate-filter pipeline: the two pointwise filters, ``staged_filter``
that chains them, and the per-transcript survivor sets of its last stage.
Each model's live state yields its own immediate tier, a fresh one-pass
iterator in salience order on every read; ``snapshot`` reads it once.

Records are ``typing.NamedTuple``s: equality is tuple equality, so a record
also equals a plain tuple of its fields, and a copy with changes is
``record._replace(...)``. A record that validates checks in ``__new__`` and
is always built through it (``AccessibilityView``). One that checks nothing
may skip it: ``parse`` builds every item, mention, utterance, PUSH event and
case with ``tuple.__new__``, from its fields in class order.
``Transcript`` is one too: a record whose lazily built indexes live in an
instance dict, outside its fields.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import AbstractSet, Mapping, NamedTuple, Sequence


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


class StoreEvent(NamedTuple):
    kind: StoreEventKind
    target: str


# Capability tags derived from dialogue content (an entity appearing as an
# argument of a proposition with predicate P gets the tag below) share the
# namespace with statically annotated tags but stay distinguishable by shape.
DERIVED_TAG_PREFIX = "pred:"


def derived_tag(lemma: str) -> str:
    return DERIVED_TAG_PREFIX + lemma


class DiscourseItem(NamedTuple):
    """An entity, proposition, or surface-form record occupying a store.

    Only a surface form realizes an item, and it must; only a proposition
    has a predicate or arguments. ``parse`` rejects a record that breaks
    either rule, so the record checks nothing, and ``parse`` builds it with
    ``tuple.__new__``."""

    id: str
    kind: ItemKind
    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    predicate: str | None = None
    args: tuple[str, ...] = ()
    sel_classes: frozenset[str] = frozenset()
    realizes: str | None = None
    introduced_at: int = 0


class Mention(NamedTuple):
    """An anaphor to resolve, with its agreement and selectional cues."""

    id: str
    form: MentionForm
    gender: Gender = Gender.UNSPECIFIED
    number: Number = Number.UNSPECIFIED
    verb_lemma: str | None = None
    required_sel_classes: frozenset[str] = frozenset()
    gold_antecedent: str = ""


class Utterance(NamedTuple):
    id: str
    speaker: str
    index: int
    items: tuple[str, ...] = ()
    mentions: tuple[Mention, ...] = ()
    iru_antecedents: tuple[str, ...] = ()


class SegmentEvent(NamedTuple):
    """A segment boundary preceding the utterance at ``position``."""

    kind: EventKind
    segment_id: str
    position: int
    expect_return: bool = False


class CaseRecord(NamedTuple):
    """A return-pop case annotation attached to a RETURN event."""

    case_id: str
    mention_id: str
    segment_id: str
    return_position: int
    iru_at_return: bool = False
    central_competitor: bool = False


class _TranscriptFields(NamedTuple):
    dialogue_id: str
    utterances: tuple[Utterance, ...] = ()
    events: tuple[SegmentEvent, ...] = ()
    item_table: Mapping[str, DiscourseItem] = MappingProxyType({})
    cases: tuple[CaseRecord, ...] = ()


class Transcript(_TranscriptFields):
    """An annotated dialogue: a record whose indexes live in an instance dict.

    Lookups are indexed lazily, once per transcript, and every replay of
    it shares them: events by position, utterances by id, items by
    segment, each segment's push by utterance position and by place in
    ``events``, the first surface carrier of each item, and the ids that
    pass the kind step and ``staged_filter`` for each cue signature.
    Every filter stage is a pointwise test on features fixed at parse
    time, so filtering a store keeps exactly its members in that set, in
    store order. The class declares no ``__slots__``, so the indexes sit
    outside the fields: they take no part in equality or repr, and a copy
    made by ``_replace`` or ``_make`` starts without them. Utterance
    indexes are assumed to increase along ``utterances``, and
    ``item_table`` to list items in introduction order, with
    non-decreasing ``introduced_at``, as the parser builds both.
    """

    @cached_property
    def _survivors(self) -> dict[tuple, frozenset[str]]:
        return {}

    @cached_property
    def _agreeing(self) -> dict[tuple, list[DiscourseItem]]:
        return {}

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

    @cached_property
    def push_positions(self) -> dict[str, int]:
        return {e.segment_id: e.position for e in self.events if e.kind is EventKind.PUSH}

    @cached_property
    def push_order(self) -> dict[str, int]:
        # Unlike positions, this orders pushes before the same utterance.
        return {e.segment_id: n for n, e in enumerate(self.events) if e.kind is EventKind.PUSH}

    def utterance_by_id(self, utt_id: str) -> Utterance:
        return self._utterances_by_id[utt_id]

    def events_at(self, position: int) -> tuple[SegmentEvent, ...]:
        return self._events_by_position.get(position, ())

    def mentions(self) -> tuple[Mention, ...]:
        out: list[Mention] = []
        for utt in self.utterances:
            out.extend(utt.mentions)
        return tuple(out)

    @cached_property
    def carriers(self) -> dict[str, DiscourseItem]:
        """The first surface form, in table order, that realizes each item."""

        carriers: dict[str, DiscourseItem] = {}
        for item in self.item_table.values():
            if item.kind is ItemKind.SURFACE_FORM:
                carriers.setdefault(item.realizes, item)
        return carriers

    def survivors(self, mention: Mention) -> frozenset[str]:
        signature = (  # member values: an enum member hashes in Python code
            mention.form._value_,
            mention.gender._value_,
            mention.number._value_,
            mention.required_sel_classes,
            mention.verb_lemma,
        )
        found = self._survivors.get(signature)
        if found is None:
            # Agreement depends only on the pool, gender and number: once per key.
            key = (mention.form is MentionForm.VP_ELLIPSIS, mention.gender, mention.number)
            pool = self._agreeing.get(key)
            if pool is None:
                pool = self._agreeing[key] = agreement_filter(self._pools[key[0]], mention)
            found = frozenset(item.id for item in selection_filter(pool, required_tags(mention)))
            self._survivors[signature] = found
        return found

    @cached_property
    def _pools(self) -> dict[bool, list[DiscourseItem]]:
        # Keyed by "is a verb-phrase ellipsis": an ellipsis picks out an elided
        # predication, so only propositions can antecede it; referring forms
        # pick out entities or propositions. Surface forms are never referents.
        items = self.item_table.values()
        return {
            True: [item for item in items if item.kind is ItemKind.PROPOSITION],
            False: [item for item in items if item.kind is not ItemKind.SURFACE_FORM],
        }


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


def segment_items(transcript: Transcript, segment_id: str, before: int) -> tuple[str, ...]:
    """Items realized by the utterances before index ``before`` whose
    innermost segment is given.

    Order follows the dialogue; repeated realizations keep the first slot.
    """

    items, firsts = transcript._segment_index.get(segment_id, ((), []))
    return items[: bisect_left(firsts, before)]


class _ViewFields(NamedTuple):
    immediate: tuple[str, ...] = ()
    retrievable: frozenset[str] = frozenset()
    lost: frozenset[str] = frozenset()


class AccessibilityView(_ViewFields):
    """Snapshot of what a model makes available: immediately accessible
    items in salience order, items recoverable at a cost, and items gone.
    Every construction, ``_replace`` too, runs ``__post_init__``.
    """

    __slots__ = ()
    OVERLAP = "accessibility stores must be pairwise disjoint"

    def __new__(cls, *args, **kwargs) -> AccessibilityView:
        view = super().__new__(cls, *args, **kwargs)
        view.__post_init__()
        return view

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __post_init__(self) -> None:
        if not (
            (not self.retrievable or self.retrievable.isdisjoint(self.immediate))
            and (not self.lost or self.lost.isdisjoint(self.immediate))
            and self.retrievable.isdisjoint(self.lost)
        ):
            raise ValueError(self.OVERLAP)


def snapshot(state, previous: AccessibilityView | None = None) -> AccessibilityView:
    """A trace record's view of a model's live ``immediate``, ``retrievable``
    and ``lost`` stores, reading the immediate tier once. A store equal to
    its frozenset in ``previous``, the preceding record's view, shares that
    frozenset; any other is frozen anew.
    """

    return AccessibilityView(
        tuple(state.immediate),
        _frozen(state.retrievable, previous and previous.retrievable),
        _frozen(state.lost, previous and previous.lost),
    )


def _frozen(store: AbstractSet[str], earlier: frozenset[str] | None) -> frozenset[str]:
    return earlier if earlier == store else frozenset(store)


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


class CascadeTrace(NamedTuple):
    """Survivor ids as each cue narrows a candidate list, in list order."""

    after_agreement: tuple[str, ...]
    after_static_selection: tuple[str, ...]
    after_dialogue_selection: tuple[str, ...]


def required_tags(mention: Mention) -> frozenset[str]:
    """The tags a referent of ``mention`` must have, its verb's ``pred:`` tag too."""

    required = mention.required_sel_classes
    return required | {derived_tag(mention.verb_lemma)} if mention.verb_lemma else required


def staged_filter(
    candidates: Sequence[DiscourseItem], mention: Mention
) -> CascadeTrace:
    """Narrow candidates by agreement, then by the mention's static
    selectional tags, then by the tags only the dialogue supplies (its
    ``pred:`` tags and its verb's); each stage filters the one before."""

    required = required_tags(mention)
    dialogue_tags = {tag for tag in required if tag.startswith(DERIVED_TAG_PREFIX)}
    agreeing = agreement_filter(candidates, mention)
    static = selection_filter(agreeing, required - dialogue_tags)
    dialogue = selection_filter(static, dialogue_tags)
    return CascadeTrace(
        after_agreement=tuple(item.id for item in agreeing),
        after_static_selection=tuple(item.id for item in static),
        after_dialogue_selection=tuple(item.id for item in dialogue),
    )
