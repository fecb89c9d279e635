"""Anaphora resolution against accessibility states, redundancy analysis,
and the cue-cascade classifier for pronouns that resume an earlier segment.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .core import (
    DERIVED_TAG_PREFIX,
    AccessibilityView,
    DiscourseItem,
    ItemKind,
    Mention,
    MentionForm,
    Transcript,
    Utterance,
    agreement_filter,
    derived_tag,
    selection_filter,
)

if TYPE_CHECKING:
    from .cache_model import CacheState
    from .stack_model import FocusStack


class OutcomeKind(Enum):
    IMMEDIATE = "Immediate"
    AFTER_RETRIEVAL = "AfterRetrieval"
    FAILURE = "Failure"


class FailureReason(Enum):
    SURFACE_FORM_LOST = "SurfaceFormLost"
    NO_CANDIDATE = "NoCandidate"
    AMBIGUOUS = "Ambiguous"


class Outcome(NamedTuple):
    """Built only through the three constructors below."""

    kind: OutcomeKind
    item: str | None = None
    effort: int = 0
    reason: FailureReason | None = None

    @classmethod
    def immediate(cls, item: str) -> "Outcome":
        return cls(OutcomeKind.IMMEDIATE, item=item)

    @classmethod
    def after_retrieval(cls, item: str, effort: int) -> "Outcome":
        if effort <= 0:
            raise ValueError("retrieval outcomes carry positive effort")
        return cls(OutcomeKind.AFTER_RETRIEVAL, item=item, effort=effort)

    @classmethod
    def failure(cls, reason: FailureReason) -> "Outcome":
        return cls(OutcomeKind.FAILURE, reason=reason)


class Resolution(NamedTuple):
    mention_id: str
    outcome: Outcome
    candidates_considered: tuple[str, ...]
    correct: bool


class PopClassification(Enum):
    PRONOUN_SUFFICIENT = "PronounSufficient"
    VERB_FRAME_RESOLVED = "VerbFrameResolved"
    DIALOGUE_CONSTRAINT_RESOLVED = "DialogueConstraintResolved"
    IRU_RESOLVED = "IRUResolved"
    CENTRALITY_RESOLVED = "CentralityResolved"
    AMBIGUOUS = "Ambiguous"


class IRUFunction(Enum):
    REFRESH_IN_CACHE = "RefreshInCache"
    RETRIEVE_FROM_MEMORY = "RetrieveFromMemory"
    REINSTANTIATE = "Reinstantiate"


class _CaseFields(NamedTuple):
    case_id: str
    mention: Mention
    candidates_at_return: tuple[DiscourseItem, ...]
    iru_at_return: bool = False
    competitor_ever_central: bool = False


class ReturnPopCase(_CaseFields):
    """A pronoun at a segment resumption, with its competition context.
    Every construction, ``_replace`` too, checks that the gold antecedent
    is among the candidates."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ReturnPopCase:
        case = super().__new__(cls, *args, **kwargs)
        ids = {item.id for item in case.candidates_at_return}
        if case.mention.gold_antecedent not in ids:
            raise ValueError(
                f"case {case.case_id!r}: gold antecedent not among candidates"
            )
        return case

    _make = classmethod(lambda cls, fields: cls(*fields))


class CascadeTrace(NamedTuple):
    """Survivor ids as each cue narrows a candidate list, in list order."""

    after_agreement: tuple[str, ...]
    after_static_selection: tuple[str, ...]
    after_dialogue_selection: tuple[str, ...]


def staged_filter(
    candidates: Sequence[DiscourseItem], mention: Mention
) -> CascadeTrace:
    """Narrow candidates by agreement, then by the mention's static
    selectional tags, then by the tags only the dialogue supplies (its
    ``pred:`` tags and its verb's); each stage filters the one before."""

    required = mention.required_sel_classes
    dialogue_tags = {tag for tag in required if tag.startswith(DERIVED_TAG_PREFIX)}
    if mention.verb_lemma:
        dialogue_tags.add(derived_tag(mention.verb_lemma))
    agreeing = agreement_filter(candidates, mention)
    static = selection_filter(agreeing, required - dialogue_tags)
    dialogue = selection_filter(static, dialogue_tags)
    return CascadeTrace(
        after_agreement=tuple(item.id for item in agreeing),
        after_static_selection=tuple(item.id for item in static),
        after_dialogue_selection=tuple(item.id for item in dialogue),
    )


class ReferentIndex:
    """Lookups that depend only on the item table, built lazily, once per
    transcript (``compare`` shares one between its two replays): the first
    surface carrier of each item, and the ids that pass the kind step and
    ``staged_filter`` for each cue signature. Every stage is a pointwise
    test on features fixed at parse time, so filtering a store keeps
    exactly its members in that set, in store order."""

    def __init__(self, table: Mapping[str, DiscourseItem]) -> None:
        self.table = table
        self._survivors: dict[tuple, frozenset[str]] = {}
        self._agreeing: dict[tuple, list[DiscourseItem]] = {}

    @cached_property
    def carriers(self) -> dict[str, DiscourseItem]:
        """The first surface form, in table order, that realizes each item."""

        carriers: dict[str, DiscourseItem] = {}
        for item in self.table.values():
            if item.kind is ItemKind.SURFACE_FORM:
                carriers.setdefault(item.realizes, item)
        return carriers

    def survivors(self, mention: Mention) -> frozenset[str]:
        signature = (
            mention.form,
            mention.gender,
            mention.number,
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
            found = frozenset(staged_filter(pool, mention).after_dialogue_selection)
            self._survivors[signature] = found
        return found

    @cached_property
    def _pools(self) -> dict[bool, list[DiscourseItem]]:
        # Keyed by "is a verb-phrase ellipsis": an ellipsis picks out an elided
        # predication, so only propositions can antecede it; referring forms
        # pick out entities or propositions. Surface forms are never referents.
        items = self.table.values()
        return {
            True: [item for item in items if item.kind is ItemKind.PROPOSITION],
            False: [item for item in items if item.kind is not ItemKind.SURFACE_FORM],
        }


def _surface_carrier(
    gold_id: str, carriers: Mapping[str, DiscourseItem]
) -> DiscourseItem | None:
    return carriers.get(gold_id)


def resolve(
    mention: Mention,
    accessibility: AccessibilityView | CacheState | FocusStack,
    index: ReferentIndex,
    retrieval_cost: int = 1,
    candidates: bool = True,
) -> Resolution:
    """Resolve one mention against a snapshot or a model's live state.

    Immediately accessible candidates are tried in salience order and the
    most salient survivor wins. Failing that, a unique survivor in the
    retrievable store is found at a cost; several survivors there have no
    salience order to separate them, so the mention is ambiguous. The
    stack's retrievable store is empty, so under the stack only the first
    tier can answer. Failures are data, not faults. A verb-phrase ellipsis
    fails outright when the first surface form in table order that realizes
    its antecedent is lost, whatever became of later carriers. ``index`` is
    the ``ReferentIndex`` over the transcript's item table. Without
    ``candidates`` the tiers stop at their first and second survivor, and
    the resolution lists none.
    """

    gold = mention.gold_antecedent

    def resolution(outcome: Outcome, considered: Sequence[str] = ()) -> Resolution:
        considered = tuple(considered) if candidates else ()
        return Resolution(mention.id, outcome, considered, correct=outcome.item == gold)

    if mention.form is MentionForm.VP_ELLIPSIS:
        carrier = _surface_carrier(gold, index.carriers)
        if carrier is not None and carrier.id in accessibility.lost:
            return resolution(Outcome.failure(FailureReason.SURFACE_FORM_LOST))

    survivors = index.survivors(mention)
    found = filter(survivors.__contains__, accessibility.immediate)
    winners = tuple(islice(found, None if candidates else 1))
    if winners:
        return resolution(Outcome.immediate(winners[0]), winners)

    # The retrievable store has no salience order; survivors go by id.
    # Two survivors already make the mention ambiguous.
    smaller, larger = sorted((survivors, accessibility.retrievable), key=len)
    found = filter(larger.__contains__, smaller)
    winners = sorted(islice(found, None if candidates else 2))
    if len(winners) == 1:
        return resolution(Outcome.after_retrieval(winners[0], retrieval_cost), winners)
    if winners:
        return resolution(Outcome.failure(FailureReason.AMBIGUOUS), winners)
    return resolution(Outcome.failure(FailureReason.NO_CANDIDATE))


def cascade_survivors(case: ReturnPopCase) -> CascadeTrace:
    return staged_filter(case.candidates_at_return, case.mention)


def classify_return_pop(case: ReturnPopCase, trace: CascadeTrace) -> PopClassification:
    """Decide which cue suffices to pick out the resumed antecedent.

    Each stage narrows the previous stage's survivors; the first stage
    that leaves the gold antecedent alone names the classification, with
    redundancy and centrality as the final fallbacks. ``trace`` is the
    case's ``cascade_survivors``.
    """

    gold = {case.mention.gold_antecedent}
    if set(trace.after_agreement) == gold:
        return PopClassification.PRONOUN_SUFFICIENT
    if set(trace.after_static_selection) == gold:
        return PopClassification.VERB_FRAME_RESOLVED
    if set(trace.after_dialogue_selection) == gold:
        return PopClassification.DIALOGUE_CONSTRAINT_RESOLVED
    if case.iru_at_return:
        return PopClassification.IRU_RESOLVED
    if not case.competitor_ever_central:
        return PopClassification.CENTRALITY_RESOLVED
    return PopClassification.AMBIGUOUS


def analyze_iru(
    utt: Utterance,
    before: AccessibilityView | CacheState | FocusStack,
    transcript: Transcript,
) -> list[tuple[str, IRUFunction]]:
    """Classify what restating buys for each item the utterance re-realizes,
    judged against the state just before the utterance, as ``resolve`` reads it.
    """

    if not utt.is_iru:
        raise ValueError(f"utterance {utt.id!r} is not redundant")
    functions: list[tuple[str, IRUFunction]] = []
    seen: set[str] = set()
    immediate = before.immediate
    for antecedent_id in utt.iru_antecedents:
        for item_id in transcript.utterance_by_id(antecedent_id).items:
            if item_id in seen:
                continue
            seen.add(item_id)
            if item_id in immediate:
                functions.append((item_id, IRUFunction.REFRESH_IN_CACHE))
            elif item_id in before.retrievable:
                functions.append((item_id, IRUFunction.RETRIEVE_FROM_MEMORY))
            elif item_id in before.lost:
                functions.append((item_id, IRUFunction.REINSTANTIATE))
            else:
                raise ValueError(f"antecedent item {item_id!r} not in any store")
    return functions
