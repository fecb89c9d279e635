"""Anaphora resolution against accessibility states, redundancy analysis,
and the cue-cascade classifier for pronouns that resume an earlier segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Mapping, Sequence

from .core import (
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


class OutcomeKind(Enum):
    IMMEDIATE = "Immediate"
    AFTER_RETRIEVAL = "AfterRetrieval"
    FAILURE = "Failure"


class FailureReason(Enum):
    SURFACE_FORM_LOST = "SurfaceFormLost"
    NO_CANDIDATE = "NoCandidate"
    AMBIGUOUS = "Ambiguous"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    item: str | None = None
    effort: int = 0
    reason: FailureReason | None = None

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.AFTER_RETRIEVAL and self.effort <= 0:
            raise ValueError("retrieval outcomes carry positive effort")

    @classmethod
    def immediate(cls, item: str) -> "Outcome":
        return cls(OutcomeKind.IMMEDIATE, item=item)

    @classmethod
    def after_retrieval(cls, item: str, effort: int) -> "Outcome":
        return cls(OutcomeKind.AFTER_RETRIEVAL, item=item, effort=effort)

    @classmethod
    def failure(cls, reason: FailureReason) -> "Outcome":
        return cls(OutcomeKind.FAILURE, reason=reason)

    def same_shape(self, other: "Outcome") -> bool:
        """Structural equality: constructor, item, and reason; effort is
        bookkeeping, not identity."""
        return (
            self.kind is other.kind
            and self.item == other.item
            and self.reason is other.reason
        )


@dataclass(frozen=True)
class Resolution:
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
    NOT_REDUNDANT = "NotRedundant"


@dataclass(frozen=True)
class ReturnPopCase:
    """A pronoun at a segment resumption, with its competition context."""

    case_id: str
    mention: Mention
    candidates_at_return: tuple[DiscourseItem, ...]
    iru_at_return: bool = False
    competitor_ever_central: bool = False

    def __post_init__(self) -> None:
        ids = {item.id for item in self.candidates_at_return}
        if self.mention.gold_antecedent not in ids:
            raise ValueError(
                f"case {self.case_id!r}: gold antecedent not among candidates"
            )


def static_requirements(mention: Mention) -> frozenset[str]:
    return frozenset(
        tag for tag in mention.required_sel_classes if not tag.startswith("pred:")
    )


def full_requirements(mention: Mention) -> frozenset[str]:
    tags = set(mention.required_sel_classes)
    if mention.verb_lemma:
        tags.add(derived_tag(mention.verb_lemma))
    return frozenset(tags)


def _survivors(
    candidates: Sequence[DiscourseItem], mention: Mention
) -> list[DiscourseItem]:
    # A verb-phrase ellipsis picks out an elided predication, so only
    # proposition records can antecede it; referring forms pick out
    # entities or propositions. Surface-form records are never referents.
    if mention.form is MentionForm.VP_ELLIPSIS:
        proposition = ItemKind.PROPOSITION
        pool = [item for item in candidates if item.kind is proposition]
    else:
        surface = ItemKind.SURFACE_FORM
        pool = [item for item in candidates if item.kind is not surface]
    return selection_filter(agreement_filter(pool, mention), full_requirements(mention))


def _surface_carrier(
    gold_id: str, table: Mapping[str, DiscourseItem]
) -> DiscourseItem | None:
    for item in table.values():
        if item.kind is ItemKind.SURFACE_FORM and item.realizes == gold_id:
            return item
    return None


def resolve(
    mention: Mention,
    accessibility: AccessibilityView,
    table: Mapping[str, DiscourseItem],
    allow_retrieval: bool,
    retrieval_cost: int = 1,
) -> Resolution:
    """Resolve one mention against an accessibility snapshot.

    Immediately accessible candidates are tried in salience order and the
    most salient survivor wins. Failing that, retrieval-capable models may
    find a unique survivor in the retrievable store at a cost; several
    survivors there have no salience order to separate them, so the mention
    is ambiguous. Failures are data, not faults.
    """

    gold = mention.gold_antecedent

    if mention.form is MentionForm.VP_ELLIPSIS:
        carrier = _surface_carrier(gold, table)
        if carrier is not None and carrier.id in accessibility.lost:
            return Resolution(
                mention_id=mention.id,
                outcome=Outcome.failure(FailureReason.SURFACE_FORM_LOST),
                candidates_considered=(),
                correct=False,
            )

    immediate = [table[item_id] for item_id in accessibility.immediate]
    winners = _survivors(immediate, mention)
    if winners:
        chosen = winners[0]
        return Resolution(
            mention_id=mention.id,
            outcome=Outcome.immediate(chosen.id),
            candidates_considered=tuple(item.id for item in winners),
            correct=chosen.id == gold,
        )

    if allow_retrieval:
        # The filters keep order, so sorting only the survivors by id gives
        # the same list as filtering the sorted store.
        retrievable = [table[item_id] for item_id in accessibility.retrievable]
        winners = sorted(_survivors(retrievable, mention), key=attrgetter("id"))
        if len(winners) == 1:
            chosen = winners[0]
            return Resolution(
                mention_id=mention.id,
                outcome=Outcome.after_retrieval(chosen.id, retrieval_cost),
                candidates_considered=(chosen.id,),
                correct=chosen.id == gold,
            )
        if len(winners) > 1:
            return Resolution(
                mention_id=mention.id,
                outcome=Outcome.failure(FailureReason.AMBIGUOUS),
                candidates_considered=tuple(item.id for item in winners),
                correct=False,
            )

    return Resolution(
        mention_id=mention.id,
        outcome=Outcome.failure(FailureReason.NO_CANDIDATE),
        candidates_considered=(),
        correct=False,
    )


@dataclass(frozen=True)
class CascadeTrace:
    """Survivor counts as each cue narrows a return-pop competition."""

    after_agreement: tuple[str, ...]
    after_static_selection: tuple[str, ...]
    after_dialogue_selection: tuple[str, ...]


def cascade_survivors(case: ReturnPopCase) -> CascadeTrace:
    mention = case.mention
    stage1 = agreement_filter(list(case.candidates_at_return), mention)
    stage2 = selection_filter(stage1, static_requirements(mention))
    stage3 = selection_filter(stage2, full_requirements(mention))
    return CascadeTrace(
        after_agreement=tuple(item.id for item in stage1),
        after_static_selection=tuple(item.id for item in stage2),
        after_dialogue_selection=tuple(item.id for item in stage3),
    )


def classify_return_pop(case: ReturnPopCase) -> PopClassification:
    """Decide which cue suffices to pick out the resumed antecedent.

    Each stage narrows the previous stage's survivors; the first stage
    that leaves the gold antecedent alone names the classification, with
    redundancy and centrality as the final fallbacks.
    """

    gold = {case.mention.gold_antecedent}
    trace = cascade_survivors(case)
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
    utt: Utterance, before: AccessibilityView, transcript: Transcript
) -> list[tuple[str, IRUFunction]]:
    """Classify what restating buys for each item the utterance re-realizes,
    judged against the accessibility state just before the utterance.
    """

    if not utt.is_iru:
        raise ValueError(f"utterance {utt.id!r} is not redundant")
    functions: list[tuple[str, IRUFunction]] = []
    seen: set[str] = set()
    immediate = set(before.immediate)
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
