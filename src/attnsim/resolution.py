"""Anaphora resolution against accessibility states, redundancy analysis,
and the cue-cascade classifier for pronouns that resume an earlier segment.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .core import (
    AccessibilityView,
    CascadeTrace,
    DiscourseItem,
    Mention,
    MentionForm,
    Transcript,
    Utterance,
    staged_filter,
)

if TYPE_CHECKING:
    from .cache_model import CacheState
    from .stack_model import FocusStack


class OutcomeKind(Enum):
    IMMEDIATE = "Immediate"
    AFTER_RETRIEVAL = "AfterRetrieval"
    FAILURE = "Failure"


# Read per mention: before Python 3.12 a member read through its enum runs a hook.
_IMMEDIATE, _VP_ELLIPSIS = OutcomeKind.IMMEDIATE, MentionForm.VP_ELLIPSIS


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
        return tuple.__new__(cls, (_IMMEDIATE, item, 0, None))  # nothing to check

    @classmethod
    def after_retrieval(cls, item: str, effort: int) -> "Outcome":
        if effort <= 0:
            raise ValueError("retrieval outcomes carry positive effort")
        return cls(OutcomeKind.AFTER_RETRIEVAL, item, effort)

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


class ReturnPopCase(NamedTuple):
    """A pronoun at a segment resumption, with its competition context."""

    case_id: str
    mention: Mention
    candidates_at_return: tuple[DiscourseItem, ...]
    iru_at_return: bool
    competitor_ever_central: bool


def _surface_carrier(
    gold_id: str, carriers: Mapping[str, DiscourseItem]
) -> DiscourseItem | None:
    return carriers.get(gold_id)


def resolve(
    mention: Mention,
    accessibility: AccessibilityView | CacheState | FocusStack,
    transcript: Transcript,
    retrieval_cost: int = 1,
    candidates: bool = True,
) -> Resolution:
    """Resolve one mention against a snapshot or a model's live state.

    Immediately accessible candidates are tried in salience order and the
    most salient survivor wins. Failing that, a unique survivor in the
    retrievable store is found at a cost; several survivors there have no
    salience order to separate them, so the mention is ambiguous. The
    stack's retrievable store is empty, so under the stack only the first
    tier can answer. Failures are data, not faults, and never correct:
    every mention names its gold antecedent. A verb-phrase ellipsis
    fails outright when the first surface form in table order that realizes
    its antecedent is lost, whatever became of later carriers. Survivors and
    carriers come from ``transcript``, the mention's own. Without
    ``candidates`` the tiers stop at their first and second survivor, and
    the resolution lists none.
    """

    mention_id, gold = mention.id, mention.gold_antecedent
    if mention.form is _VP_ELLIPSIS:
        carrier = _surface_carrier(gold, transcript.carriers)
        if carrier is not None and carrier.id in accessibility.lost:
            outcome = Outcome.failure(FailureReason.SURFACE_FORM_LOST)
            return Resolution(mention_id, outcome, (), False)

    survivors = transcript.survivors(mention)
    found = filter(survivors.__contains__, accessibility.immediate)
    winners = tuple(islice(found, None if candidates else 1))
    if winners:
        immediate = Outcome.immediate(winners[0])
        considered = winners if candidates else ()
        return tuple.__new__(Resolution, (mention_id, immediate, considered, winners[0] == gold))

    # The retrievable store has no salience order; survivors go by id.
    # Two survivors already make the mention ambiguous.
    smaller, larger = sorted((survivors, accessibility.retrievable), key=len)
    found = filter(larger.__contains__, smaller)
    winners = sorted(islice(found, None if candidates else 2))
    considered = tuple(winners) if candidates else ()
    if len(winners) == 1:
        outcome = Outcome.after_retrieval(winners[0], retrieval_cost)
        return Resolution(mention_id, outcome, considered, winners[0] == gold)
    reason = FailureReason.AMBIGUOUS if winners else FailureReason.NO_CANDIDATE
    return Resolution(mention_id, Outcome.failure(reason), considered, False)


def cascade_survivors(case: ReturnPopCase) -> CascadeTrace:
    return staged_filter(case.candidates_at_return, case.mention)


def classify_return_pop(case: ReturnPopCase, trace: CascadeTrace) -> PopClassification:
    """Decide which cue suffices to pick out the resumed antecedent.

    Each stage narrows the previous stage's survivors; the first stage
    that leaves the gold antecedent alone names the classification, with
    redundancy and centrality as the final fallbacks. ``trace`` is the
    case's ``cascade_survivors``. The gold antecedent is assumed to be
    among the case's candidates, as ``build_cases`` guarantees.
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
    """Classify what restating buys for each item a redundant utterance
    re-realizes, once each in order of first mention, by the store that
    holds it just before the utterance: one retrievable is retrieved from
    memory, one lost is reinstantiated, and any other is refreshed. Every
    antecedent is an earlier utterance, so each of its items sits in
    exactly one store: one neither retrievable nor lost is immediate.
    """

    retrievable, lost = before.retrievable, before.lost
    restated = dict.fromkeys(
        item_id
        for antecedent_id in utt.iru_antecedents
        for item_id in transcript.utterance_by_id(antecedent_id).items
    )
    functions: list[tuple[str, IRUFunction]] = []
    for item_id in restated:
        if item_id in retrievable:
            function = IRUFunction.RETRIEVE_FROM_MEMORY
        elif item_id in lost:
            function = IRUFunction.REINSTANTIATE
        else:
            function = IRUFunction.REFRESH_IN_CACHE
        functions.append((item_id, function))
    return functions
