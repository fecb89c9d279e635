"""Mention resolution, the return-pop cascade, and redundancy analysis."""

from __future__ import annotations

import pytest

from attnsim import cache_model, stack_model
from attnsim.core import (
    AccessibilityView,
    DiscourseItem,
    Gender,
    ItemKind,
    Mention,
    MentionForm,
    Number,
    Transcript,
    Utterance,
)
from attnsim.driver import ModelKind, build_cases, replay
from attnsim.resolution import (
    FailureReason,
    IRUFunction,
    Outcome,
    OutcomeKind,
    PopClassification,
    ReturnPopCase,
    analyze_iru,
    cascade_survivors,
    classify_return_pop,
    resolve,
)
from attnsim.transcript_io import parse
from propsuite import stack_spaces


def entity(item_id, gender=Gender.NEUT, number=Number.SG, sel=()):
    return DiscourseItem(
        id=item_id,
        kind=ItemKind.ENTITY,
        gender=gender,
        number=number,
        sel_classes=frozenset(sel),
    )


def over(table):
    """A transcript with only an item table, for resolving against it."""

    return Transcript(dialogue_id="t", item_table=table)


def pronoun(gold, gender=Gender.NEUT, number=Number.SG, verb=None, sel=()):
    return Mention(
        id="m",
        form=MentionForm.PRONOUN,
        gender=gender,
        number=number,
        verb_lemma=verb,
        required_sel_classes=frozenset(sel),
        gold_antecedent=gold,
    )


def test_single_agreeing_candidate_resolves_immediately():
    cat = entity("cat")
    snapshot = AccessibilityView(immediate=("cat",))
    resolution = resolve(pronoun("cat"), snapshot, over({"cat": cat}))
    assert resolution.outcome == Outcome.immediate("cat")
    assert resolution.correct


def test_most_salient_survivor_wins():
    first = entity("first")
    second = entity("second")
    snapshot = AccessibilityView(immediate=("first", "second"))
    resolution = resolve(
        pronoun("second"), snapshot, over({"first": first, "second": second})
    )
    assert resolution.outcome.item == "first"
    assert not resolution.correct


def test_no_candidate_anywhere():
    snapshot = AccessibilityView(immediate=())
    resolution = resolve(pronoun("ghost"), snapshot, over({}))
    assert resolution.outcome == Outcome.failure(FailureReason.NO_CANDIDATE)


def test_unique_retrievable_candidate_costs_effort():
    cat = entity("cat")
    rock = entity("rock", gender=Gender.NEUT, number=Number.PL)
    snapshot = AccessibilityView(retrievable=frozenset({"cat", "rock"}))
    resolution = resolve(pronoun("cat"), snapshot, over({"cat": cat, "rock": rock}))
    assert resolution.outcome == Outcome.after_retrieval("cat", 1)
    assert resolution.correct


def test_popped_antecedent_is_not_retrieved_under_the_stack():
    # Popped material is lost: the stack has nothing to retrieve it from.
    from attnsim import stack_model
    from attnsim.core import EventKind, SegmentEvent

    state = stack_model.new_stack()
    stack_model.apply_event(state, SegmentEvent(EventKind.PUSH, "S", position=0))
    stack_model.apply_utterance(
        state, Utterance(id="u0", speaker="A", index=0, items=("cat",))
    )
    stack_model.apply_event(state, SegmentEvent(EventKind.POP, "S", position=1))
    assert "cat" in state.lost
    resolution = resolve(pronoun("cat"), state, over({"cat": entity("cat")}))
    assert resolution.outcome == Outcome.failure(FailureReason.NO_CANDIDATE)
    assert resolution.candidates_considered == ()


def test_retrievable_tie_is_ambiguous():
    one = entity("one")
    two = entity("two")
    snapshot = AccessibilityView(retrievable=frozenset({"one", "two"}))
    resolution = resolve(pronoun("one"), snapshot, over({"one": one, "two": two}))
    assert resolution.outcome == Outcome.failure(FailureReason.AMBIGUOUS)
    assert set(resolution.candidates_considered) == {"one", "two"}


def test_retrievable_ambiguity_lists_candidates_by_id():
    ids = ["m7", "b2", "zz", "a10", "k", "a9", "c"]
    table = {item_id: entity(item_id) for item_id in ids}
    table["f"] = entity("f", gender=Gender.FEM)
    snapshot = AccessibilityView(retrievable=frozenset([*ids, "f"]))
    resolution = resolve(pronoun("k"), snapshot, over(table))
    assert resolution.outcome == Outcome.failure(FailureReason.AMBIGUOUS)
    assert resolution.candidates_considered == tuple(sorted(ids))


def test_ellipsis_never_gets_an_entity_candidate():
    props = {f"p{i}": DiscourseItem(id=f"p{i}", kind=ItemKind.PROPOSITION) for i in (2, 1)}
    entities = {f"e{i}": entity(f"e{i}", gender=Gender.UNSPECIFIED) for i in range(3)}
    surface = DiscourseItem(id="s", kind=ItemKind.SURFACE_FORM, realizes="p1")
    table = {**props, **entities, "s": surface}
    mention = Mention(id="e", form=MentionForm.VP_ELLIPSIS, gold_antecedent="p1")
    retrievable = AccessibilityView(retrievable=frozenset(table))
    resolution = resolve(mention, retrievable, over(table))
    assert resolution.outcome == Outcome.failure(FailureReason.AMBIGUOUS)
    assert resolution.candidates_considered == ("p1", "p2")
    only_entities = AccessibilityView(
        immediate=("e0", "e1"), retrievable=frozenset({"e2", "s"})
    )
    resolution = resolve(mention, only_entities, over(table))
    assert resolution.outcome == Outcome.failure(FailureReason.NO_CANDIDATE)
    assert resolution.candidates_considered == ()


def test_after_retrieval_requires_positive_effort():
    with pytest.raises(ValueError):
        Outcome.after_retrieval("x", 0)


def test_ellipsis_with_lost_carrier_fails():
    host = DiscourseItem(id="host", kind=ItemKind.PROPOSITION)
    carrier = DiscourseItem(id="carrier", kind=ItemKind.SURFACE_FORM, realizes="host")
    table = {"host": host, "carrier": carrier}
    mention = Mention(id="e", form=MentionForm.VP_ELLIPSIS, gold_antecedent="host")
    snapshot = AccessibilityView(
        immediate=("host",), lost=frozenset({"carrier"})
    )
    resolution = resolve(mention, snapshot, over(table))
    assert resolution.outcome == Outcome.failure(FailureReason.SURFACE_FORM_LOST)


@pytest.mark.parametrize(
    "lost, outcome",
    [
        ("first", Outcome.failure(FailureReason.SURFACE_FORM_LOST)),
        ("second", Outcome.immediate("host")),
    ],
)
def test_ellipsis_fails_only_when_the_first_carrier_is_lost(lost, outcome):
    # The first surface form in table order decides, whatever became of
    # later carriers of the same antecedent.
    host = DiscourseItem(id="host", kind=ItemKind.PROPOSITION)
    first = DiscourseItem(id="first", kind=ItemKind.SURFACE_FORM, realizes="host")
    second = DiscourseItem(id="second", kind=ItemKind.SURFACE_FORM, realizes="host")
    table = {"host": host, "first": first, "second": second}
    mention = Mention(id="e", form=MentionForm.VP_ELLIPSIS, gold_antecedent="host")
    snapshot = AccessibilityView(immediate=("host",), lost=frozenset({lost}))
    resolution = resolve(mention, snapshot, over(table))
    assert resolution.outcome == outcome


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("verb_lemma", "lift", {"held"}),
        ("required_sel_classes", frozenset({"liftable"}), {"box"}),
        ("form", MentionForm.VP_ELLIPSIS, {"deed"}),
        ("gender", Gender.FEM, {"sue"}),
        ("number", Number.PL, {"kids"}),
    ],
)
def test_survivors_are_kept_per_cue_signature(field, value, expected):
    # One transcript answers both mentions, which differ in one cue only; each
    # must get its own survivors, not the other's memoized set.
    items = (
        entity("held", sel={"pred:lift"}),
        entity("box", sel={"liftable"}),
        entity("sue", gender=Gender.FEM),
        entity("kids", number=Number.PL),
        DiscourseItem(
            id="deed", kind=ItemKind.PROPOSITION, gender=Gender.NEUT, number=Number.SG
        ),
    )
    transcript = over({item.id: item for item in items})
    plain = Mention(id="m", form=MentionForm.PRONOUN, gold_antecedent="held")
    assert transcript.survivors(plain) == {item.id for item in items}
    cued = plain._replace(**{field: value})
    assert transcript.survivors(cued) == expected
    assert transcript.survivors(plain) == {item.id for item in items}


def test_ellipsis_considers_only_propositions():
    host = DiscourseItem(id="host", kind=ItemKind.PROPOSITION)
    noise = entity("noise")
    table = {"host": host, "noise": noise}
    mention = Mention(id="e", form=MentionForm.VP_ELLIPSIS, gold_antecedent="host")
    snapshot = AccessibilityView(immediate=("noise", "host"))
    resolution = resolve(mention, snapshot, over(table))
    assert resolution.outcome == Outcome.immediate("host")


def test_dialogue_a_resolutions_under_stack(dialogue_a):
    report = replay(dialogue_a, ModelKind.STACK)
    outcomes = {res.mention_id: res for _, res in report.resolutions}
    assert outcomes["her"].outcome == Outcome.immediate("daughter")
    assert outcomes["her"].correct
    assert outcomes["ell_8a"].outcome == Outcome.immediate("p1")
    assert outcomes["ell_8a"].correct


def test_dialogue_b_resolutions_under_cache(dialogue_b):
    report = replay(dialogue_b, ModelKind.CACHE, capacity=7)
    outcomes = {res.mention_id: res for _, res in report.resolutions}
    assert outcomes["ell_8a"].outcome == Outcome.failure(FailureReason.SURFACE_FORM_LOST)
    assert outcomes["her"].outcome == Outcome.after_retrieval("daughter", 1)


# --- return-pop cascade ----------------------------------------------------


def case(gold, competitors, mention, iru=False, central=False):
    return ReturnPopCase(
        case_id="case",
        mention=mention,
        candidates_at_return=(gold, *competitors),
        iru_at_return=iru,
        competitor_ever_central=central,
    )


def classify(pop_case: ReturnPopCase) -> PopClassification:
    return classify_return_pop(pop_case, cascade_survivors(pop_case))


def test_pronoun_sufficient_when_no_competitor_agrees():
    gold = entity("her_ref", gender=Gender.FEM)
    other = entity("him_ref", gender=Gender.MASC)
    mention = pronoun("her_ref", gender=Gender.FEM)
    assert classify(case(gold, [other], mention)) is (
        PopClassification.PRONOUN_SUFFICIENT
    )


def test_verb_frame_resolves_capability_mismatch():
    gold = entity("pump", sel={"workable"})
    other = entity("wrench")
    mention = pronoun("pump", sel={"workable"})
    assert classify(case(gold, [other], mention)) is (
        PopClassification.VERB_FRAME_RESOLVED
    )


def test_dialogue_derived_constraint_resolves():
    gold = entity("rider", gender=Gender.MASC, sel={"pred:ride"})
    other = entity("walker", gender=Gender.MASC)
    mention = pronoun("rider", gender=Gender.MASC, verb="ride")
    assert classify(case(gold, [other], mention)) is (
        PopClassification.DIALOGUE_CONSTRAINT_RESOLVED
    )


def test_iru_resolves_before_centrality():
    gold = entity("a")
    other = entity("b")
    mention = pronoun("a")
    assert classify(case(gold, [other], mention, iru=True)) is (
        PopClassification.IRU_RESOLVED
    )


def test_never_central_competitor_resolves():
    gold = entity("a")
    other = entity("b")
    mention = pronoun("a")
    assert classify(case(gold, [other], mention)) is (
        PopClassification.CENTRALITY_RESOLVED
    )


def test_central_competitor_is_ambiguous():
    gold = entity("a")
    other = entity("b")
    mention = pronoun("a")
    assert classify(case(gold, [other], mention, central=True)) is (
        PopClassification.AMBIGUOUS
    )


# Segment S1 holds "new" and, under S2, "aside"; "old" predates its push.
GOLD_BEFORE_PUSH = """DIALOGUE t
UTT u1 speaker=A
ITEM old kind=entity gender=f num=sg
PUSH S1
UTT u2 speaker=B
ITEM new kind=entity gender=f num=sg
PUSH S2
UTT u3 speaker=A
ITEM aside kind=entity gender=m num=sg
RETURN S1
CASE c1 mention=p1
CASE c2 mention=p2
UTT u4 speaker=B
PRON p1 gender=f num=sg gold=new
PRON p2 gender=f num=sg gold=old
"""


def test_case_requires_gold_among_candidates():
    transcript = parse(GOLD_BEFORE_PUSH)
    (case,) = build_cases(transcript._replace(cases=transcript.cases[:1]))
    assert [item.id for item in case.candidates_at_return] == ["new", "aside"]
    with pytest.raises(ValueError) as error:
        build_cases(transcript)
    assert str(error.value) == "case 'c2': gold antecedent not among candidates"


def test_view_stores_must_be_disjoint():
    view = AccessibilityView(immediate=("a",), retrievable=frozenset({"b"}))
    for lost in ("a", "b"):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            AccessibilityView(("a",), frozenset({"b"}), frozenset({lost}))
        with pytest.raises(ValueError, match="pairwise disjoint"):
            view._replace(lost=frozenset({lost}))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        view._replace(retrievable=frozenset({"a"}))
    # One store empty, the other overlapping the immediate tier.
    with pytest.raises(ValueError, match="pairwise disjoint"):
        AccessibilityView(("a",), lost=frozenset({"a"}))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        AccessibilityView(("a",), retrievable=frozenset({"a"}))


# --- redundancy analysis ---------------------------------------------------


def little_transcript():
    items = {
        "a": entity("a"),
        "b": entity("b"),
    }
    utterances = (
        Utterance(id="u0", speaker="A", index=0, items=("a", "b")),
        Utterance(id="u1", speaker="B", index=1, iru_antecedents=("u0",)),
    )
    return Transcript(dialogue_id="t", utterances=utterances, item_table=items)


def test_analyze_iru_all_in_cache_refreshes():
    transcript = little_transcript()
    snapshot = AccessibilityView(immediate=("a", "b"))
    functions = analyze_iru(transcript.utterances[1], snapshot, transcript)
    assert functions == [
        ("a", IRUFunction.REFRESH_IN_CACHE),
        ("b", IRUFunction.REFRESH_IN_CACHE),
    ]


def test_analyze_iru_splits_by_store():
    transcript = little_transcript()
    snapshot = AccessibilityView(
        retrievable=frozenset({"a"}), lost=frozenset({"b"})
    )
    functions = dict(analyze_iru(transcript.utterances[1], snapshot, transcript))
    assert functions == {
        "a": IRUFunction.RETRIEVE_FROM_MEMORY,
        "b": IRUFunction.REINSTANTIATE,
    }


LIVE_IRU_TEXT = """\
DIALOGUE t
UTT u0 speaker=A
ITEM e0 kind=entity gender=n num=sg
ITEM q0 kind=prop pred=fix gender=n num=sg
ITEM f0 kind=surface realizes=q0
ITEM e1 kind=entity gender=n num=sg
PUSH s
UTT u1 speaker=B
ITEM e2 kind=entity gender=n num=sg
ITEM e3 kind=entity gender=n num=sg
POP s
UTT u2 speaker=A iru=u0,u1
"""


_REFRESH = IRUFunction.REFRESH_IN_CACHE
_RETRIEVE = IRUFunction.RETRIEVE_FROM_MEMORY
_REINSTANTIATE = IRUFunction.REINSTANTIATE


@pytest.mark.parametrize(
    "model, capacity, expected",
    [
        # Capacity 2 keeps only u1's items: u0's went to main memory, and
        # its surface form f0 was discarded.
        (cache_model, 2, [_RETRIEVE, _RETRIEVE, _REINSTANTIATE, _RETRIEVE, _REFRESH, _REFRESH]),
        # The stack keeps u0's items in the root space and loses u1's with s.
        (stack_model, None, [_REFRESH] * 4 + [_REINSTANTIATE] * 2),
    ],
    ids=["cache", "stack"],
)
def test_analyze_iru_reads_a_live_state_by_store(model, capacity, expected):
    transcript = parse(LIVE_IRU_TEXT)
    if model is cache_model:
        state = cache_model.new_cache(transcript.item_table, capacity)
    else:
        state = stack_model.new_stack()
    *earlier, restating = transcript.utterances
    for utt in earlier:
        model.apply_events(state, transcript.events_at(utt.index), transcript)
        model.absorb(state, utt)
    model.apply_events(state, transcript.events_at(restating.index), transcript)
    functions = analyze_iru(restating, state, transcript)
    assert functions == list(zip(["e0", "q0", "f0", "e1", "e2", "e3"], expected))
    assert analyze_iru(restating, model.view(state), transcript) == functions
    kind = ModelKind.CACHE if model is cache_model else ModelKind.STACK
    (finding,) = replay(transcript, kind, capacity).iru_findings
    assert finding.functions == tuple(functions)


def test_dialogue_c_functions_per_model(dialogue_c):
    stack_report = replay(dialogue_c, ModelKind.STACK)
    cache_report = replay(dialogue_c, ModelKind.CACHE, capacity=7)
    stack_by_utt = {f.utterance_id: f for f in stack_report.iru_findings}
    cache_by_utt = {f.utterance_id: f for f in cache_report.iru_findings}
    for utt_id in ("22b", "22c"):
        assert stack_by_utt[utt_id].no_predicted_function
        assert all(
            fn is IRUFunction.REFRESH_IN_CACHE
            for _, fn in stack_by_utt[utt_id].functions
        )
        assert all(
            fn in (IRUFunction.RETRIEVE_FROM_MEMORY, IRUFunction.REINSTANTIATE)
            for _, fn in cache_by_utt[utt_id].functions
        )
    assert dict(cache_by_utt["22c"].functions) == {
        "p_sixmo": IRUFunction.RETRIEVE_FROM_MEMORY
    }


def test_stacked_antecedent_needs_no_surviving_top_space_competitor(dialogue_a, dialogue_b):
    # Whenever a mention resolves below the top space under the stack
    # model, no top-space candidate survived agreement filtering.
    from attnsim import stack_model
    from attnsim.core import agreement_filter

    for transcript in (dialogue_a, dialogue_b):
        state = stack_model.new_stack()
        for utt in transcript.utterances:
            for event in transcript.events_at(utt.index):
                stack_model.apply_event(state, event)
            snapshot = stack_model.view(state)
            _, top_items = stack_spaces(state)[-1]
            for mention in utt.mentions:
                resolution = resolve(mention, snapshot, transcript)
                if (
                    resolution.outcome.kind is OutcomeKind.IMMEDIATE
                    and resolution.outcome.item not in top_items
                ):
                    survivors = agreement_filter(
                        [transcript.item_table[i] for i in top_items], mention
                    )
                    assert not survivors
            stack_model.apply_utterance(state, utt)


def test_lower_space_resolution_allowed_when_top_blocks():
    # A candidate deeper in the stack wins when nothing on top agrees.
    from attnsim import stack_model
    from attnsim.core import EventKind, SegmentEvent

    cat = entity("cat", gender=Gender.NEUT)
    dog = entity("dog", gender=Gender.MASC)
    table = {"cat": cat, "dog": dog}
    state = stack_model.new_stack()
    stack_model.apply_utterance(
        state, Utterance(id="u0", speaker="A", index=0, items=("cat",))
    )
    stack_model.apply_event(
        state, SegmentEvent(kind=EventKind.PUSH, segment_id="S", position=1)
    )
    stack_model.apply_utterance(
        state, Utterance(id="u1", speaker="B", index=1, items=("dog",))
    )
    resolution = resolve(
        pronoun("cat", gender=Gender.NEUT), stack_model.view(state), over(table)
    )
    assert resolution.outcome == Outcome.immediate("cat")
