"""Focus-stack behavior: pushes, pops, returns, and the accessibility view."""

from __future__ import annotations

import pytest

from attnsim.core import EventKind, SegmentEvent, StoreEvent, StoreEventKind, Utterance
from attnsim.driver import ModelKind, replay
from attnsim.stack_model import (
    apply_event,
    apply_utterance,
    new_stack,
    view,
)
from attnsim.transcript_io import parse

import propsuite
from conftest import load_fixture


def push(seg, position=0):
    return SegmentEvent(kind=EventKind.PUSH, segment_id=seg, position=position)


def pop(seg, position=0):
    return SegmentEvent(kind=EventKind.POP, segment_id=seg, position=position)


def ret(seg, position=0):
    return SegmentEvent(kind=EventKind.RETURN, segment_id=seg, position=position)


def utterance(*items, index=0):
    return Utterance(id=f"u{index}", speaker="A", index=index, items=tuple(items))


def test_push_pop_is_inverse_on_spaces():
    state = new_stack()
    apply_utterance(state, utterance("a", "b"))
    spaces, popped = propsuite.stack_spaces(state), set(state.popped)
    apply_event(state, push("S2"))
    apply_event(state, pop("S2"))
    assert propsuite.stack_spaces(state) == spaces
    assert state.popped == popped


def test_pop_moves_segment_items_to_popped():
    state = new_stack()
    apply_event(state, push("S2"))
    apply_utterance(state, utterance("x"))
    apply_event(state, pop("S2"))
    assert state.popped == {"x"}
    assert view(state).lost == {"x"}


def test_return_pops_everything_above_target():
    state = new_stack()
    for seg in ("S1", "S2", "S3"):
        assert apply_event(state, push(seg)) == [StoreEvent(StoreEventKind.PUSH_SPACE, seg)]
        apply_utterance(state, utterance(f"item_{seg}"))
    assert apply_event(state, ret("S1")) == [
        StoreEvent(StoreEventKind.POP_SPACE, "S3"),
        StoreEvent(StoreEventKind.POP_SPACE, "S2"),
    ]
    assert state.open == [None, "S1"]
    assert state.popped == {"item_S2", "item_S3"}


def test_apply_utterance_into_root():
    state = new_stack()
    apply_utterance(state, utterance("daughter"))
    assert propsuite.stack_spaces(state) == [(None, ("daughter",))]


def test_embedded_segment_keeps_lower_space_unchanged(dialogue_a):
    report = replay(dialogue_a, ModelKind.STACK, views=True)
    # At utterance 5 the pushed space holds only the interruption's item.
    record = report.records[dialogue_a.utterance_by_id("5").index]
    assert record.view.immediate[0] == "m_name"
    assert record.view.immediate[1:] == ("p1", "daughter", "s1")


def test_re_mention_of_popped_item_restores_it():
    state = new_stack()
    apply_event(state, push("S2"))
    apply_utterance(state, utterance("x"))
    apply_event(state, pop("S2"))
    assert "x" in state.popped
    apply_utterance(state, utterance("x", index=1))
    assert "x" not in state.popped
    assert propsuite.stack_spaces(state) == [(None, ("x",))]
    assert "x" in view(state).immediate


def test_check_invariants_rejects_a_popped_item_left_stacked():
    state = new_stack()
    apply_utterance(state, utterance("x"))
    state.popped.add("x")
    with pytest.raises(AssertionError, match="popped item still stacked"):
        propsuite.check_stack_invariants(state)


@pytest.mark.parametrize(
    "depth, message",
    [(0, "entries out of space order"), (2, "entry outside the open spaces")],
    ids=["out-of-order", "closed-space"],
)
def test_check_invariants_rejects_a_misplaced_entry(depth, message):
    state = new_stack()
    apply_event(state, push("S2"))
    apply_utterance(state, utterance("x"))
    state.stacked["y"] = depth
    with pytest.raises(AssertionError, match=message):
        propsuite.check_stack_invariants(state)


def test_re_mention_moves_item_to_top_space():
    state = new_stack()
    apply_utterance(state, utterance("a", "b"))
    apply_event(state, push("S2"))
    apply_utterance(state, utterance("a", index=1))
    assert propsuite.stack_spaces(state) == [(None, ("b",)), ("S2", ("a",))]


def test_fresh_stack_view_is_empty():
    snapshot = view(new_stack())
    assert snapshot.immediate == ()
    assert snapshot.retrievable == frozenset()
    assert snapshot.lost == frozenset()


def test_view_has_no_retrieval_notion(dialogue_b):
    report = replay(dialogue_b, ModelKind.STACK, views=True)
    assert all(record.view.retrievable == frozenset() for record in report.records)


def test_dialogue_a_view_after_pop(dialogue_a):
    report = replay(dialogue_a, ModelKind.STACK, views=True)
    # The record before 8a's own items land: utterance 7 closes with the
    # interruption still stacked; the pop applies at 8a.
    record_8a = report.records[dialogue_a.utterance_by_id("8a").index]
    resolutions = {r.mention_id: r for r in record_8a.resolutions}
    assert resolutions["her"].outcome.item == "daughter"
    # Top space right after the pop held the opening material, working
    # proposition first.
    record_7 = report.records[dialogue_a.utterance_by_id("7").index]
    assert record_7.view.lost == frozenset()
    assert record_8a.view.lost == {"m_name", "hank"}
    assert record_8a.view.immediate[:2] == ("p2", "husband")
    assert record_8a.view.immediate[2:] == ("p1", "daughter", "s1")


def test_view_right_after_the_pop_orders_opening_material(dialogue_a):
    state = new_stack()
    for utt in dialogue_a.utterances:
        for event in dialogue_a.events_at(utt.index):
            apply_event(state, event)
        if utt.id == "8a":
            break
        apply_utterance(state, utt)
    snapshot = view(state)
    assert snapshot.immediate == ("p1", "daughter", "s1")
    assert snapshot.lost == {"m_name", "hank"}
    assert state.open == [None]


def test_dialogue_b_view_matches_dialogue_a_after_pop(dialogue_a, dialogue_b):
    report_a = replay(dialogue_a, ModelKind.STACK, views=True)
    report_b = replay(dialogue_b, ModelKind.STACK, views=True)
    for utt_id in ("8a", "8b", "8c"):
        record_a = report_a.records[dialogue_a.utterance_by_id(utt_id).index]
        record_b = report_b.records[dialogue_b.utterance_by_id(utt_id).index]
        assert record_a.view.immediate == record_b.view.immediate


@pytest.mark.parametrize("name", ["dialogue_a", "dialogue_b", "dialogue_c", "return_pops"])
def test_fixture_views_match_value_based_reference(name):
    propsuite.assert_stack_matches_reference(load_fixture(f"{name}.dlg"), name)


def test_deep_nesting_matches_value_based_reference():
    transcript = parse(propsuite.deep_nesting_text(150))
    assert len(transcript.utterances) == 150
    propsuite.assert_stack_matches_reference(transcript, "deep nesting")


def test_a_re_mention_empties_lost_without_a_store_event():
    # A re-mention takes an item out of the popped set and logs nothing, so
    # a record whose store events are empty can still hold a changed
    # ``lost``: a view cannot skip comparing a store no event touched.
    transcript = parse(
        "DIALOGUE d\n"
        "UTT u0 speaker=A\n"
        "PUSH g1\n"
        "UTT u1 speaker=B\n"
        "ITEM e1 kind=entity gender=f num=sg\n"
        "POP g1\n"
        "UTT u2 speaker=A\n"
        "UTT u3 speaker=B\n"
        "ITEM e1\n"
    )
    records = replay(transcript, ModelKind.STACK, views=True).records
    assert records[2].events_applied == (StoreEvent(StoreEventKind.POP_SPACE, "g1"),)
    assert records[2].view.lost == {"e1"}
    assert records[3].events_applied == ()
    assert records[3].view.lost == frozenset()
    assert records[3].view.immediate == ("e1",)
