"""The transcript's indexed lookups agree with plain linear scans, and the
models' live immediate tiers walk their stores in salience order."""

from __future__ import annotations

import random
import re

import pytest

from attnsim import cache_model, stack_model
from attnsim.core import (
    DiscourseItem,
    EventKind,
    ItemKind,
    SegmentEvent,
    Transcript,
    Utterance,
    segment_assignments,
    segment_items,
)
from attnsim.driver import ModelKind, replay
from attnsim.transcript_io import parse

from conftest import fixture_path, load_fixture
from propsuite import SEED, _interruption_pair, random_transcript_text, stack_spaces

TRIALS = 150


def naive_events_at(transcript: Transcript, position: int):
    return tuple(e for e in transcript.events if e.position == position)


def naive_utterance_by_id(transcript: Transcript, utt_id: str):
    for utt in transcript.utterances:
        if utt.id == utt_id:
            return utt
    raise KeyError(utt_id)


def naive_segment_assignments(transcript: Transcript):
    open_stack: list[str] = []
    assign: list[str | None] = []
    for utt in transcript.utterances:
        for event in naive_events_at(transcript, utt.index):
            if event.kind is EventKind.PUSH:
                open_stack.append(event.segment_id)
            elif event.kind is EventKind.POP:
                open_stack.pop()
            else:
                while open_stack and open_stack[-1] != event.segment_id:
                    open_stack.pop()
        assign.append(open_stack[-1] if open_stack else None)
    return tuple(assign)


def naive_segment_items(transcript: Transcript, segment_id: str, before: int):
    seen: list[str] = []
    for utt, seg in zip(transcript.utterances, naive_segment_assignments(transcript)):
        if seg != segment_id or utt.index >= before:
            continue
        for item_id in utt.items:
            if item_id not in seen:
                seen.append(item_id)
    return tuple(seen)


def transcripts():
    for name in ("dialogue_a", "dialogue_b", "dialogue_c", "return_pops"):
        yield name, load_fixture(f"{name}.dlg")
    rng = random.Random(SEED + 100)
    for trial in range(TRIALS):
        yield f"random{trial}", parse(random_transcript_text(rng))
    for trial in range(TRIALS // 5):
        for side, text in zip("ab", _interruption_pair(rng)):
            yield f"interruption{trial}{side}", parse(text)


def check_lookups(transcript: Transcript) -> None:
    positions = {event.position for event in transcript.events}
    n = len(transcript.utterances)
    for position in sorted(positions | set(range(-1, n + 2))):
        assert transcript.events_at(position) == naive_events_at(transcript, position)
    for utt in transcript.utterances:
        assert transcript.utterance_by_id(utt.id) is naive_utterance_by_id(transcript, utt.id)
    with pytest.raises(KeyError):
        transcript.utterance_by_id("no-such-utterance")
    assert segment_assignments(transcript) == naive_segment_assignments(transcript)
    segments = {event.segment_id for event in transcript.events} | {"no-such-segment"}
    for segment_id in sorted(segments):
        for before in range(-1, n + 2):
            assert segment_items(transcript, segment_id, before=before) == (
                naive_segment_items(transcript, segment_id, before=before)
            )


def test_indexed_lookups_match_linear_scans():
    checked = 0
    for name, transcript in transcripts():
        try:
            check_lookups(transcript)
        except AssertionError as error:
            raise AssertionError(f"{name}: {error}") from error
        checked += 1
    assert checked == 4 + TRIALS + 2 * (TRIALS // 5)


def test_indexes_stay_out_of_equality_and_repr(dialogue_a):
    fresh = load_fixture("dialogue_a.dlg")
    dialogue_a.events_at(0)
    segment_items(dialogue_a, "S2", before=len(dialogue_a.utterances))
    assert dialogue_a == fresh
    assert repr(dialogue_a) == repr(fresh)
    answered = load_fixture("dialogue_b.dlg")
    for mention in answered.mentions():
        answered.survivors(mention)
    assert answered.carriers
    segment_items(answered, "S2", before=len(answered.utterances))
    fresh = load_fixture("dialogue_b.dlg")
    assert answered == fresh
    assert repr(answered) == repr(fresh)
    # A copy made by ``_replace`` or ``_make`` starts with no indexes.
    assert {"_survivors", "carriers", "_segment_index"} <= vars(answered).keys()
    text = fixture_path("dialogue_b.dlg").read_text(encoding="utf-8")
    renamed = parse(re.sub(r"(?m)^DIALOGUE \S+", "DIALOGUE x", text))
    for copy in (answered._replace(dialogue_id="x"), Transcript._make(["x", *answered[1:]])):
        assert type(copy) is Transcript and vars(copy) == {}
        assert copy == renamed
        assert repr(copy) == repr(renamed)
        for model in ModelKind:
            assert replay(copy, model) == replay(renamed, model)


@pytest.mark.parametrize(
    "pushes, spaces",
    [([], [("b", "c", "a", "d")]), (["s1", "s2"], [("b",), ("c", "a"), ("d",)])],
    ids=["1-space", "3-spaces"],
)
def test_a_focus_stack_yields_its_spaces_top_first_from_each_last_key(pushes, spaces):
    # u1 moves a from the root space to the end of the top one.
    stack = stack_model.new_stack()
    for index, items in enumerate([("a", "b"), ("c", "a"), ("d",)]):
        if 0 < index <= len(pushes):
            push = SegmentEvent(EventKind.PUSH, pushes[index - 1], index)
            stack_model.apply_event(stack, push)
        stack_model.absorb(stack, Utterance(f"u{index}", "A", index, items))
    assert [items for _, items in stack_spaces(stack)] == spaces
    assert tuple(stack.immediate) == ("d", "a", "c", "b")
    assert tuple(stack.immediate) == ("d", "a", "c", "b")  # a fresh iterator each read


def test_a_cache_yields_its_entries_most_recently_used_first():
    table = {i: DiscourseItem(i, ItemKind.ENTITY) for i in "abcd"}
    cache = cache_model.new_cache(table, capacity=3)
    cache_model.insert_items(cache, ["a", "b", "c"])
    cache_model.insert_items(cache, ["a"])  # a touch
    assert tuple(cache.immediate) == ("a", "c", "b")
    cache_model.insert_items(cache, ["d", "b"])  # b is touched, d displaces c
    cache_model.retrieve(cache, ["c"])  # c is re-admitted, displacing a
    assert cache.main_memory == {"a"}
    assert tuple(cache.immediate) == ("c", "d", "b")
    assert tuple(cache.immediate) == ("c", "d", "b")  # a fresh iterator each read
