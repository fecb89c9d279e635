"""The transcript's indexed lookups agree with plain linear scans."""

from __future__ import annotations

import random

import pytest

from attnsim.core import EventKind, Transcript, segment_assignments, segment_items
from attnsim.transcript_io import parse

from conftest import load_fixture
from propsuite import SEED, _interruption_pair, random_transcript_text

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


def naive_segment_items(transcript: Transcript, segment_id: str, before=None):
    seen: list[str] = []
    for utt, seg in zip(transcript.utterances, naive_segment_assignments(transcript)):
        if seg != segment_id or (before is not None and utt.index >= before):
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
        assert segment_items(transcript, segment_id) == naive_segment_items(
            transcript, segment_id
        )
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
    segment_items(dialogue_a, "S2")
    assert dialogue_a == fresh
    assert repr(dialogue_a) == repr(fresh)
