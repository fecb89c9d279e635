"""``write_trace`` writes the bytes ``json.dumps(..., indent=2)`` wrote.

The reference below is the serializer ``write_trace`` replaced: records
mapped to plain JSON values, then the standard library's indent-2 encoder.
Every trace here must come out byte for byte the same, and read back to
the records it was written from. ``indented_json`` must also write every
command's report as ``json.dumps(..., indent=2)`` does.
"""

from __future__ import annotations

import json
import random

import pytest

from attnsim.core import AccessibilityView, StoreEvent, StoreEventKind
from attnsim.driver import (
    ModelKind,
    classify_corpus,
    compare_transcript,
    divergence_report_json,
    pops_report_json,
    replay,
    simulation_report_json,
)
from attnsim.resolution import Outcome, Resolution
from attnsim.transcript_io import (
    TraceRecord,
    indented_json,
    parse,
    read_trace,
    resolution_json,
    write_trace,
)

from conftest import load_fixture
from propsuite import random_transcript_text
from test_generated_golden import _gen

FIXTURES = ("dialogue_a.dlg", "dialogue_b.dlg", "dialogue_c.dlg", "return_pops.dlg")
RANDOM_TEXTS = 40
SEED = 20261018

# (model, capacity): the stack, and the cache from one slot to unbounded.
MODELS = [(ModelKind.STACK, None)] + [(ModelKind.CACHE, c) for c in (1, 2, 7, None)]

# Ids that need escaping: a quote, a backslash, a control character, and
# characters outside ASCII, one of them outside the basic plane.
ESCAPED = """DIALOGUE d"q\\x
UTT u\\1 speaker=A"b
ITEM a"b\\c kind=entity gender=f num=sg
ITEM é𝒳\x01 kind=entity gender=m num=sg
ITEM s"1 kind=surface realizes=q\\1
ITEM q\\1 kind=prop pred=lift args=a"b\\c gender=n num=sg
PUSH S"\x7f expect-return
UTT u2 speaker=B
ITEM é𝒳\x01
PRON p"1 gender=f num=sg gold=a"b\\c
POP S"\x7f
UTT u3 speaker=A
PRON p\\2 gender=m num=sg gold=é𝒳\x01
ELLIPSIS e"3 gold=q\\1
"""


def reference_record(record: TraceRecord) -> dict:
    return {
        "utteranceIndex": record.utterance_index,
        "eventsApplied": [
            {"kind": event.kind.value, "target": event.target}
            for event in record.events_applied
        ],
        "view": {
            "immediate": list(record.view.immediate),
            "retrievable": sorted(record.view.retrievable),
            "lost": sorted(record.view.lost),
        },
        "resolutions": [resolution_json(r) for r in record.resolutions],
        "cumulativeEffort": record.cumulative_effort,
    }


def reference_trace(records) -> str:
    return json.dumps([reference_record(r) for r in records], indent=2) + "\n"


def _transcripts():
    yield from ((name, load_fixture(name)) for name in FIXTURES)
    rng = random.Random(SEED)
    for trial in range(RANDOM_TEXTS):
        yield f"random-{trial}", parse(random_transcript_text(rng))
    yield "escaped", parse(ESCAPED)
    for length in (60, 200):
        text, _ = _gen.generate(random.Random(SEED), _gen.Shape(length), f"gen-{length}")
        yield f"gen-{length}", parse(text)
    # Long runs of records that share the stack's popped set.
    shape = _gen.Shape(400, case_gold_outside=0.25)
    text, _ = _gen.generate(random.Random(SEED), shape, "gen-400-outside")
    yield "gen-400-outside", parse(text)


TRANSCRIPTS = dict(_transcripts())


def _label(model) -> str:
    kind, capacity = model
    return kind.value if kind is ModelKind.STACK else f"cache-{capacity or 'inf'}"


@pytest.mark.parametrize("model", MODELS, ids=_label)
@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_write_trace_matches_json_dumps(name, model):
    kind, capacity = model
    records = list(replay(TRANSCRIPTS[name], kind, capacity, views=True).records)
    text = write_trace(records)
    assert text == reference_trace(records)
    assert read_trace(text) == records


def test_escaped_ids_are_written_as_json_dumps_writes_them():
    text = write_trace(replay(TRANSCRIPTS["escaped"], ModelKind.CACHE, views=True).records)
    assert r'"a\"b\\c"' in text
    assert r'"\u00e9\ud835\udcb3\u0001"' in text
    assert text.isascii()


def test_shared_and_equal_sets_are_written_as_json_dumps_writes_them():
    # Ids from ESCAPED. A store shared by consecutive views, then an equal
    # but distinct set, then the previous record's lost set as retrievable.
    shared = frozenset({'a"b\\c', "q\\1"})
    equal = frozenset(list(shared))  # frozenset(shared) is shared itself
    views = [
        AccessibilityView(("s\"1",), lost=shared),
        AccessibilityView(("é𝒳\x01", "s\"1"), lost=shared),
        AccessibilityView((), frozenset({"s\"1"}), equal),
        AccessibilityView(("é𝒳\x01",), equal, frozenset({"s\"1"})),
    ]
    assert equal == shared and equal is not shared
    retrieved = Resolution("p\"1", Outcome.after_retrieval('a"b\\c', 2), ('a"b\\c',), True)
    records = [
        TraceRecord(0, (StoreEvent(StoreEventKind.STORE, "s\"1"),), views[0], (), 0),
        TraceRecord(1, (), views[1], (), 0),
        TraceRecord(2, (), views[2], (retrieved,), 2),
        TraceRecord(3, (StoreEvent(StoreEventKind.RETRIEVE, "q\\1"),), views[3], (), 2),
    ]
    text = write_trace(records)
    assert text == reference_trace(records)
    assert read_trace(text) == records


def test_empty_record_list():
    assert write_trace([]) == reference_trace([]) == "[]\n"
    assert read_trace(write_trace([])) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        (("resolutions", 0, "outcome", "effort"), 0, "positive effort"),
        (("view", "lost"), ["a"], "pairwise disjoint"),
    ],
    ids=["retrieval-without-effort", "lost-overlaps-immediate"],
)
def test_read_trace_rejects_a_record_no_replay_writes(field, value, message):
    # A trace file comes from the user, so reading one checks what the
    # replay fold never needs to: an outcome's effort and a view's stores.
    retrieved = Resolution("p", Outcome.after_retrieval("a", 1), ("a",), True)
    view = AccessibilityView(("a",), frozenset({"b"}))
    data = json.loads(write_trace([TraceRecord(0, (), view, (retrieved,), 1)]))
    *path, key = field
    parent = data[0]
    for step in path:
        parent = parent[step]
    parent[key] = value
    with pytest.raises(ValueError, match=message):
        read_trace(json.dumps(data))


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        ["x", 1, "y"],  # strings, then something else: not a list of strings
        ("a", ("b", "c"), None, True, False, -3, 0),
        {"k": [{"n": None}, "é", 10**20], "\"q\"": []},
        # On the edge of _string_list's length check.
        [""],
        ["a", ""],
        ["a", "b\x7f"],  # ASCII, but escaped
        ["a\\n"],  # a backslash, then n
        ['q"'],
        ("é",),
    ],
)
def test_encode_matches_json_dumps_for_trace_types(value):
    assert indented_json(value) == json.dumps(value, indent=2)


def test_encode_rejects_types_a_trace_does_not_hold():
    with pytest.raises(TypeError):
        indented_json([1.5])


# Defect 4b stops classify_corpus on gen-400-outside.
@pytest.mark.parametrize("name", [name for name in TRANSCRIPTS if name != "gen-400-outside"])
def test_report_payloads_encode_as_json_dumps(name):
    transcript = TRANSCRIPTS[name]
    payloads = [
        simulation_report_json(replay(transcript, kind, capacity))
        for kind, capacity in MODELS
    ]
    payloads.append(divergence_report_json(compare_transcript(transcript)))
    payloads.append(pops_report_json(classify_corpus(transcript)))
    for payload in payloads:
        assert indented_json(payload) == json.dumps(payload, indent=2)
