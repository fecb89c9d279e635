"""``write_trace`` writes the bytes ``json.dumps(..., indent=2)`` wrote.

The reference below is the serializer ``write_trace`` replaced: records
mapped to plain JSON values, then the standard library's indent-2 encoder.
Every trace here must come out byte for byte the same, and read back to
the records it was written from. Every command's report on these
transcripts must also be written as ``json.dumps(..., indent=2)`` writes
its JSON value (``report_oracle``).
"""

from __future__ import annotations

import json
import random

import pytest

from attnsim import cli
from attnsim.core import AccessibilityView, StoreEvent, StoreEventKind
from attnsim.driver import TRACE_BLOCK, ModelKind, replay
from attnsim.resolution import FailureReason, Outcome, OutcomeKind, Resolution
from attnsim.transcript_io import (
    TraceRecord,
    _resorted,
    _string_list,
    parse,
    plain_ids,
    read_trace,
    write_trace,
)

from conftest import load_fixture
from propsuite import random_transcript_text
from report_oracle import assert_reports_match_oracle, resolution_json
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


def _partitions(count: int, rng: random.Random):
    """Ranges that cover ``range(count)`` in order: blocks of 1, 2, 7 and
    64 records, and cuts at random places, some repeated or at either end,
    so that a range may be empty."""

    for size in (1, 2, 7, 64):
        yield [(start, start + size) for start in range(0, count, size)]
    cuts = sorted(rng.choices(range(count + 1), k=rng.randint(0, 8)))
    bounds = [0, *cuts, count]
    yield list(zip(bounds, bounds[1:]))


def _assert_blocks_make_the_whole(records, label: str, plain: bool = False) -> None:
    whole = write_trace(records)
    for ranges in _partitions(len(records), random.Random(label)):
        blocks = [write_trace(records, start=i, stop=j, plain=plain) for i, j in ranges]
        assert "".join(blocks) == whole, (label, ranges)


@pytest.mark.parametrize("model", MODELS, ids=_label)
@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_block_texts_concatenate_to_the_whole_trace(name, model):
    kind, capacity = model
    transcript = TRANSCRIPTS[name]
    records = replay(transcript, kind, capacity, views=True).records
    # ``plain`` as run sets it: only ESCAPED has item ids to escape.
    plain = plain_ids(transcript.item_table)
    assert plain == (name != "escaped")
    _assert_blocks_make_the_whole(records, f"{name}-{_label(model)}", plain)


def test_hand_built_block_texts_concatenate_to_the_whole_trace():
    _assert_blocks_make_the_whole(_hand_built_records(), "hand-built")


def _cli_trace(tmp_path, text: str, model) -> tuple[str, list[TraceRecord]]:
    """The trace file ``run --trace`` writes for ``text``, and the records
    a replay of it makes."""

    kind, capacity = model
    source, trace = tmp_path / "in.dlg", tmp_path / "out.trace.json"
    source.write_text(text, encoding="utf-8")
    argv = ["run", "--model", kind.value, "--trace", str(trace), str(source)]
    if kind is ModelKind.CACHE:
        argv[3:3] = ["--capacity", str(capacity or "inf")]
    assert cli.main(argv) == 0
    records = replay(parse(text), kind, capacity, views=True).records
    return trace.read_text(encoding="utf-8"), list(records)


# A transcript whose one id that needs escaping is a surface form, which
# is an item, or a segment id, which only event targets hold.
ONE_ESCAPED = {
    "surface": (
        "DIALOGUE d\nUTT u1 speaker=A\nITEM q kind=prop pred=lift gender=n num=sg\n"
        'ITEM s"1 kind=surface realizes=q\nUTT u2 speaker=B\nELLIPSIS e gold=q\n'
    ),
    "segment": (
        'DIALOGUE d\nPUSH g"1\nUTT u1 speaker=A\nITEM a kind=entity gender=f num=sg\n'
        'POP g"1\nUTT u2 speaker=B\nPRON p gender=f num=sg gold=a\n'
    ),
}


@pytest.mark.parametrize("model", MODELS, ids=_label)
@pytest.mark.parametrize("text", [ESCAPED, *ONE_ESCAPED.values()], ids=["escaped", *ONE_ESCAPED])
def test_run_writes_ids_that_need_escaping_as_json_dumps_writes_them(tmp_path, text, model):
    trace, records = _cli_trace(tmp_path, text, model)
    assert trace == reference_trace(records)
    # The cache logs no segment event, so it writes no segment id.
    if text != ONE_ESCAPED["segment"] or model[0] is ModelKind.STACK:
        assert '\\"' in trace


@pytest.mark.parametrize("model", MODELS, ids=_label)
@pytest.mark.parametrize(
    "utterances", [0, 1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, 2 * TRACE_BLOCK]
)
def test_run_writes_traces_of_any_length_whole(tmp_path, utterances, model):
    lines = ["DIALOGUE d"]
    for index in range(utterances):
        lines.append(f"UTT u{index} speaker={'AB'[index % 2]}")
        lines.append(f"ITEM e{index} kind=entity gender=n num=sg")
        if index:
            lines.append(f"PRON p{index} gender=n num=sg gold=e{index - 1}")
    trace, records = _cli_trace(tmp_path, "\n".join(lines) + "\n", model)
    assert len(records) == utterances
    assert trace == reference_trace(records)
    if not utterances:
        assert trace == "[]\n"


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


def _set_steps(rng: random.Random, prefix: str) -> list[frozenset]:
    """Sets for consecutive records, each a new object unless noted, whose
    changes run from one id to a quarter of the set, more, and all of it."""

    def fresh() -> str:
        return f"{prefix}{rng.randrange(10**6)}"

    def changed(ids: frozenset, removed: int, added: int) -> frozenset:
        kept = set(ids) - set(rng.sample(sorted(ids), removed))
        while len(kept) < len(ids) - removed + added:
            kept.add(fresh())
        return frozenset(kept)

    first = frozenset(fresh() for _ in range(40))
    below = changed(first, 4, 6)  # 10 of 42 changed: at most a quarter
    above = changed(below, 6, 5)  # 11 of 41: more than a quarter
    assert 4 * len(below ^ first) <= len(below) and 4 * len(above ^ below) > len(above)
    whole = frozenset(fresh() for _ in range(len(above)))
    a = changed(whole, 1, 1)
    b = changed(a, 2, 0)
    return [
        frozenset(),  # empty, but not the writer's starting object
        first,
        first,  # the previous record's object
        frozenset(first),  # equal to it, another object
        below,
        above,
        whole,  # nothing in common with the previous set
        a,
        b,
        a,  # A, B, A
        frozenset(list(a)),
        frozenset(),  # all ids gone
        changed(whole, 0, 0),
    ]


def _hand_built_records() -> list[TraceRecord]:
    """Records no replay needs to make: every event kind, every outcome kind
    and failure reason, retrieval efforts 1 and 3, empty and non-empty
    rows and candidate lists, and ids that need escaping in each field."""

    targets = ['a"b\\c', "é𝒳\x01", "s\x7f", "plain"]
    events = tuple(
        StoreEvent(kind, targets[index % len(targets)])
        for index, kind in enumerate(StoreEventKind)
    )
    outcomes = [
        Outcome.immediate('i"1'),
        Outcome.after_retrieval("r\\1", 1),
        Outcome.after_retrieval("r\u20282", 3),
    ] + [Outcome.failure(reason) for reason in FailureReason]
    assert {outcome.kind for outcome in outcomes} == set(OutcomeKind)
    candidates = [(), ('i"1',), ("r\\1", "c\x1f", "plain", "é")]
    resolutions = tuple(
        Resolution(f"m\t{index}", outcome, candidates[index % len(candidates)], index % 2 == 0)
        for index, outcome in enumerate(outcomes)
    )
    view = AccessibilityView(("x\ny", "plain-id"), frozenset({'q"'}), frozenset({"z"}))
    return [
        TraceRecord(0, (), view, (), 0),
        TraceRecord(1, events, view, (), 0),
        TraceRecord(2, (), view, resolutions[:1], 0),
        TraceRecord(3, events[:1], AccessibilityView(()), resolutions, 4),
        TraceRecord(5, events[::-1], view, resolutions[::-1], 8),
    ]


def test_hand_built_records_are_written_as_json_dumps_writes_them():
    records = _hand_built_records()
    text = write_trace(records)
    assert text == reference_trace(records)
    assert read_trace(text) == records
    for record in records:  # each on its own, so every row is also a first row
        assert write_trace([record]) == reference_trace([record])


def test_event_target_must_be_a_string():
    view = AccessibilityView(())
    record = TraceRecord(0, (StoreEvent(StoreEventKind.STORE, 7),), view, (), 0)
    with pytest.raises(TypeError):
        write_trace([record])


# Every ASCII character, one outside ASCII and one outside the basic plane.
SWEEP = [chr(code) for code in range(0x80)] + ["é", "𝒳"]


@pytest.mark.parametrize("pad", ["", "      "], ids=["top", "nested"])
def test_string_list_escapes_each_character_as_json_dumps_does(pad):
    for char in SWEEP:
        for name in (char, char + "id", "i" + char + "d", "id" + char):
            for strings in ([name], ["a1", name, "b2"]):
                expected = json.dumps(strings, indent=2).replace("\n", "\n" + pad)
                assert "".join(_string_list(strings, pad)) == expected, strings


def test_changing_sets_are_written_as_json_dumps_writes_them():
    rng = random.Random(SEED)
    retrievable = _set_steps(rng, "r")
    lost = _set_steps(rng, "l")
    # lost runs three steps behind retrievable, so each changes on its own.
    lost = lost[:1] * 3 + lost
    records = [
        TraceRecord(index, (), AccessibilityView((), r, l), (), 0)
        for index, (r, l) in enumerate(zip(retrievable + retrievable[-1:] * 3, lost))
    ]
    text = write_trace(records)
    assert text == reference_trace(records)
    assert read_trace(text) == records


@pytest.mark.parametrize(
    "old, new",
    [
        (set(), {"b", "a", "c"}),  # growing from empty
        ({"a", "b"}, {"c", "d", "e"}),  # every id replaced
        ({"a", "b", "c"}, set()),  # shrinking to empty
        ({"a", "c", "e"}, {"b", "c", "d", "e"}),
    ],
    ids=["from-empty", "all-replaced", "to-empty", "some-changed"],
)
def test_resorted_patches_the_sorted_ids_of_the_previous_set(old, new):
    assert _resorted(sorted(old), old, new) == sorted(new)


def _faulty_records(fault: str, at: int) -> list[TraceRecord]:
    """Five records, utterance index and effort rising by ten, with the
    record at ``at`` out of order, with less effort, or without a view."""

    records = [TraceRecord(i * 10, (), AccessibilityView(()), (), i * 10) for i in range(5)]
    # The first record is at fault when it is ahead of the second; any
    # other is one behind the record before it, but ahead of the first.
    wrong = 99 if at == 0 else at * 10 - 11
    if fault == "ordered":
        records[at] = records[at]._replace(utterance_index=wrong)
    elif fault == "non-decreasing":
        records[at] = records[at]._replace(cumulative_effort=wrong)
    else:
        records[at] = records[at]._replace(view=None)
    return records


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "fault, message",
    [
        ("ordered", "trace records must be ordered by utterance index"),
        ("non-decreasing", "cumulative effort must be non-decreasing"),
        ("view", "trace record {index} has no view"),
    ],
    ids=["order", "effort", "view"],
)
def test_write_trace_rejects_a_faulty_record_anywhere(fault, message, at):
    records = _faulty_records(fault, at)
    match = f"^{message.format(index=at * 10)}$"
    with pytest.raises(ValueError, match=match):
        write_trace(records)
    # In blocks, the calls before the one holding the record that breaks
    # the rule succeed, and that one raises the same message. A first
    # record ahead of the second is caught at the second.
    culprit = 1 if at == 0 and fault != "view" else at
    for size in (1, 2, 3):
        held = culprit - culprit % size
        for start in range(0, held, size):
            write_trace(records, start=start, stop=start + size)
        with pytest.raises(ValueError, match=match):
            write_trace(records, start=held, stop=held + size)


@pytest.mark.parametrize("at", [0, 2, 3])
def test_a_block_after_a_record_without_a_view_raises(at):
    # The block reads its first record's sets from the record before it,
    # so a caller that never wrote the faulty record's block still meets it.
    records = _faulty_records("view", at)
    with pytest.raises(ValueError, match=f"^trace record {at * 10} has no view$"):
        write_trace(records, start=at + 1)


def test_empty_record_list():
    assert write_trace([]) == reference_trace([]) == "[]\n"
    assert write_trace([], start=0, stop=TRACE_BLOCK) == "[]\n"
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
        (),
        ["a", "b", "c"],
        ("x", "y"),  # a tuple, as a view's immediate list is
        ("a\x00b", "\u2028", "\\"),
        ["é", "\"q\"", "plain"],
        # Empty ids, and ids with one character that needs escaping.
        [""],
        ["a", ""],
        ["a", "b\x7f"],  # ASCII, but escaped
        ["a\\n"],  # a backslash, then n
        ['q"'],
        ("é",),
    ],
)
def test_encode_matches_json_dumps_for_trace_types(value):
    # The id lists of traces and reports; their objects have writers of their own.
    for pad in ("", "    "):
        expected = json.dumps(value, indent=2).replace("\n", "\n" + pad)
        for plain in (False, plain_ids(value)):
            assert "".join(_string_list(value, pad, plain)) == expected


def test_encode_rejects_types_a_trace_does_not_hold():
    with pytest.raises(TypeError):
        _string_list(["a", 1.5], "")


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_report_payloads_encode_as_json_dumps(name):
    assert_reports_match_oracle(TRANSCRIPTS[name], name)
