"""Transcript parsing: happy paths, strict errors, and round-trips."""

from __future__ import annotations

import random
import types
import typing

import propsuite
import pytest

from attnsim import transcript_io
from attnsim.core import (
    CaseRecord,
    DiscourseItem,
    EventKind,
    Gender,
    ItemKind,
    Mention,
    MentionForm,
    Number,
    SegmentEvent,
    Utterance,
)
from attnsim.transcript_io import ParseError, parse, write_transcript

from conftest import fixture_path, load_fixture

RECORD_CLASSES = (DiscourseItem, Mention, Utterance, SegmentEvent, CaseRecord)


def test_minimal_transcript():
    transcript = parse("DIALOGUE t\nUTT u1 speaker=A\n")
    assert transcript.dialogue_id == "t"
    assert len(transcript.utterances) == 1
    assert transcript.events == ()
    assert transcript.utterances[0].speaker == "A"


def test_dialogue_a_shape(dialogue_a):
    assert len(dialogue_a.utterances) == 8
    assert len(dialogue_a.events) == 2
    push, pop = dialogue_a.events
    assert push.kind is EventKind.PUSH and push.expect_return
    assert push.position == dialogue_a.utterance_by_id("5").index
    assert pop.kind is EventKind.POP
    assert pop.position == dialogue_a.utterance_by_id("8a").index


def test_unknown_record_type_names_it():
    with pytest.raises(ParseError) as exc:
        parse("DIALOGUE t\nUTT u1 speaker=A\nPSH S2\n")
    assert exc.value.line_number == 3
    assert "PSH" in exc.value.message
    assert exc.value.offending_text.strip() == "PSH S2"


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("ITEM x kind=entity", "before any UTT"),
        ("UTT u1 speaker=A\nITEM x kind=widget", "kind"),
        ("UTT u1 speaker=A\nITEM x kind=entity gender=q", "gender"),
        ("UTT u1 speaker=A\nITEM x kind=entity\nITEM x kind=entity", "duplicate item"),
        ("UTT u1 speaker=A\nITEM y", "not yet declared"),
        ("UTT u1 speaker=A\nITEM x kind=surface", "realizes"),
        ("UTT u1 speaker=A\nITEM x kind=entity realizes=x", "realizes"),
        ("UTT u1 speaker=A\nITEM x kind=entity pred=go", "pred/args"),
        ("UTT u1 speaker=A\nPRON p gender=f num=sg gold=ghost", "undeclared item"),
        ("UTT u1 speaker=A\nPRON p gender=f gold=ghost", "requires num"),
        ("UTT u1 speaker=A\nELLIPSIS e", "requires gold"),
        ("UTT u1 speaker=A\nUTT u1 speaker=B", "duplicate utterance"),
        ("UTT u1 speaker=A iru=u9", "iru antecedent"),
        ("UTT u1 speaker=A iru=u1", "iru antecedent"),
        ("POP S1", "does not match"),
        ("PUSH S1\nPOP S2", "does not match"),
        ("PUSH S1\nPUSH S2\nPOP S1", "does not match"),
        ("RETURN S1", "unopened"),
        ("PUSH S1\nPOP S1\nPUSH S1", "already used"),
        ("CASE c1 mention=p", "before any RETURN"),
        ("UTT u1 speaker=A\nITEM x kind=entity bogus=1", "unknown key"),
        ("UTT u1 speaker=A\nITEM x kind=entity gender", "malformed field"),
        ("UTT u1", "requires speaker"),
        ("DIALOGUE u", "repeated DIALOGUE record"),
        ("UTT u1 speaker=A\nITEM x kind=entity sel=", "empty value for 'sel'"),
        ("UTT u1 speaker=A\nITEM x kind=entity num=du", "bad num value 'du'"),
        ("UTT u1 speaker=A\nITEM x kind=entity args=y", "pred/args are only valid"),
        ("UTT u1 speaker=A\nITEM x kind=surface", "kind=surface requires realizes="),
        ("UTT u1 speaker=A\nITEM x kind=prop realizes=x", "realizes= is only valid"),
        ("UTT u1 speaker=A\nITEM p kind=prop args=ghost", "args references undeclared item"),
        ("UTT u1 speaker=A\nITEM s kind=surface realizes=ghost", "realizes references"),
        ("UTT u1 speaker=A\nPRON", "PRON needs an id"),
        ("UTT u1 speaker=A\nPRON p num=sg gold=x", "PRON requires gender="),
        ("UTT u1 speaker=A\nPRON p gender=f num=sg", "PRON requires gold="),
        ("UTT u1 speaker=A\nPRON p gender=q num=sg gold=x", "bad gender value 'q'"),
        ("UTT u1 speaker=A\nPRON p gender=f num=du gold=x", "bad num value 'du'"),
        ("UTT u1 speaker=A\nPRON p gender=f num=sg gold=x gold=y", "repeated key 'gold'"),
        ("UTT u1 speaker=A\nPRON p gender=f num=sg verb= gold=x", "empty value for 'verb'"),
        ("UTT u1 speaker=A\nELLIPSIS", "ELLIPSIS needs an id"),
        ("UTT u1 speaker=A\nELLIPSIS e gold=ghost", "gold references undeclared item"),
        ("PUSH", "PUSH needs a segment id"),
        ("PUSH S1 depth=2", "unknown key 'depth'"),
        ("PUSH S1 iru", "malformed field 'iru'"),
        ("PUSH S1\nPOP S1 S2", "POP takes a single segment id"),
        ("PUSH S1\nRETURN", "RETURN takes a single segment id"),
        ("PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE", "CASE needs an id"),
        ("PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 iru", "CASE requires mention="),
        ("PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 mention=", "empty value"),
        ("PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 expect-return", "malformed"),
        ("PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 mention=ghost", "undeclared mention"),
        (
            "PUSH S1\nUTT u1 speaker=A\nITEM x kind=prop\nRETURN S1\nCASE c1 mention=e1\n"
            "UTT u2 speaker=A\nELLIPSIS e1 gold=x",
            "mention 'e1' is an ellipsis, not a pronoun",
        ),
    ],
)
def test_strict_errors(body, fragment):
    with pytest.raises(ParseError) as exc:
        parse("DIALOGUE t\n" + body + "\n")
    assert fragment in exc.value.message


@pytest.mark.parametrize(
    "body, line, message",
    [
        # "before any UTT" comes before "needs an id".
        ("ITEM", 2, "ITEM before any UTT"),
        # Duplicate ids are caught before the fields are split.
        ("UTT u1 speaker=A\nUTT u1 bogus", 3, "duplicate utterance id 'u1'"),
        ("UTT u1 speaker=A\nITEM x kind=entity\nITEM x bogus", 4, "duplicate item id 'x'"),
        ("UTT u1 speaker=A\nELLIPSIS e gold=x\nPRON e bogus", 4, "duplicate mention id 'e'"),
        (
            "PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c mention=m\nCASE c bogus",
            6,
            "duplicate case id 'c'",
        ),
        # CASE's RETURN check sits between its duplicate check and splitting.
        ("CASE c1 bogus", 2, "CASE before any RETURN"),
        # PUSH checks reuse of the segment id only after splitting.
        ("PUSH S1\nPOP S1\nPUSH S1 bogus", 4, "malformed field 'bogus'"),
        # Key errors, then required keys in table order, then value lookups.
        ("UTT u1 speaker=A\nITEM x kind=widget bogus=1", 3, "unknown key 'bogus'"),
        ("UTT u1 speaker=A\nITEM x gender=q", 3, "ITEM requires kind="),
        ("UTT u1 speaker=A\nPRON p gold=x", 3, "PRON requires gender="),
        ("UTT u1 speaker=A\nPRON p gender=q gold=x", 3, "PRON requires num="),
        # Values are read in table order, not token order.
        ("UTT u1 speaker=A\nITEM x kind=entity num=du gender=q", 3, "bad gender value 'q'"),
        # A bad code met again is reported where it first stands.
        (
            "UTT u1 speaker=A\nITEM x kind=entity gender=x\nITEM y kind=entity gender=x",
            3,
            "bad gender value 'x'",
        ),
        # A field text read on an earlier line still meets every check that
        # depends on where its line sits.
        ("UTT u1 speaker=A\nUTT u1 speaker=A", 3, "duplicate utterance id 'u1'"),
        ("UTT u1 speaker=A\nITEM x kind=entity\nITEM x kind=entity", 4, "duplicate item id 'x'"),
        (
            "UTT u1 speaker=A\nITEM x kind=entity\nPRON p gender=f num=sg gold=x\n"
            "PRON p gender=f num=sg gold=x",
            5,
            "duplicate mention id 'p'",
        ),
        ("PUSH S1 expect-return\nPOP S1\nPUSH S1 expect-return", 4, "segment id 'S1' already used"),
        (
            "UTT u1 speaker=A\nPRON p gender=f num=sg gold=x\nPRON q gender=f num=sg gold=x",
            3,
            "gold references undeclared item 'x'",
        ),
        # Forward references: line order, then the order within the line.
        (
            "UTT u1 speaker=A\nPRON p gender=f num=sg gold=g1\nITEM q kind=prop args=a,b",
            3,
            "gold references undeclared item 'g1'",
        ),
        ("UTT u1 speaker=A\nITEM q kind=prop args=q,a,b", 3, "args references undeclared item 'a'"),
        # A CASE naming an ellipsis is a reference error on the CASE line,
        # found with the forward references, in line order.
        (
            "PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 mention=e1\n"
            "UTT u2 speaker=A\nITEM x kind=prop\nELLIPSIS e1 gold=x",
            5,
            "mention 'e1' is an ellipsis, not a pronoun",
        ),
        (
            "PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 mention=e1\n"
            "UTT u2 speaker=A\nELLIPSIS e1 gold=ghost",
            5,
            "mention 'e1' is an ellipsis, not a pronoun",
        ),
        (
            "PUSH S1\nUTT u1 speaker=A\nPRON p gender=f num=sg gold=ghost\nRETURN S1\n"
            "CASE c1 mention=e1\nUTT u2 speaker=A\nELLIPSIS e1 gold=ghost",
            4,
            "gold references undeclared item 'ghost'",
        ),
        # An ellipsis declared above its CASE waits like any reference: the
        # CASE line is reported before a later undeclared gold.
        (
            "PUSH S1\nUTT u1 speaker=A\nITEM x kind=prop\nELLIPSIS e1 gold=x\nRETURN S1\n"
            "CASE c1 mention=e1\nUTT u2 speaker=A\nPRON p gender=f num=sg gold=ghost",
            7,
            "mention 'e1' is an ellipsis, not a pronoun",
        ),
        (
            "PUSH S1\nUTT u1 speaker=A\nRETURN S1\nCASE c1 mention=e1\n"
            "UTT u2 speaker=A\nELLIPSIS e1 gold=x\nFOO",
            8,
            "unknown record type 'FOO'",
        ),
    ],
)
def test_error_precedence(body, line, message):
    with pytest.raises(ParseError) as exc:
        parse("DIALOGUE t\n" + body + "\n")
    assert (exc.value.line_number, exc.value.message) == (line, message)


def test_a_field_text_keeps_its_meaning_in_each_record_type():
    # ``iru`` is a flag on CASE and ``iru=`` a key on UTT; ``gold=x`` is all
    # an ELLIPSIS needs, but not all a PRON needs.
    text = (
        "DIALOGUE t\nUTT u0 speaker=A\nITEM x kind=prop\nPUSH S1\nUTT u1 speaker=A iru=u0\n"
        "ITEM e kind=entity\nPRON p gender=n num=sg gold=e\nELLIPSIS v gold=x\n"
        "RETURN S1\nCASE c1 mention=p iru\n"
    )
    transcript = parse(text)
    assert [utt.iru_antecedents for utt in transcript.utterances] == [(), ("u0",)]
    assert transcript.cases[0].iru_at_return
    for tail, message in [
        ("CASE c2 mention=p iru=u0", "unknown key 'iru'"),
        ("UTT u2 speaker=A iru", "malformed field 'iru'"),
        ("PRON q gold=x", "PRON requires gender="),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text + tail + "\n")
        assert (exc.value.line_number, exc.value.message) == (11, message)


def _outcome(text: str) -> tuple:
    try:
        transcript = parse(text)
    except ParseError as error:
        return (error.line_number, error.message, error.offending_text)
    return (repr(transcript), write_transcript(transcript))


@pytest.mark.parametrize("name", ["dialogue_a", "dialogue_b", "dialogue_c", "return_pops"])
def test_a_parse_carries_nothing_to_the_next(name):
    # Copies of a fixture with one line repeated, moved or dropped share
    # their field texts with it and with each other. Each parses to the same
    # outcome whichever text was parsed just before it.
    lines = fixture_path(f"{name}.dlg").read_text(encoding="utf-8").splitlines()
    rng = random.Random(name)
    texts = []
    for _ in range(30):
        copy = list(lines)
        i, j = rng.randrange(len(copy)), rng.randrange(len(copy))
        how = rng.randrange(3)
        if how == 0:
            copy.insert(j, copy[i])
        elif how == 1:
            copy.insert(j, copy.pop(i))
        else:
            del copy[i]
        texts.append("\n".join(copy) + "\n")
    alone = [_outcome(text) for text in texts]
    assert any(len(outcome) == 2 for outcome in alone)
    assert any(len(outcome) == 3 for outcome in alone)
    for text, expected in zip(texts, alone):
        parse("\n".join(lines) + "\n")
        assert _outcome(text) == expected
    assert [_outcome(text) for text in reversed(texts)] == alone[::-1]


def _module_state() -> dict:
    state = {}
    for name, value in vars(transcript_io).items():
        state[name] = (
            repr(value),
            repr(getattr(value, "__defaults__", None)),
            repr(getattr(value, "__kwdefaults__", None)),
            value.cache_info() if hasattr(value, "cache_info") else None,
        )
    return state


def test_parse_leaves_the_module_globals_unchanged(dialogue_b):
    before = _module_state()
    parse(write_transcript(dialogue_b))
    with pytest.raises(ParseError):
        parse("DIALOGUE t\nUTT u1 speaker=A\nITEM x kind=entity gender=q\n")
    assert _module_state() == before


def test_local_error_beats_earlier_forward_reference():
    # The undeclared gold on line 3 is only known once the file has been
    # read, so the unknown record on line 5 is reported first.
    text = (
        "DIALOGUE t\nUTT u1 speaker=A\nPRON p gender=f num=sg gold=ghost\n"
        "UTT u2 speaker=B\nFOO\n"
    )
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "line 5: unknown record type 'FOO'"
    with pytest.raises(ParseError) as exc:
        parse(text.replace("FOO\n", ""))
    assert str(exc.value) == "line 3: gold references undeclared item 'ghost'"


def test_missing_dialogue_header():
    with pytest.raises(ParseError):
        parse("UTT u1 speaker=A\n")
    for text in ("", "# just a comment\n"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == "line 1: empty transcript: missing DIALOGUE record"
        assert exc.value.offending_text == ""
    with pytest.raises(ParseError) as exc:
        parse("DIALOGUE a b\n")
    assert exc.value.message == "DIALOGUE takes a single id"


def test_comments_and_blanks_ignored():
    transcript = parse("# header\nDIALOGUE t\n\nUTT u1 speaker=A  # trailing\n")
    assert len(transcript.utterances) == 1


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_universal_newlines_end_a_line(ending):
    with pytest.raises(ParseError) as exc:
        parse(ending.join(["DIALOGUE t", "# comment", "UTT u1 speaker=A", "FOO bar", ""]))
    assert str(exc.value) == "line 4: unknown record type 'FOO'"


@pytest.mark.parametrize(
    "char",
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=lambda char: f"U+{ord(char):04X}",
)
def test_other_line_breaks_stay_inside_a_line(char):
    # ``str.splitlines`` breaks at each of these; the format does not.
    with pytest.raises(ParseError) as exc:
        parse(f"DIALOGUE t\n# a{char}b\nUTT u1 speaker=A\nFOO bar\n")
    assert str(exc.value) == "line 4: unknown record type 'FOO'"
    # Between two records the character is whitespace: one line, one record.
    with pytest.raises(ParseError) as exc:
        parse(f"DIALOGUE t\nUTT u1 speaker=A{char}ITEM e kind=entity\n")
    assert str(exc.value) == "line 2: malformed field 'ITEM'"


def test_item_features_and_attachment(dialogue_a):
    daughter = dialogue_a.item_table["daughter"]
    assert daughter.kind is ItemKind.ENTITY
    assert daughter.gender is Gender.FEM
    assert daughter.number is Number.SG
    assert daughter.introduced_at == 1
    utt_4b = dialogue_a.utterance_by_id("4b")
    assert utt_4b.items == ("s1", "daughter", "p1")
    s1 = dialogue_a.item_table["s1"]
    assert s1.kind is ItemKind.SURFACE_FORM and s1.realizes == "p1"


def test_dialogue_derived_tags_populated(dialogue_a):
    # daughter is an argument of a proposition with predicate "work".
    assert "pred:work" in dialogue_a.item_table["daughter"].sel_classes
    assert "pred:work" in dialogue_a.item_table["husband"].sel_classes
    # Propositions that name entities declared later: only entities take
    # tags, an entity named twice takes both, and a declared tag stays one.
    items = parse(
        "DIALOGUE t\nUTT u1 speaker=A\nITEM q1 kind=prop pred=lift args=box,q2\n"
        "ITEM q2 kind=prop pred=paint args=box,crate\nITEM box kind=entity\n"
        "ITEM crate kind=entity sel=pred:paint\n"
    ).item_table
    assert items["box"].sel_classes == {"pred:lift", "pred:paint"}
    assert items["crate"].sel_classes == {"pred:paint"}
    assert not items["q1"].sel_classes and not items["q2"].sel_classes


def test_re_realization_keeps_introduction_slot(dialogue_a):
    utt_7 = dialogue_a.utterance_by_id("7")
    assert utt_7.items == ("hank",)
    assert dialogue_a.item_table["hank"].introduced_at == dialogue_a.utterance_by_id("6").index


def test_mentions_parsed(dialogue_a):
    her, ellipsis = dialogue_a.utterance_by_id("8a").mentions
    assert her.form is MentionForm.PRONOUN
    assert her.gender is Gender.FEM and her.number is Number.SG
    assert her.gold_antecedent == "daughter"
    assert ellipsis.form is MentionForm.VP_ELLIPSIS
    assert ellipsis.gold_antecedent == "p1"


def test_iru_annotations(dialogue_c):
    assert dialogue_c.utterance_by_id("22b").iru_antecedents == ("6",)
    assert dialogue_c.utterance_by_id("22c").iru_antecedents == ("4", "5")
    assert not dialogue_c.utterance_by_id("21").iru_antecedents


def test_case_records(return_pops):
    assert len(return_pops.cases) == 21
    by_id = {case.case_id: case for case in return_pops.cases}
    assert by_id["c01"].iru_at_return
    assert not by_id["c01"].central_competitor
    assert by_id["c01"].mention_id == "pr01"
    assert by_id["c01"].segment_id == "g01"
    assert not by_id["c20"].iru_at_return
    assert sum(1 for case in return_pops.cases if case.iru_at_return) == 6


def _has_its_type(value, hint) -> bool:
    """Whether ``value`` is exactly of the type a record field declares: a
    ``set`` is not a ``frozenset[str]``, nor a list a ``tuple[str, ...]``."""

    if isinstance(hint, types.UnionType):
        return any(_has_its_type(value, arg) for arg in hint.__args__)
    if hint is type(None):
        return value is None
    return type(value) is (typing.get_origin(hint) or hint)


def test_parsed_records_keep_their_class_shape():
    # Records are built positionally; == alone would miss a dropped field or
    # a set where a frozenset belongs, since a record equals a plain tuple.
    names = ("dialogue_a", "dialogue_b", "dialogue_c", "return_pops")
    transcripts = [load_fixture(f"{name}.dlg") for name in names]
    rng = random.Random(20261020)
    transcripts += [parse(propsuite.random_transcript_text(rng)) for _ in range(100)]
    hints = {cls: typing.get_type_hints(cls) for cls in RECORD_CLASSES}
    seen = set()
    for transcript in transcripts:
        records = [*transcript.item_table.values(), *transcript.events, *transcript.cases]
        for utt in transcript.utterances:
            records += [utt, *utt.mentions]
        for record in records:
            cls = type(record)
            assert cls in RECORD_CLASSES
            seen.add(cls)
            assert len(record) == len(cls._fields)
            assert repr(record) == repr(cls(**record._asdict()))
            for name, value in zip(cls._fields, record):
                assert _has_its_type(value, hints[cls][name]), (record, name)
    assert seen == set(RECORD_CLASSES)


def test_a_line_without_optional_keys_parses_to_the_class_defaults():
    transcript = parse(
        "DIALOGUE t\nPUSH S1\nUTT u1 speaker=A\nITEM e kind=entity\n"
        "PRON p gender=m num=sg gold=e\nELLIPSIS v gold=e\nRETURN S1\nCASE c mention=p\n"
    )
    (utt,) = transcript.utterances
    pron = Mention("p", MentionForm.PRONOUN, Gender.MASC, Number.SG, gold_antecedent="e")
    ellipsis = Mention("v", MentionForm.VP_ELLIPSIS, gold_antecedent="e")
    expected = [
        (utt, Utterance("u1", "A", 0, ("e",), (pron, ellipsis))),
        (transcript.item_table["e"], DiscourseItem("e", ItemKind.ENTITY)),
        (utt.mentions[0], pron),
        (utt.mentions[1], ellipsis),
        (transcript.events[0], SegmentEvent(EventKind.PUSH, "S1", 0)),
        (transcript.cases[0], CaseRecord("c", "p", "S1", 1)),
    ]
    for record, default in expected:
        assert repr(record) == repr(default)


def test_a_hash_glued_to_a_token_starts_a_comment():
    # A # ends a line's text wherever it sits, inside a token too.
    head = "DIALOGUE t\nUTT u1 speaker=A#x\n"
    assert parse(head).utterances[0].speaker == "A"
    pron = "ITEM e1 kind=entity gender=f num=sg\nPRON m gender=f num=sg gold=e1#\n"
    assert parse(head + pron).utterances[0].mentions[0].gold_antecedent == "e1"
    for line, message in [
        ("ITEM e1#x kind=entity", "re-realized item 'e1' not yet declared"),
        ("ITEM# e1 kind=entity", "ITEM needs an id"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(head + line + "\n")
        assert (exc.value.line_number, exc.value.message) == (3, message)


def test_trailing_event_allowed():
    transcript = parse("DIALOGUE t\nPUSH S1\nUTT u1 speaker=A\nPOP S1\n")
    assert transcript.events[-1].position == 1


# Two RETURNs to one segment at one position, then a CASE: the writer must
# declare the case once.
REPEATED_RETURN = (
    "DIALOGUE t\nPUSH S1\nUTT u1 speaker=A\nITEM x kind=entity gender=f num=sg\n"
    "PRON p gender=f num=sg gold=x\nRETURN S1\nRETURN S1\nCASE c1 mention=p\n"
)


# Each record type with its optional keys and flags out of table order, and
# the line write_transcript writes for it: keys in table order, sets sorted.
# x also takes the pred: tag of p, which names it.
OUT_OF_ORDER = [
    ("DIALOGUE t", "DIALOGUE t"),
    ("UTT u1 speaker=A", "UTT u1 speaker=A"),
    (
        "ITEM x sel=b,a num=sg gender=f kind=entity",
        "ITEM x kind=entity gender=f num=sg sel=a,b,pred:lift",
    ),
    ("ITEM p args=x kind=prop pred=lift", "ITEM p kind=prop pred=lift args=x"),
    ("ITEM s realizes=p kind=surface", "ITEM s kind=surface realizes=p"),
    ("PUSH S1 expect-return", "PUSH S1 expect-return"),
    ("UTT u2 iru=u1 speaker=B", "UTT u2 speaker=B iru=u1"),
    ("ITEM x", "ITEM x"),
    (
        "PRON q gold=x sel=c,a verb=lift num=sg gender=f",
        "PRON q gender=f num=sg verb=lift sel=a,c gold=x",
    ),
    ("ELLIPSIS e gold=p", "ELLIPSIS e gold=p"),
    ("RETURN S1", "RETURN S1"),
    ("CASE c1 central-competitor iru mention=q", "CASE c1 mention=q iru central-competitor"),
    ("UTT u3 speaker=A", "UTT u3 speaker=A"),
]
OUT_OF_ORDER_TEXT = "".join(line + "\n" for line, _ in OUT_OF_ORDER)


@pytest.mark.parametrize(
    "name",
    [
        "dialogue_a.dlg",
        "dialogue_b.dlg",
        "dialogue_c.dlg",
        "return_pops.dlg",
        pytest.param(REPEATED_RETURN, id="repeated-return"),
        # No fixture's CASE carries this flag.
        pytest.param(
            REPEATED_RETURN.replace("mention=p", "mention=p iru central-competitor"),
            id="central-competitor",
        ),
        pytest.param(OUT_OF_ORDER_TEXT, id="out-of-table-order"),
    ],
)
def test_fixture_round_trip(name):
    transcript = load_fixture(name) if name.endswith(".dlg") else parse(name)
    written = write_transcript(transcript)
    assert parse(written) == transcript
    if name == OUT_OF_ORDER_TEXT:
        assert written == "".join(line + "\n" for _, line in OUT_OF_ORDER)


def test_write_trace_of_empty_record_list():
    from attnsim.transcript_io import read_trace, write_trace

    assert write_trace([]) == "[]\n"
    assert read_trace(write_trace([])) == []


def test_single_record_trace_round_trip():
    from attnsim.core import AccessibilityView, StoreEvent, StoreEventKind
    from attnsim.resolution import Outcome, Resolution
    from attnsim.transcript_io import TraceRecord, read_trace, write_trace

    record = TraceRecord(
        utterance_index=0,
        events_applied=(StoreEvent(StoreEventKind.RETRIEVE, "x"),),
        view=AccessibilityView(
            immediate=("x",), retrievable=frozenset({"y"}), lost=frozenset({"z"})
        ),
        resolutions=(
            Resolution(
                mention_id="m",
                outcome=Outcome.after_retrieval("x", 2),
                candidates_considered=("x",),
                correct=True,
            ),
        ),
        cumulative_effort=2,
    )
    assert read_trace(write_trace([record])) == [record]


def test_write_trace_rejects_disordered_or_regressing_records():
    from attnsim.core import AccessibilityView
    from attnsim.transcript_io import TraceRecord, write_trace

    def record(index, effort, view=AccessibilityView()):
        return TraceRecord(
            utterance_index=index,
            events_applied=(),
            view=view,
            resolutions=(),
            cumulative_effort=effort,
        )

    with pytest.raises(ValueError, match="ordered"):
        write_trace([record(1, 0), record(0, 0)])
    with pytest.raises(ValueError, match="non-decreasing"):
        write_trace([record(0, 3), record(1, 1)])
    # A record replayed without views cannot be written.
    with pytest.raises(ValueError, match="trace record 1 has no view"):
        write_trace([record(0, 0), record(1, 0, view=None)])
