"""Parsing and serialization for annotated dialogue transcripts and traces.

The transcript format is line oriented: one record per line, a line ends
at LF, CR LF or CR, ``#`` starts a comment, and blank lines are ignored.
Parsing is strict: unknown record types, unknown keys, malformed values,
undeclared identifier references and mismatched segment events are all
hard errors, since the fixtures double as regression oracles and silent
tolerance would mask drift.
"""

from __future__ import annotations

import json
from typing import Container, Mapping, NamedTuple, Sequence

from .core import (
    AccessibilityView,
    CaseRecord,
    DiscourseItem,
    EventKind,
    Gender,
    ItemKind,
    Mention,
    MentionForm,
    Number,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
    derived_tag,
)
from .resolution import FailureReason, Outcome, OutcomeKind, Resolution

_GENDERS = {"m": Gender.MASC, "f": Gender.FEM, "n": Gender.NEUT}
_NUMBERS = {"sg": Number.SG, "pl": Number.PL}
_KINDS = {kind.value: kind for kind in ItemKind}

_VALUES = {"kind": _KINDS, "gender": _GENDERS, "num": _NUMBERS}

_GENDER_OUT = {gender: code for code, gender in _GENDERS.items()}
_NUMBER_OUT = {number: code for code, number in _NUMBERS.items()}


class _Fields(NamedTuple):
    required: tuple[str, ...]  # checked in this order
    optional: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()


# The key=value fields and bare flags each record type takes after its id.
_FIELDS = {
    "UTT": _Fields(("speaker",), ("iru",)),
    "ITEM": _Fields(("kind",), ("gender", "num", "pred", "args", "sel", "realizes")),
    "PRON": _Fields(("gender", "num", "gold"), ("verb", "sel")),
    "ELLIPSIS": _Fields(("gold",)),
    "PUSH": _Fields((), flags=("expect-return",)),
    "CASE": _Fields(("mention",), flags=("iru", "central-competitor")),
}
_KEYS = {record: frozenset(spec.required + spec.optional) for record, spec in _FIELDS.items()}


class ParseError(Exception):
    def __init__(self, line_number: int, message: str, offending_text: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message
        self.offending_text = offending_text


def _split_fields(
    record: str, tokens: Sequence[str], line_no: int, text: str
) -> tuple[dict[str, str], set[str]]:
    spec = _FIELDS[record]
    keys = _KEYS[record]
    fields: dict[str, str] = {}
    seen_flags: set[str] = set()
    for token in tokens:
        if token in spec.flags:
            seen_flags.add(token)
            continue
        key, equals, value = token.partition("=")
        if not equals:
            raise ParseError(line_no, f"malformed field {token!r}", text)
        if key not in keys:
            raise ParseError(line_no, f"unknown key {key!r}", text)
        if not value:
            raise ParseError(line_no, f"empty value for {key!r}", text)
        if key in fields:
            raise ParseError(line_no, f"repeated key {key!r}", text)
        fields[key] = value
    for key in spec.required:
        if key not in fields:
            raise ParseError(line_no, f"{record} requires {key}=", text)
    return fields, seen_flags


def _lookup(fields: Mapping[str, str], key: str, line_no: int, text: str, default=None):
    """The enum member the ``key`` field names, or ``default`` if it is absent."""

    if key not in fields:
        return default
    value = fields[key]
    if value not in _VALUES[key]:
        raise ParseError(line_no, f"bad {key} value {value!r}", text)
    return _VALUES[key][value]


def _listed(fields: Mapping[str, str], key: str) -> tuple[str, ...]:
    return tuple(fields[key].split(",")) if key in fields else ()


def parse(text: str) -> Transcript:
    """Parse transcript source into a validated Transcript.

    Either returns a fully well-formed transcript or raises ParseError; no
    partial state escapes. Every reference to an item or mention is
    checked once the whole file has been read, in line order. So the error
    names the first line with a local error (one visible from that line and
    the lines above it), or, if no line has one, the first line that
    references an item or mention declared nowhere in the file, or a CASE
    whose mention is an ellipsis.
    """

    dialogue_id: str | None = None
    # Per utterance: id, speaker, iru antecedents, item ids, mentions.
    utterances: list[tuple[str, str, tuple[str, ...], list[str], list[Mention]]] = []
    utt_items, utt_mentions = [], []  # the current utterance's item ids and mentions
    utterance_ids: set[str] = set()
    # Item id -> its DiscourseItem fields after the id. Items are built once
    # the file has been read, when every pred: tag an entity takes is known.
    items: dict[str, tuple] = {}
    derived_tags: dict[str, set[str]] = {}  # argument id -> its pred: tags
    mention_forms: dict[str, MentionForm] = {}
    events: list[SegmentEvent] = []
    open_segments: list[str] = []
    used_segments: set[str] = set()
    last_return: SegmentEvent | None = None
    cases: list[CaseRecord] = []
    case_ids: set[str] = set()
    # Every reference: (line, text, key, ref, known ids), checked in order
    # once every line has been read.
    deferred: list[tuple[int, str, str, str, Container[str]]] = []

    # ``str.splitlines`` would also end a line at \x0b, \x1c, U+2028 and
    # five more characters that universal newlines leave inside a line.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        record, *rest = line.split()

        if dialogue_id is None:
            if record != "DIALOGUE":
                raise ParseError(line_no, "transcript must start with DIALOGUE", raw)
            if len(rest) != 1:
                raise ParseError(line_no, "DIALOGUE takes a single id", raw)
            dialogue_id = rest[0]
            continue

        if record == "DIALOGUE":
            raise ParseError(line_no, "repeated DIALOGUE record", raw)

        if record in {"POP", "RETURN"}:
            if len(rest) != 1:
                raise ParseError(line_no, f"{record} takes a single segment id", raw)
            seg_id = rest[0]
            if record == "POP":
                if not open_segments or open_segments[-1] != seg_id:
                    raise ParseError(
                        line_no, f"POP {seg_id!r} does not match the open segment", raw
                    )
                open_segments.pop()
                events.append(
                    SegmentEvent(
                        kind=EventKind.POP, segment_id=seg_id, position=len(utterances)
                    )
                )
            else:
                if seg_id not in open_segments:
                    raise ParseError(line_no, f"RETURN to unopened segment {seg_id!r}", raw)
                del open_segments[open_segments.index(seg_id) + 1 :]
                last_return = SegmentEvent(
                    kind=EventKind.RETURN, segment_id=seg_id, position=len(utterances)
                )
                events.append(last_return)
            continue

        if record not in _FIELDS:
            raise ParseError(line_no, f"unknown record type {record!r}", raw)
        if not utterances and record in {"ITEM", "PRON", "ELLIPSIS"}:
            raise ParseError(line_no, f"{record} before any UTT", raw)
        if not rest:
            needs = "a segment id" if record == "PUSH" else "an id"
            raise ParseError(line_no, f"{record} needs {needs}", raw)
        record_id, tokens = rest[0], rest[1:]

        if record == "UTT":
            if record_id in utterance_ids:
                raise ParseError(line_no, f"duplicate utterance id {record_id!r}", raw)
            fields, _ = _split_fields(record, tokens, line_no, raw)
            antecedents = _listed(fields, "iru")
            for ref in antecedents:
                if ref not in utterance_ids:
                    raise ParseError(
                        line_no, f"iru antecedent {ref!r} is not an earlier utterance", raw
                    )
            utterance_ids.add(record_id)
            utt_items, utt_mentions = [], []
            utterances.append((record_id, fields["speaker"], antecedents, utt_items, utt_mentions))

        elif record == "ITEM":
            if not tokens:
                # Bare reference: the utterance re-realizes a known item.
                if record_id not in items:
                    raise ParseError(
                        line_no, f"re-realized item {record_id!r} not yet declared", raw
                    )
                utt_items.append(record_id)
                continue
            if record_id in items:
                raise ParseError(line_no, f"duplicate item id {record_id!r}", raw)
            fields, _ = _split_fields(record, tokens, line_no, raw)
            kind = _lookup(fields, "kind", line_no, raw)
            gender = _lookup(fields, "gender", line_no, raw, Gender.UNSPECIFIED)
            number = _lookup(fields, "num", line_no, raw, Number.UNSPECIFIED)
            if kind is not ItemKind.PROPOSITION and ("pred" in fields or "args" in fields):
                raise ParseError(line_no, "pred/args are only valid on kind=prop", raw)
            if kind is ItemKind.SURFACE_FORM and "realizes" not in fields:
                raise ParseError(line_no, "kind=surface requires realizes=", raw)
            if kind is not ItemKind.SURFACE_FORM and "realizes" in fields:
                raise ParseError(line_no, "realizes= is only valid on kind=surface", raw)
            predicate, realizes = fields.get("pred"), fields.get("realizes")
            args, sel_classes = _listed(fields, "args"), frozenset(_listed(fields, "sel"))
            at = len(utterances) - 1
            items[record_id] = (kind, gender, number, predicate, args, sel_classes, realizes, at)
            utt_items.append(record_id)
            for ref in args:
                if predicate:
                    # Dialogue-derived capability tags: an entity named as an
                    # argument of a proposition picks up its predicate's tag.
                    derived_tags.setdefault(ref, set()).add(derived_tag(predicate))
                deferred.append((line_no, raw, "args", ref, items))
            if realizes is not None:
                deferred.append((line_no, raw, "realizes", realizes, items))

        elif record in {"PRON", "ELLIPSIS"}:
            if record_id in mention_forms:
                raise ParseError(line_no, f"duplicate mention id {record_id!r}", raw)
            fields, _ = _split_fields(record, tokens, line_no, raw)
            if record == "PRON":
                mention = Mention(
                    id=record_id,
                    form=MentionForm.PRONOUN,
                    gender=_lookup(fields, "gender", line_no, raw),
                    number=_lookup(fields, "num", line_no, raw),
                    verb_lemma=fields.get("verb"),
                    required_sel_classes=frozenset(_listed(fields, "sel")),
                    gold_antecedent=fields["gold"],
                )
            else:
                mention = Mention(
                    id=record_id, form=MentionForm.VP_ELLIPSIS, gold_antecedent=fields["gold"]
                )
            mention_forms[record_id] = mention.form
            utt_mentions.append(mention)
            deferred.append((line_no, raw, "gold", fields["gold"], items))

        elif record == "PUSH":
            _, flags = _split_fields(record, tokens, line_no, raw)
            if record_id in used_segments:
                raise ParseError(line_no, f"segment id {record_id!r} already used", raw)
            used_segments.add(record_id)
            open_segments.append(record_id)
            events.append(
                SegmentEvent(
                    kind=EventKind.PUSH,
                    segment_id=record_id,
                    position=len(utterances),
                    expect_return="expect-return" in flags,
                )
            )

        else:  # CASE
            if record_id in case_ids:
                raise ParseError(line_no, f"duplicate case id {record_id!r}", raw)
            if last_return is None:
                raise ParseError(line_no, "CASE before any RETURN", raw)
            fields, flags = _split_fields(record, tokens, line_no, raw)
            case_ids.add(record_id)
            cases.append(
                CaseRecord(
                    case_id=record_id,
                    mention_id=fields["mention"],
                    segment_id=last_return.segment_id,
                    return_position=last_return.position,
                    iru_at_return="iru" in flags,
                    central_competitor="central-competitor" in flags,
                )
            )
            deferred.append((line_no, raw, "mention", fields["mention"], mention_forms))

    if dialogue_id is None:
        raise ParseError(1, "empty transcript: missing DIALOGUE record", "")

    for line_no, raw, key, ref, known in deferred:
        if ref not in known:
            noun = "mention" if key == "mention" else "item"
            raise ParseError(line_no, f"{key} references undeclared {noun} {ref!r}", raw)
        if key == "mention" and mention_forms[ref] is MentionForm.VP_ELLIPSIS:
            # A return-pop case classifies a pronoun among entity candidates.
            raise ParseError(line_no, f"mention {ref!r} is an ellipsis, not a pronoun", raw)

    item_table = {}
    for item_id, (kind, gender, number, predicate, args, sel, realizes, at) in items.items():
        if kind is ItemKind.ENTITY and item_id in derived_tags:
            sel |= derived_tags[item_id]
        item_table[item_id] = DiscourseItem(
            item_id, kind, gender, number, predicate, args, sel, realizes, at
        )

    return Transcript(
        dialogue_id=dialogue_id,
        utterances=tuple(
            Utterance(
                id=utt_id,
                speaker=speaker,
                index=index,
                items=tuple(utt_items),
                mentions=tuple(utt_mentions),
                iru_antecedents=antecedents,
            )
            for index, (utt_id, speaker, antecedents, utt_items, utt_mentions) in enumerate(
                utterances
            )
        ),
        events=tuple(events),
        item_table=item_table,
        cases=tuple(cases),
    )


def _item_line(item: DiscourseItem) -> str:
    parts = [f"ITEM {item.id}", f"kind={item.kind.value}"]
    if item.gender is not Gender.UNSPECIFIED:
        parts.append(f"gender={_GENDER_OUT[item.gender]}")
    if item.number is not Number.UNSPECIFIED:
        parts.append(f"num={_NUMBER_OUT[item.number]}")
    if item.predicate:
        parts.append(f"pred={item.predicate}")
    if item.args:
        parts.append("args=" + ",".join(item.args))
    if item.sel_classes:
        parts.append("sel=" + ",".join(sorted(item.sel_classes)))
    if item.realizes:
        parts.append(f"realizes={item.realizes}")
    return " ".join(parts)


def _mention_line(mention: Mention) -> str:
    if mention.form is MentionForm.VP_ELLIPSIS:
        return f"ELLIPSIS {mention.id} gold={mention.gold_antecedent}"
    parts = [
        f"PRON {mention.id}",
        f"gender={_GENDER_OUT[mention.gender]}",
        f"num={_NUMBER_OUT[mention.number]}",
    ]
    if mention.verb_lemma:
        parts.append(f"verb={mention.verb_lemma}")
    if mention.required_sel_classes:
        parts.append("sel=" + ",".join(sorted(mention.required_sel_classes)))
    parts.append(f"gold={mention.gold_antecedent}")
    return " ".join(parts)


def write_transcript(transcript: Transcript) -> str:
    """Serialize a Transcript back to the line format.

    Re-parsing the output yields a structurally equal transcript.
    """

    lines = [f"DIALOGUE {transcript.dialogue_id}"]
    cases_by_return = {
        (case.segment_id, case.return_position): [] for case in transcript.cases
    }
    for case in transcript.cases:
        cases_by_return[(case.segment_id, case.return_position)].append(case)

    def emit_events(position: int) -> None:
        for event in transcript.events_at(position):
            if event.kind is EventKind.PUSH:
                suffix = " expect-return" if event.expect_return else ""
                lines.append(f"PUSH {event.segment_id}{suffix}")
            elif event.kind is EventKind.POP:
                lines.append(f"POP {event.segment_id}")
            else:
                lines.append(f"RETURN {event.segment_id}")
                # Each case once: a CASE after a repeated RETURN would re-declare it.
                for case in cases_by_return.pop((event.segment_id, event.position), []):
                    parts = [f"CASE {case.case_id}", f"mention={case.mention_id}"]
                    if case.iru_at_return:
                        parts.append("iru")
                    if case.central_competitor:
                        parts.append("central-competitor")
                    lines.append(" ".join(parts))

    declared: set[str] = set()
    for utt in transcript.utterances:
        emit_events(utt.index)
        header = f"UTT {utt.id} speaker={utt.speaker}"
        if utt.iru_antecedents:
            header += " iru=" + ",".join(utt.iru_antecedents)
        lines.append(header)
        for item_id in utt.items:
            item = transcript.item_table[item_id]
            if item.introduced_at == utt.index and item_id not in declared:
                declared.add(item_id)
                lines.append(_item_line(item))
            else:
                lines.append(f"ITEM {item_id}")
        for mention in utt.mentions:
            lines.append(_mention_line(mention))
    emit_events(len(transcript.utterances))
    return "\n".join(lines) + "\n"


class TraceRecord(NamedTuple):
    """What one utterance did to the model: store events applied, the
    resulting accessibility snapshot (None unless the replay was asked
    for views), resolutions, and effort so far."""

    utterance_index: int
    events_applied: tuple[StoreEvent, ...]
    view: AccessibilityView | None
    resolutions: tuple[Resolution, ...]
    cumulative_effort: int


def outcome_json(outcome: Outcome) -> dict:
    data: dict = {"kind": outcome.kind.value}
    if outcome.item is not None:
        data["item"] = outcome.item
    if outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
        data["effort"] = outcome.effort
    if outcome.reason is not None:
        data["reason"] = outcome.reason.value
    return data


def resolution_json(resolution: Resolution) -> dict:
    return {
        "mentionId": resolution.mention_id,
        "outcome": outcome_json(resolution.outcome),
        "candidatesConsidered": resolution.candidates_considered,
        "correct": resolution.correct,
    }


_quote = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses


def _string_list(strings: Sequence[str], pad: str) -> str:
    """A list of strings as ``indented_json`` writes it at ``pad``; raises
    TypeError if an element is not a str.

    Escaping maps each character on its own, and never to fewer than one
    character, so the quoted concatenation is 2 longer than the plain one
    exactly when no string needs escaping. Such a list is one join."""

    if not strings:
        return "[]"
    inner = pad + "  "
    joined = "".join(strings)
    if len(_quote(joined)) == len(joined) + 2:
        body = '"' + ('",\n' + inner + '"').join(strings) + '"'
    else:
        body = (",\n" + inner).join(map(_quote, strings))
    return f"[\n{inner}{body}\n{pad}]"


def indented_json(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it when it opens
    at indentation ``pad``, for the types a trace or a command's report
    holds: dict with str keys, list or tuple, str, int, bool and None.

    With an indent, CPython's ``json.dumps`` falls back from its C encoder
    to the pure-Python one, which yields one token at a time. This lays
    out the same text with one join per container and escapes strings with
    the same C function."""

    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"cannot write a {type(value).__name__} as JSON")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        body = separator.join(
            [f"{_quote(key)}: {indented_json(item, inner)}" for key, item in value.items()]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    try:
        return _string_list(value, pad)  # lists of ids are the common case
    except TypeError:  # not a list of strings
        body = separator.join([indented_json(item, inner) for item in value])
    return f"[\n{inner}{body}\n{pad}]"


def write_trace(records: Sequence[TraceRecord]) -> str:
    """Serialize trace records deterministically: equal traces produce
    byte-identical output, the bytes ``json.dumps(..., indent=2)`` writes.

    The record layout is fixed, so it is written here, into one list joined
    once. Id lists go through ``_string_list``, and a ``retrievable`` or
    ``lost`` set that is the previous record's object (``core.snapshot``
    shares unchanged stores) reuses that record's text."""

    ordered = [record.utterance_index for record in records]
    if ordered != sorted(ordered):
        raise ValueError("trace records must be ordered by utterance index")
    efforts = [record.cumulative_effort for record in records]
    if efforts != sorted(efforts):
        raise ValueError("cumulative effort must be non-decreasing")
    for record in records:
        if record.view is None:
            raise ValueError(f"trace record {record.utterance_index} has no view")
    if not records:
        return "[]\n"
    out: list[str] = []
    opening = '[\n  {\n    "utteranceIndex": '
    retrievable = lost = None
    for record in records:
        view = record.view
        if view.retrievable is not retrievable:
            retrievable = view.retrievable
            retrievable_text = _string_list(sorted(retrievable), "      ")
        if view.lost is not lost:
            lost = view.lost
            lost_text = _string_list(sorted(lost), "      ")
        events = [{"kind": e.kind.value, "target": e.target} for e in record.events_applied]
        out += (opening, str(record.utterance_index), ',\n    "eventsApplied": ')
        out.append(indented_json(events, "    "))
        out += (',\n    "view": {\n      "immediate": ', _string_list(view.immediate, "      "))
        out += (',\n      "retrievable": ', retrievable_text, ',\n      "lost": ', lost_text)
        out.append('\n    },\n    "resolutions": ')
        out.append(indented_json([resolution_json(r) for r in record.resolutions], "    "))
        out += (',\n    "cumulativeEffort": ', str(record.cumulative_effort), "\n  }")
        opening = ',\n  {\n    "utteranceIndex": '
    out.append("\n]\n")
    return "".join(out)


def _outcome_from_json(data: Mapping) -> Outcome:
    kind = OutcomeKind(data["kind"])
    if kind is OutcomeKind.IMMEDIATE:
        return Outcome.immediate(data["item"])
    if kind is OutcomeKind.AFTER_RETRIEVAL:
        return Outcome.after_retrieval(data["item"], data["effort"])
    return Outcome.failure(FailureReason(data["reason"]))


def read_trace(text: str) -> list[TraceRecord]:
    records = []
    for data in json.loads(text):
        records.append(
            TraceRecord(
                utterance_index=data["utteranceIndex"],
                events_applied=tuple(
                    StoreEvent(StoreEventKind(e["kind"]), e["target"])
                    for e in data["eventsApplied"]
                ),
                view=AccessibilityView(
                    immediate=tuple(data["view"]["immediate"]),
                    retrievable=frozenset(data["view"]["retrievable"]),
                    lost=frozenset(data["view"]["lost"]),
                ),
                resolutions=tuple(
                    Resolution(
                        mention_id=r["mentionId"],
                        outcome=_outcome_from_json(r["outcome"]),
                        candidates_considered=tuple(r["candidatesConsidered"]),
                        correct=r["correct"],
                    )
                    for r in data["resolutions"]
                ),
                cumulative_effort=data["cumulativeEffort"],
            )
        )
    return records
