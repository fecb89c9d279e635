"""Parsing and serialization for annotated dialogue transcripts and traces.

The transcript format is line oriented: one record per line, ``#`` starts
a comment, and blank lines are ignored. Parsing is strict: unknown record
types, unknown keys, malformed values, undeclared identifier references
and mismatched segment events are all hard errors, since the fixtures
double as regression oracles and silent tolerance would mask drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

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
_KINDS = {"entity": ItemKind.ENTITY, "prop": ItemKind.PROPOSITION, "surface": ItemKind.SURFACE_FORM}

_GENDER_OUT = {Gender.MASC: "m", Gender.FEM: "f", Gender.NEUT: "n"}
_NUMBER_OUT = {Number.SG: "sg", Number.PL: "pl"}


class ParseError(Exception):
    def __init__(self, line_number: int, message: str, offending_text: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message
        self.offending_text = offending_text


@dataclass
class _ItemDraft:
    id: str
    kind: ItemKind
    gender: Gender
    number: Number
    predicate: str | None
    args: tuple[str, ...]
    sel_classes: set[str]
    realizes: str | None
    introduced_at: int


@dataclass
class _UttDraft:
    id: str
    speaker: str
    index: int
    iru_antecedents: tuple[str, ...]
    items: list[str]
    mentions: list[Mention]


def _split_fields(
    tokens: Sequence[str], line_no: int, text: str, allowed: set[str], flags: set[str]
) -> tuple[dict[str, str], set[str]]:
    fields: dict[str, str] = {}
    seen_flags: set[str] = set()
    for token in tokens:
        if token in flags:
            seen_flags.add(token)
            continue
        if "=" not in token:
            raise ParseError(line_no, f"malformed field {token!r}", text)
        key, value = token.split("=", 1)
        if key not in allowed:
            raise ParseError(line_no, f"unknown key {key!r}", text)
        if not value:
            raise ParseError(line_no, f"empty value for {key!r}", text)
        if key in fields:
            raise ParseError(line_no, f"repeated key {key!r}", text)
        fields[key] = value
    return fields, seen_flags


def _lookup(table: Mapping[str, str], value: str, what: str, line_no: int, text: str):
    if value not in table:
        raise ParseError(line_no, f"bad {what} value {value!r}", text)
    return table[value]


def parse(text: str) -> Transcript:
    """Parse transcript source into a validated Transcript.

    Either returns a fully well-formed transcript or raises ParseError for
    the first offending line; no partial state escapes.
    """

    dialogue_id: str | None = None
    utterances: list[_UttDraft] = []
    items: dict[str, _ItemDraft] = {}
    events: list[SegmentEvent] = []
    cases: list[CaseRecord] = []
    open_segments: list[str] = []
    used_segments: set[str] = set()
    mention_ids: set[str] = set()
    utterance_ids: set[str] = set()
    last_return: SegmentEvent | None = None
    case_ids: set[str] = set()
    # Reference checks that may point forward, resolved once tables exist.
    deferred: list[tuple[int, str, Callable[[], str | None]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        record, rest = tokens[0], tokens[1:]

        if dialogue_id is None:
            if record != "DIALOGUE":
                raise ParseError(line_no, "transcript must start with DIALOGUE", raw)
            if len(rest) != 1:
                raise ParseError(line_no, "DIALOGUE takes a single id", raw)
            dialogue_id = rest[0]
            continue

        if record == "DIALOGUE":
            raise ParseError(line_no, "repeated DIALOGUE record", raw)

        if record == "UTT":
            if not rest:
                raise ParseError(line_no, "UTT needs an id", raw)
            utt_id = rest[0]
            if utt_id in utterance_ids:
                raise ParseError(line_no, f"duplicate utterance id {utt_id!r}", raw)
            fields, _ = _split_fields(rest[1:], line_no, raw, {"speaker", "iru"}, set())
            if "speaker" not in fields:
                raise ParseError(line_no, "UTT requires speaker=", raw)
            antecedents = tuple(fields["iru"].split(",")) if "iru" in fields else ()
            for ref in antecedents:
                if ref not in utterance_ids:
                    raise ParseError(
                        line_no, f"iru antecedent {ref!r} is not an earlier utterance", raw
                    )
            utterance_ids.add(utt_id)
            utterances.append(
                _UttDraft(
                    id=utt_id,
                    speaker=fields["speaker"],
                    index=len(utterances),
                    iru_antecedents=antecedents,
                    items=[],
                    mentions=[],
                )
            )
            continue

        if record in {"ITEM", "PRON", "ELLIPSIS"}:
            if not utterances:
                raise ParseError(line_no, f"{record} before any UTT", raw)
            current = utterances[-1]

        if record == "ITEM":
            if not rest:
                raise ParseError(line_no, "ITEM needs an id", raw)
            item_id = rest[0]
            if len(rest) == 1:
                # Bare reference: the utterance re-realizes a known item.
                if item_id not in items:
                    raise ParseError(
                        line_no, f"re-realized item {item_id!r} not yet declared", raw
                    )
                current.items.append(item_id)
                continue
            if item_id in items:
                raise ParseError(line_no, f"duplicate item id {item_id!r}", raw)
            fields, _ = _split_fields(
                rest[1:],
                line_no,
                raw,
                {"kind", "gender", "num", "pred", "args", "sel", "realizes"},
                set(),
            )
            if "kind" not in fields:
                raise ParseError(line_no, "ITEM requires kind=", raw)
            kind = _lookup(_KINDS, fields["kind"], "kind", line_no, raw)
            gender = (
                _lookup(_GENDERS, fields["gender"], "gender", line_no, raw)
                if "gender" in fields
                else Gender.UNSPECIFIED
            )
            number = (
                _lookup(_NUMBERS, fields["num"], "num", line_no, raw)
                if "num" in fields
                else Number.UNSPECIFIED
            )
            if kind is not ItemKind.PROPOSITION and ("pred" in fields or "args" in fields):
                raise ParseError(line_no, "pred/args are only valid on kind=prop", raw)
            if kind is ItemKind.SURFACE_FORM and "realizes" not in fields:
                raise ParseError(line_no, "kind=surface requires realizes=", raw)
            if kind is not ItemKind.SURFACE_FORM and "realizes" in fields:
                raise ParseError(line_no, "realizes= is only valid on kind=surface", raw)
            args = tuple(fields["args"].split(",")) if "args" in fields else ()
            draft = _ItemDraft(
                id=item_id,
                kind=kind,
                gender=gender,
                number=number,
                predicate=fields.get("pred"),
                args=args,
                sel_classes=set(fields["sel"].split(",")) if "sel" in fields else set(),
                realizes=fields.get("realizes"),
                introduced_at=current.index,
            )
            items[item_id] = draft
            current.items.append(item_id)

            def _check_item_refs(draft: _ItemDraft = draft) -> str | None:
                for ref in draft.args:
                    if ref not in items:
                        return f"args references undeclared item {ref!r}"
                if draft.realizes is not None and draft.realizes not in items:
                    return f"realizes references undeclared item {draft.realizes!r}"
                return None

            deferred.append((line_no, raw, _check_item_refs))
            continue

        if record == "PRON":
            if not rest:
                raise ParseError(line_no, "PRON needs an id", raw)
            pron_id = rest[0]
            if pron_id in mention_ids:
                raise ParseError(line_no, f"duplicate mention id {pron_id!r}", raw)
            fields, _ = _split_fields(
                rest[1:], line_no, raw, {"gender", "num", "verb", "sel", "gold"}, set()
            )
            for required in ("gender", "num", "gold"):
                if required not in fields:
                    raise ParseError(line_no, f"PRON requires {required}=", raw)
            mention = Mention(
                id=pron_id,
                form=MentionForm.PRONOUN,
                gender=_lookup(_GENDERS, fields["gender"], "gender", line_no, raw),
                number=_lookup(_NUMBERS, fields["num"], "num", line_no, raw),
                verb_lemma=fields.get("verb"),
                required_sel_classes=(
                    frozenset(fields["sel"].split(",")) if "sel" in fields else frozenset()
                ),
                gold_antecedent=fields["gold"],
            )
            mention_ids.add(pron_id)
            current.mentions.append(mention)
            deferred.append(
                (
                    line_no,
                    raw,
                    lambda gold=fields["gold"]: (
                        None if gold in items else f"gold references undeclared item {gold!r}"
                    ),
                )
            )
            continue

        if record == "ELLIPSIS":
            if not rest:
                raise ParseError(line_no, "ELLIPSIS needs an id", raw)
            ell_id = rest[0]
            if ell_id in mention_ids:
                raise ParseError(line_no, f"duplicate mention id {ell_id!r}", raw)
            fields, _ = _split_fields(rest[1:], line_no, raw, {"gold"}, set())
            if "gold" not in fields:
                raise ParseError(line_no, "ELLIPSIS requires gold=", raw)
            mention = Mention(
                id=ell_id, form=MentionForm.VP_ELLIPSIS, gold_antecedent=fields["gold"]
            )
            mention_ids.add(ell_id)
            current.mentions.append(mention)
            deferred.append(
                (
                    line_no,
                    raw,
                    lambda gold=fields["gold"]: (
                        None if gold in items else f"gold references undeclared item {gold!r}"
                    ),
                )
            )
            continue

        if record == "PUSH":
            if not rest:
                raise ParseError(line_no, "PUSH needs a segment id", raw)
            seg_id = rest[0]
            _, flag_set = _split_fields(rest[1:], line_no, raw, set(), {"expect-return"})
            if seg_id in used_segments:
                raise ParseError(line_no, f"segment id {seg_id!r} already used", raw)
            used_segments.add(seg_id)
            open_segments.append(seg_id)
            events.append(
                SegmentEvent(
                    kind=EventKind.PUSH,
                    segment_id=seg_id,
                    position=len(utterances),
                    expect_return="expect-return" in flag_set,
                )
            )
            continue

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
                event = SegmentEvent(
                    kind=EventKind.RETURN, segment_id=seg_id, position=len(utterances)
                )
                events.append(event)
                last_return = event
            continue

        if record == "CASE":
            if not rest:
                raise ParseError(line_no, "CASE needs an id", raw)
            case_id = rest[0]
            if case_id in case_ids:
                raise ParseError(line_no, f"duplicate case id {case_id!r}", raw)
            if last_return is None:
                raise ParseError(line_no, "CASE before any RETURN", raw)
            fields, flag_set = _split_fields(
                rest[1:], line_no, raw, {"mention"}, {"iru", "central-competitor"}
            )
            if "mention" not in fields:
                raise ParseError(line_no, "CASE requires mention=", raw)
            case_ids.add(case_id)
            cases.append(
                CaseRecord(
                    case_id=case_id,
                    mention_id=fields["mention"],
                    segment_id=last_return.segment_id,
                    return_position=last_return.position,
                    iru_at_return="iru" in flag_set,
                    central_competitor="central-competitor" in flag_set,
                )
            )
            deferred.append(
                (
                    line_no,
                    raw,
                    lambda ref=fields["mention"]: (
                        None
                        if ref in mention_ids
                        else f"mention references undeclared mention {ref!r}"
                    ),
                )
            )
            continue

        raise ParseError(line_no, f"unknown record type {record!r}", raw)

    if dialogue_id is None:
        raise ParseError(1, "empty transcript: missing DIALOGUE record", "")

    for line_no, raw, check in deferred:
        problem = check()
        if problem is not None:
            raise ParseError(line_no, problem, raw)

    # Dialogue-derived capability tags: an entity named as an argument of a
    # proposition picks up that proposition's predicate as a pred: tag.
    for draft in items.values():
        if draft.kind is ItemKind.PROPOSITION and draft.predicate:
            for arg in draft.args:
                target = items[arg]
                if target.kind is ItemKind.ENTITY:
                    target.sel_classes.add(derived_tag(draft.predicate))

    table = {
        draft.id: DiscourseItem(
            id=draft.id,
            kind=draft.kind,
            gender=draft.gender,
            number=draft.number,
            predicate=draft.predicate,
            args=draft.args,
            sel_classes=frozenset(draft.sel_classes),
            realizes=draft.realizes,
            introduced_at=draft.introduced_at,
        )
        for draft in items.values()
    }
    return Transcript(
        dialogue_id=dialogue_id,
        utterances=tuple(
            Utterance(
                id=draft.id,
                speaker=draft.speaker,
                index=draft.index,
                items=tuple(draft.items),
                mentions=tuple(draft.mentions),
                iru_antecedents=draft.iru_antecedents,
            )
            for draft in utterances
        ),
        events=tuple(events),
        item_table=table,
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
                for case in cases_by_return.get((event.segment_id, event.position), []):
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


@dataclass(frozen=True)
class TraceRecord:
    """What one utterance did to the model: store events applied, the
    resulting accessibility snapshot, resolutions, and effort so far."""

    utterance_index: int
    events_applied: tuple[StoreEvent, ...]
    view: AccessibilityView
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


def _record_to_json(record: TraceRecord) -> dict:
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
        "resolutions": [
            {
                "mentionId": resolution.mention_id,
                "outcome": outcome_json(resolution.outcome),
                "candidatesConsidered": list(resolution.candidates_considered),
                "correct": resolution.correct,
            }
            for resolution in record.resolutions
        ],
        "cumulativeEffort": record.cumulative_effort,
    }


def write_trace(records: Sequence[TraceRecord]) -> str:
    """Serialize trace records deterministically: equal traces produce
    byte-identical output."""

    ordered = [record.utterance_index for record in records]
    if ordered != sorted(ordered):
        raise ValueError("trace records must be ordered by utterance index")
    efforts = [record.cumulative_effort for record in records]
    if efforts != sorted(efforts):
        raise ValueError("cumulative effort must be non-decreasing")
    return json.dumps([_record_to_json(r) for r in records], indent=2) + "\n"


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
