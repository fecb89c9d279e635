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
from bisect import bisect_left, insort
from typing import AbstractSet, Callable, Container, Iterable, Mapping, NamedTuple, Sequence

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
# Members parse and the outcome writers read often: on Python 3.11 a read
# through an enum class is slow.
_ENTITY, _PROPOSITION, _SURFACE = ItemKind.ENTITY, ItemKind.PROPOSITION, ItemKind.SURFACE_FORM
_IMMEDIATE, _AFTER_RETRIEVAL = OutcomeKind.IMMEDIATE, OutcomeKind.AFTER_RETRIEVAL
_FORMS = {"PRON": MentionForm.PRONOUN, "ELLIPSIS": MentionForm.VP_ELLIPSIS}


class _Key(NamedTuple):
    attribute: str  # the record field the key fills
    required: bool = False
    # Its value: the str as written, a tuple or a frozenset of its
    # comma-separated parts, True for a bare flag, or the member a code names.
    form: type | Mapping = str


# The keys each record type takes after its id, in the order a written line
# has them. The required ones are checked in this order too.
_FIELDS = {
    "UTT": {"speaker": _Key("speaker", True), "iru": _Key("iru_antecedents", form=tuple)},
    "ITEM": {
        "kind": _Key("kind", True, _KINDS),
        "gender": _Key("gender", form=_GENDERS),
        "num": _Key("number", form=_NUMBERS),
        "pred": _Key("predicate"),
        "args": _Key("args", form=tuple),
        "sel": _Key("sel_classes", form=frozenset),
        "realizes": _Key("realizes"),
    },
    "PRON": {
        "gender": _Key("gender", True, _GENDERS),
        "num": _Key("number", True, _NUMBERS),
        "verb": _Key("verb_lemma"),
        "sel": _Key("required_sel_classes", form=frozenset),
        "gold": _Key("gold_antecedent", True),
    },
    "ELLIPSIS": {"gold": _Key("gold_antecedent", True)},
    "PUSH": {"expect-return": _Key("expect_return", form=bool)},
    "CASE": {
        "mention": _Key("mention_id", True),
        "iru": _Key("iru_at_return", form=bool),
        "central-competitor": _Key("central_competitor", form=bool),
    },
}
# From _FIELDS, in its order: each record type's required keys, and its keys
# whose value is a code.
_REQUIRED = {
    record: [(key, spec.attribute) for key, spec in keys.items() if spec.required]
    for record, keys in _FIELDS.items()
}
_CODED = {
    record: [
        (key, spec.attribute, spec.form) for key, spec in keys.items() if type(spec.form) is dict
    ]
    for record, keys in _FIELDS.items()
}
# Per record type: the fields of its class that its keys fill, in the class's
# order, each with its default. An ELLIPSIS fills the same fields as a PRON.
_LAYOUT = {
    record: {
        name: cls._field_defaults.get(name)
        for name in cls._fields
        if name in {spec.attribute for spec in _FIELDS[record].values()}
    }
    for record, cls in zip(
        ("UTT", "ITEM", "PRON", "PUSH", "CASE"),
        (Utterance, DiscourseItem, Mention, SegmentEvent, CaseRecord),
    )
}
_LAYOUT["ELLIPSIS"] = _LAYOUT["PRON"]


class ParseError(Exception):
    def __init__(self, line_number: int, message: str, offending_text: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message
        self.offending_text = offending_text


def _split_fields(record: str, text: str, line_no: int, line: str, read: dict) -> tuple:
    """The values ``text``, a line's text after its id, gives ``record``'s
    ``_LAYOUT`` fields, in that order; stored in ``read[record][text]``.

    Key errors come first, in token order; then a missing required key, in
    table order; then a bad code, in table order; then an ITEM's kind and
    keys that do not go together."""

    keys = _FIELDS[record]
    fields = {}
    for token in text.split():
        key, equals, value = token.partition("=")
        spec = keys.get(key)
        if not equals:
            if spec is None or spec.form is not bool:
                raise ParseError(line_no, f"malformed field {token!r}", line)
            fields[spec.attribute] = True
            continue
        if spec is None or spec.form is bool:
            raise ParseError(line_no, f"unknown key {key!r}", line)
        if not value:
            raise ParseError(line_no, f"empty value for {key!r}", line)
        attribute, _, form = spec
        if attribute in fields:
            raise ParseError(line_no, f"repeated key {key!r}", line)
        fields[attribute] = form(value.split(",")) if form is tuple or form is frozenset else value
    for key, attribute in _REQUIRED[record]:
        if attribute not in fields:
            raise ParseError(line_no, f"{record} requires {key}=", line)
    for key, attribute, codes in _CODED[record]:
        if attribute in fields:
            value = fields[attribute]
            if value not in codes:
                raise ParseError(line_no, f"bad {key} value {value!r}", line)
            fields[attribute] = codes[value]
    if record == "ITEM":
        kind = fields["kind"]
        if kind is not _PROPOSITION and ("predicate" in fields or "args" in fields):
            raise ParseError(line_no, "pred/args are only valid on kind=prop", line)
        if kind is _SURFACE and "realizes" not in fields:
            raise ParseError(line_no, "kind=surface requires realizes=", line)
        if kind is not _SURFACE and "realizes" in fields:
            raise ParseError(line_no, "realizes= is only valid on kind=surface", line)
    read[record][text] = values = tuple({**_LAYOUT[record], **fields}.values())
    return values


def parse(text: str) -> Transcript:
    """Parse transcript source into a validated Transcript.

    Either returns a fully well-formed transcript or raises ParseError; no
    partial state escapes. Every reference to an item or mention is
    checked once the whole file has been read, in line order. So the error
    names the first line with a local error (one visible from that line and
    the lines above it), or, if no line has one, the first line that
    references an item or mention declared nowhere in the file, or a CASE
    whose mention is an ellipsis.

    Each distinct pair of record type and field text is read once per call,
    into its fields in class order, and each item, mention, utterance, PUSH
    event and case is then built with ``tuple.__new__``; every check that
    depends on where a line sits runs on every line.
    """

    dialogue_id: str | None = None
    # Utterance id -> its header's fields, item ids and mentions.
    utterances: dict[str, tuple[tuple, list[str], list[Mention]]] = {}
    utt_items, utt_mentions = [], []  # the current utterance's item ids and mentions
    # Item id -> its DiscourseItem. An entity takes the pred: tags of the
    # propositions naming it once the whole file has been read.
    items: dict[str, DiscourseItem] = {}
    derived_tags: dict[str, set[str]] = {}  # argument id -> its pred: tags
    mention_forms: dict[str, MentionForm] = {}
    events: list[SegmentEvent] = []
    open_segments: list[str] = []
    used_segments: set[str] = set()
    last_return: SegmentEvent | None = None
    cases: dict[str, CaseRecord] = {}
    read = {record: {} for record in _FIELDS}  # record type -> field text -> its fields
    # Every reference: (line, text, key, ref, known ids), checked in order
    # once every line has been read.
    deferred: list[tuple[int, str, str, str, Container[str]]] = []
    new = tuple.__new__  # none of the records parse builds checks anything

    # ``str.splitlines`` would also end a line at \x0b, \x1c, U+2028 and
    # five more characters that universal newlines leave inside a line.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        parts = (raw.partition("#")[0] if "#" in raw else raw).split(None, 2)  # type, id, fields
        if not parts:
            continue
        record = parts[0]

        if dialogue_id is None:
            if record != "DIALOGUE":
                raise ParseError(line_no, "transcript must start with DIALOGUE", raw)
            if len(parts) != 2:
                raise ParseError(line_no, "DIALOGUE takes a single id", raw)
            dialogue_id = parts[1]
            continue

        if record in _FIELDS:
            if not utterances and record in {"ITEM", "PRON", "ELLIPSIS"}:
                raise ParseError(line_no, f"{record} before any UTT", raw)
            if len(parts) == 1:
                needs = "a segment id" if record == "PUSH" else "an id"
                raise ParseError(line_no, f"{record} needs {needs}", raw)
            fields_text = parts[2] if len(parts) == 3 else ""
            fields = read[record].get(fields_text)
        elif record == "DIALOGUE":
            raise ParseError(line_no, "repeated DIALOGUE record", raw)
        elif record != "POP" and record != "RETURN":
            raise ParseError(line_no, f"unknown record type {record!r}", raw)
        elif len(parts) != 2:
            raise ParseError(line_no, f"{record} takes a single segment id", raw)
        record_id = parts[1]

        if record == "UTT":
            if record_id in utterances:
                raise ParseError(line_no, f"duplicate utterance id {record_id!r}", raw)
            fields = fields or _split_fields(record, fields_text, line_no, raw, read)
            for ref in fields[1]:  # iru_antecedents
                if ref not in utterances:
                    raise ParseError(
                        line_no, f"iru antecedent {ref!r} is not an earlier utterance", raw
                    )
            utt_items, utt_mentions = [], []
            utterances[record_id] = (fields, utt_items, utt_mentions)

        elif record == "ITEM":
            if not fields_text:
                # Bare reference: the utterance re-realizes a known item.
                if record_id not in items:
                    raise ParseError(
                        line_no, f"re-realized item {record_id!r} not yet declared", raw
                    )
                utt_items.append(record_id)
                continue
            if record_id in items:
                raise ParseError(line_no, f"duplicate item id {record_id!r}", raw)
            fields = fields or _split_fields(record, fields_text, line_no, raw, read)
            items[record_id] = item = new(DiscourseItem, (record_id, *fields, len(utterances) - 1))
            utt_items.append(record_id)
            for ref in item.args:
                if item.predicate:
                    # Dialogue-derived capability tags: an entity named as an
                    # argument of a proposition picks up its predicate's tag.
                    derived_tags.setdefault(ref, set()).add(derived_tag(item.predicate))
                deferred.append((line_no, raw, "args", ref, items))
            if item.realizes is not None:
                deferred.append((line_no, raw, "realizes", item.realizes, items))

        elif record == "PRON" or record == "ELLIPSIS":
            if record_id in mention_forms:
                raise ParseError(line_no, f"duplicate mention id {record_id!r}", raw)
            fields = fields or _split_fields(record, fields_text, line_no, raw, read)
            form = _FORMS[record]
            mention = new(Mention, (record_id, form, *fields))
            mention_forms[record_id] = form
            utt_mentions.append(mention)
            deferred.append((line_no, raw, "gold", mention.gold_antecedent, items))

        elif record == "PUSH":
            fields = fields or _split_fields(record, fields_text, line_no, raw, read)
            if record_id in used_segments:
                raise ParseError(line_no, f"segment id {record_id!r} already used", raw)
            used_segments.add(record_id)
            open_segments.append(record_id)
            events.append(new(SegmentEvent, (EventKind.PUSH, record_id, len(utterances), *fields)))

        elif record == "POP":
            if not open_segments or open_segments[-1] != record_id:
                raise ParseError(
                    line_no, f"POP {record_id!r} does not match the open segment", raw
                )
            open_segments.pop()
            events.append(SegmentEvent(EventKind.POP, record_id, len(utterances)))

        elif record == "RETURN":
            if record_id not in open_segments:
                raise ParseError(line_no, f"RETURN to unopened segment {record_id!r}", raw)
            del open_segments[open_segments.index(record_id) + 1 :]
            last_return = SegmentEvent(EventKind.RETURN, record_id, len(utterances))
            events.append(last_return)

        else:  # CASE
            if record_id in cases:
                raise ParseError(line_no, f"duplicate case id {record_id!r}", raw)
            if last_return is None:
                raise ParseError(line_no, "CASE before any RETURN", raw)
            mention_id, *flags = fields or _split_fields(record, fields_text, line_no, raw, read)
            _, segment, position, _ = last_return
            cases[record_id] = new(CaseRecord, (record_id, mention_id, segment, position, *flags))
            deferred.append((line_no, raw, "mention", mention_id, mention_forms))

    if dialogue_id is None:
        raise ParseError(1, "empty transcript: missing DIALOGUE record", "")

    for line_no, raw, key, ref, known in deferred:
        if ref not in known:
            noun = "mention" if known is mention_forms else "item"
            raise ParseError(line_no, f"{key} references undeclared {noun} {ref!r}", raw)
        if known is mention_forms and mention_forms[ref] is MentionForm.VP_ELLIPSIS:
            # A return-pop case classifies a pronoun among entity candidates.
            raise ParseError(line_no, f"mention {ref!r} is an ellipsis, not a pronoun", raw)

    for item_id, tags in derived_tags.items():
        item = items[item_id]
        if item.kind is _ENTITY:
            *head, sel_classes, realizes, introduced = item
            items[item_id] = new(DiscourseItem, (*head, sel_classes | tags, realizes, introduced))

    return Transcript(
        dialogue_id=dialogue_id,
        utterances=tuple(
            new(Utterance, (utt_id, speaker, index, tuple(utt_items), tuple(mentions), iru))
            for index, (utt_id, ((speaker, iru), utt_items, mentions)) in enumerate(
                utterances.items()
            )
        ),
        events=tuple(events),
        item_table=items,
        cases=tuple(cases.values()),
    )


def _record_line(record: str, record_id: str, value: NamedTuple) -> str:
    """The line that declares ``value``: its required keys, and each optional
    one that differs from the record type's default, in table order."""

    parts = [record, record_id]
    for key, (attribute, required, form) in _FIELDS[record].items():
        field = getattr(value, attribute)
        if not required and field == value._field_defaults[attribute]:
            continue
        if form is bool:
            parts.append(key)
            continue
        if form is frozenset:
            field = ",".join(sorted(field))
        elif form is tuple:
            field = ",".join(field)
        elif form is not str:
            field = next(code for code, member in form.items() if member is field)
        parts.append(f"{key}={field}")
    return " ".join(parts)


def write_transcript(transcript: Transcript) -> str:
    """Serialize a Transcript back to the line format.

    Re-parsing the output yields a structurally equal transcript. The
    output is canonical: each record's keys in ``_FIELDS`` order, optional
    keys and flags only where they differ from the default, sets sorted,
    an item declared at its first utterance and referenced bare after, and
    each CASE right after its RETURN.
    """

    lines = [f"DIALOGUE {transcript.dialogue_id}"]
    cases_by_return: dict[tuple[str, int], list[CaseRecord]] = {}
    for case in transcript.cases:
        cases_by_return.setdefault((case.segment_id, case.return_position), []).append(case)

    def emit_events(position: int) -> None:
        for event in transcript.events_at(position):
            if event.kind is EventKind.PUSH:
                lines.append(_record_line("PUSH", event.segment_id, event))
            elif event.kind is EventKind.POP:
                lines.append(f"POP {event.segment_id}")
            else:
                lines.append(f"RETURN {event.segment_id}")
                # Each case once: a CASE after a repeated RETURN would re-declare it.
                for case in cases_by_return.pop((event.segment_id, event.position), []):
                    lines.append(_record_line("CASE", case.case_id, case))

    declared: set[str] = set()
    for utt in transcript.utterances:
        emit_events(utt.index)
        lines.append(_record_line("UTT", utt.id, utt))
        for item_id in utt.items:
            item = transcript.item_table[item_id]
            if item.introduced_at == utt.index and item_id not in declared:
                declared.add(item_id)
                lines.append(_record_line("ITEM", item_id, item))
            else:
                lines.append(f"ITEM {item_id}")
        for mention in utt.mentions:
            record = "PRON" if mention.form is MentionForm.PRONOUN else "ELLIPSIS"
            lines.append(_record_line(record, mention.id, mention))
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


_quote = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses
# The bytes _quote copies as they are: printable ASCII but '"' and '\\'.
_PLAIN = bytes(b for b in range(0x20, 0x7F) if b not in b'"\\')


def plain_ids(ids: Iterable[str]) -> bool:
    """Whether every string in ``ids`` is made of ``_PLAIN`` characters
    only, so that none needs escaping; raises TypeError if one is not a
    str."""

    joined = "".join(ids)
    return joined.isascii() and not joined.encode().translate(None, _PLAIN)


def _string_list(strings: Sequence[str], pad: str, plain: bool = False) -> tuple[str, ...]:
    """The pieces of a list of strings as ``json.dumps(..., indent=2)``
    writes it when it opens at ``pad``, to be joined by the caller; raises
    TypeError if an element is not a str.

    When every string is plain (``plain_ids``; with ``plain`` the caller
    has checked that already), none needs escaping, and the body is one
    join of the strings, returned between its opening and closing pieces
    so that it is not copied again. Any other list is quoted id by id."""

    if not strings:
        return ("[]",)
    inner = pad + "  "
    if plain or plain_ids(strings):
        return "[\n" + inner + '"', ('",\n' + inner + '"').join(strings), '"\n' + pad + "]"
    return "[\n" + inner, (",\n" + inner).join(map(_quote, strings)), "\n" + pad + "]"


def outcome_writer(pad: str) -> Callable[[list[str], Outcome], None]:
    """A function that appends to a list of pieces an outcome as
    ``json.dumps(..., indent=2)`` writes it when it opens at ``pad``: its
    kind, then its item, its effort after retrieval, or its failure
    reason. Each layout's constant pieces are built here, once per indent."""

    key = ",\n" + pad + '  "'
    head = "{\n" + pad + '  "kind": "'
    immediate = f'{head}{_IMMEDIATE.value}"{key}item": '
    retrieved = f'{head}{_AFTER_RETRIEVAL.value}"{key}item": '
    failure = f'{head}{OutcomeKind.FAILURE.value}"{key}reason": "'
    effort, close = key + 'effort": ', "\n" + pad + "}"

    def write(out: list[str], outcome: Outcome) -> None:
        kind = outcome.kind
        if kind is _IMMEDIATE:
            out += (immediate, _quote(outcome.item), close)
        elif kind is _AFTER_RETRIEVAL:
            out += (retrieved, _quote(outcome.item), effort, str(outcome.effort), close)
        else:
            out += (failure, outcome.reason.value, '"', close)

    return write


_write_outcome = outcome_writer(" " * 8)  # a resolution's, in a trace record


def _resorted(ids: list[str], old: AbstractSet[str], new: AbstractSet[str]) -> list[str]:
    """``sorted(new)``, given ``ids``, which is ``sorted(old)`` and is edited in
    place: each id that left is deleted and each that arrived inserted. In
    a trace, a changed set mostly differs from the previous one by a few ids."""

    for item in old - new:
        del ids[bisect_left(ids, item)]
    for item in new - old:
        insort(ids, item)
    return ids


def write_trace(
    records: Sequence[TraceRecord],
    *,
    start: int = 0,
    stop: int | None = None,
    plain: bool = False,
) -> str:
    """Serialize trace records deterministically: equal traces produce
    byte-identical output, the bytes ``json.dumps(..., indent=2)`` writes.

    The record layout is fixed, so every part of it, store events,
    resolutions with their outcomes (``outcome_writer``), and the view, is
    written here as pieces of one list joined once. Id lists are
    ``_string_list`` pieces. A ``retrievable`` or ``lost`` set that is the
    previous record's object (``core.snapshot`` shares unchanged stores)
    reuses that record's pieces; any other takes its sorted ids from the
    previous record's, patched by ``_resorted``. The same pass checks each
    record: utterance indexes and cumulative effort must not decrease, and
    every record must carry a view; the first record that breaks a rule
    raises ValueError. Ids and event targets must be str; anything else
    raises TypeError.

    ``start`` and ``stop`` select ``records[start:stop]`` and return only
    their part of the text: the opening ``[`` only from record 0, the
    closing ``]`` only up to the last record, and the first record checked
    against, and its sorted sets taken from, ``records[start - 1]``. The
    texts of consecutive ranges concatenate to the text of the whole list,
    and the call whose range holds a faulty record raises as the whole-list
    call would. With no records the text is ``[]`` whatever the range.
    With ``plain`` the caller vouches that every id in a view or candidate
    list is plain (``plain_ids``), so those lists are joined unchecked;
    event targets, mention ids and outcome items are quoted one by one."""

    if not records:
        return "[]\n"
    start, stop, _ = slice(start, stop).indices(len(records))
    if start >= stop:
        return ""
    out: list[str] = []
    if start:
        opening = ',\n  {\n    "utteranceIndex": '
        previous = records[start - 1]
        if previous.view is None:
            raise ValueError(f"trace record {previous.utterance_index} has no view")
        retrievable, lost = previous.view.retrievable, previous.view.lost
    else:
        opening = '[\n  {\n    "utteranceIndex": '
        previous, retrievable, lost = records[0], frozenset(), frozenset()
    retrievable_ids, lost_ids = sorted(retrievable), sorted(lost)
    retrievable_pieces = _string_list(retrievable_ids, "      ", plain)
    lost_pieces = _string_list(lost_ids, "      ", plain)
    for record in records[start:stop]:
        if record.utterance_index < previous.utterance_index:
            raise ValueError("trace records must be ordered by utterance index")
        if record.cumulative_effort < previous.cumulative_effort:
            raise ValueError("cumulative effort must be non-decreasing")
        view = record.view
        if view is None:
            raise ValueError(f"trace record {record.utterance_index} has no view")
        previous = record
        if view.retrievable is not retrievable:
            retrievable_ids = _resorted(retrievable_ids, retrievable, view.retrievable)
            retrievable = view.retrievable
            retrievable_pieces = _string_list(retrievable_ids, "      ", plain)
        if view.lost is not lost:
            lost_ids = _resorted(lost_ids, lost, view.lost)
            lost = view.lost
            lost_pieces = _string_list(lost_ids, "      ", plain)
        out += (opening, str(record.utterance_index), ',\n    "eventsApplied": ')
        row = "[\n      {"
        for event in record.events_applied:
            out += (row, '\n        "kind": "', event.kind.value, '",\n        "target": ')
            out += (_quote(event.target), "\n      }")
            row = ",\n      {"
        out.append("\n    ]" if record.events_applied else "[]")
        out.append(',\n    "view": {\n      "immediate": ')
        out += _string_list(view.immediate, "      ", plain)
        out += (',\n      "retrievable": ', *retrievable_pieces, ',\n      "lost": ', *lost_pieces)
        out.append('\n    },\n    "resolutions": ')
        row = "[\n      {"
        for resolution in record.resolutions:
            out += (row, '\n        "mentionId": ', _quote(resolution.mention_id))
            out.append(',\n        "outcome": ')
            _write_outcome(out, resolution.outcome)
            out.append(',\n        "candidatesConsidered": ')
            out += _string_list(resolution.candidates_considered, "        ", plain)
            out += (',\n        "correct": ', "true" if resolution.correct else "false")
            out.append("\n      }")
            row = ",\n      {"
        out.append("\n    ]" if record.resolutions else "[]")
        out += (',\n    "cumulativeEffort": ', str(record.cumulative_effort), "\n  }")
        opening = ',\n  {\n    "utteranceIndex": '
    if stop == len(records):
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
