"""Replay a transcript through an attentional model and report on it.

The driver folds utterances through the selected model, resolving each
mention against the model's live state at its utterance (after segment
boundaries and any redundancy handling, before the utterance's own items
enter), and collects per-utterance trace records. A record carries an
``AccessibilityView`` snapshot after its utterance only when the caller
asks for views, as ``run --trace`` does; a resolution lists candidates
unless the caller turns them off, as ``compare`` does. Under the cache
model a resolution that needed the retrievable store actually performs
the retrieval, so its cost lands in the state's effort ledger.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import NamedTuple

from . import cache_model, stack_model
from .cache_model import DEFAULT_CAPACITY, DEFAULT_RETRIEVAL_COST
from .core import CascadeTrace, ItemKind, Transcript
from .resolution import (
    IRUFunction,
    Outcome,
    OutcomeKind,
    PopClassification,
    Resolution,
    ReturnPopCase,
    analyze_iru,
    cascade_survivors,
    classify_return_pop,
    resolve,
)
from .transcript_io import (
    TraceRecord,
    _quote,
    _string_list,
    outcome_writer,
    parse,
    plain_ids,
    write_trace,
)


# Records per ``write_trace`` call when ``run`` writes a trace.
TRACE_BLOCK = 64


class ModelKind(Enum):
    STACK = "stack"
    CACHE = "cache"


class InputError(Exception):
    """A transcript file that cannot be read as UTF-8 text."""


class OutputError(Exception):
    """A trace file that cannot be written."""


def load_transcript(path: str) -> Transcript:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as error:
        raise InputError(f"{path}: {error.strerror or error}") from error
    except UnicodeDecodeError as error:
        raise InputError(f"{path}: {error}") from error
    return parse(text.removeprefix("\ufeff"))


class IRUFinding(NamedTuple):
    utterance_id: str
    functions: tuple[tuple[str, IRUFunction], ...]
    no_predicted_function: bool


class SimulationReport(NamedTuple):
    dialogue_id: str
    model_kind: ModelKind
    capacity: int | None
    retrieval_cost: int
    records: tuple[TraceRecord, ...]
    resolutions: tuple[tuple[str, Resolution], ...]  # (utterance id, resolution)
    iru_findings: tuple[IRUFinding, ...]
    total_effort: int


class DivergenceRow(NamedTuple):
    mention_id: str
    stack_outcome: Outcome
    cache_outcome: Outcome

    @property
    def diverges(self) -> bool:
        # A stack outcome never comes after retrieval, so it carries no effort.
        return self.stack_outcome != self.cache_outcome


class DivergenceReport(NamedTuple):
    dialogue_id: str
    per_mention: tuple[DivergenceRow, ...]
    iru_findings: tuple[tuple[str, IRUFinding, IRUFinding], ...]
    cache_effort: int


def replay(
    transcript: Transcript,
    model_kind: ModelKind,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
    *,
    views: bool = False,
    candidates: bool = True,
) -> SimulationReport:
    """Fold the transcript through one model, utterance by utterance:
    segment boundaries, then redundancy handling, then each mention's
    resolution, then the utterance's own items. The fold owns the model's
    one state, which resolution reads live; every step updates it in place
    and returns its store events. A record carries the view after its
    utterance only with ``views``. Without ``candidates`` a resolution
    stops once its outcome is known and lists none."""

    if retrieval_cost < 1:
        raise ValueError(f"retrieval cost must be at least 1, got {retrieval_cost}")
    if model_kind is ModelKind.CACHE:
        model = cache_model
        state = cache_model.new_cache(transcript.item_table, capacity, retrieval_cost)
    else:
        model, state = stack_model, stack_model.new_stack()
    # Bound per call, not at import, so that a wrapper installed before the call runs.
    apply_events, apply_iru, absorb = model.apply_events, model.apply_iru, model.absorb
    snapshot, events_at = model.view, transcript.events_at
    after_retrieval = OutcomeKind.AFTER_RETRIEVAL
    records: list[TraceRecord] = []
    resolutions: list[tuple[str, Resolution]] = []
    findings: list[IRUFinding] = []
    view = None
    for utt in transcript.utterances:
        applied = apply_events(state, events_at(utt.index), transcript)
        if utt.iru_antecedents:
            functions = tuple(analyze_iru(utt, state, transcript))
            # The stack model predicts nothing for a restatement whose
            # content is already sitting in stacked focus spaces.
            all_fresh = bool(functions) and all(
                function is IRUFunction.REFRESH_IN_CACHE for _, function in functions
            )
            findings.append(IRUFinding(utt.id, functions, model is stack_model and all_fresh))
            applied.extend(apply_iru(state, [item for item, _ in functions]))
        utt_resolutions = []
        for mention in utt.mentions:
            resolution = resolve(mention, state, transcript, retrieval_cost, candidates)
            if resolution.outcome.kind is after_retrieval:
                # Strategic retrieval: interpreting the anaphor pulls its
                # antecedent into the cache and pays for the trip.
                applied.extend(model.retrieve(state, [resolution.outcome.item]))
            utt_resolutions.append(resolution)
            resolutions.append((utt.id, resolution))
        applied.extend(absorb(state, utt))
        if views:
            # Each record shares the previous record's unchanged stores.
            view = snapshot(state, view)
        record = (utt.index, tuple(applied), view, tuple(utt_resolutions), state.effort)
        records.append(tuple.__new__(TraceRecord, record))  # it checks nothing
    return SimulationReport(
        dialogue_id=transcript.dialogue_id,
        model_kind=model_kind,
        capacity=capacity,
        retrieval_cost=retrieval_cost,
        records=tuple(records),
        resolutions=tuple(resolutions),
        iru_findings=tuple(findings),
        total_effort=state.effort,
    )


def run(
    model_kind: ModelKind,
    transcript_path: str,
    capacity: int | None,
    retrieval_cost: int,
    trace_path: str | None,
) -> SimulationReport:
    transcript = load_transcript(transcript_path)
    report = replay(
        transcript, model_kind, capacity, retrieval_cost, views=trace_path is not None
    )
    if trace_path is not None:
        records = report.records
        # Every id a view or candidate list holds is an item-table id.
        plain = plain_ids(transcript.item_table)
        try:
            with open(trace_path, "w", encoding="utf-8") as file:
                # A block at a time, so the whole trace is never one string.
                for start in range(0, len(records) or 1, TRACE_BLOCK):
                    stop = start + TRACE_BLOCK
                    file.write(write_trace(records, start=start, stop=stop, plain=plain))
        except OSError as error:
            raise OutputError(f"{trace_path}: {error.strerror or error}") from error
    return report


def compare_transcript(
    transcript: Transcript,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> DivergenceReport:
    # Only outcomes are read. Both replays share the transcript's survivor sets.
    stack_report = replay(transcript, ModelKind.STACK, candidates=False)
    cache_report = replay(
        transcript, ModelKind.CACHE, capacity, retrieval_cost, candidates=False
    )
    # Each replay resolves every mention and analyzes every restatement
    # once, in transcript order, so the two line up by position.
    rows = tuple(
        DivergenceRow(stack.mention_id, stack.outcome, cache.outcome)
        for (_, stack), (_, cache) in zip(
            stack_report.resolutions, cache_report.resolutions, strict=True
        )
    )
    joined = tuple(
        (stack.utterance_id, stack, cache)
        for stack, cache in zip(
            stack_report.iru_findings, cache_report.iru_findings, strict=True
        )
    )
    return DivergenceReport(
        dialogue_id=transcript.dialogue_id,
        per_mention=rows,
        iru_findings=joined,
        cache_effort=cache_report.total_effort,
    )


def compare(
    transcript_path: str,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> DivergenceReport:
    transcript = load_transcript(transcript_path)
    return compare_transcript(transcript, capacity, retrieval_cost)


class CaseResult(NamedTuple):
    case: ReturnPopCase
    classification: PopClassification
    trace: CascadeTrace


class PopsReport(NamedTuple):
    dialogue_id: str
    results: tuple[CaseResult, ...]

    @property
    def histogram(self) -> dict[PopClassification, int]:
        counts = {classification: 0 for classification in PopClassification}
        for result in self.results:
            counts[result.classification] += 1
        return counts

    @property
    def stage_counts(self) -> dict[str, int]:
        """Cases with more than one candidate left after each cue stage."""

        traces = [r.trace for r in self.results]
        return {
            "cases": len(self.results),
            "competingAfterAgreement": sum(len(t.after_agreement) > 1 for t in traces),
            "competingAfterStaticSelection": sum(
                len(t.after_static_selection) > 1 for t in traces
            ),
            "competingAfterDialogueSelection": sum(
                len(t.after_dialogue_selection) > 1 for t in traces
            ),
            "competingAfterIru": sum(
                len(r.trace.after_dialogue_selection) > 1 and not r.case.iru_at_return
                for r in self.results
            ),
        }

    @property
    def pronoun_verb_sufficient(self) -> int:
        early = {
            PopClassification.PRONOUN_SUFFICIENT,
            PopClassification.VERB_FRAME_RESOLVED,
            PopClassification.DIALOGUE_CONSTRAINT_RESOLVED,
        }
        return sum(1 for r in self.results if r.classification in early)

    @property
    def iru_bearing(self) -> int:
        return sum(1 for r in self.results if r.case.iru_at_return)


def build_cases(transcript: Transcript) -> list[ReturnPopCase]:
    """Assemble return-pop cases from CASE annotations.

    A case's candidate set is every entity introduced between the push of
    the resumed segment and the return to it, in introduction order: the
    hierarchically recent material plus everything linearly intervening.
    A case whose gold antecedent is not among them raises ``ValueError``
    (defect 4b).
    """

    mentions = {mention.id: mention for mention in transcript.mentions()}
    # The item table lists items in introduction order (``Transcript``).
    items = transcript.item_table.values()
    entities = [item for item in items if item.kind is ItemKind.ENTITY]
    introduced = [item.introduced_at for item in entities]
    cases = []
    for record in transcript.cases:
        start = bisect_left(introduced, transcript.push_positions[record.segment_id])
        stop = bisect_left(introduced, record.return_position)
        candidates = tuple(entities[start:stop])
        mention = mentions[record.mention_id]
        if mention.gold_antecedent not in {item.id for item in candidates}:
            raise ValueError(
                f"case {record.case_id!r}: gold antecedent not among candidates"
            )
        cases.append(
            ReturnPopCase(
                case_id=record.case_id,
                mention=mention,
                candidates_at_return=candidates,
                iru_at_return=record.iru_at_return,
                competitor_ever_central=record.central_competitor,
            )
        )
    return cases


def classify_corpus(transcript: Transcript) -> PopsReport:
    results = []
    for case in build_cases(transcript):
        trace = cascade_survivors(case)
        results.append(CaseResult(case, classify_return_pop(case, trace), trace))
    return PopsReport(dialogue_id=transcript.dialogue_id, results=tuple(results))


def pops(transcript_path: str) -> PopsReport:
    transcript = load_transcript(transcript_path)
    return classify_corpus(transcript)


# ---------------------------------------------------------------------------
# Reports, each as ``json.dumps(..., indent=2)`` writes its JSON value. The
# layout of each is fixed, so it is written as pieces of one list joined
# once, in a stable key order; id lists are ``_string_list`` pieces.

_write_outcome = outcome_writer(" " * 6)  # a resolution's or a row's


def _functions_json(functions: tuple[tuple[str, IRUFunction], ...], pad: str) -> str:
    """A restatement's functions, item id to function, as an object that
    opens at ``pad``."""

    if not functions:
        return "{}"
    inner = "\n" + pad + "  "
    body = ("," + inner).join(f'{_quote(item)}: "{function.value}"' for item, function in functions)
    return "{" + inner + body + "\n" + pad + "}"


def simulation_report_json(report: SimulationReport) -> str:
    out = ['{\n  "dialogueId": ', _quote(report.dialogue_id)]
    out += (',\n  "model": "', report.model_kind.value, '"')
    if report.model_kind is ModelKind.CACHE:
        capacity = '"inf"' if report.capacity is None else str(report.capacity)
        out += (',\n  "capacity": ', capacity)
        out += (',\n  "retrievalCost": ', str(report.retrieval_cost))
    out += (',\n  "totalEffort": ', str(report.total_effort), ',\n  "resolutions": ')
    opening = '[\n    {\n      "utteranceId": '
    for utt_id, (mention_id, outcome, candidates, correct) in report.resolutions:
        out += (opening, _quote(utt_id), ',\n      "mentionId": ', _quote(mention_id))
        out.append(',\n      "outcome": ')
        _write_outcome(out, outcome)
        out.append(',\n      "candidatesConsidered": ')
        out += _string_list(candidates, "      ")
        out += (',\n      "correct": ', "true" if correct else "false", "\n    }")
        opening = ',\n    {\n      "utteranceId": '
    out.append("\n  ]" if report.resolutions else "[]")
    out.append(',\n  "iruFindings": ')
    opening = '[\n    {\n      "utteranceId": '
    for utt_id, functions, none_predicted in report.iru_findings:
        functions_text = _functions_json(functions, "      ")
        out += (opening, _quote(utt_id), ',\n      "functions": ', functions_text)
        out += (',\n      "noPredictedFunction": ', "true" if none_predicted else "false")
        out.append("\n    }")
        opening = ',\n    {\n      "utteranceId": '
    out.append("\n  ]\n}" if report.iru_findings else "[]\n}")
    return "".join(out)


def divergence_report_json(report: DivergenceReport) -> str:
    out = ['{\n  "dialogueId": ', _quote(report.dialogue_id), ',\n  "perMention": ']
    opening = '[\n    {\n      "mentionId": '
    for row in report.per_mention:
        out += (opening, _quote(row.mention_id), ',\n      "stack": ')
        _write_outcome(out, row.stack_outcome)
        out.append(',\n      "cache": ')
        _write_outcome(out, row.cache_outcome)
        out += (',\n      "diverges": ', "true" if row.diverges else "false", "\n    }")
        opening = ',\n    {\n      "mentionId": '
    out.append("\n  ]" if report.per_mention else "[]")
    out.append(',\n  "iruFindings": ')
    opening = '[\n    {\n      "utteranceId": '
    for utt_id, stack, cache in report.iru_findings:
        out += (opening, _quote(utt_id), ',\n      "stack": {\n        "functions": ')
        out += (_functions_json(stack.functions, "        "), ',\n        "noPredictedFunction": ')
        out += ("true" if stack.no_predicted_function else "false", '\n      },\n      "cache": {')
        out += ('\n        "functions": ', _functions_json(cache.functions, "        "))
        out.append("\n      }\n    }")
        opening = ',\n    {\n      "utteranceId": '
    out.append("\n  ]" if report.iru_findings else "[]")
    # The stack model never retrieves, so its effort is always zero.
    out += (',\n  "totalEffort": {\n    "stack": 0,\n    "cache": ', str(report.cache_effort))
    out.append("\n  }\n}")
    return "".join(out)


def pops_report_json(report: PopsReport) -> str:
    histogram = [f'"{kind.value}": {count}' for kind, count in report.histogram.items()]
    stages = [f'"{stage}": {count}' for stage, count in report.stage_counts.items()]
    out = ['{\n  "dialogueId": ', _quote(report.dialogue_id), ',\n  "histogram": {\n    ']
    out += (",\n    ".join(histogram), '\n  },\n  "stageCounts": {\n    ', ",\n    ".join(stages))
    out += ('\n  },\n  "pronounVerbSufficient": ', str(report.pronoun_verb_sufficient))
    out += (',\n  "iruBearing": ', str(report.iru_bearing), ',\n  "cases": ')
    opening = '[\n    {\n      "caseId": '
    for case, classification, _ in report.results:
        out += (opening, _quote(case.case_id), ',\n      "mentionId": ', _quote(case.mention.id))
        out += (',\n      "classification": "', classification.value, '",\n      "candidates": ')
        out += _string_list([item.id for item in case.candidates_at_return], "      ")
        out.append("\n    }")
        opening = ',\n    {\n      "caseId": '
    out.append("\n  ]\n}" if report.results else "[]\n}")
    return "".join(out)
