"""Replay a transcript through an attentional model and report on it.

The driver folds utterances through the selected model, resolving each
mention against the accessibility state at its utterance (after segment
boundaries and any redundancy handling, before the utterance's own items
enter), and collects per-utterance trace records. Under the cache model a
resolution that needed the retrievable store actually performs the
retrieval, so its cost lands in the state's effort ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import cache_model, stack_model
from .cache_model import CacheState, DEFAULT_CAPACITY, DEFAULT_RETRIEVAL_COST
from .core import (
    EventKind,
    ItemKind,
    StoreEvent,
    StoreEventKind,
    Transcript,
)
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
from .transcript_io import TraceRecord, outcome_json, parse, write_trace


class ModelKind(Enum):
    STACK = "stack"
    CACHE = "cache"


class InputError(Exception):
    """A transcript file that cannot be read as UTF-8 text."""


def load_transcript(path: str) -> Transcript:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise InputError(f"{path}: {error.strerror or error}") from error
    except UnicodeDecodeError as error:
        raise InputError(f"{path}: {error}") from error
    return parse(text)


def _check_retrieval_cost(cost: int) -> None:
    if cost < 1:
        raise ValueError(f"retrieval cost must be at least 1, got {cost}")


@dataclass(frozen=True)
class RunConfig:
    model_kind: ModelKind
    transcript_path: str
    capacity: int | None = DEFAULT_CAPACITY
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST
    trace_out_path: str | None = None

    def __post_init__(self) -> None:
        _check_retrieval_cost(self.retrieval_cost)


@dataclass(frozen=True)
class IRUFinding:
    utterance_id: str
    functions: tuple[tuple[str, IRUFunction], ...]
    no_predicted_function: bool = False


@dataclass(frozen=True)
class SimulationReport:
    dialogue_id: str
    model_kind: ModelKind
    capacity: int | None
    retrieval_cost: int
    records: tuple[TraceRecord, ...]
    resolutions: tuple[tuple[str, Resolution], ...]  # (utterance id, resolution)
    iru_findings: tuple[IRUFinding, ...]
    total_effort: int


@dataclass(frozen=True)
class DivergenceRow:
    mention_id: str
    stack_outcome: Outcome
    cache_outcome: Outcome

    @property
    def diverges(self) -> bool:
        return not self.stack_outcome.same_shape(self.cache_outcome)


@dataclass(frozen=True)
class DivergenceReport:
    dialogue_id: str
    per_mention: tuple[DivergenceRow, ...]
    iru_findings: tuple[tuple[str, IRUFinding, IRUFinding], ...]
    cache_effort: int


def replay(
    transcript: Transcript,
    model_kind: ModelKind,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> SimulationReport:
    _check_retrieval_cost(retrieval_cost)
    if model_kind is ModelKind.STACK:
        return _replay_stack(transcript)
    return _replay_cache(transcript, capacity, retrieval_cost)


def _iru_finding(
    transcript: Transcript, utt, accessibility, flag_when_all_fresh: bool
) -> IRUFinding:
    functions = tuple(analyze_iru(utt, accessibility, transcript))
    all_fresh = bool(functions) and all(
        function is IRUFunction.REFRESH_IN_CACHE for _, function in functions
    )
    return IRUFinding(
        utterance_id=utt.id,
        functions=functions,
        no_predicted_function=flag_when_all_fresh and all_fresh,
    )


def _replay_stack(transcript: Transcript) -> SimulationReport:
    state = stack_model.new_stack()
    records: list[TraceRecord] = []
    resolutions: list[tuple[str, Resolution]] = []
    findings: list[IRUFinding] = []
    for utt in transcript.utterances:
        applied: list[StoreEvent] = []
        for event in transcript.events_at(utt.index):
            before_ids = [space.segment_id for space in state.spaces]
            state = stack_model.apply_event(state, event)
            if event.kind is EventKind.PUSH:
                applied.append(StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id))
            else:
                popped = before_ids[len(state.spaces) :]
                applied.extend(
                    StoreEvent(StoreEventKind.POP_SPACE, seg)
                    for seg in reversed([s for s in popped if s is not None])
                )
        accessibility = stack_model.view(state)
        if utt.is_iru:
            # The stack model predicts nothing for a restatement whose
            # content is already sitting in stacked focus spaces.
            findings.append(
                _iru_finding(transcript, utt, accessibility, flag_when_all_fresh=True)
            )
        utt_resolutions = []
        for mention in utt.mentions:
            resolution = resolve(
                mention, accessibility, transcript.item_table, allow_retrieval=False
            )
            utt_resolutions.append(resolution)
            resolutions.append((utt.id, resolution))
        state = stack_model.apply_utterance(state, utt)
        records.append(
            TraceRecord(
                utterance_index=utt.index,
                events_applied=tuple(applied),
                view=stack_model.view(state),
                resolutions=tuple(utt_resolutions),
                cumulative_effort=0,
            )
        )
    return SimulationReport(
        dialogue_id=transcript.dialogue_id,
        model_kind=ModelKind.STACK,
        capacity=None,
        retrieval_cost=0,
        records=tuple(records),
        resolutions=tuple(resolutions),
        iru_findings=tuple(findings),
        total_effort=0,
    )


def _replay_cache(
    transcript: Transcript, capacity: int | None, retrieval_cost: int
) -> SimulationReport:
    state: CacheState = cache_model.new_cache(transcript.item_table, capacity)
    records: list[TraceRecord] = []
    resolutions: list[tuple[str, Resolution]] = []
    findings: list[IRUFinding] = []
    for utt in transcript.utterances:
        state, applied = cache_model.apply_events(
            state, transcript.events_at(utt.index), transcript, retrieval_cost
        )
        if utt.is_iru:
            findings.append(
                _iru_finding(
                    transcript, utt, cache_model.view(state), flag_when_all_fresh=False
                )
            )
            state, iru_events = cache_model.apply_iru(state, utt, transcript)
            applied.extend(iru_events)
        utt_resolutions = []
        for mention in utt.mentions:
            resolution = resolve(
                mention,
                cache_model.view(state),
                transcript.item_table,
                allow_retrieval=True,
                retrieval_cost=retrieval_cost,
            )
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                # Strategic retrieval: interpreting the anaphor pulls its
                # antecedent into the cache and pays for the trip.
                state, _, retrieval_events = cache_model.retrieve(
                    state, [resolution.outcome.item], retrieval_cost
                )
                applied.extend(retrieval_events)
            utt_resolutions.append(resolution)
            resolutions.append((utt.id, resolution))
        state, insert_events = cache_model.insert_items(state, utt.items)
        applied.extend(insert_events)
        records.append(
            TraceRecord(
                utterance_index=utt.index,
                events_applied=tuple(applied),
                view=cache_model.view(state),
                resolutions=tuple(utt_resolutions),
                cumulative_effort=state.effort,
            )
        )
    return SimulationReport(
        dialogue_id=transcript.dialogue_id,
        model_kind=ModelKind.CACHE,
        capacity=capacity,
        retrieval_cost=retrieval_cost,
        records=tuple(records),
        resolutions=tuple(resolutions),
        iru_findings=tuple(findings),
        total_effort=state.effort,
    )


def run(config: RunConfig) -> SimulationReport:
    transcript = load_transcript(config.transcript_path)
    report = replay(
        transcript, config.model_kind, config.capacity, config.retrieval_cost
    )
    if config.trace_out_path is not None:
        Path(config.trace_out_path).write_text(
            write_trace(report.records), encoding="utf-8"
        )
    return report


def compare_transcript(
    transcript: Transcript,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> DivergenceReport:
    stack_report = replay(transcript, ModelKind.STACK)
    cache_report = replay(transcript, ModelKind.CACHE, capacity, retrieval_cost)
    stack_outcomes = {res.mention_id: res for _, res in stack_report.resolutions}
    cache_outcomes = {res.mention_id: res for _, res in cache_report.resolutions}
    rows = tuple(
        DivergenceRow(
            mention_id=mention.id,
            stack_outcome=stack_outcomes[mention.id].outcome,
            cache_outcome=cache_outcomes[mention.id].outcome,
        )
        for mention in transcript.mentions()
    )
    stack_findings = {f.utterance_id: f for f in stack_report.iru_findings}
    cache_findings = {f.utterance_id: f for f in cache_report.iru_findings}
    joined = tuple(
        (utt.id, stack_findings[utt.id], cache_findings[utt.id])
        for utt in transcript.utterances
        if utt.is_iru
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


@dataclass(frozen=True)
class CaseResult:
    case: ReturnPopCase
    classification: PopClassification
    competing_after_agreement: bool
    competing_after_static: bool
    competing_after_dialogue: bool


@dataclass(frozen=True)
class PopsReport:
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
        return {
            "cases": len(self.results),
            "competingAfterAgreement": sum(
                1 for r in self.results if r.competing_after_agreement
            ),
            "competingAfterStaticSelection": sum(
                1 for r in self.results if r.competing_after_static
            ),
            "competingAfterDialogueSelection": sum(
                1 for r in self.results if r.competing_after_dialogue
            ),
            "competingAfterIru": sum(
                1
                for r in self.results
                if r.competing_after_dialogue and not r.case.iru_at_return
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
    """

    mentions = {mention.id: mention for mention in transcript.mentions()}
    push_positions = {
        event.segment_id: event.position
        for event in transcript.events
        if event.kind is EventKind.PUSH
    }
    cases = []
    for record in transcript.cases:
        start = push_positions[record.segment_id]
        stop = record.return_position
        candidate_ids: list[str] = []
        for utt in transcript.utterances[start:stop]:
            for item_id in utt.items:
                item = transcript.item_table[item_id]
                if item.kind is not ItemKind.ENTITY:
                    continue
                if not (start <= item.introduced_at < stop):
                    continue
                if item_id not in candidate_ids:
                    candidate_ids.append(item_id)
        cases.append(
            ReturnPopCase(
                case_id=record.case_id,
                mention=mentions[record.mention_id],
                candidates_at_return=tuple(
                    transcript.item_table[i] for i in candidate_ids
                ),
                iru_at_return=record.iru_at_return,
                competitor_ever_central=record.central_competitor,
            )
        )
    return cases


def classify_corpus(transcript: Transcript) -> PopsReport:
    results = []
    for case in build_cases(transcript):
        trace = cascade_survivors(case)
        results.append(
            CaseResult(
                case=case,
                classification=classify_return_pop(case),
                competing_after_agreement=len(trace.after_agreement) > 1,
                competing_after_static=len(trace.after_static_selection) > 1,
                competing_after_dialogue=len(trace.after_dialogue_selection) > 1,
            )
        )
    return PopsReport(dialogue_id=transcript.dialogue_id, results=tuple(results))


def pops(transcript_path: str) -> PopsReport:
    transcript = load_transcript(transcript_path)
    return classify_corpus(transcript)


# ---------------------------------------------------------------------------
# JSON-facing report shapes (stable key order for deterministic output)


def _capacity_json(capacity: int | None) -> int | str:
    return "inf" if capacity is None else capacity


def simulation_report_json(report: SimulationReport) -> dict:
    data: dict = {
        "dialogueId": report.dialogue_id,
        "model": report.model_kind.value,
    }
    if report.model_kind is ModelKind.CACHE:
        data["capacity"] = _capacity_json(report.capacity)
        data["retrievalCost"] = report.retrieval_cost
    data["totalEffort"] = report.total_effort
    data["resolutions"] = [
        {
            "utteranceId": utt_id,
            "mentionId": resolution.mention_id,
            "outcome": outcome_json(resolution.outcome),
            "candidatesConsidered": list(resolution.candidates_considered),
            "correct": resolution.correct,
        }
        for utt_id, resolution in report.resolutions
    ]
    data["iruFindings"] = [
        {
            "utteranceId": finding.utterance_id,
            "functions": {item: fn.value for item, fn in finding.functions},
            "noPredictedFunction": finding.no_predicted_function,
        }
        for finding in report.iru_findings
    ]
    return data


def divergence_report_json(report: DivergenceReport) -> dict:
    return {
        "dialogueId": report.dialogue_id,
        "perMention": [
            {
                "mentionId": row.mention_id,
                "stack": outcome_json(row.stack_outcome),
                "cache": outcome_json(row.cache_outcome),
                "diverges": row.diverges,
            }
            for row in report.per_mention
        ],
        "iruFindings": [
            {
                "utteranceId": utt_id,
                "stack": {
                    "functions": {item: fn.value for item, fn in stack_f.functions},
                    "noPredictedFunction": stack_f.no_predicted_function,
                },
                "cache": {
                    "functions": {item: fn.value for item, fn in cache_f.functions},
                },
            }
            for utt_id, stack_f, cache_f in report.iru_findings
        ],
        # The stack model never retrieves, so its effort is always zero.
        "totalEffort": {"stack": 0, "cache": report.cache_effort},
    }


def pops_report_json(report: PopsReport) -> dict:
    return {
        "dialogueId": report.dialogue_id,
        "histogram": {
            classification.value: count
            for classification, count in report.histogram.items()
        },
        "stageCounts": report.stage_counts,
        "pronounVerbSufficient": report.pronoun_verb_sufficient,
        "iruBearing": report.iru_bearing,
        "cases": [
            {
                "caseId": result.case.case_id,
                "mentionId": result.case.mention.id,
                "classification": result.classification.value,
                "candidates": [item.id for item in result.case.candidates_at_return],
            }
            for result in report.results
        ],
    }
