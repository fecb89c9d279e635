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

from enum import Enum
from typing import NamedTuple

from . import cache_model, stack_model
from .cache_model import DEFAULT_CAPACITY, DEFAULT_RETRIEVAL_COST
from .core import DiscourseItem, ItemKind, Transcript
from .resolution import (
    CascadeTrace,
    IRUFunction,
    Outcome,
    OutcomeKind,
    PopClassification,
    ReferentIndex,
    Resolution,
    ReturnPopCase,
    analyze_iru,
    cascade_survivors,
    classify_return_pop,
    resolve,
)
from .transcript_io import (
    TraceRecord,
    outcome_json,
    parse,
    resolution_json,
    write_trace,
)


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
    return parse(text)


class RunConfig(NamedTuple):
    model_kind: ModelKind
    transcript_path: str
    capacity: int | None = DEFAULT_CAPACITY
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST
    trace_out_path: str | None = None


class IRUFinding(NamedTuple):
    utterance_id: str
    functions: tuple[tuple[str, IRUFunction], ...]
    no_predicted_function: bool = False


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
    index: ReferentIndex | None = None,
) -> SimulationReport:
    """Fold the transcript through one model, utterance by utterance:
    segment boundaries, then redundancy handling, then each mention's
    resolution, then the utterance's own items. The fold owns the model's
    one state, which resolution reads live; every step updates it in place
    and returns its store events. A record carries the view after its
    utterance only with ``views``. Without ``candidates`` a resolution
    stops once its outcome is known and lists none. ``index`` is a
    ``ReferentIndex`` over the transcript's item table, shared by replays
    of one transcript; without it the replay builds its own."""

    if retrieval_cost < 1:
        raise ValueError(f"retrieval cost must be at least 1, got {retrieval_cost}")
    if model_kind is ModelKind.CACHE:
        model = cache_model
        state = cache_model.new_cache(transcript.item_table, capacity)
    else:
        # The stack reports no capacity or retrieval cost.
        model, state = stack_model, stack_model.new_stack()
        capacity, retrieval_cost = None, 0
    if index is None:
        index = ReferentIndex(transcript.item_table)
    records: list[TraceRecord] = []
    resolutions: list[tuple[str, Resolution]] = []
    findings: list[IRUFinding] = []
    view = None
    for utt in transcript.utterances:
        applied = model.apply_events(
            state, transcript.events_at(utt.index), transcript, retrieval_cost
        )
        if utt.is_iru:
            functions = tuple(analyze_iru(utt, state, transcript))
            # The stack model predicts nothing for a restatement whose
            # content is already sitting in stacked focus spaces.
            all_fresh = bool(functions) and all(
                function is IRUFunction.REFRESH_IN_CACHE for _, function in functions
            )
            findings.append(IRUFinding(utt.id, functions, model is stack_model and all_fresh))
            applied.extend(model.apply_iru(state, [item for item, _ in functions]))
        utt_resolutions = []
        for mention in utt.mentions:
            resolution = resolve(mention, state, index, retrieval_cost, candidates)
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                # Strategic retrieval: interpreting the anaphor pulls its
                # antecedent into the cache and pays for the trip.
                applied.extend(
                    model.retrieve(state, [resolution.outcome.item], retrieval_cost)
                )
            utt_resolutions.append(resolution)
            resolutions.append((utt.id, resolution))
        applied.extend(model.absorb(state, utt))
        if views:
            # Each record shares the previous record's unchanged stores.
            view = model.view(state, view)
        records.append(
            TraceRecord(
                utterance_index=utt.index,
                events_applied=tuple(applied),
                view=view,
                resolutions=tuple(utt_resolutions),
                cumulative_effort=state.effort,
            )
        )
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


def run(config: RunConfig) -> SimulationReport:
    transcript = load_transcript(config.transcript_path)
    report = replay(
        transcript,
        config.model_kind,
        config.capacity,
        config.retrieval_cost,
        views=config.trace_out_path is not None,
    )
    if config.trace_out_path is not None:
        text = write_trace(report.records)
        try:
            with open(config.trace_out_path, "w", encoding="utf-8") as file:
                file.write(text)
        except OSError as error:
            raise OutputError(
                f"{config.trace_out_path}: {error.strerror or error}"
            ) from error
    return report


def compare_transcript(
    transcript: Transcript,
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> DivergenceReport:
    # Both replays filter by the same cue signatures; only outcomes are read.
    index = ReferentIndex(transcript.item_table)
    stack_report = replay(transcript, ModelKind.STACK, candidates=False, index=index)
    cache_report = replay(
        transcript, ModelKind.CACHE, capacity, retrieval_cost, candidates=False, index=index
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
    """

    mentions = {mention.id: mention for mention in transcript.mentions()}
    cases = []
    for record in transcript.cases:
        start = transcript.push_positions[record.segment_id]
        stop = record.return_position
        candidates: dict[str, DiscourseItem] = {}
        for utt in transcript.utterances[start:stop]:
            for item_id in utt.items:
                item = transcript.item_table[item_id]
                if item.kind is not ItemKind.ENTITY:
                    continue
                if not (start <= item.introduced_at < stop):
                    continue
                candidates.setdefault(item_id, item)
        cases.append(
            ReturnPopCase(
                case_id=record.case_id,
                mention=mentions[record.mention_id],
                candidates_at_return=tuple(candidates.values()),
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
# JSON-facing report shapes (stable key order for deterministic output)


def _capacity_json(capacity: int | None) -> int | str:
    return "inf" if capacity is None else capacity


def _functions_json(finding: IRUFinding) -> dict[str, str]:
    return {item: function.value for item, function in finding.functions}


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
        {"utteranceId": utt_id, **resolution_json(resolution)}
        for utt_id, resolution in report.resolutions
    ]
    data["iruFindings"] = [
        {
            "utteranceId": finding.utterance_id,
            "functions": _functions_json(finding),
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
                    "functions": _functions_json(stack_f),
                    "noPredictedFunction": stack_f.no_predicted_function,
                },
                "cache": {"functions": _functions_json(cache_f)},
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
