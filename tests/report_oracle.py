"""The reference for the report writers: each report mapped to the plain
JSON value it stands for, which ``json.dumps(value, indent=2)`` lays out.
These builders wrote every command's report before each report got its
fixed-layout writer (``attnsim.driver``), and trace records' resolutions
before ``write_trace`` did.
"""

from __future__ import annotations

import json

from attnsim import driver
from attnsim.core import Transcript
from attnsim.driver import (
    DivergenceReport,
    IRUFinding,
    ModelKind,
    PopsReport,
    SimulationReport,
    classify_corpus,
    compare_transcript,
    replay,
)
from attnsim.resolution import Outcome, OutcomeKind, Resolution


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


def _functions_json(finding: IRUFinding) -> dict[str, str]:
    return {item: function.value for item, function in finding.functions}


def simulation_report_json(report: SimulationReport) -> dict:
    data: dict = {
        "dialogueId": report.dialogue_id,
        "model": report.model_kind.value,
    }
    if report.model_kind is ModelKind.CACHE:
        data["capacity"] = "inf" if report.capacity is None else report.capacity
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


# The run reports checked: the stack, and the cache at 7, 2 and unbounded.
# compare is checked with its cache at each of those capacities.
MODELS = (
    (ModelKind.STACK, None),
    (ModelKind.CACHE, 7),
    (ModelKind.CACHE, 2),
    (ModelKind.CACHE, None),
)
REPORTS = {
    "run": (driver.simulation_report_json, simulation_report_json),
    "compare": (driver.divergence_report_json, divergence_report_json),
    "pops": (driver.pops_report_json, pops_report_json),
}


def assert_written_as_oracle(command: str, report, where: str) -> None:
    """``command``'s writer writes ``report`` as ``json.dumps`` lays out
    the oracle's value for it."""

    writer, oracle = REPORTS[command]
    expected = json.dumps(oracle(report), indent=2)
    assert writer(report) == expected, f"{where}: {command} report"


def assert_reports_match_oracle(transcript: Transcript, where: str) -> bool:
    """Every report a command makes of ``transcript`` is written as the
    oracle's value for it: ``run`` under each of ``MODELS``, ``compare``
    with the cache at each capacity, and ``pops``. Returns False when
    defect 4b stopped ``pops``, so that it has no report to check."""

    for kind, capacity in MODELS:
        label = f"{where} {kind.value} at capacity {capacity}"
        assert_written_as_oracle("run", replay(transcript, kind, capacity), label)
        if kind is ModelKind.CACHE:
            assert_written_as_oracle("compare", compare_transcript(transcript, capacity), label)
    try:
        report = classify_corpus(transcript)
    except ValueError as error:  # defect 4b
        assert "gold antecedent not among candidates" in str(error)
        return False
    assert_written_as_oracle("pops", report, where)
    return True
