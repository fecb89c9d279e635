"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

from contextlib import contextmanager

import propsuite
from attnsim.cli import build_parser
from attnsim.driver import (
    ModelKind,
    classify_corpus,
    compare_transcript,
    replay,
)
from attnsim.resolution import (
    FailureReason,
    IRUFunction,
    Outcome,
    OutcomeKind,
    PopClassification,
)

from conftest import load_fixture


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}")
        raise
    print(f"criterion {number}: PASS - {summary}")


def test_criterion_1_dialogue_a_fidelity():
    with criterion(1, "dialogue A: no divergence, both anaphors immediate, effort 0"):
        transcript = load_fixture("dialogue_a.dlg")
        report = compare_transcript(transcript)
        assert not any(row.diverges for row in report.per_mention)
        rows = {row.mention_id: row for row in report.per_mention}
        for outcome in (rows["her"].stack_outcome, rows["her"].cache_outcome):
            assert outcome == Outcome.immediate("daughter")
        for outcome in (rows["ell_8a"].stack_outcome, rows["ell_8a"].cache_outcome):
            assert outcome == Outcome.immediate("p1")
        for model in (ModelKind.STACK, ModelKind.CACHE):
            resolved = {
                res.mention_id: res for _, res in replay(transcript, model).resolutions
            }
            assert resolved["her"].correct and resolved["ell_8a"].correct
        assert report.cache_effort == 0


def test_criterion_2_dialogue_b_divergence():
    with criterion(2, "dialogue B: stack blind to the longer interruption, cache not"):
        dialogue_a = load_fixture("dialogue_a.dlg")
        dialogue_b = load_fixture("dialogue_b.dlg")
        stack_a = {
            res.mention_id: res.outcome
            for _, res in replay(dialogue_a, ModelKind.STACK).resolutions
        }
        stack_b = {
            res.mention_id: res.outcome
            for _, res in replay(dialogue_b, ModelKind.STACK).resolutions
        }
        for mention_id in ("her", "ell_8a"):
            assert stack_a[mention_id] == stack_b[mention_id]
        cache_b = {
            res.mention_id: res.outcome
            for _, res in replay(dialogue_b, ModelKind.CACHE, capacity=7).resolutions
        }
        assert cache_b["ell_8a"].kind is OutcomeKind.FAILURE
        assert cache_b["ell_8a"].reason is FailureReason.SURFACE_FORM_LOST
        assert cache_b["her"].kind is OutcomeKind.AFTER_RETRIEVAL
        assert cache_b["her"].item == "daughter"


def test_criterion_3_dialogue_c_iru_function():
    with criterion(3, "dialogue C: stack predicts nothing for the restatements"):
        transcript = load_fixture("dialogue_c.dlg")
        stack_findings = {
            f.utterance_id: f
            for f in replay(transcript, ModelKind.STACK).iru_findings
        }
        cache_findings = {
            f.utterance_id: f
            for f in replay(transcript, ModelKind.CACHE, capacity=7).iru_findings
        }
        for utt_id in ("22b", "22c"):
            assert stack_findings[utt_id].no_predicted_function
            assert cache_findings[utt_id].functions, "cache findings must be nonempty"
            for _, function in cache_findings[utt_id].functions:
                assert function in (
                    IRUFunction.RETRIEVE_FROM_MEMORY,
                    IRUFunction.REINSTANTIATE,
                )


def test_criterion_4_return_pop_statistics():
    with criterion(4, "return pops: histogram 10/5/2/2/2/0, stages 21-11-6-4-2, 17, 6"):
        report = classify_corpus(load_fixture("return_pops.dlg"))
        assert report.histogram == {
            PopClassification.PRONOUN_SUFFICIENT: 10,
            PopClassification.VERB_FRAME_RESOLVED: 5,
            PopClassification.DIALOGUE_CONSTRAINT_RESOLVED: 2,
            PopClassification.IRU_RESOLVED: 2,
            PopClassification.CENTRALITY_RESOLVED: 2,
            PopClassification.AMBIGUOUS: 0,
        }
        assert report.stage_counts == {
            "cases": 21,
            "competingAfterAgreement": 11,
            "competingAfterStaticSelection": 6,
            "competingAfterDialogueSelection": 4,
            "competingAfterIru": 2,
        }
        assert report.pronoun_verb_sufficient == 17
        assert report.iru_bearing == 6


def test_criterion_5_capacity_default():
    with criterion(5, "defaults: capacity 7 everywhere, criteria 1-3 hold unflagged"):
        from attnsim.cache_model import DEFAULT_CAPACITY, new_cache

        assert DEFAULT_CAPACITY == 7
        assert new_cache({}).capacity == 7
        args = build_parser().parse_args(["run", "--model", "cache", "x.dlg"])
        assert args.capacity == 7

        # Criteria 1-3 under unmodified defaults.
        report_a = compare_transcript(load_fixture("dialogue_a.dlg"))
        assert not any(row.diverges for row in report_a.per_mention)
        report_b = compare_transcript(load_fixture("dialogue_b.dlg"))
        rows = {row.mention_id: row for row in report_b.per_mention}
        assert rows["ell_8a"].cache_outcome.reason is FailureReason.SURFACE_FORM_LOST
        report_c = compare_transcript(load_fixture("dialogue_c.dlg"))
        assert all(stack_f.no_predicted_function for _, stack_f, _ in report_c.iru_findings)


def test_criterion_6_property_suites():
    with criterion(6, f"property suites over generated traces, seed {propsuite.SEED}"):
        total = propsuite.run_all()
        assert total >= 1000, f"only {total} generated traces"
        print(f"  ({total} generated traces, seed {propsuite.SEED})")
