"""End-to-end runs, model comparison, corpus classification, and the CLI."""

from __future__ import annotations

import json

import pytest

from attnsim.cli import build_parser, main
from attnsim.driver import (
    ModelKind,
    RunConfig,
    classify_corpus,
    compare_transcript,
    divergence_report_json,
    pops_report_json,
    replay,
    run,
    simulation_report_json,
)
from attnsim.resolution import FailureReason, Outcome, OutcomeKind, PopClassification
from attnsim.transcript_io import read_trace

from conftest import fixture_path


def test_run_stack_dialogue_a(dialogue_a):
    report = replay(dialogue_a, ModelKind.STACK)
    by_mention = {res.mention_id: res for _, res in report.resolutions}
    assert by_mention["her"].outcome.kind is OutcomeKind.IMMEDIATE
    assert by_mention["ell_8a"].outcome.kind is OutcomeKind.IMMEDIATE
    assert all(res.correct for res in by_mention.values())
    assert report.total_effort == 0


def test_run_cache_dialogue_b(dialogue_b):
    report = replay(dialogue_b, ModelKind.CACHE, capacity=7)
    by_mention = {res.mention_id: res for _, res in report.resolutions}
    assert by_mention["ell_8a"].outcome == Outcome.failure(FailureReason.SURFACE_FORM_LOST)
    assert by_mention["her"].outcome == Outcome.after_retrieval("daughter", 1)
    assert report.total_effort == 1


def test_cache_trace_dialogue_a(dialogue_a):
    report = replay(dialogue_a, ModelKind.CACHE)
    assert len(report.records) == 8
    assert report.records[-1].cumulative_effort == 0


def test_compare_dialogue_a_has_no_divergence(dialogue_a):
    report = compare_transcript(dialogue_a)
    assert len(report.per_mention) == 2
    assert not any(row.diverges for row in report.per_mention)
    assert report.cache_effort == 0


def test_compare_dialogue_b_diverges_at_8a(dialogue_b):
    report = compare_transcript(dialogue_b)
    rows = {row.mention_id: row for row in report.per_mention}
    ellipsis = rows["ell_8a"]
    assert ellipsis.diverges
    assert ellipsis.stack_outcome.kind is OutcomeKind.IMMEDIATE
    assert ellipsis.cache_outcome.kind is OutcomeKind.FAILURE
    her = rows["her"]
    assert her.diverges
    assert her.stack_outcome == Outcome.immediate("daughter")
    assert her.cache_outcome.kind is OutcomeKind.AFTER_RETRIEVAL


def test_compare_dialogue_c_iru_findings(dialogue_c):
    report = compare_transcript(dialogue_c)
    assert [utt_id for utt_id, _, _ in report.iru_findings] == ["22b", "22c"]
    for _, stack_finding, cache_finding in report.iru_findings:
        assert stack_finding.no_predicted_function
        assert all(fn.value == "RefreshInCache" for _, fn in stack_finding.functions)
        assert all(
            fn.value in ("RetrieveFromMemory", "Reinstantiate")
            for _, fn in cache_finding.functions
        )


def test_compare_lists_every_mention_once(dialogue_b, return_pops):
    for transcript in (dialogue_b, return_pops):
        report = compare_transcript(transcript)
        listed = [row.mention_id for row in report.per_mention]
        expected = [mention.id for mention in transcript.mentions()]
        assert listed == expected


def test_pops_histogram_and_stage_counts(return_pops):
    report = classify_corpus(return_pops)
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


def test_cascade_stages_narrow_monotonically(return_pops):
    from attnsim.driver import build_cases
    from attnsim.resolution import cascade_survivors, classify_return_pop

    for case in build_cases(return_pops):
        trace = cascade_survivors(case)
        stage1 = set(trace.after_agreement)
        stage2 = set(trace.after_static_selection)
        stage3 = set(trace.after_dialogue_selection)
        assert stage3 <= stage2 <= stage1
        assert classify_return_pop(case) is classify_return_pop(case)


def test_pops_corpus_runs_under_both_models(return_pops):
    # The corpus is an ordinary transcript; replays must not fault.
    stack_report = replay(return_pops, ModelKind.STACK)
    cache_report = replay(return_pops, ModelKind.CACHE)
    assert len(stack_report.records) == len(return_pops.utterances)
    assert cache_report.total_effort >= 0


def test_run_writes_requested_trace(tmp_path, dialogue_a):
    trace_path = tmp_path / "a.trace.json"
    config = RunConfig(
        model_kind=ModelKind.CACHE,
        transcript_path=str(fixture_path("dialogue_a.dlg")),
        trace_out_path=str(trace_path),
    )
    report = run(config)
    assert trace_path.exists()
    assert read_trace(trace_path.read_text()) == list(report.records)


def test_identical_invocations_are_byte_identical(tmp_path):
    paths = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(
            [
                "run",
                "--model",
                "cache",
                "--trace",
                str(out),
                str(fixture_path("dialogue_b.dlg")),
            ]
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_cli_run_reports_json(capsys):
    code = main(["run", "--model", "stack", str(fixture_path("dialogue_a.dlg"))])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "stack"
    assert payload["totalEffort"] == 0
    assert {r["mentionId"] for r in payload["resolutions"]} == {"her", "ell_8a"}


def test_cli_default_capacity_is_seven():
    args = build_parser().parse_args(
        ["run", "--model", "cache", str(fixture_path("dialogue_a.dlg"))]
    )
    assert args.capacity == 7
    assert args.cost == 1


def test_cli_capacity_accepts_inf():
    args = build_parser().parse_args(
        ["run", "--model", "cache", "--capacity", "inf", "x.dlg"]
    )
    assert args.capacity is None


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.dlg"
    bad.write_text("DIALOGUE t\nPSH S2\n")
    code = main(["run", "--model", "stack", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "PSH" in err and "line 2" in err


def test_cli_missing_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.dlg"
    code = main(["compare", str(missing)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"input error: {missing}: No such file or directory\n"
    )


def test_cli_non_utf8_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.dlg"
    bad.write_bytes(b"DIALOGUE caf\xe9\nUTT 1 speaker=A\n")
    for argv in (["run", "--model", "cache"], ["compare"], ["pops"]):
        code = main([*argv, str(bad)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: ")
        assert "utf-8" in err


def test_cli_directory_as_file_exits_3(tmp_path, capsys):
    assert main(["pops", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"input error: {tmp_path}: ")


@pytest.mark.parametrize("cost", ["0", "-1"])
@pytest.mark.parametrize(
    "fixture", ["dialogue_a.dlg", "dialogue_b.dlg", "dialogue_c.dlg", "return_pops.dlg"]
)
@pytest.mark.parametrize("model", ["stack", "cache"])
def test_cli_cost_below_one_is_a_usage_error(fixture, cost, model, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--model", model, "--cost", cost, str(fixture_path(fixture))])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "retrieval cost must be at least 1" in captured.err


@pytest.mark.parametrize("cost", [0, -1])
def test_cost_below_one_is_rejected_in_process(cost, dialogue_b):
    with pytest.raises(ValueError, match="retrieval cost"):
        RunConfig(
            model_kind=ModelKind.CACHE,
            transcript_path=str(fixture_path("dialogue_b.dlg")),
            retrieval_cost=cost,
        )
    with pytest.raises(ValueError, match="retrieval cost"):
        replay(dialogue_b, ModelKind.CACHE, retrieval_cost=cost)
    with pytest.raises(ValueError, match="retrieval cost"):
        compare_transcript(dialogue_b, retrieval_cost=cost)


def test_cli_compare_and_pops_payloads(capsys):
    assert main(["compare", str(fixture_path("dialogue_b.dlg"))]) == 0
    compared = json.loads(capsys.readouterr().out)
    assert compared["totalEffort"] == {"stack": 0, "cache": 1}

    assert main(["pops", str(fixture_path("return_pops.dlg"))]) == 0
    popped = json.loads(capsys.readouterr().out)
    assert popped["histogram"]["PronounSufficient"] == 10
    assert popped["stageCounts"]["competingAfterIru"] == 2
    assert len(popped["cases"]) == 21


def test_report_json_shapes(dialogue_b, return_pops):
    sim = simulation_report_json(replay(dialogue_b, ModelKind.CACHE))
    assert list(sim)[:2] == ["dialogueId", "model"]
    assert sim["capacity"] == 7
    div = divergence_report_json(compare_transcript(dialogue_b))
    assert {row["mentionId"] for row in div["perMention"]} == {"her", "ell_8a"}
    pops_payload = pops_report_json(classify_corpus(return_pops))
    assert pops_payload["pronounVerbSufficient"] == 17


def test_infinite_cache_view_covers_stack_view_on_fixtures(
    dialogue_a, dialogue_b, dialogue_c, return_pops
):
    for transcript in (dialogue_a, dialogue_b, dialogue_c, return_pops):
        cache_report = replay(transcript, ModelKind.CACHE, capacity=None)
        stack_report = replay(transcript, ModelKind.STACK)
        assert cache_report.total_effort == 0
        for cache_record, stack_record in zip(
            cache_report.records, stack_report.records
        ):
            assert set(cache_record.view.immediate) >= set(stack_record.view.immediate)


def test_infinite_capacity_cli_run(capsys):
    code = main(
        [
            "run",
            "--model",
            "cache",
            "--capacity",
            "inf",
            str(fixture_path("dialogue_b.dlg")),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["capacity"] == "inf"
    assert payload["totalEffort"] == 0
