"""End-to-end runs, model comparison, corpus classification, and the CLI."""

from __future__ import annotations

import errno
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import attnsim
from attnsim import cache_model, core, driver, stack_model
from attnsim.cli import build_parser, main
from attnsim.core import AccessibilityView, StoreEventKind
from attnsim.driver import (
    ModelKind,
    build_cases,
    classify_corpus,
    compare_transcript,
    divergence_report_json,
    pops_report_json,
    replay,
    run,
    simulation_report_json,
)
from attnsim.resolution import FailureReason, Outcome, OutcomeKind, PopClassification
from attnsim.transcript_io import parse, read_trace, write_trace

import propsuite
from conftest import fixture_path, load_bench_gen, load_fixture


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


def test_records_carry_views_only_when_asked(dialogue_b):
    for model in ModelKind:
        plain = replay(dialogue_b, model)
        viewed = replay(dialogue_b, model, views=True)
        assert all(record.view is None for record in plain.records)
        assert all(record.view is not None for record in viewed.records)
        assert [r.events_applied for r in plain.records] == [
            r.events_applied for r in viewed.records
        ]
        assert plain.resolutions == viewed.resolutions
        assert plain.iru_findings == viewed.iru_findings
        assert plain.total_effort == viewed.total_effort


FIXTURE_NAMES = ["dialogue_a", "dialogue_b", "dialogue_c", "return_pops"]
# (model, capacity) pairs; the stack ignores capacity.
REPLAY_MODELS = [
    (ModelKind.STACK, None),
    (ModelKind.CACHE, 7),
    (ModelKind.CACHE, 2),
    (ModelKind.CACHE, None),
]
EQUIVALENCE_TEXTS = 120


def _equivalence_transcripts():
    yield from (load_fixture(f"{name}.dlg") for name in FIXTURE_NAMES)
    rng = random.Random(propsuite.SEED + 11)
    for _ in range(EQUIVALENCE_TEXTS):
        yield parse(propsuite.random_transcript_text(rng))


def _outcomes(report):
    # Outcome equality covers its effort.
    return [
        (utt_id, res.mention_id, res.outcome, res.correct)
        for utt_id, res in report.resolutions
    ]


def test_replay_without_candidates_matches_full_candidate_lists():
    """A replay that stops each resolution once its outcome is known gives
    the same outcomes, efforts, correctness, IRU findings and store events
    as one that lists every candidate, and lists none itself."""

    listed = 0
    for number, transcript in enumerate(_equivalence_transcripts()):
        for model, capacity in REPLAY_MODELS:
            where = f"transcript {number}, {model.value} at capacity {capacity}"
            full = replay(transcript, model, capacity)
            lean = replay(transcript, model, capacity, candidates=False)
            assert _outcomes(lean) == _outcomes(full), where
            assert lean.iru_findings == full.iru_findings, where
            assert lean.total_effort == full.total_effort, where
            assert [r.events_applied for r in lean.records] == [
                r.events_applied for r in full.records
            ], where
            assert not any(res.candidates_considered for _, res in lean.resolutions), where
            listed += sum(len(res.candidates_considered) > 1 for _, res in full.resolutions)
    # The full replays did list candidates that the lean ones skipped.
    assert listed > 0


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "propsuite"])
def test_compare_builds_views_only_for_readers(name, monkeypatch):
    """Nothing in ``compare`` reads a snapshot or a candidate list: its
    replays resolve and classify restatements against the models' live
    stores, so they build no ``AccessibilityView``, and every resolution
    stops at its outcome and lists no candidates."""

    if name == "propsuite":
        rng = random.Random(propsuite.SEED)
        transcript = parse(propsuite.random_transcript_text(rng))
    else:
        transcript = load_fixture(f"{name}.dlg")
    built = {"stack": 0, "cache": 0, "snapshot": 0}
    for model_name, module in (("stack", stack_model), ("cache", cache_model)):

        def counting(state, _view=module.view, _name=model_name):
            built[_name] += 1
            return _view(state)

        monkeypatch.setattr(module, "view", counting)
    check = AccessibilityView.__post_init__

    def counting_check(snapshot):
        built["snapshot"] += 1
        check(snapshot)

    monkeypatch.setattr(AccessibilityView, "__post_init__", counting_check)
    resolutions = []

    def recording(*args, _resolve=driver.resolve, **kwargs):
        resolutions.append(_resolve(*args, **kwargs))
        return resolutions[-1]

    monkeypatch.setattr(driver, "resolve", recording)
    compare_transcript(transcript)
    assert built == {"stack": 0, "cache": 0, "snapshot": 0}
    assert len(resolutions) == 2 * len(transcript.mentions())
    assert all(res.candidates_considered == () for res in resolutions)


@pytest.mark.parametrize("source", ["dialogue_b", "replay-long"])
def test_replays_share_one_survivor_set_per_cue_signature(source, monkeypatch):
    # The transcript filters its item table once per distinct cue signature,
    # however many replays of it resolve mentions, and whichever model.
    if source == "dialogue_b":
        transcript = load_fixture("dialogue_b.dlg")
    else:
        gen = load_bench_gen()
        shape = gen.Shape(500, surface_in_segments=False)
        transcript = parse(gen.generate(random.Random(7), shape, "generated")[0])
    calls = []

    def counting(candidates, required, _filter=core.selection_filter):
        calls.append(required)
        return _filter(candidates, required)

    monkeypatch.setattr(core, "selection_filter", counting)
    compare_transcript(transcript)
    replay(transcript, ModelKind.CACHE, capacity=2, views=True)
    replay(transcript, ModelKind.STACK)
    signatures = {
        (m.form, m.gender, m.number, m.required_sel_classes, m.verb_lemma)
        for m in transcript.mentions()
    }
    assert len(signatures) > 1
    assert len(calls) == len(signatures)


def test_compare_lists_every_mention_once(dialogue_a, dialogue_b, dialogue_c, return_pops):
    # Each row pairs one mention's outcomes under the two models, and each
    # IRU triple one utterance's two findings, as the replays give them.
    gen = load_bench_gen()
    text, _ = gen.generate(random.Random(3), gen.Shape(400), "generated")
    for transcript in (dialogue_a, dialogue_b, dialogue_c, return_pops, parse(text)):
        report = compare_transcript(transcript)
        listed = [row.mention_id for row in report.per_mention]
        expected = [mention.id for mention in transcript.mentions()]
        assert listed == expected
        stack = replay(transcript, ModelKind.STACK, candidates=False)
        cache = replay(transcript, ModelKind.CACHE, candidates=False)
        stack_outcomes = {res.mention_id: res.outcome for _, res in stack.resolutions}
        cache_outcomes = {res.mention_id: res.outcome for _, res in cache.resolutions}
        for row in report.per_mention:
            assert row.stack_outcome == stack_outcomes[row.mention_id]
            assert row.cache_outcome == cache_outcomes[row.mention_id]
        stack_findings = {f.utterance_id: f for f in stack.iru_findings}
        cache_findings = {f.utterance_id: f for f in cache.iru_findings}
        restated = [utt.id for utt in transcript.utterances if utt.iru_antecedents]
        assert [utt_id for utt_id, _, _ in report.iru_findings] == restated
        for utt_id, stack_finding, cache_finding in report.iru_findings:
            assert stack_finding == stack_findings[utt_id]
            assert cache_finding == cache_findings[utt_id]


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
        assert classify_return_pop(case, trace) is classify_return_pop(case, trace)


def _scanned_candidates(transcript, record, gold):
    """A case's candidates by a scan of every utterance in its span, from
    the earlier of the push and the gold's introduction to the return: each
    entity realized there and introduced there, in order of first
    realization."""

    start = min(transcript.push_positions[record.segment_id], gold.introduced_at)
    stop = record.return_position
    found = {}
    for utt in transcript.utterances[start:stop]:
        for item_id in utt.items:
            item = transcript.item_table[item_id]
            if item.kind is core.ItemKind.ENTITY and start <= item.introduced_at < stop:
                found.setdefault(item_id, item)
    return tuple(found.values())


def test_build_cases_matches_a_scan_of_each_span():
    gen = load_bench_gen()
    transcripts = [load_fixture(f"{name}.dlg") for name in FIXTURE_NAMES]
    for seed in range(3):
        for outside in (0.0, 0.25):
            shape = gen.Shape(120, block=12, case_gold_outside=outside)
            transcripts.append(parse(gen.generate(random.Random(seed), shape, "g")[0]))
    widened = set()  # whether a transcript has a case whose gold precedes the push
    for transcript in transcripts:
        mentions = {mention.id: mention for mention in transcript.mentions()}
        golds = [
            transcript.item_table[mentions[record.mention_id].gold_antecedent]
            for record in transcript.cases
        ]
        expected = [
            _scanned_candidates(transcript, record, gold)
            for record, gold in zip(transcript.cases, golds)
        ]
        assert [case.candidates_at_return for case in build_cases(transcript)] == expected
        for gold, candidates in zip(golds, expected):
            assert gold in candidates
        widened.add(
            any(
                gold.introduced_at < transcript.push_positions[record.segment_id]
                for record, gold in zip(transcript.cases, golds)
            )
        )
    assert widened == {True, False}


def test_pops_corpus_runs_under_both_models(return_pops):
    # The corpus is an ordinary transcript; replays must not fault.
    stack_report = replay(return_pops, ModelKind.STACK)
    cache_report = replay(return_pops, ModelKind.CACHE)
    assert len(stack_report.records) == len(return_pops.utterances)
    assert cache_report.total_effort >= 0


def test_run_writes_requested_trace(tmp_path, dialogue_a):
    trace_path = tmp_path / "a.trace.json"
    report = run(ModelKind.CACHE, str(fixture_path("dialogue_a.dlg")), 7, 1, str(trace_path))
    assert trace_path.exists()
    assert read_trace(trace_path.read_text(encoding="utf-8")) == list(report.records)


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


def test_cli_writes_a_trace_larger_than_its_slices(tmp_path, capsys):
    # At cache inf every entity stays immediate, so the trace grows with the
    # square of the length: past 2 MiB, over seven blocks of records.
    lines = ["DIALOGUE big"]
    for utterance in range(400):
        lines.append(f"UTT u{utterance} speaker={'AB'[utterance % 2]}")
        lines += [f"ITEM e{utterance}x{k} kind=entity gender=n num=sg" for k in range(2)]
    source = tmp_path / "big.dlg"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trace = tmp_path / "big.trace.json"
    argv = ["run", "--model", "cache", "--capacity", "inf", "--trace", str(trace)]
    assert main([*argv, str(source)]) == 0
    records = replay(parse(source.read_text(encoding="utf-8")), ModelKind.CACHE, None, views=True)
    expected = write_trace(records.records).encode("utf-8")
    assert len(expected) > 2 << 20
    assert trace.read_bytes() == expected
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_trace_on_full_device_exits_3(capsys):
    argv = ["run", "--model", "cache", "--capacity", "inf", "--trace", "/dev/full"]
    assert main([*argv, str(fixture_path("dialogue_a.dlg"))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "output error: /dev/full: No space left on device\n"


def test_cli_unwritable_trace_path_exits_3(tmp_path, capsys):
    trace = tmp_path / "no" / "such" / "dir" / "t.json"
    argv = ["run", "--model", "cache", "--trace", str(trace)]
    assert main([*argv, str(fixture_path("dialogue_a.dlg"))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output error: {trace}: No such file or directory\n"


def test_cli_run_reports_json(capsys):
    code = main(["run", "--model", "stack", str(fixture_path("dialogue_a.dlg"))])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "stack"
    assert payload["totalEffort"] == 0
    assert {r["mentionId"] for r in payload["resolutions"]} == {"her", "ell_8a"}


def test_cli_accepts_the_least_capacity_and_cost(capsys):
    argv = ["run", "--model", "cache", "--capacity", "1", "--cost", "1"]
    assert main([*argv, str(fixture_path("dialogue_b.dlg"))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["capacity"], payload["retrievalCost"]) == (1, 1)


@pytest.mark.parametrize(
    "argv, missing",
    [([], "command"), (["run", str(fixture_path("dialogue_a.dlg"))], "--model")],
)
def test_cli_missing_required_argument_is_a_usage_error(argv, missing, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: attnsim")
    assert f"the following arguments are required: {missing}" in captured.err


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
    bad.write_text("DIALOGUE t\nPSH S2\n", encoding="utf-8")
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


@pytest.mark.parametrize(
    "argv", [["compare"], ["pops"], ["run", "--model", "cache"]], ids=" ".join
)
def test_cli_reads_a_file_with_a_byte_order_mark(argv, tmp_path, capsys):
    # Windows editors may save UTF-8 with a leading EF BB BF.
    fixture = fixture_path("dialogue_a.dlg")
    marked = tmp_path / "dialogue_a.dlg"
    marked.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
    assert main([*argv, str(fixture)]) == 0
    expected = capsys.readouterr()
    assert main([*argv, str(marked)]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("mark", [b"\xef", b"\xef\xbb"], ids=["EF", "EF-BB"])
def test_cli_cut_off_byte_order_mark_exits_3(mark, tmp_path, capsys):
    # A mark cut short is not a mark: the file is not UTF-8 text.
    cut = tmp_path / "cut.dlg"
    cut.write_bytes(mark)
    assert main(["compare", str(cut)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {cut}: ")
    assert "'utf-8' codec can't decode" in err


def test_cli_directory_as_file_exits_3(tmp_path, capsys):
    assert main(["pops", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"input error: {tmp_path}: ")


def _cli_child(command, stdout, prefix=()):
    """Run ``attnsim`` on return_pops.dlg in a child whose stdout is given."""

    src = str(Path(attnsim.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    argv = [sys.executable, "-m", "attnsim.cli", *command, str(fixture_path("return_pops.dlg"))]
    return subprocess.run(
        [*prefix, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60
    )


@pytest.mark.parametrize("command", [["compare"], ["pops"], ["run", "--model", "stack"]])
def test_cli_closed_stdout_exits_3(command):
    # A child whose stdout is a pipe that nobody reads any more.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _cli_child(command, write_end)
    finally:
        os.close(write_end)
    # One line: no traceback, and no "Exception ignored" from the flush at exit.
    assert child.returncode == 3
    assert child.stderr.decode("utf-8") == "output error: <stdout>: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_stdout_on_full_device_exits_3():
    with open("/dev/full", "wb") as full:
        child = _cli_child(["compare"], full)
    assert child.returncode == 3
    assert child.stderr.decode("utf-8") == "output error: <stdout>: No space left on device\n"


@pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell")
def test_cli_without_stdout_descriptor_exits_3():
    # The shell closes descriptor 1 before Python starts, so sys.stdout is None.
    child = _cli_child(["compare"], None, prefix=["sh", "-c", 'exec >&- && exec "$@"', "sh"])
    assert child.returncode == 3
    assert child.stderr.decode("utf-8") == (
        f"output error: <stdout>: {os.strerror(errno.EBADF)}\n"
    )


class _FlushFails:
    """A stdout with its own descriptor that takes every write and fails
    every flush with ENOSPC, as a full device does once its buffer fills."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.written: list[str] = []

    def write(self, text: str) -> int:
        self.written.append(text)
        return len(text)

    def flush(self) -> None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self) -> int:
        return self.fd


def test_cli_stdout_that_fails_on_flush_exits_3(tmp_path, capsys, monkeypatch):
    # In process: the stand-in's own descriptor is pointed at devnull, never
    # pytest's descriptor 1. A small report, so only the flush fails.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout = _FlushFails(fd)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["compare", str(fixture_path("dialogue_a.dlg"))]) == 3
        assert "".join(stdout.written).startswith('{\n  "dialogueId": ')
        assert capsys.readouterr().err == (
            f"output error: <stdout>: {os.strerror(errno.ENOSPC)}\n"
        )
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


@pytest.mark.parametrize("cost", ["0", "-1", "x", "1.5"])
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
    assert "_cost" not in captured.err and "_capacity" not in captured.err


@pytest.mark.parametrize("capacity", ["0", "-3", "abc", "1.5"])
@pytest.mark.parametrize(
    "fixture", ["dialogue_a.dlg", "dialogue_b.dlg", "dialogue_c.dlg", "return_pops.dlg"]
)
def test_cli_capacity_below_one_is_a_usage_error(fixture, capacity, capsys):
    argv = ["run", "--model", "cache", "--capacity", capacity, str(fixture_path(fixture))]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capacity must be positive or 'inf'" in captured.err
    assert "_cost" not in captured.err and "_capacity" not in captured.err


@pytest.mark.parametrize("cost", [0, -1])
def test_cost_below_one_is_rejected_in_process(cost, dialogue_b):
    with pytest.raises(ValueError, match="retrieval cost"):
        run(ModelKind.CACHE, str(fixture_path("dialogue_b.dlg")), 7, cost, None)
    with pytest.raises(ValueError, match="retrieval cost"):
        replay(dialogue_b, ModelKind.CACHE, retrieval_cost=cost)
    with pytest.raises(ValueError, match="retrieval cost"):
        compare_transcript(dialogue_b, retrieval_cost=cost)


@pytest.mark.parametrize("capacity", [0, -1])
def test_capacity_below_one_is_rejected_in_process(capacity, dialogue_b):
    # The state's one constructor checks, whichever name builds it.
    assert cache_model.new_cache is cache_model.CacheState
    for build in (
        lambda: cache_model.CacheState(dialogue_b.item_table, capacity),
        lambda: cache_model.new_cache(dialogue_b.item_table, capacity),
        lambda: replay(dialogue_b, ModelKind.CACHE, capacity),
        lambda: compare_transcript(dialogue_b, capacity),
    ):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == "capacity must be positive or None"


def test_cli_case_gold_before_the_push_classifies(tmp_path, capsys):
    # The gold antecedent, "old", was introduced before S1 was pushed, so
    # the case's window opens at "old": it competes with "new".
    path = tmp_path / "outside.dlg"
    path.write_text(
        "DIALOGUE t\nUTT u1 speaker=A\nITEM old kind=entity gender=f num=sg\n"
        "PUSH S1\nUTT u2 speaker=B\nITEM new kind=entity gender=f num=sg\n"
        "PUSH S2\nUTT u3 speaker=A\nRETURN S1\nCASE c1 mention=p\n"
        "UTT u4 speaker=B\nPRON p gender=f num=sg gold=old\n",
        encoding="utf-8",
    )
    assert main(["pops", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (case,) = json.loads(captured.out)["cases"]
    assert case["candidates"] == ["old", "new"]
    assert case["classification"] == "CentralityResolved"


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
    sim = json.loads(simulation_report_json(replay(dialogue_b, ModelKind.CACHE)))
    assert list(sim)[:2] == ["dialogueId", "model"]
    assert sim["capacity"] == 7
    div = json.loads(divergence_report_json(compare_transcript(dialogue_b)))
    assert {row["mentionId"] for row in div["perMention"]} == {"her", "ell_8a"}
    pops_payload = json.loads(pops_report_json(classify_corpus(return_pops)))
    assert pops_payload["pronounVerbSufficient"] == 17


def test_infinite_cache_view_covers_stack_view_on_fixtures(
    dialogue_a, dialogue_b, dialogue_c, return_pops
):
    for transcript in (dialogue_a, dialogue_b, dialogue_c, return_pops):
        cache_report = replay(transcript, ModelKind.CACHE, capacity=None, views=True)
        stack_report = replay(transcript, ModelKind.STACK, views=True)
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


# A resumed segment whose surface form was discarded during the
# interruption: the return's cue must not ask for the lost record.
RETURN_AFTER_DISCARD = """\
DIALOGUE return_after_discard
PUSH S1 expect-return
UTT u1 speaker=A
ITEM p1 kind=prop pred=lift gender=n num=sg
ITEM s1 kind=surface realizes=p1
PUSH S2
UTT u2 speaker=B
ITEM e1 kind=entity gender=m num=sg
ITEM e2 kind=entity gender=f num=sg
ITEM e3 kind=entity gender=m num=pl
RETURN S1
UTT u3 speaker=A
PRON it gender=n num=sg gold=p1
"""


def test_return_cue_skips_discarded_surface_forms(tmp_path, capsys):
    path = tmp_path / "return_after_discard.dlg"
    path.write_text(RETURN_AFTER_DISCARD, encoding="utf-8")
    assert main(["run", "--model", "cache", "--capacity", "2", str(path)]) == 0
    capsys.readouterr()

    transcript = parse(RETURN_AFTER_DISCARD)
    report = replay(transcript, ModelKind.CACHE, capacity=2, views=True)
    returned = report.records[2]
    assert "s1" in returned.view.lost
    retrieved = [
        e.target for e in returned.events_applied if e.kind is StoreEventKind.RETRIEVE
    ]
    assert retrieved == ["p1"]
    (_, resolution), = report.resolutions
    assert resolution.outcome == Outcome.immediate("p1")
