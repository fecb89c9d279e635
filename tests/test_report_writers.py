"""Each command's report writer writes the bytes ``json.dumps(..., indent=2)``
writes for the report's JSON value, as ``report_oracle`` builds it.

Checked under the stack and the cache at 7, 2 and unbounded, on the
fixtures, on transcripts whose ids need escaping, on generated texts and
on reports no replay needs to make. ``test_trace_writer`` checks the same
on its ``TRANSCRIPTS``.
"""

from __future__ import annotations

import random

import pytest

from attnsim.core import CascadeTrace, Mention, MentionForm
from attnsim.driver import (
    CaseResult,
    DivergenceReport,
    DivergenceRow,
    IRUFinding,
    ModelKind,
    PopsReport,
    SimulationReport,
)
from attnsim.resolution import (
    FailureReason,
    IRUFunction,
    Outcome,
    PopClassification,
    Resolution,
    ReturnPopCase,
)
from attnsim.transcript_io import parse

from conftest import load_fixture
from propsuite import random_transcript_text
from report_oracle import assert_reports_match_oracle, assert_written_as_oracle
from test_trace_writer import ESCAPED, FIXTURES, ONE_ESCAPED

GENERATED_TEXTS = 200
SEED = 20261021


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reports_are_written_as_the_oracle(name):
    assert assert_reports_match_oracle(load_fixture(name), name)


@pytest.mark.parametrize(
    "text", [ESCAPED, *ONE_ESCAPED.values()], ids=["escaped", *ONE_ESCAPED]
)
def test_reports_with_ids_that_need_escaping_are_written_as_the_oracle(text):
    assert_reports_match_oracle(parse(text), "escaping")


def test_generated_reports_are_written_as_the_oracle():
    rng = random.Random(SEED)
    classified = 0
    for trial in range(GENERATED_TEXTS):
        transcript = parse(random_transcript_text(rng))
        classified += assert_reports_match_oracle(transcript, f"text {trial}, seed {SEED}")
    # Defect 4b stops pops on some texts; most still reach the writer.
    assert classified > GENERATED_TEXTS // 2


# Texts whose reports hold empty lists and maps: no utterance, no mention,
# no restatement or CASE, and a restatement of an utterance that said no item.
EMPTY = {
    "no-utterances": "DIALOGUE d\n",
    "no-mentions": "DIALOGUE d\nUTT u1 speaker=A\nITEM a kind=entity gender=f num=sg\n",
    "no-functions": "DIALOGUE d\nUTT u1 speaker=A\nUTT u2 speaker=B iru=u1\n",
}


@pytest.mark.parametrize("text", EMPTY.values(), ids=EMPTY)
def test_empty_parts_are_written_as_the_oracle(text):
    transcript = parse(text)
    assert assert_reports_match_oracle(transcript, "empty")
    assert not transcript.cases and not any(utt.mentions for utt in transcript.utterances)


# Outcomes of every kind, with ids that need escaping: an effort above one
# and every failure reason.
OUTCOMES = [
    Outcome.immediate('i"1'),
    Outcome.after_retrieval("r\\1", 1),
    Outcome.after_retrieval("é𝒳", 3),
] + [Outcome.failure(reason) for reason in FailureReason]
FUNCTIONS = tuple(zip(('a"b', "plain", "é"), IRUFunction))


def test_hand_built_run_reports_are_written_as_the_oracle():
    resolutions = tuple(
        (f"u\t{index}", Resolution(f"m{index}", outcome, ("x", 'y"')[: index % 3], index % 2 == 0))
        for index, outcome in enumerate(OUTCOMES)
    )
    findings = (
        IRUFinding("u1", (), False),
        IRUFinding('u"2', FUNCTIONS, True),
        IRUFinding("u3", FUNCTIONS[:1], False),
    )
    for kind, capacity in ((ModelKind.STACK, None), (ModelKind.CACHE, 3), (ModelKind.CACHE, None)):
        for rows, found in ((resolutions, findings), ((), ()), (resolutions[:1], findings[:1])):
            report = SimulationReport('d"1', kind, capacity, 2, (), rows, found, 7)
            assert_written_as_oracle("run", report, f"{kind.value} {capacity} {len(rows)}")


def test_hand_built_compare_reports_are_written_as_the_oracle():
    rows = tuple(
        DivergenceRow(f"m\\{index}", stack, cache)
        for index, (stack, cache) in enumerate(zip(OUTCOMES, OUTCOMES[1:] + OUTCOMES[:1]))
    ) + (DivergenceRow("same", OUTCOMES[0], OUTCOMES[0]),)
    empty, full = IRUFinding("u1", (), False), IRUFinding("u1", FUNCTIONS, True)
    joined = (("u1", empty, empty), ('u"2', full, empty), ("u3", empty, full))
    for per_mention, findings in ((rows, joined), ((), ()), (rows[-1:], joined[:1])):
        report = DivergenceReport("d", per_mention, findings, 4)
        assert_written_as_oracle("compare", report, f"{len(per_mention)} rows")


def test_hand_built_pops_reports_are_written_as_the_oracle():
    mention = Mention('p"1', MentionForm.PRONOUN, gold_antecedent="a")
    items = tuple(parse(ESCAPED).item_table.values())
    results = tuple(
        CaseResult(
            ReturnPopCase(f"c{index}", mention, items[:index], index % 2 == 0, False),
            classification,
            CascadeTrace(("a", "b")[:index], ("a",), ()),
        )
        for index, classification in enumerate(PopClassification)
    )
    for cases in (results, (), results[:1]):  # the first case has no candidates
        report = PopsReport("d\\1", cases)
        assert_written_as_oracle("pops", report, f"{len(cases)} cases")
