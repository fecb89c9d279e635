"""``cli.main`` runs each command with the cyclic garbage collector paused.

The pause is safe because what a command builds holds no reference
cycles, so reference counting frees it; and an in-process caller gets
its own collector state back however the command exits.
"""

from __future__ import annotations

import gc
import random

import pytest

from attnsim import cli
from attnsim.driver import (
    ModelKind,
    classify_corpus,
    compare_transcript,
    divergence_report_json,
    pops_report_json,
    replay,
    simulation_report_json,
)
from attnsim.transcript_io import parse, write_trace

from conftest import fixture_path, load_bench_gen
from propsuite import random_transcript_text

FIXTURES = ("dialogue_a.dlg", "dialogue_b.dlg", "dialogue_c.dlg", "return_pops.dlg")
RANDOM_TEXTS = 20
SEED = 20261019

# (model, capacity): the stack, and the cache at 7, 2 and unbounded.
MODELS = [(ModelKind.STACK, None)] + [(ModelKind.CACHE, c) for c in (7, 2, None)]

# Each exit: argv, with {tmp} standing for a scratch directory, and its code.
DIALOGUE = str(fixture_path("dialogue_a.dlg"))
EXITS = {
    "success": (["compare", DIALOGUE], 0),
    "parse-error": (["compare", "{tmp}/bad.dlg"], 2),
    "usage-error": (["run", "--model", "stack", "--cost", "0", DIALOGUE], 2),
    "missing-file": (["compare", "{tmp}/missing.dlg"], 3),
    "unwritable-trace": (["run", "--model", "cache", "--trace", "{tmp}/no/t.json", DIALOGUE], 3),
    "internal-error": (["compare", DIALOGUE], 1),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the collector on or off; restore it after."""

    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def _exit_code(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exit_:  # argparse's usage errors
        return exit_.code


@pytest.mark.parametrize("exit_name", EXITS)
def test_main_restores_the_collector_state(exit_name, collector, tmp_path, monkeypatch):
    (tmp_path / "bad.dlg").write_text("DIALOGUE t\nFOO\n", encoding="utf-8")
    if exit_name == "internal-error":

        def broken(path):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "compare", broken)
    argv, code = EXITS[exit_name]
    assert _exit_code([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert gc.isenabled() is collector


def test_command_runs_with_the_collector_off(collector, monkeypatch):
    seen = []
    compare = cli.compare

    def recording(path):
        seen.append(gc.isenabled())
        return compare(path)

    monkeypatch.setattr(cli, "compare", recording)
    assert cli.main(["compare", DIALOGUE]) == 0
    assert seen == [False]
    assert gc.isenabled() is collector


def _texts() -> list[str]:
    texts = [fixture_path(name).read_text(encoding="utf-8") for name in FIXTURES]
    gen = load_bench_gen()
    shapes = {  # the replay-long and trace-unbounded shapes, cut short
        "long": gen.Shape(200, surface_in_segments=False),
        "t": gen.Shape(200, case_gold_outside=0.25),
    }
    texts += [gen.generate(random.Random(SEED), shape, name)[0] for name, shape in shapes.items()]
    rng = random.Random(SEED)
    return texts + [random_transcript_text(rng) for _ in range(RANDOM_TEXTS)]


def _command_data(text: str) -> int:
    """Build and drop everything a command builds from ``text``; return
    the number of its return-pop cases whose gold antecedent was said
    before the resumed segment's push."""

    transcript = parse(text)
    for kind, capacity in MODELS:
        report = replay(transcript, kind, capacity, views=True)
        write_trace(report.records)
        simulation_report_json(report)
    divergence_report_json(compare_transcript(transcript))
    report = classify_corpus(transcript)
    pops_report_json(report)
    table, pushes = transcript.item_table, transcript.push_positions
    return sum(
        table[result.case.mention.gold_antecedent].introduced_at < pushes[record.segment_id]
        for record, result in zip(transcript.cases, report.results)
    )


def test_command_data_holds_no_reference_cycles():
    """Parsed transcripts, replays with views, traces and the report
    writers leave no cyclic garbage, so reference counting alone frees
    what a paused command drops. This calls the driver functions, not
    ``cli.main``: argparse's parser holds cycles of its own, a few hundred
    objects per command."""

    texts = _texts()
    gc.collect()
    gc.disable()
    try:
        widened = sum(map(_command_data, texts))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert widened  # the inputs reach a case window that opens before its push too
