"""CLI outputs on generated transcripts, pinned by digest.

The fixtures are too small to reach the retrievable tier at scale, so the
benchmark's generator (``bench/gen.py``, imported, not changed) writes
longer transcripts from fixed seeds. ``tests/golden/generated_outputs.txt``
holds one line per (input, command): the exit code and the sha256 of
stdout. ``tests/golden/generated_traces.txt`` holds the same for the bytes
of each traced run's ``--trace`` file. The same transcripts also feed
``propsuite.assert_unbounded_matches_oversized``, and a transcript of the
benchmark's trace-unbounded shape checks that trace records share unchanged
stores. To re-record after a
deliberate change of an output shape:

    PYTHONPATH=src python tests/test_generated_golden.py > tests/golden/generated_outputs.txt
    PYTHONPATH=src python tests/test_generated_golden.py traces > tests/golden/generated_traces.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import propsuite
from attnsim.cli import main
from attnsim.driver import ModelKind, replay
from attnsim.transcript_io import parse
from conftest import load_bench_gen

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "generated_outputs.txt"
TRACE_GOLDEN = ROOT / "tests" / "golden" / "generated_traces.txt"


_gen = load_bench_gen()

INPUTS = {
    # replay-long's shape: surface forms stay in the root segment.
    "replay-long-500": _gen.Shape(500, surface_in_segments=False),
    "surfaces-in-segments-400": _gen.Shape(400),
    "short-block12-60": _gen.Shape(60, block=12),
}

COMMANDS = {
    "compare": ["compare"],
    "pops": ["pops"],
    "run-stack": ["run", "--model", "stack"],
    "run-cache": ["run", "--model", "cache"],
    "run-cache-cap2": ["run", "--model", "cache", "--capacity", "2", "--cost", "3"],
    "run-cache-inf": ["run", "--model", "cache", "--capacity", "inf"],
}

TRACE_INPUTS = {
    # trace-unbounded's shape (bench/run.py), at a fifth of its length.
    "trace-unbounded-200": _gen.Shape(200, case_gold_outside=0.25),
    "root-surfaces-200": _gen.Shape(200, surface_in_segments=False),
}

TRACE_COMMANDS = ("run-cache-inf", "run-cache-cap2", "run-cache", "run-stack")


@lru_cache(maxsize=None)
def _input_path(name: str, directory: Path) -> Path:
    shape = INPUTS[name] if name in INPUTS else TRACE_INPUTS[name]
    text, _ = _gen.generate(random.Random(f"golden:{name}"), shape, name)
    path = directory / f"{name}.dlg"
    path.write_text(text, encoding="utf-8")
    return path


def output_line(name: str, command: str, directory: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], str(_input_path(name, directory))])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return f"{name} {command} exit={code} {digest}"


def trace_line(name: str, command: str, directory: Path) -> str:
    """The exit code and the sha256 of the ``--trace`` file ("-" if the
    run wrote none)."""

    trace = directory / f"{name}.{command}.trace.json"
    trace.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*COMMANDS[command], "--trace", str(trace), str(_input_path(name, directory))])
    digest = hashlib.sha256(trace.read_bytes()).hexdigest() if trace.exists() else "-"
    return f"{name} {command} exit={code} {digest}"


def _recorded(golden: Path = GOLDEN) -> dict[tuple[str, str], str]:
    lines = golden.read_text(encoding="utf-8").splitlines()
    return {tuple(line.split()[:2]): line for line in lines}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", INPUTS)
def test_generated_output_matches_golden(name, command, workdir):
    assert output_line(name, command, workdir) == _recorded()[(name, command)]


def test_golden_covers_every_input_and_command():
    assert set(_recorded()) == {(name, command) for name in INPUTS for command in COMMANDS}


@pytest.mark.parametrize("command", TRACE_COMMANDS)
@pytest.mark.parametrize("name", TRACE_INPUTS)
def test_generated_trace_matches_golden(name, command, workdir):
    assert trace_line(name, command, workdir) == _recorded(TRACE_GOLDEN)[(name, command)]


def test_trace_golden_covers_every_input_and_command():
    expected = {(name, command) for name in TRACE_INPUTS for command in TRACE_COMMANDS}
    assert set(_recorded(TRACE_GOLDEN)) == expected


@pytest.mark.parametrize("name", ["short-block12-60", *TRACE_INPUTS])
def test_unbounded_cache_replays_as_an_oversized_one_without_pins(name, workdir):
    transcript = parse(_input_path(name, workdir).read_text(encoding="utf-8"))
    propsuite.assert_unbounded_matches_oversized(transcript, name)


@pytest.fixture(scope="module")
def trace_unbounded():
    # trace-unbounded's shape (bench/run.py) at its full length.
    text, _ = _gen.generate(random.Random(1), _gen.Shape(1000, case_gold_outside=0.25), "t")
    return parse(text)


@pytest.mark.parametrize(
    "model, capacity", [(ModelKind.STACK, None), (ModelKind.CACHE, 7), (ModelKind.CACHE, None)]
)
def test_consecutive_records_share_exactly_the_unchanged_stores(model, capacity, trace_unbounded):
    # A copy per record would multiply the trace's memory: a record's
    # retrievable and lost sets are the previous record's objects exactly
    # when they are equal to them.
    records = replay(trace_unbounded, model, capacity, views=True).records
    for before, after in zip(records, records[1:]):
        for store in ("retrievable", "lost"):
            old, new = getattr(before.view, store), getattr(after.view, store)
            assert (old is new) == (old == new), f"utterance {after.utterance_index}: {store}"


if __name__ == "__main__":
    import tempfile

    inputs, commands, line = (INPUTS, COMMANDS, output_line)
    if sys.argv[1:] == ["traces"]:
        inputs, commands, line = (TRACE_INPUTS, TRACE_COMMANDS, trace_line)
    with tempfile.TemporaryDirectory() as directory:
        for name in inputs:
            for command in commands:
                print(line(name, command, Path(directory)))
