"""CLI outputs on the fixtures, byte for byte, against recorded files.

The files under ``tests/golden/`` are the exact stdout of each command
(and the ``--trace`` file of each traced run). Refactors must leave them
untouched; a deliberate change to an output shape rewrites the affected
files in the same change, e.g.

    attnsim run --model cache --trace tests/golden/dialogue_a.cache.trace.json \
        fixtures/dialogue_a.dlg > tests/golden/dialogue_a.run-cache.json
"""

from __future__ import annotations

from pathlib import Path

import pytest

from attnsim.cli import main

from conftest import fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURES = ("dialogue_a", "dialogue_b", "dialogue_c", "return_pops")

COMMANDS = {
    "run-stack": ["run", "--model", "stack"],
    "run-cache": ["run", "--model", "cache"],
    "run-cache-inf": ["run", "--model", "cache", "--capacity", "inf"],
    # Displaces, pins and pays for retrievals even on the short fixtures.
    "run-cache-cap2": ["run", "--model", "cache", "--capacity", "2", "--cost", "3"],
    "compare": ["compare"],
    "pops": ["pops"],
}

# Commands whose --trace file is recorded too, by the model it traces.
TRACED = {
    "run-stack": "stack",
    "run-cache": "cache",
    "run-cache-inf": "cache-inf",
    "run-cache-cap2": "cache-cap2",
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_output_matches_golden(fixture, command, tmp_path, capsys):
    argv = list(COMMANDS[command])
    trace = tmp_path / "trace.json"
    if command in TRACED:
        argv += ["--trace", str(trace)]
    assert main([*argv, str(fixture_path(f"{fixture}.dlg"))]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{fixture}.{command}.json").read_bytes()
    if command in TRACED:
        expected = GOLDEN / f"{fixture}.{TRACED[command]}.trace.json"
        assert trace.read_bytes() == expected.read_bytes()
