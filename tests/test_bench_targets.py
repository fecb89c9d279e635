"""The benchmark's traced run wraps attnsim functions by the names callers
look them up by (``bench/tracer.py``). A target that no longer resolves
is skipped there without an error, and its per-layer metric reads zero,
so every one of them must resolve here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from attnsim import cli, stack_model

from conftest import fixture_path
from test_golden import COMMANDS, FIXTURES, GOLDEN, TRACED

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    original = stack_model.view
    absent, restore = tracer.Tracer().install()
    try:
        assert stack_model.view is not original
        assert absent == []
    finally:
        restore()
    assert stack_model.view is original


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_reports_print_through_the_wrapped_json_dumps(
    fixture, command, tmp_path, capsys, monkeypatch
):
    # The tracer's cli.json_dumps layer times whatever attnsim.cli's
    # json.dumps does; a report printed another way would read as zero.
    calls = []

    def dumps(*args, **kwargs):
        calls.append(args)
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(cli, "json", load_tracer()._ModuleProxy(json, dumps=dumps))
    argv = list(COMMANDS[command])
    if command in TRACED:
        argv += ["--trace", str(tmp_path / "trace.json")]
    assert cli.main([*argv, str(fixture_path(f"{fixture}.dlg"))]) == 0
    out, _ = capsys.readouterr()
    assert len(calls) == 1
    assert out.encode("utf-8") == (GOLDEN / f"{fixture}.{command}.json").read_bytes()
