"""CLI outputs on generated transcripts, pinned by digest.

The fixtures are too small to reach the retrievable tier at scale, so the
benchmark's generator (``bench/gen.py``, imported, not changed) writes
three longer transcripts from fixed seeds. ``tests/golden/generated_outputs.txt``
holds one line per (input, command): the exit code and the sha256 of
stdout. To re-record after a deliberate change of an output shape:

    PYTHONPATH=src python tests/test_generated_golden.py > tests/golden/generated_outputs.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from attnsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "generated_outputs.txt"


def _load_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


_gen = _load_gen()

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


@lru_cache(maxsize=None)
def _input_path(name: str, directory: Path) -> Path:
    text, _ = _gen.generate(random.Random(f"golden:{name}"), INPUTS[name], name)
    path = directory / f"{name}.dlg"
    path.write_text(text, encoding="utf-8")
    return path


def output_line(name: str, command: str, directory: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[command], str(_input_path(name, directory))])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return f"{name} {command} exit={code} {digest}"


def _recorded() -> dict[tuple[str, str], str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        for name in INPUTS:
            for command in COMMANDS:
                print(output_line(name, command, Path(directory)))
