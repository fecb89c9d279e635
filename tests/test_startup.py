"""Start-up and shutdown: importing the CLI loads no module it does not
use, a canonical call never builds the argument parser, and exit skips
the collector's walk of the heap."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIALOGUE = ROOT / "fixtures" / "dialogue_a.dlg"
GOLDEN = ROOT / "tests" / "golden"

# Generating dataclass code needs ``dataclasses`` and, through it,
# ``inspect``; ``pathlib`` is heavy too. argparse imports ``gettext``,
# which imports ``locale``, and building its first parser looks up
# translations; a canonical call reads its arguments without them. Each
# CLI call would pay for them.
UNWANTED = {"dataclasses", "inspect", "pathlib", "argparse", "gettext", "locale"}

# Runs the console script's entry point on the arguments after the first,
# which is the ``src`` directory to import attnsim from.
ENTRY = (
    "import sys\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "from attnsim.cli import main_entry\n"
    "main_entry()\n"
)


def test_cli_import_loads_none_of_the_unwanted_modules():
    # -S skips ``site``, so no .pth file preloads a module and hides its import.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import attnsim.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    added = set(child.stdout.split())
    assert "attnsim.cli" in added
    assert sorted(added & UNWANTED) == []


def _entry(*args: str, before: str = "") -> subprocess.CompletedProcess:
    # -S skips ``site``, so no .pth file imports argparse behind the CLI's back.
    return subprocess.run(
        [sys.executable, "-S", "-c", before + ENTRY, str(SRC), *args],
        capture_output=True,
        encoding="utf-8",
    )


def test_a_canonical_call_loads_no_parser_and_exits_with_the_heap_frozen():
    # The hook runs at exit, after main_entry and before the last collection.
    hook = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('argparse' in sys.modules, gc.get_freeze_count() > 0,"
        " file=sys.stderr))\n"
    )
    child = _entry("compare", str(DIALOGUE), before=hook)
    golden = (GOLDEN / "dialogue_a.compare.json").read_text(encoding="utf-8")
    assert (child.returncode, child.stdout, child.stderr) == (0, golden, "False True\n")


USAGE = "usage: attnsim run [-h] --model {stack,cache}"
RUN_STACK = (GOLDEN / "dialogue_a.run-stack.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "args, code, out, err",
    [
        (["run", "--cost", "0"], 2, "", USAGE),
        (["run", "-h"], 0, USAGE, ""),
        (["run", "--mod", "stack"], 0, RUN_STACK, ""),
    ],
    ids=["usage-error", "help", "abbreviated"],
)
def test_any_other_call_goes_through_argparse(args, code, out, err):
    child = _entry(*args, str(DIALOGUE))
    assert child.returncode == code
    assert child.stdout.startswith(out) and bool(child.stdout) == bool(out)
    assert child.stderr.startswith(err) and bool(child.stderr) == bool(err)


def test_no_source_file_uses_dataclasses():
    sources = sorted((SRC / "attnsim").glob("*.py"))
    assert sources
    for path in sources:
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name
