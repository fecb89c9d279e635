"""Start-up: importing the CLI loads no module it does not use."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Generating dataclass code needs ``dataclasses`` and, through it,
# ``inspect``; ``pathlib`` is heavy too. Each CLI call would pay for them.
UNWANTED = {"dataclasses", "inspect", "pathlib"}


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


def test_no_source_file_uses_dataclasses():
    sources = sorted((SRC / "attnsim").glob("*.py"))
    assert sources
    for path in sources:
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name
