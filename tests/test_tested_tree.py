"""The test session stops when ``PYTHONPATH`` asks for another tree: the
``pythonpath`` setting in ``pyproject.toml`` would otherwise put this
checkout's ``src`` first and test it instead, without a word."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_session(pythonpath: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_startup.py::test_no_source_file_uses_dataclasses"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )


def test_a_session_asked_for_another_tree_stops_naming_both(tmp_path):
    other = tmp_path / "attnsim"
    other.mkdir()
    (other / "__init__.py").write_text("", encoding="utf-8")
    child = run_session(os.pathsep.join([str(tmp_path), "src"]))
    assert child.returncode == 4, child.stdout + child.stderr
    output = child.stdout + child.stderr
    assert str(other) in output
    assert str(ROOT / "src" / "attnsim") in output

