"""Every exception class defined in ``src/attnsim`` is raised there.

A class that no ``raise`` in the package names is a failure the program
can no longer report, so it should go with the check that raised it.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "attnsim"


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unraised_exceptions(sources: dict[str, str]) -> list[str]:
    """``file:class`` for each exception class defined in ``sources`` (file
    name to text) that no ``raise`` in them names, either bare or called."""

    trees = {file: ast.parse(text) for file, text in sources.items()}
    classes = {
        node.name: (file, [_name(base) for base in node.bases])
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name: str | None, seen: frozenset[str] = frozenset()) -> bool:
        if name in classes and name not in seen:
            return any(is_exception(base, seen | {name}) for base in classes[name][1])
        builtin = getattr(builtins, name or "", None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_name(exc))
    return sorted(
        f"{file}:{name}"
        for name, (file, _) in classes.items()
        if is_exception(name) and name not in raised
    )


def test_every_exception_class_in_the_package_is_raised():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unraised_exceptions(sources) == []


def test_a_class_no_raise_names_is_reported():
    sources = {
        "a.py": (
            "class Base(ValueError): pass\n"
            "class Dead(Base): pass\n"
            "class Record: pass\n"
            "def f(x):\n"
            "    raise Base(Record)\n"
        ),
        "b.py": "import a\nclass Used(a.Base): pass\ndef g():\n    raise Used\n",
    }
    assert unraised_exceptions(sources) == ["a.py:Dead"]
