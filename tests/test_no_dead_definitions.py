"""No definition in the package goes unused.

Every function, class or method that `src/gallaikit/*.py` defines (dunders
aside) must be named as a whole word at least twice across the `.py` files
of `src`, `tests` and `perfbench`: once where it is defined and at least once
where it is used. A name that occurs only at its definition is dead code.

The word count cannot see an error type that only an `except` names, so
every leaf class of `errors.py` must also appear in a `raise` statement
somewhere in `src/gallaikit`.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gallaikit"


def _defined_names() -> dict[str, str]:
    """Each non-dunder function, class or method name, with where it is defined."""
    names: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def _word_counts() -> Counter:
    words: Counter = Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def test_every_definition_is_used():
    words = _word_counts()
    dead = {name: where for name, where in _defined_names().items() if words[name] < 2}
    assert not dead, f"defined but never used: {dead}"


def _raised_names() -> set[str]:
    """The class names that a `raise X` or `raise X(...)` in the package raises."""
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_error_type_is_raised():
    classes = [node for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    leaves = {node.name for node in classes if node.name not in bases}
    assert leaves, "errors.py defines no error type"
    dead = sorted(leaves - _raised_names())
    assert not dead, f"error types never raised: {dead}"
