"""Only `core` opens a file to read it.

What a data line, a comment and an integer are is decided once, in `core`
(`data_lines`, `int_tokens`, `colouring_rows`); every other module reads its
files through them. Each `src/gallaikit/*.py` other than `core.py` is parsed
with `ast`: it may call `open` (a name or a method) only with a literal
mode that writes, appends or creates, and may not call `read_text` or
`read_bytes`.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gallaikit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")


def _mode(call: ast.Call, position: int):
    """The mode argument of call, None when it is not given."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return call.args[position] if len(call.args) > position else None


def _reads(tree: ast.Module) -> list[int]:
    """Lines that open a file for reading, or may."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_text", "read_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode); path.open(mode)
            mode = _mode(node, 1 if isinstance(func, ast.Name) else 0)
            writes = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                      and set(mode.value) & set("wax"))
            if not writes:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_reads_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _reads(tree), f"{path.name} opens a file to read it on lines {_reads(tree)}"


def test_catches_every_form():
    src = ('open(p)\nopen(p, "r")\nopen(p, mode="rb")\nopen(p, m)\np.open()\np.read_text()\n'
           'open(p, "w")\nopen(p, "wb")\nopen(p, mode="a")\np.open("x")\nos.open\n')
    assert _reads(ast.parse(src)) == [1, 2, 3, 4, 5, 6]
