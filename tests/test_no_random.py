"""No module of the package draws random numbers.

Every search returns the lexicographically least witness, so every command
is deterministic and takes no seed. Each `src/gallaikit/*.py` is parsed with
`ast`: it may not import `random` or `numpy.random`, nor read `.random` off
numpy.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gallaikit"
MODULES = sorted(PACKAGE.glob("*.py"))
RANDOM = {"random", "numpy.random"}


def _random_uses(tree: ast.Module) -> list[int]:
    """Lines that import a random module or read numpy's."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits = [a.name for a in node.names if a.name in RANDOM]
        elif isinstance(node, ast.ImportFrom):
            hits = [node.module] if node.module in RANDOM else []
            if node.module == "numpy":
                hits += [a.name for a in node.names if a.name == "random"]
        elif isinstance(node, ast.Attribute):
            root = node.value
            hits = [node.attr] if (node.attr == "random" and isinstance(root, ast.Name)
                                   and root.id in ("np", "numpy")) else []
        else:
            continue
        if hits:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_randomness(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _random_uses(tree), f"{path.name} uses randomness on lines {_random_uses(tree)}"


def test_catches_every_form():
    src = ("import random\nimport numpy as np\nfrom random import choice\n"
           "from numpy import random as r\nx = np.random.default_rng(0)\n"
           "from .core import degeneracy\ny = rng.random()\n")
    assert _random_uses(ast.parse(src)) == [1, 3, 4, 5]
