"""The command line decides a target only through verifier.settle_target.

`settle_target` holds the proofs and picks the search, so `cli.py` parsed
with `ast` may not import a rainbow search or proof of its own, nor read one
off a module as an attribute.
"""
from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "gallaikit" / "cli.py"
DECIDERS = {"find_rainbow_clique", "find_rainbow_subgraph", "find_rainbow_triangle",
            "peels_two_colours", "proves_rainbow_free"}


def _decider_uses(tree: ast.Module) -> list[str]:
    """Names of DECIDERS that the module imports or reads as an attribute."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hits += [a.name for a in node.names if a.name in DECIDERS]
        elif isinstance(node, ast.Attribute) and node.attr in DECIDERS:
            hits.append(node.attr)
    return hits


def test_cli_imports_no_search_or_proof():
    uses = _decider_uses(ast.parse(CLI.read_text(encoding="utf-8")))
    assert not uses, f"cli.py decides targets itself with {uses}"


def test_catches_every_form():
    src = ("from .verifier import find_rainbow_clique, settle_target\n"
           "from gallaikit.verifier import peels_two_colours as peel\n"
           "hit = verifier.find_rainbow_subgraph(col, H)\n"
           "settle_target(col, H, False)\n")
    assert _decider_uses(ast.parse(src)) == ["find_rainbow_clique", "peels_two_colours",
                                             "find_rainbow_subgraph"]
