"""The benchmark's traced run wraps gallaikit functions by name.

`perfbench/spans.py` lists them as (module, function) pairs in TRACED and
MEMORY; `perfbench/run.py --trace 1` patches each one. A renamed or deleted
function would only show up when a traced run fails, so this test resolves
every pair against the package. spans.py imports only the standard library,
so it is loaded by path.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


_MOD = _spans()
PAIRS = sorted({entry[:2] for entry in _MOD.TRACED + _MOD.MEMORY})


def test_lists_are_not_empty():
    assert _MOD.TRACED and _MOD.MEMORY


@pytest.mark.parametrize("module,func", PAIRS, ids=lambda x: x)
def test_traced_function_resolves(module, func):
    assert callable(getattr(importlib.import_module(module), func, None))
