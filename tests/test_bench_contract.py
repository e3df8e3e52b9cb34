"""The benchmark's traced run wraps gallaikit functions by name.

`perfbench/spans.py` lists them as (module, function) pairs in TRACED and
MEMORY; `perfbench/run.py --trace 1` patches each one. A renamed or deleted
function would only show up when a traced run fails, so this test resolves
every pair against the package, and reads each result field the benchmark
reads. spans.py imports only the standard library, so it is loaded by path.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gallaikit.bounds import peel_splitting_process
from gallaikit.constructor import construct, construct_greedy
from gallaikit.core import DistributionSequence, TargetGraph, balanced_sequence
from gallaikit.oracle import is_realizable

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


# The benchmark also reads fields off what these functions return:
# make_pool.py a greedy result's status and nodes, spans.py the steps of a
# construct certificate and of a peel trace and the nodes of an oracle
# result, workloads.py an oracle witness matrix and each peel step's fields.
B6K3 = balanced_sequence(6, 3)


def test_greedy_result_has_status_and_nodes():
    res = construct_greedy(6, B6K3, node_budget=100)
    assert res.status == "certificate" and type(res.nodes) is int


def test_construct_result_has_certificate_steps():
    res = construct(TargetGraph.complete(3), 6, B6K3)
    assert len(res.certificate.steps) == 5


def test_oracle_result_has_witness_matrix_and_nodes():
    res = is_realizable(DistributionSequence.of(5, (4, 3, 2, 1)), TargetGraph.complete(3))
    assert np.asarray(res.colouring.matrix).shape == (5, 5) and type(res.nodes) is int


def test_peel_trace_has_steps():
    col = construct(TargetGraph.complete(3), 6, B6K3).colouring
    trace = peel_splitting_process(col, 1)
    assert trace.steps
    for s in trace.steps:
        assert s.x_after == s.x_before - s.t
        assert type(s.base_colours) is tuple and type(s.base_edges + s.base_freq) is int
