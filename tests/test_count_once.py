"""Each colouring's colours are counted once, however many callers ask.

`core.colour_counts` counts a colouring's matrix on its first call and keeps
the counts on the colouring. The counting pass, `core._count_matrix`, is
wrapped here in every gallaikit module that binds it, so that a second pass
over the same colouring anywhere in `verify` or the peel would be seen.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from gallaikit import core
from gallaikit.bounds import peel_splitting_process
from gallaikit.cli import main
from gallaikit.constructor import (
    construct_greedy, construct_mindeg3, realize_certificate, write_certificate,
)
from gallaikit.core import (
    balanced_sequence, colour_counts, lex_colouring, read_colouring, write_colouring,
    write_sequence,
)


def run(*args) -> int:
    return main([str(a) for a in args])


def _count_passes(monkeypatch) -> list[int]:
    """The n of each counting pass from now on, in order."""
    passes: list[int] = []
    orig = core._count_matrix

    def counted(col):
        passes.append(col.n)
        return orig(col)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gallaikit" and hasattr(module, "_count_matrix"):
            monkeypatch.setattr(module, "_count_matrix", counted)
    return passes


def _fresh_counts(col) -> list[int]:
    upper = col.matrix[np.triu_indices(col.n, k=1)]
    return np.bincount(upper, minlength=col.k + 1)[1:].tolist()


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("flags", [["--seq"], ["--seq", "--cert"], ["--cert"], []],
                         ids=["seq", "seq-cert", "cert", "target-only"])
def test_k3_verify_counts_once(n, flags, tmp_path, monkeypatch, capsys):
    # at n <= 64 a K3 verify that finds no rainbow triangle prints a Gallai
    # partition: the sequence check, the replay's sequence, the "colours"
    # rung of settle_target and the partition all read the one count
    seq = balanced_sequence(n, 5)
    res = construct_greedy(n, seq)
    assert res.status == "certificate"
    col, cert, seqf = tmp_path / "a.col", tmp_path / "a.cert", tmp_path / "a.seq"
    write_colouring(realize_certificate(res.certificate), col)
    write_certificate(res.certificate, cert)
    write_sequence(seq, seqf)
    given = {"--seq": seqf, "--cert": cert}
    passes = _count_passes(monkeypatch)
    assert run("verify", "--target", "builtin:K3", "--colouring", col,
               *[a for flag in flags for a in (flag, given[flag])]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("PARTITION ") and out[-1] == "OK"
    assert passes == [n]


def test_peel_counts_each_block_once(monkeypatch):
    col = realize_certificate(construct_greedy(90, balanced_sequence(90, 12)).certificate)
    passes = _count_passes(monkeypatch)
    trace = peel_splitting_process(col, 1)
    assert passes == [step.x_before for step in trace.steps]


def test_a_returned_list_is_the_callers_own(monkeypatch):
    col = lex_colouring(balanced_sequence(9, 4))
    passes = _count_passes(monkeypatch)
    first = colour_counts(col)
    want = list(first)
    first[0] += 5
    first.append(7)
    assert colour_counts(col) == want == _fresh_counts(col)
    assert colour_counts(col) is not colour_counts(col)
    assert passes == [9]


def test_cached_counts_equal_a_fresh_count(tmp_path):
    seq = balanced_sequence(30, 7)
    realized = realize_certificate(construct_greedy(30, seq).certificate)
    write_colouring(realized, tmp_path / "a.col")
    made = {
        "lex": lex_colouring(seq),
        "mindeg3": construct_mindeg3(30, seq),
        "realized": realized,
        "read": read_colouring(tmp_path / "a.col"),
        "induced": realized.induced([2, 3, 5, 8, 13, 21, 29]),
    }
    for name, col in made.items():
        assert colour_counts(col) == _fresh_counts(col), name
        assert list(col._counts) == _fresh_counts(col), name
