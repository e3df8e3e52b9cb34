"""The lexicographic edge painters against the per-cell loops they replaced.

The reference functions below paint one cell at a time in the order
(1,2), (1,3), ..., (1,n), (2,3), ...; they are the independent statement of
what the mindeg3 peel and the lex fill produce.
"""
import random
from math import comb

import numpy as np
import pytest

from gallaikit.constructor import PeelRecord, construct, construct_mindeg3_trace
from gallaikit.core import (
    Colouring, DistributionSequence, TargetGraph, lex_colouring, mirror_upper, paint_lex,
)
from gallaikit.oracle import REALIZABLE, is_realizable

from conftest import random_composition


def reference_lex(seq: DistributionSequence) -> np.ndarray:
    n = seq.n
    matrix = np.zeros((n, n), dtype=np.int32)
    it = iter([(j + 1, e) for j, e in enumerate(seq.e) if e > 0])
    cur, left = next(it, (0, 0))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            while left == 0:
                cur, left = next(it)
            matrix[u - 1, v - 1] = matrix[v - 1, u - 1] = cur
            left -= 1
    return matrix


def reference_mindeg3(seq: DistributionSequence) -> tuple[np.ndarray, list[PeelRecord]]:
    n = seq.n
    matrix = np.zeros((n, n), dtype=np.int32)
    budgets = {j + 1: e for j, e in enumerate(seq.e) if e > 0}
    active = n
    records = []
    while budgets and active >= 1:
        order = sorted(budgets, key=lambda j: (-budgets[j], j))
        if len(order) == 1:
            c = order[0]
            for u in range(1, active + 1):
                for v in range(u + 1, active + 1):
                    matrix[u - 1, v - 1] = matrix[v - 1, u - 1] = c
            records.append(PeelRecord(1, active, c, c, 0))
            break
        top, bot = order[0], order[-1]
        e_bot = budgets[bot]
        t = 1
        while comb(t, 2) + t * (active - t) < e_bot:
            t += 1
        f = comb(t, 2) + t * (active - t)
        lo = active - t + 1
        left = e_bot
        for u in range(1, active + 1):
            for v in range(max(u + 1, lo), active + 1):
                if left > 0:
                    c = bot
                    left -= 1
                else:
                    c = top
                matrix[u - 1, v - 1] = matrix[v - 1, u - 1] = c
        budgets[top] -= f - e_bot
        del budgets[bot]
        records.append(PeelRecord(lo, active, top, bot, e_bot))
        active -= t
    return matrix, records


def corpus(count: int = 600, seed: int = 20231):
    """Seeded n-good sequences, n in [2, 40], k <= 8, a quarter of them with
    zero budgets scattered among the live colours."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 40)
        k = rng.randint(1, 8)
        live = rng.randint(1, k) if rng.random() < 0.25 else k
        e = list(random_composition(rng, comb(n, 2), live)) + [0] * (k - live)
        rng.shuffle(e)
        yield DistributionSequence(n, k, tuple(e))


def test_lex_colouring_matches_reference():
    for seq in corpus():
        col = lex_colouring(seq)
        assert col.k == seq.k
        assert np.array_equal(col.matrix, reference_lex(seq)), seq


def test_mindeg3_matches_reference():
    checked = 0
    for seq in corpus():
        if seq.n < 2 * sum(1 for x in seq.e if x > 0):
            continue
        col, recs = construct_mindeg3_trace(seq.n, seq)
        matrix, ref_recs = reference_mindeg3(seq)
        assert np.array_equal(col.matrix, matrix), seq
        assert recs == ref_recs, seq
        checked += 1
    assert checked >= 300


def test_trivial_fill_is_lex():
    seq = DistributionSequence.of(3, (1, 0, 2))
    res = construct(TargetGraph.complete(4), 3, seq)
    assert res.strategy == "trivial-fill"
    assert np.array_equal(res.colouring.matrix, reference_lex(seq))


@pytest.mark.parametrize("seq", [
    DistributionSequence.of(5, (10,)),     # K3, k = 1
    DistributionSequence.of(2, (0, 1)),    # K3 does not fit on 2 vertices
])
def test_oracle_shortcuts_return_lex(seq):
    res = is_realizable(seq, TargetGraph.complete(3))
    assert res.status == REALIZABLE
    assert res.colouring == Colouring(seq.n, seq.k, reference_lex(seq))


@pytest.mark.parametrize("length", [8, 10])
def test_paint_lex_rejects_a_stream_of_the_wrong_length(length):
    # columns 3..5 of K5 hold 2*3 + C(3,2) = 9 edges
    with pytest.raises(ValueError):
        paint_lex(np.zeros((5, 5), dtype=np.int32), 3, 5, np.ones(length, np.int32))


def test_paint_lex_paints_the_upper_triangle_only():
    seq = DistributionSequence.of(9, (10, 0, 26))
    matrix = np.zeros((9, 9), dtype=np.int32)
    paint_lex(matrix, 1, 9, np.repeat(np.int32([1, 2, 3]), seq.e))
    assert not np.tril(matrix).any()
    mirror_upper(matrix)
    assert np.array_equal(matrix, reference_lex(seq))
    # columns 4..9 only: 3 * 6 + C(6,2) edges
    matrix = np.zeros((9, 9), dtype=np.int32)
    paint_lex(matrix, 4, 9, np.arange(1, 34, dtype=np.int32))
    assert not np.tril(matrix).any() and not matrix[:, :3].any()
    assert np.count_nonzero(matrix) == 33
