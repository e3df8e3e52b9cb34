"""The lexicographic edge painters against the per-cell loops they replaced.

The reference functions below paint one cell at a time in the order
(1,2), (1,3), ..., (1,n), (2,3), ...; they are the independent statement of
what the mindeg3 peel and the lex fill produce.
"""
import pickle
import random
from itertools import accumulate
from math import comb

import numpy as np
import pytest

from gallaikit import core
from gallaikit.constructor import construct, construct_mindeg3_trace
from gallaikit.core import (
    Colouring, DistributionSequence, TargetGraph, balanced_sequence, lex_colouring, mirror_upper,
    paint_lex, write_colouring,
)
from gallaikit.oracle import REALIZABLE, is_realizable

from conftest import random_composition, random_sequence


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


def reference_mindeg3(seq: DistributionSequence) -> tuple[np.ndarray, list[tuple]]:
    """The peel's matrix cell by cell, and its lex records (lo, hi, colours,
    ends): rare colour first, run ends counted over the record's edges."""
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
            records.append((1, active, (c,), (comb(active, 2),)))
            break
        top, bot = order[0], order[-1]
        e_bot = budgets[bot]
        t = 1
        while comb(t, 2) + t * (active - t) < e_bot:
            t += 1
        f = comb(t, 2) + t * (active - t)
        lo = active - t + 1
        left = e_bot
        edges = 0
        for u in range(1, active + 1):
            for v in range(max(u + 1, lo), active + 1):
                if left > 0:
                    c = bot
                    left -= 1
                else:
                    c = top
                matrix[u - 1, v - 1] = matrix[v - 1, u - 1] = c
                edges += 1
        budgets[top] -= f - e_bot
        del budgets[bot]
        records.append((lo, active, (bot, top), (e_bot, edges)))
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
def test_painted_rejects_a_stream_of_the_wrong_length(length):
    # columns 3..5 of K5 hold 2*3 + C(3,2) = 9 edges
    with pytest.raises(ValueError):
        Colouring.painted(5, 1, [(3, 5, (1,), (length,))])


def test_paint_lex_paints_the_upper_triangle_only():
    seq = DistributionSequence.of(9, (10, 0, 26))
    matrix = np.zeros((9, 9), dtype=np.int32)
    paint_lex(matrix[:-1, 1:], 1, 9, 1, 9, (1, 2, 3), (10, 10, 36))
    assert not np.tril(matrix).any()
    mirror_upper(matrix)
    assert np.array_equal(matrix, reference_lex(seq))
    # columns 4..9 only: 3 * 6 + C(6,2) edges, one colour each
    matrix = np.zeros((9, 9), dtype=np.int32)
    paint_lex(matrix[:-1, 1:], 1, 9, 4, 9, range(1, 34), range(1, 34))
    assert not np.tril(matrix).any() and not matrix[:, :3].any()
    assert np.array_equal(np.sort(matrix[matrix > 0]), np.arange(1, 34))


def test_paint_lex_by_bands_matches_one_pass():
    # rows [a, b) painted alone into an array of their own equal the same
    # rows of one pass over the matrix, wherever the cuts fall
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 30)
        hi = rng.randint(2, n)
        lo = rng.randint(1, hi)
        w = hi - lo + 1
        counts = random_composition(rng, (lo - 1) * w + comb(w, 2), rng.randint(1, 6))
        colours, ends = range(1, len(counts) + 1), list(accumulate(counts))
        whole = np.zeros((n, n), dtype=np.int32)
        paint_lex(whole[:-1, 1:], 1, n, lo, hi, colours, ends)
        cuts = sorted({1, n, *(rng.randint(1, n) for _ in range(rng.randint(0, 4)))})
        for a, b in zip(cuts, cuts[1:]):
            rows = np.zeros((b - a, n - a), dtype=np.int32)
            paint_lex(rows, a, b, lo, hi, colours, ends)
            assert np.array_equal(rows, np.triu(whole[a - 1:b - 1, a:])), (n, lo, hi, counts, a, b)


def test_unpainted_edge_is_never_written(tmp_path):
    # a record for columns 3..5 only leaves (1, 2) unpainted
    col = Colouring.painted(5, 1, [(3, 5, (1,), (9,))])
    with pytest.raises(ValueError, match=r"^edge colours must lie in \[1..k\]$"):
        write_colouring(col, tmp_path / "out.col")
    with pytest.raises(ValueError, match=r"^edge colours must lie in \[1..k\]$"):
        col.matrix


def _painted_and_matrix_bytes(col: Colouring, tmp_path) -> tuple[bytes, bytes]:
    """The bytes written from the painted col, then from its materialised matrix."""
    write_colouring(col, tmp_path / "painted.col")
    write_colouring(Colouring(col.n, col.k, col.matrix), tmp_path / "matrix.col")
    return (tmp_path / "painted.col").read_bytes(), (tmp_path / "matrix.col").read_bytes()


def byte_cases(seed: int = 28):
    """The named mindeg3 cases, then seeded random and balanced sequences with n >= 2k."""
    yield DistributionSequence.of(9, (36,))      # k = 1: a single base fill
    yield balanced_sequence(24, 12)              # n = 2k
    # the rare run of 17 edges fills the 8 x 2 rectangle of record [9..10]
    # and spills into its triangle row 9
    yield DistributionSequence.of(10, (28, 17))
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(2, 60)
        k = rng.randint(1, n // 2)
        yield random_sequence(rng, n, k) if rng.random() < 0.5 else balanced_sequence(n, k)


def test_painted_colouring_pickles():
    col, _ = construct_mindeg3_trace(30, balanced_sequence(30, 9))
    assert pickle.loads(pickle.dumps(col)) == col


def test_spill_case_spills():
    _, recs = construct_mindeg3_trace(10, DistributionSequence.of(10, (28, 17)))
    lo, hi, _, (rare, _) = recs[0]
    assert rare > (lo - 1) * (hi - lo + 1)


@pytest.mark.parametrize("band_cells", [1, 7, 50, 1 << 16])
def test_painted_mindeg3_writes_the_bytes_of_its_matrix(band_cells, tmp_path, monkeypatch):
    # with bands of a few cells, records cross writer-band edges everywhere
    monkeypatch.setattr(core, "_BAND_CELLS", band_cells)
    for seq in byte_cases():
        col, _ = construct_mindeg3_trace(seq.n, seq)
        painted, matrix = _painted_and_matrix_bytes(col, tmp_path)
        assert painted == matrix, seq
        assert np.array_equal(col.matrix, reference_mindeg3(seq)[0]), seq


def test_painted_mindeg3_at_n700_writes_the_bytes_of_its_matrix(tmp_path):
    # about 93 rows a band: the long records of a random k = 30 sequence
    # cross several writer bands, and their triangle rows cross band edges
    seq = random_sequence(random.Random(700), 700, 30)
    col, recs = construct_mindeg3_trace(seq.n, seq)
    bands = list(core._bands(seq.n))
    edges = {v for _, v, _ in bands[:-1]}
    assert len(bands) > 3 and any(lo < v < hi for lo, hi, _, _ in recs for v in edges)
    painted, matrix = _painted_and_matrix_bytes(col, tmp_path)
    assert painted == matrix
    assert np.array_equal(col.matrix, reference_mindeg3(seq)[0])


@pytest.mark.parametrize("band_cells", [3, 1 << 16])
def test_lex_colouring_writes_the_bytes_of_its_matrix(band_cells, tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_BAND_CELLS", band_cells)
    for seq in list(corpus(count=60, seed=28)) + [DistributionSequence.of(2, (0, 1))]:
        painted, matrix = _painted_and_matrix_bytes(lex_colouring(seq), tmp_path)
        assert painted == matrix, seq
