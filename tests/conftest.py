"""Shared helpers: brute-force oracles and random instance generators."""
from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from gallaikit.core import (
    Colouring, DistributionSequence, TargetGraph, colouring_rows, row_colour_counts,
)


def brute_degeneracy(H: TargetGraph) -> int:
    """max over all non-empty vertex subsets of the induced minimum degree."""
    best = 0
    verts = range(1, H.m + 1)
    for r in range(1, H.m + 1):
        for sub in combinations(verts, r):
            inside = set(sub)
            deg = {v: 0 for v in sub}
            for u, v in H.edges:
                if u in inside and v in inside:
                    deg[u] += 1
                    deg[v] += 1
            best = max(best, min(deg.values()))
    return best


def petersen() -> TargetGraph:
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
             (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
             (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return TargetGraph.from_edges(10, edges)


def random_graph(rng: random.Random, m: int, p: float = 0.5) -> TargetGraph:
    edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)
             if rng.random() < p]
    return TargetGraph.from_edges(m, edges)


def counted_colouring(path) -> tuple[int, int, list[int]]:
    """n, k and the colour counts of a .col file, counted as verify --seq
    counts it: row by row, with no matrix."""
    n, k, rows = colouring_rows(path)
    return n, k, row_colour_counts(n, k, rows)


# (text of a malformed .col file, the message after "colouring file PATH: ",
# test id), one per check the colouring parser makes
COLOURING_READER_MESSAGES = [
    ("3 2\n+ 1 1\n1\n", "row 1 holds a token that is not a base-10 integer", "lone-plus"),
    ("3 2\n1 +\n1\n", "row 1 holds a token that is not a base-10 integer", "trailing-plus"),
    ("3 2\n1 1\n-\n", "row 2 holds a token that is not a base-10 integer", "lone-minus"),
    ("3 2\n1 x\n1\n", "row 1 holds a token that is not a base-10 integer", "token-x"),
    ("0 2\n", "header must be 'n k' with integers n >= 1, k >= 1", "n0"),
    ("3 2 9\n1 1\n1\n", "header must be 'n k' with integers n >= 1, k >= 1", "three-tokens"),
    ("3 2.0\n1 1\n1\n", "header must be 'n k' with integers n >= 1, k >= 1", "k-2.0"),
    ("3\n1 1\n1\n", "header must be 'n k' with integers n >= 1, k >= 1", "one-token"),
    ("3 0\n1 1\n1\n", "header must be 'n k' with integers n >= 1, k >= 1", "k0"),
    ("3 1_0\n1 10\n1\n", "header must be 'n k' with integers n >= 1, k >= 1", "k-1_0"),
    ("", "empty", "empty"),
    ("3 2147483648\n1 1\n1\n", "k = 2147483648 exceeds the largest colour 2147483647",
     "k-past-int32"),
    ("3 2\n1 1\n", "expected 2 rows, got 1", "missing-row"),
    ("3 2\n1 1 1\n1\n", "row 1 has 3 entries, expected 2", "long-row"),
    ("3 2\n1 3\n1\n", "row 1 holds a colour outside [1..2]", "colour-past-k"),
    ("3 2\n1 1\n0\n", "row 2 holds a colour outside [1..2]", "colour-0"),
    # np.fromstring saturates an int64 overflow, which stays out of range
    ("3 2\n1 18446744073709551617\n1\n", "row 1 holds a colour outside [1..2]",
     "colour-past-int64"),
]


def random_composition(rng: random.Random, total: int, k: int) -> tuple[int, ...]:
    """Uniform composition of total into k non-negative parts."""
    if k == 1:
        return (total,)
    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(total - prev)
    return tuple(parts)


def random_sequence(rng: random.Random, n: int, k: int) -> DistributionSequence:
    return DistributionSequence(n, k, random_composition(rng, comb(n, 2), k))


def random_colouring(rng: random.Random, n: int, k: int) -> Colouring:
    m = np.zeros((n, n), dtype=np.int32)
    for u in range(n - 1):
        for v in range(u + 1, n):
            c = rng.randint(1, k)
            m[u, v] = c
            m[v, u] = c
    return Colouring(n, k, m)


def moreover_holds(n: int, p) -> bool:
    """Every base colour of the Gallai partition p of K_n covers at least
    n-1 inter-part edges, counted from its between colours and part sizes."""
    use: dict[int, int] = {}
    for (i, j), c in p.between_colour.items():
        use[c] = use.get(c, 0) + len(p.parts[i]) * len(p.parts[j])
    return all(count >= n - 1 for count in use.values())


def _substitute(rng: random.Random, m: np.ndarray, verts: list[int], k: int) -> None:
    """Colour the edges among verts (0-based) by recursive substitution."""
    if len(verts) < 2:
        return
    cuts = sorted(rng.sample(range(1, len(verts)), min(len(verts), rng.randint(2, 6)) - 1))
    parts = [verts[a:b] for a, b in zip([0] + cuts, cuts + [len(verts)])]
    pair = rng.sample(range(1, k + 1), 2)
    for i in range(len(parts) - 1):
        for j in range(i + 1, len(parts)):
            c = rng.choice(pair)
            for u in parts[i]:
                for v in parts[j]:
                    m[u, v] = m[v, u] = c
    for part in parts:
        _substitute(rng, m, part, k)


def seeded_colouring(seed: int) -> Colouring:
    """Substitution colouring (always Gallai) for seeds not divisible by 3,
    else a uniform colouring on 2-4 colours; n is 2-14."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    m = np.zeros((n, n), dtype=np.int32)
    if seed % 3:
        k = rng.randint(2, 6)
        _substitute(rng, m, list(range(n)), k)
    else:
        k = rng.randint(2, 4)
        for u in range(n - 1):
            for v in range(u + 1, n):
                m[u, v] = m[v, u] = rng.randint(1, k)
    return Colouring(n, k, m)


def brute_force_rainbow_triangles(col: Colouring) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in combinations(range(1, col.n + 1), 3):
        cols = {col.colour_of(a, b), col.colour_of(a, c), col.colour_of(b, c)}
        if len(cols) == 3:
            out.append((a, b, c))
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
