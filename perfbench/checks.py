"""Correctness checks of the benchmark's own, kept apart from gallaikit.

Every checker reads the program's output files itself, or takes plain numbers
and arrays, and returns a list of problems: an empty list means the output
passed. Nothing here imports gallaikit, so a fault in the program cannot hide
itself by being shared with its checker.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

# ---------------------------------------------------------------------------
# Sequences and file parsers
# ---------------------------------------------------------------------------


def balanced(n: int, k: int) -> tuple[int, ...]:
    """C(n,2) = qk + r split as k-r entries of q followed by r entries of q+1."""
    q, r = divmod(comb(n, 2), k)
    return (q,) * (k - r) + (q + 1,) * r


def _data_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [ln.strip() for ln in f if ln.strip() and not ln.lstrip().startswith("#")]


def read_colouring_file(path) -> tuple[int, int, np.ndarray]:
    """Parse a .col file (header "n k", then row u holding the colours of
    edges (u, u+1..n)) into a symmetric matrix with a zero diagonal."""
    lines = _data_lines(path)
    n, k = (int(x) for x in lines[0].split())
    if len(lines) != n:
        raise ValueError(f"{path}: {len(lines) - 1} rows, expected {n - 1}")
    rows = [ln.split() for ln in lines[1:]]
    for u, row in enumerate(rows, start=1):
        if len(row) != n - u:
            raise ValueError(f"{path}: row {u} has {len(row)} entries, expected {n - u}")
    flat = np.fromiter(map(int, itertools.chain.from_iterable(rows)),
                       dtype=np.int64, count=comb(n, 2))
    m = np.zeros((n, n), dtype=np.int64)
    m[np.triu_indices(n, k=1)] = flat
    return n, k, m + m.T


def read_certificate_file(path) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """Parse a .cert file: header "n k", then one "lo hi t colour" per step."""
    lines = _data_lines(path)
    n, k = (int(x) for x in lines[0].split())
    steps = []
    for ln in lines[1:]:
        lo, hi, t, c = (int(x) for x in ln.split())
        steps.append((lo, hi, t, c))
    return n, k, steps


# ---------------------------------------------------------------------------
# Colourings
# ---------------------------------------------------------------------------


def count_problems(m: np.ndarray, k: int, e) -> list[str]:
    """Every edge has a colour in [1..k] and colour i is used exactly e_i times."""
    n = m.shape[0]
    if n < 2:
        return []
    upper = m[np.triu_indices(n, k=1)]
    if upper.min() < 1 or upper.max() > k:
        return [f"edge colours outside [1..{k}]"]
    counts = np.bincount(upper, minlength=k + 1)[1:]
    if list(counts) != list(e):
        bad = next(i for i in range(k) if counts[i] != e[i])
        return [f"colour {bad + 1} used {counts[bad]} times, sequence asks {e[bad]}"]
    return []


def replay_problems(n: int, k: int, e, steps, m: np.ndarray) -> list[str]:
    """Replay standard colouring steps from the single block [1..n].

    Each step must split the top t <= size/2 vertices off an active block and
    pay t(size-t) edges from its colour's budget; at the end every block is
    gone, every budget is spent and the painted matrix equals m. A colouring
    made by such steps has no rainbow cycle, so passing proves m is Gallai.
    """
    budgets = list(e)
    if len(budgets) != k:
        return [f"sequence has {len(budgets)} entries, certificate says k={k}"]
    active = {1: n} if n >= 2 else {}
    painted = np.zeros((n, n), dtype=np.int64)
    for i, (lo, hi, t, c) in enumerate(steps, start=1):
        if active.get(lo) != hi:
            return [f"step {i}: [{lo}..{hi}] is not an active block"]
        size = hi - lo + 1
        if not 1 <= t <= size // 2:
            return [f"step {i}: t={t} outside [1..{size // 2}]"]
        if not 1 <= c <= k:
            return [f"step {i}: colour {c} outside [1..{k}]"]
        need = t * (size - t)
        if budgets[c - 1] < need:
            return [f"step {i}: colour {c} has {budgets[c - 1]} edges left, step needs {need}"]
        budgets[c - 1] -= need
        cut = hi - t
        painted[lo - 1:cut, cut:hi] = c
        painted[cut:hi, lo - 1:cut] = c
        del active[lo]
        if size - t >= 2:
            active[lo] = cut
        if t >= 2:
            active[cut + 1] = hi
    if active:
        return [f"{len(active)} blocks left uncoloured"]
    if any(budgets):
        return ["budgets left unspent"]
    if painted.shape != m.shape or not np.array_equal(painted, m):
        return ["replayed colouring differs from the colouring file"]
    return []


def rainbow_triangle(m: np.ndarray) -> tuple[int, int, int] | None:
    """Brute force over all triples; the first rainbow triangle (1-based) or None."""
    n = m.shape[0]
    for i in range(n - 2):
        a = m[i, i + 1:][:, None]    # colour of (i, j)
        b = m[i, i + 1:][None, :]    # colour of (i, w)
        c = m[i + 1:, i + 1:]        # colour of (j, w)
        hit = np.triu((a != b) & (a != c) & (b != c), k=1)
        if hit.any():
            j, w = np.argwhere(hit)[0]
            return i + 1, i + 2 + int(j), i + 2 + int(w)
    return None


def peel_order_problems(m: np.ndarray) -> list[str]:
    """Peel vertices one at a time, each with at most two colours on its edges
    into the surviving vertices, until none is left.

    A rainbow subgraph F of minimum degree >= 3 cannot survive this: the first
    vertex of F to be peeled has three F-edges into survivors in at most two
    colours. Peelability only grows as vertices leave, so the peeling order
    does not matter and getting stuck means no such order exists.
    """
    n = m.shape[0]
    if n <= 3:
        return []
    ncol = int(m.max()) + 1
    cnt = np.stack([np.bincount(row, minlength=ncol) for row in m])
    distinct = (cnt[:, 1:] > 0).sum(axis=1)   # column 0 counts the diagonal
    alive = np.ones(n, dtype=bool)
    stack = list(np.flatnonzero(distinct <= 2))
    left = n
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        left -= 1
        others = np.flatnonzero(alive)
        cols = m[others, v]
        cnt[others, cols] -= 1
        emptied = others[cnt[others, cols] == 0]
        distinct[emptied] -= 1
        stack.extend(int(u) for u in emptied if distinct[u] <= 2)
    if left:
        return [f"peeling stops with {left} vertices, each with >= 3 colours among them"]
    return []


def parse_partition_line(line: str) -> tuple[set[int], list[list[int]]]:
    """'PARTITION base=1,2 part=1,2 part=3' -> ({1, 2}, [[1, 2], [3]])."""
    fields = line.split()
    if fields[0] != "PARTITION" or not fields[1].startswith("base="):
        raise ValueError(f"not a partition line: {line!r}")
    base = {int(x) for x in fields[1][5:].split(",") if x}
    parts = [[int(x) for x in f[5:].split(",")] for f in fields[2:] if f.startswith("part=")]
    return base, parts


def partition_problems(m: np.ndarray, base: set[int], parts: list[list[int]]) -> list[str]:
    """The parts partition the vertices, there are at least two, every pair of
    parts is joined in one colour, and those colours are the <= 2 base colours."""
    n = m.shape[0]
    if sorted(v for p in parts for v in p) != list(range(1, n + 1)):
        return ["parts do not partition the vertices"]
    if len(parts) < 2:
        return ["fewer than two parts"]
    used = set()
    for p, q in itertools.combinations(parts, 2):
        cross = np.unique(m[np.ix_([u - 1 for u in p], [v - 1 for v in q])])
        if cross.size != 1:
            return [f"parts starting at {p[0]} and {q[0]} are joined in {cross.size} colours"]
        used.add(int(cross[0]))
    if len(used) > 2 or used != base:
        return [f"colours between parts {sorted(used)} are not the base colours {sorted(base)}"]
    return []


def peel_trace_problems(start_n: int, stop: int, steps) -> list[str]:
    """A peel trace shrinks the block from start_n to at most stop vertices;
    each peel takes t <= x/2 vertices, names one or two base colours and pays
    t(x-t) base-coloured edges."""
    x = start_n
    for i, (x_before, t, x_after, base, base_edges, base_freq) in enumerate(steps, 1):
        if x_before != x or x <= stop:
            return [f"peel {i} starts at {x_before} vertices, expected {x} > {stop}"]
        if not 1 <= t <= x // 2 or x_after != x - t:
            return [f"peel {i}: t={t} of {x} vertices"]
        if not 1 <= len(base) <= 2 or base_edges != t * (x - t) or base_freq < base_edges:
            return [f"peel {i}: base colours {base}, {base_edges} of {base_freq} edges"]
        x = x_after
    if x > stop:
        return [f"peeling ends at {x} > {stop} vertices"]
    return []


# ---------------------------------------------------------------------------
# Infeasibility certificates, re-checked in exact arithmetic
# ---------------------------------------------------------------------------


def _parse_cert(line: str, token: str):
    f = line.split()
    if len(f) != 10 or f[0] != token:
        raise ValueError(f"expected a {token} certificate line, got {line!r}")
    k, n, m, a, b, c = (int(x) for x in f[1:7])
    return k, n, m, a, b, c, Fraction(int(f[7]), int(f[8]))


def clash_cert_problems(line: str, n: int, e, m: int) -> list[str]:
    """sum C(e_i,2) < n(n-1)(n-2)/(m(m-1)(m-2)) forces a rainbow K_m."""
    k, cn, cm, a, _, _, margin = _parse_cert(line, "RAINBOWKM")
    if (k, cn, cm) != (len(e), n, m):
        return [f"certificate is for k={k} n={cn} m={cm}"]
    lhs = sum(comb(x, 2) for x in e)
    rhs = Fraction(n * (n - 1) * (n - 2), m * (m - 1) * (m - 2))
    if a != lhs:
        return [f"a={a}, but sum C(e_i,2) = {lhs}"]
    if not lhs * m * (m - 1) * (m - 2) < n * (n - 1) * (n - 2) or margin != rhs - lhs:
        return ["clash inequality or its margin does not hold"]
    return []


def tree_cert_problems(line: str, n: int, k: int, m: int) -> list[str]:
    """Every budget <= C(n,2)/(6m)^(6m) forces a rainbow copy of every m-vertex tree."""
    ck, cn, cm, a, _, _, margin = _parse_cert(line, "TREEFORCED")
    if (ck, cn, cm) != (k, n, m):
        return [f"certificate is for k={ck} n={cn} m={cm}"]
    biggest = -(-comb(n, 2) // k)
    d = (6 * m) ** (6 * m)
    if a != biggest:
        return [f"a={a}, but the largest balanced budget is {biggest}"]
    if not a * d <= comb(n, 2) or margin != Fraction(comb(n, 2), d) - a:
        return ["tree inequality or its margin does not hold"]
    return []


def log_bounds(num: int, den: int, terms: int = 40) -> tuple[Fraction, Fraction]:
    """Rational L <= log(num/den) <= U for num > den > 0, from
    log x = 2 atanh(y) = 2 sum y^(2j+1)/(2j+1) with y = (x-1)/(x+1); every
    term is positive and the tail after `terms` terms is below
    2 y^(2 terms + 1) / ((2 terms + 1)(1 - y^2))."""
    y = Fraction(num - den, num + den)
    y2 = y * y
    s = Fraction(0)
    p = y
    for j in range(terms):
        s += p / (2 * j + 1)
        p *= y2
    low = 2 * s
    return low, low + 2 * p / ((2 * terms + 1) * (1 - y2))


def triangle_cert_problems(line: str, k: int) -> list[str]:
    """b^2/3 - 4(a+1) log(n/b) > 0 with 5b^2 >= k^2, 4(a+1) <= 5a,
    a ceil(k/2) <= C(n,2), n <= bk, for the n-good sequence of c entries
    a+1, ceil(k/2)-c entries a and floor(k/2) entries b."""
    ck, n, m, a, b, c, margin = _parse_cert(line, "TRIANGLEHARD")
    up = (k + 1) // 2
    if ck != k or m != 3 or b != k // 2 or not 0 <= c < up:
        return [f"certificate parameters k={ck} m={m} b={b} c={c} do not fit k={k}"]
    if c * (a + 1) + (up - c) * a + (k // 2) * b != comb(n, 2):
        return ["the hard sequence is not n-good"]
    if not (5 * b * b >= k * k and 4 * (a + 1) <= 5 * a
            and a * up <= comb(n, 2) and n <= b * k):
        return ["a side condition fails"]
    _, log_up = log_bounds(n, b)
    sure = Fraction(b * b, 3) - 4 * (a + 1) * log_up   # below the true margin
    if not 0 < margin <= sure:
        return [f"margin {float(margin):.6g} is not within (0, {float(sure):.6g}]"]
    return []


# ---------------------------------------------------------------------------
# Oracle tables
# ---------------------------------------------------------------------------

TARGET_COPIES = {
    # each copy is a tuple of vertex pairs (indices into a 3- or 4-subset)
    "k3": [((0, 1), (0, 2), (1, 2))],
    "k4": [((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))],
    "c4": [((0, 1), (1, 2), (2, 3), (0, 3)),
           ((0, 1), (1, 3), (2, 3), (0, 2)),
           ((0, 2), (1, 2), (1, 3), (0, 3))],
}


def descending_sequences(n: int, k: int):
    """Every non-increasing k-tuple of non-negative integers summing to C(n,2)."""
    def rest(left, slots, cap):
        if slots == 0:
            if left == 0:
                yield ()
            return
        for first in range(min(left, cap), -1, -1):
            if first * slots < left:
                break
            for tail in rest(left - first, slots - 1, first):
                yield (first,) + tail
    return list(rest(comb(n, 2), k, comb(n, 2)))


@lru_cache(maxsize=None)
def _copies(n: int, target: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All copies of the target in K_n, each as its edges (u, v) with u < v."""
    size = 3 if target == "k3" else 4
    out = []
    for sub in itertools.combinations(range(n), size):
        for copy in TARGET_COPIES[target]:
            out.append(tuple((sub[i], sub[j]) for i, j in copy))
    return tuple(out)


def rainbow_copy(m: np.ndarray, target: str) -> tuple | None:
    """Brute force over all copies of the target; the first rainbow one or None."""
    for copy in _copies(m.shape[0], target):
        cols = [m[u, v] for u, v in copy]
        if len(set(cols)) == len(cols):
            return copy
    return None


def has_standard_colouring(n: int, e) -> bool:
    """Exhaustive search over standard colouring steps: some order of steps,
    each splitting t <= size/2 vertices off a block and paying t(size-t)
    edges of one colour, colours K_n with exactly these budgets."""
    @lru_cache(maxsize=None)
    def solve(sizes: tuple[int, ...], budgets: tuple[int, ...]) -> bool:
        if not sizes:
            return True
        for i, size in enumerate(sizes):
            if i and sizes[i - 1] == size:
                continue
            others = sizes[:i] + sizes[i + 1:]
            for t in range(1, size // 2 + 1):
                need = t * (size - t)
                for j, b in enumerate(budgets):
                    if b < need or (j and budgets[j - 1] == b):
                        continue
                    nb = tuple(sorted(budgets[:j] + (b - need,) + budgets[j + 1:]))
                    ns = tuple(sorted(others + tuple(p for p in (t, size - t) if p >= 2)))
                    if solve(ns, nb):
                        return True
        return False
    return solve((n,) if n >= 2 else (), tuple(sorted(e)))


def rainbow_free_colouring_exists(n: int, e, target: str) -> bool:
    """Exhaustive search over every colouring of K_n with counts e, pruning a
    partial colouring as soon as it completes a rainbow copy of the target."""
    edges = list(itertools.combinations(range(n), 2))
    index = {uv: i for i, uv in enumerate(edges)}
    closing: list[list[tuple[int, ...]]] = [[] for _ in edges]
    for copy in _copies(n, target):
        ids = tuple(index[uv] for uv in copy)
        closing[max(ids)].append(ids)
    colour = [0] * len(edges)
    left = list(e)

    def place(i: int) -> bool:
        if i == len(edges):
            return True
        for c in range(len(left)):
            if not left[c]:
                continue
            colour[i] = c
            if all(len({colour[j] for j in ids}) < len(ids) for ids in closing[i]):
                left[c] -= 1
                if place(i + 1):
                    return True
                left[c] += 1
        return False

    return place(0)


def read_oracle_table(path) -> tuple[str, list[tuple[int, tuple[int, ...], str]]]:
    """Header line and (n, e, STATUS) rows of a realizability table."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = []
    n = None
    for ln in lines[1:]:
        if ln.startswith("# n="):
            n = int(ln[4:])
        elif ln.strip():
            *e, status = ln.split()
            rows.append((n, tuple(int(x) for x in e), status))
    return lines[0], rows
