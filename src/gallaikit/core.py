"""Shared domain types: target graphs, distribution sequences, edge colourings.

Vertices and colours are 1-based contiguous integers throughout, so the file
formats and witness lines are unambiguous. All types are immutable after
construction and safe to share across workers. What a Colouring computes on
first read and keeps (a painted one's matrix, any one's colour counts) comes
from data that never change, so readers that race there keep equal values.
"""
from __future__ import annotations

import mmap
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

Edge = tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class TargetGraph:
    """A simple graph on vertices [1..m], the forbidden pattern of a search.

    Edges are stored normalised as (u, v) with u < v.
    """

    m: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("vertex count must be positive")
        for u, v in self.edges:
            if not (1 <= u < v <= self.m):
                raise ValueError(f"edge ({u},{v}) outside [1..{self.m}] or unnormalised")

    @staticmethod
    def from_edges(m: int, edges) -> "TargetGraph":
        return TargetGraph(m, frozenset(_normalise_edge(u, v) for u, v in edges))

    @staticmethod
    def complete(m: int) -> "TargetGraph":
        return TargetGraph.from_edges(m, [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)])

    @staticmethod
    def cycle(m: int) -> "TargetGraph":
        if m < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return TargetGraph.from_edges(m, [(i, i % m + 1) for i in range(1, m + 1)])

    @staticmethod
    def path(m: int) -> "TargetGraph":
        return TargetGraph.from_edges(m, [(i, i + 1) for i in range(1, m)])

    @staticmethod
    def star(leaves: int) -> "TargetGraph":
        return TargetGraph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.m + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


# A standard colouring has no rainbow cycle, so it is rainbow-H-free for every
# H of this degeneracy or more: exactly the targets that contain a cycle.
STANDARD_DEGENERACY = 2

# A colouring that peels in two colours (mindeg3's output; see
# verifier.peels_two_colours) has no rainbow subgraph of minimum degree >= 3,
# so it is rainbow-H-free for every H of this degeneracy or more.
MINDEG3_DEGENERACY = 3


@lru_cache(maxsize=None)
def degeneracy(H: TargetGraph) -> int:
    """Smallest d such that repeated minimum-degree deletion never sees degree > d.

    Edgeless graphs are 0-degenerate by convention; forests are exactly the
    1-degenerate graphs. Isolated vertices change nothing, so only the edges'
    ends are kept. Each round raises d to the least degree left and deletes
    every vertex of degree <= d, and each one its deletions bring down to d.
    The vertices left after a round have degree > d, so at most 2|E|/d of
    them are scanned for the next d: O(|E| log |E|) in all.
    """
    adj: dict[int, list[int]] = {}
    for u, v in H.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    left = {v: len(ws) for v, ws in adj.items()}
    d = 0
    while left:
        d = min(left.values())  # > the last round's d
        stack = [v for v, deg in left.items() if deg <= d]
        while stack:
            v = stack.pop()
            del left[v]
            for w in adj[v]:
                if w in left:
                    left[w] -= 1
                    if left[w] == d:
                        stack.append(w)
    return d


@dataclass(frozen=True)
class DistributionSequence:
    """k per-colour edge budgets for a complete graph on n vertices.

    The shape (k >= 1, n >= 1, all entries >= 0) is enforced here; whether the
    entries actually sum to C(n,2) is the n-good condition, tested separately
    by is_n_good so that defective candidate sequences remain representable.
    """

    n: int
    k: int
    e: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if len(self.e) != self.k:
            raise ValueError(f"expected {self.k} budgets, got {len(self.e)}")
        if any(x < 0 for x in self.e):
            raise ValueError("budgets must be non-negative")

    @staticmethod
    def of(n: int, e) -> "DistributionSequence":
        e = tuple(int(x) for x in e)
        return DistributionSequence(n, len(e), e)

    @property
    def total(self) -> int:
        return sum(self.e)


def is_n_good(seq: DistributionSequence) -> bool:
    """True iff the budgets sum to C(n,2)."""
    return seq.total == comb(seq.n, 2)


def balanced_sequence(n: int, k: int) -> DistributionSequence:
    """The near-uniform n-good sequence: with C(n,2) = qk + r, k-r entries of q
    followed by r entries of q+1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    q, r = divmod(comb(n, 2), k)
    return DistributionSequence(n, k, (q,) * (k - r) + (q + 1,) * r)


# Row-block scans of an n x n matrix take this many cells (at least one row)
# at a time, so their temporaries stay small however large n is.
_BLOCK_CELLS = 1 << 18

# A matrix of at least this many bytes gets a private anonymous mapping of its
# own, which is unmapped as soon as the matrix is freed. From malloc, glibc
# would raise its mmap threshold when the first such matrix is freed and serve
# later ones from its heap, whose freed space it keeps or reuses depending on
# what else was allocated in between: the peak resident size of a run that
# makes several large colourings would depend on the history of the heap.
# Smaller matrices barely move the peak of a process that holds numpy.
_MAPPED_BYTES = 1 << 22


def zero_matrix(n: int) -> np.ndarray:
    """A writable n x n int32 matrix of zeros."""
    size = 4 * n * n
    if size < _MAPPED_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.zeros((n, n), dtype=np.int32)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=np.int32).reshape(n, n)


def _row_blocks(n: int, cells: int = _BLOCK_CELLS):
    """(lo, hi) bounds of consecutive blocks of max(1, cells // n) rows."""
    rows = max(1, cells // n)
    for lo in range(0, n, rows):
        yield lo, min(lo + rows, n)


# the int32 matrix of a Colouring holds colours up to _MAX_COLOUR
_INT32 = np.iinfo(np.int32)
_MAX_COLOUR = _INT32.max


# mirror_upper and the symmetry check transpose square tiles of this side:
# of 64, 128, 256 and 512 the fastest on a 2-core VM at n = 2400 and 10^4
_TILE = 256


def _tiles(n: int):
    """(rows, cols) slices of the square tiles on and above the diagonal."""
    for lo in range(0, n, _TILE):
        for left in range(lo, n, _TILE):
            yield slice(lo, lo + _TILE), slice(left, left + _TILE)


def mirror_upper(m: np.ndarray) -> None:
    """Copy the strict upper triangle of the square matrix m onto its lower
    triangle, tile by tile; the diagonal is left as it is."""
    for rows, cols in _tiles(len(m)):
        if rows == cols:
            tile = m[rows, cols]
            np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
        else:
            m[cols, rows] = m[rows, cols].T


def _is_symmetric(m: np.ndarray) -> bool:
    return all(np.array_equal(m[rows, cols], m[cols, rows].T) for rows, cols in _tiles(len(m)))


class Colouring:
    """A complete-graph edge colouring, edge (u,v) -> colour in [1..k].

    Backed by a read-only symmetric n x n integer matrix (0 diagonal) for O(1)
    edge access and vectorised row scans. The matrix is copied unless the
    caller hands over a fresh int32 one with copy=False. A colouring made by
    `painted` holds only its lex records: its rows are painted band by band
    when written, and its matrix is built when something first reads it.
    The colour counts are taken on the first colour_counts call and kept.
    """

    __slots__ = ("n", "k", "_m", "_records", "_counts")

    def __init__(self, n: int, k: int, matrix: np.ndarray, copy: bool = True):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        m = np.asarray(matrix)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} != ({n},{n})")
        # a wider input is range-checked before the int32 cast could wrap it
        if m.dtype != np.int32 and (m.min() < _INT32.min or m.max() > _INT32.max):
            raise ValueError("edge colours must lie in [1..k]")
        if copy or m.dtype != np.int32:
            m, source = zero_matrix(n), m
            m[...] = source
        diagonal = np.diagonal(m).copy()
        # with ones on the diagonal, min and max see only the edge colours
        np.fill_diagonal(m, 1)
        if m.min() < 1 or m.max() > k:
            raise ValueError("edge colours must lie in [1..k]")
        np.fill_diagonal(m, 0)
        if np.count_nonzero(diagonal) or not _is_symmetric(m):
            raise ValueError("matrix must be symmetric with zero diagonal")
        m.setflags(write=False)
        self.n = n
        self.k = k
        self._m = m
        self._records = None
        self._counts = None

    @staticmethod
    def painted(n: int, k: int, records) -> "Colouring":
        """The colouring whose edges the lex records (lo, hi, colours, ends)
        paint (see paint_lex); every edge must lie in exactly one record.

        No matrix is made here: upper_rows paints the rows it is asked for,
        and the first read of .matrix paints every row into one, mirrors it
        and validates it as __init__ does. The records are kept, so a reader
        racing that first read still paints its rows from them.
        """
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        for lo, hi, colours, ends in records:
            edges = (lo - 1) * (hi - lo + 1) + comb(hi - lo + 1, 2)
            if ends[-1] != edges:
                raise ValueError(f"stream has {ends[-1]} colours for {edges} edges")
        col = Colouring.__new__(Colouring)
        col.n, col.k, col._m, col._records, col._counts = n, k, None, tuple(records), None
        return col

    @property
    def matrix(self) -> np.ndarray:
        if self._m is None:
            m = zero_matrix(self.n)
            self._paint(m[:-1, 1:], 1, self.n)
            mirror_upper(m)
            self._m = Colouring(self.n, self.k, m, copy=False).matrix
        return self._m

    def _paint(self, rows: np.ndarray, a: int, b: int) -> None:
        # rows a.. hold no edge of a record with hi <= a
        for lo, hi, colours, ends in self._records:
            if hi > a:
                paint_lex(rows, a, b, lo, hi, colours, ends)

    def upper_rows(self, u: int, v: int) -> np.ndarray:
        """The colours of the edges (w, w+1), ..., (w, n) for w = u..v-1, one
        row after another, in a fresh int32 array. A painted colouring with no
        matrix yet paints these rows alone, and refuses them unless every
        colour lies in [1..k]."""
        m = self._m
        if m is None:
            rows = np.zeros((v - u, self.n - u), dtype=np.int32)
            self._paint(rows, u, v)
        else:
            rows = m[u - 1:v - 1, u:]
        band = np.concatenate([rows[i, i:] for i in range(v - u)])
        if m is None and (band.min() < 1 or band.max() > self.k):
            raise ValueError("edge colours must lie in [1..k]")
        return band

    def colour_of(self, u: int, v: int) -> int:
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"bad edge ({u},{v})")
        return int(self.matrix[u - 1, v - 1])

    @staticmethod
    def from_edge_colours(n: int, k: int, colours: dict[Edge, int]) -> "Colouring":
        m = zero_matrix(n)
        for (u, v), c in colours.items():
            u, v = _normalise_edge(u, v)
            m[u - 1, v - 1] = c
        if len(colours) != comb(n, 2):
            raise ValueError(f"expected {comb(n, 2)} edges, got {len(colours)}")
        mirror_upper(m)
        return Colouring(n, k, m, copy=False)

    @staticmethod
    def monochromatic(n: int, colour: int = 1, k: int | None = None) -> "Colouring":
        k = colour if k is None else k
        m = zero_matrix(n)
        m[...] = colour
        np.fill_diagonal(m, 0)
        return Colouring(n, k, m, copy=False)

    def induced(self, vertices: list[int]) -> "Colouring":
        """Sub-colouring on the given vertices, relabelled 1..len(vertices)."""
        idx = np.array([v - 1 for v in vertices], dtype=np.intp)
        return Colouring(len(vertices), self.k, self.matrix[np.ix_(idx, idx)], copy=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Colouring)
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self) -> str:
        return f"Colouring(n={self.n}, k={self.k})"


def colour_counts(col: Colouring) -> list[int]:
    """Entry i-1 = number of edges with colour i; entries sum to C(n,2).
    Counted on the first call and kept on col; each call returns a new list."""
    if col._counts is None:
        col._counts = _count_matrix(col)
    return list(col._counts)


def _count_matrix(col: Colouring) -> tuple[int, ...]:
    m = col.matrix
    counts = np.zeros(col.k + 1, dtype=np.int64)
    # blocks of at least k cells: the k+1 bins of every block cost O(n^2 + k) in all
    for lo, hi in _row_blocks(col.n, max(_BLOCK_CELLS, col.k)):
        # the diagonal block is symmetric with a zero diagonal: it holds each of its edges twice
        counts += np.bincount(m[lo:hi, lo:hi].ravel(), minlength=col.k + 1) // 2
        counts += np.bincount(m[lo:hi, hi:].ravel(), minlength=col.k + 1)
    return tuple(counts[1:].tolist())


def _runs(colours, ends, s: int, e: int):
    """(colour, p, q): the pieces [p, q) of stream positions [s, e) that lie
    in one run each, in order; run i has colour colours[i] and ends at ends[i]."""
    i = bisect_right(ends, s)
    while s < e:
        q = min(ends[i], e)
        if q > s:
            yield colours[i], s, q
        s = q
        i += 1


def paint_lex(rows: np.ndarray, a: int, b: int, lo: int, hi: int, colours, ends) -> None:
    """Paint rows u = a..b-1 of the edges (u,v), u < v, lo <= v <= hi, which a
    run-length stream colours in lexicographic order: run i has colour
    colours[i] and ends at stream position ends[i], the last at the edge
    count (lo-1)(hi-lo+1) + C(hi-lo+1, 2). rows[i, j] is the edge
    (a+i, a+1+j), as in m[a-1:b-1, a:] of an n x n matrix m; nothing else
    is written. The rows above lo form a rectangle over columns lo..hi,
    painted run by run with at most three slices each; each row from lo on
    is painted alone."""
    w = hi - lo + 1
    top = min(b, lo)
    if a < top:
        block, base = rows[:top - a, lo - a - 1:hi - a], (a - 1) * w
        for c, p, q in _runs(colours, ends, base, (top - 1) * w):
            (i, j), (i1, j1) = divmod(p - base, w), divmod(q - base, w)
            if i == i1:
                block[i, j:j1] = c
                continue
            block[i, j:] = c
            block[i + 1:i1] = c
            if j1:
                block[i1, :j1] = c
    u = max(a, lo)
    # the rows lo..u-1 of the triangle hold hi-lo, ..., hi-u+1 edges
    r = (lo - 1) * w + (u - lo) * (2 * hi - lo - u + 1) // 2
    for u in range(u, min(b, hi)):
        row = rows[u - a, u - a:hi - a]
        for c, p, q in _runs(colours, ends, r, r + hi - u):
            row[p - r:q - r] = c
        r += hi - u


def lex_colouring(seq: DistributionSequence) -> Colouring:
    """Lex-order fill honouring the exact counts; no structure guaranteed."""
    record = (1, seq.n, tuple(range(1, seq.k + 1)), tuple(accumulate(seq.e)))
    return Colouring.painted(seq.n, seq.k, [record])


# ---------------------------------------------------------------------------
# Text file formats. Lines starting with "#" are comments, read by no parser;
# only this module opens files to read, and writers emit a canonical form.
# ---------------------------------------------------------------------------

def _data_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as f:
        return [ln for ln in map(str.strip, f) if ln and ln[0] != "#"]


def _is_integer(token: str) -> bool:
    """An optional sign, then ASCII digits; int() alone also takes "1_0" and "١"."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    return digits.isascii() and digits.isdigit()


def int_tokens(tokens: list[str], where: str) -> list[int]:
    """tokens as base-10 integers; any other token raises a ValueError led by where."""
    for token in tokens:
        if not _is_integer(token):
            raise ValueError(f"{where}: {token!r} is not a base-10 integer")
    return list(map(int, tokens))


def int_lines(lines: list[str]) -> list[list[int]]:
    """Each data line as a list of base-10 integers."""
    return [int_tokens(ln.split(), f"data line {i}") for i, ln in enumerate(lines, 1)]


@contextmanager
def data_lines(path: str, what: str):
    """The data lines of path; a ValueError in reading them or in the block gets what and path."""
    try:
        yield _data_lines(path)
    except ValueError as ex:
        raise ValueError(f"{what} {path}: {ex}") from None


def write_sequence(seq: DistributionSequence, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{seq.n} {seq.k}\n")
        f.write(" ".join(str(x) for x in seq.e) + "\n")


def read_sequence(path: str) -> DistributionSequence:
    with data_lines(path, "sequence file") as text:
        lines = int_lines(text)
        if len(lines) != 2 or len(lines[0]) != 2:
            raise ValueError("expected the line 'n k', then one line of k budgets")
        (n, k), e = lines
        return DistributionSequence(n, k, tuple(e))


# The colouring writer formats consecutive upper-triangle rows holding at most
# this many cells (at least one row) at a time: its temporaries take about
# 1 MB for colours of up to 3 digits and under 3 MB for 10, whatever n is.
_BAND_CELLS = 1 << 16


def _bands(n: int):
    """(u, v, cells): upper-triangle rows u..v-1 hold `cells` cells."""
    u = 1
    while u < n:
        v, cells = u + 1, n - u
        while v < n and cells + n - v <= _BAND_CELLS:
            cells += n - v
            v += 1
        yield u, v, cells
        u = v


def write_colouring(col: Colouring, path: str) -> None:
    """Write col in the canonical text form: the line "n k", then for
    u = 1..n-1 the colours of (u, u+1), ..., (u, n) in decimal, one space
    apart, one line per u.

    numpy formats each band of rows, col.upper_rows(u, v), as a
    (cells, width + 1) byte array, width being the digit count of the band's
    largest colour: each cell's digits, then a space or the row's newline,
    less the leading zeros. Time and memory are O(n^2) whatever the colour
    values are; a painted colouring is written with no n x n matrix.
    """
    n = col.n
    with open(path, "wb") as f:
        f.write(f"{n} {col.k}\n".encode())
        for u, v, cells in _bands(n):
            band = col.upper_rows(u, v)
            width = len(str(int(band.max())))
            text = np.empty((cells, width + 1), dtype=np.uint8)
            keep = np.ones((cells, width + 1), dtype=bool)
            for j in range(width - 1):
                np.greater_equal(band, 10 ** (width - 1 - j), out=keep[:, j])
            quotient = np.empty_like(band)
            for j in range(width - 1, -1, -1):
                np.floor_divide(band, 10, out=quotient)
                band -= quotient * 10 - ord("0")
                text[:, j] = band
                band, quotient = quotient, band
            text[:, width] = ord(" ")
            text[np.cumsum(np.arange(n - u, n - v, -1)) - 1, width] = ord("\n")
            f.write(text[keep])


def colouring_rows(path: str):
    """(n, k, rows) of a .col file, header and row count checked; rows yields
    row u = 1..n-1 as an int64 array of n-u colours in [1..k], checked as it
    is reached, so a file with several defects reports the first of them."""
    lines = _data_lines(path)
    if not lines:
        raise ValueError(f"colouring file {path}: empty")
    header = lines[0].split()
    if len(header) != 2 or not all(map(_is_integer, header)) or min(map(int, header)) < 1:
        raise ValueError(f"colouring file {path}: header must be 'n k' with integers n >= 1, k >= 1")
    n, k = map(int, header)
    if k > _MAX_COLOUR:
        raise ValueError(f"colouring file {path}: k = {k} exceeds the largest colour {_MAX_COLOUR}")
    if len(lines) != n:
        raise ValueError(f"colouring file {path}: expected {n - 1} rows, got {len(lines) - 1}")
    # np.fromstring reads "+ 1" as 1 and "1 -" as 1 0, so every row of a file
    # with a sign in it is read by the token rule; files the writer makes have
    # none. So is a row np.fromstring cannot read: it splits at C whitespace
    # only, str.split also at separators such as "\x1c" and "\u3000"
    signed = any("+" in ln or "-" in ln for ln in lines)

    def rows():
        for u in range(1, n):
            try:
                row = None if signed else np.fromstring(lines[u], dtype=np.int64, sep=" ")
            except ValueError:
                row = None
            if row is None or len(row) != n - u:
                tokens = lines[u].split()
                if not all(map(_is_integer, tokens)):
                    raise ValueError(f"colouring file {path}: row {u} holds a token that is not "
                                     "a base-10 integer")
                row = np.fromstring(" ".join(tokens), dtype=np.int64, sep=" ")
            if len(row) != n - u:
                raise ValueError(f"colouring file {path}: row {u} has {len(row)} entries, expected {n - u}")
            # in int64, before the int32 matrix would wrap an out-of-range colour
            if row.min() < 1 or row.max() > k:
                raise ValueError(f"colouring file {path}: row {u} holds a colour outside [1..{k}]")
            yield row

    return n, k, rows()


def read_colouring(path: str) -> Colouring:
    n, k, rows = colouring_rows(path)
    m = zero_matrix(n)
    for u, row in enumerate(rows, 1):
        m[u - 1, u:] = row
    mirror_upper(m)
    return Colouring(n, k, m, copy=False)


def row_colour_counts(n: int, k: int, rows) -> list[int]:
    """The colour_counts of the (n, k, rows) colouring_rows returns, with no
    matrix: the rows are bincounted in bands of at least k cells, so the k+1
    bins of every band cost O(n^2 + k) in all."""
    counts = np.zeros(k + 1, dtype=np.int64)
    band = np.empty(max(_BLOCK_CELLS, k) + n, dtype=np.int64)
    cells = 0
    for row in rows:
        band[cells:cells + len(row)] = row
        cells += len(row)
        # the last row, and only it, holds one cell: the last band is counted
        if cells >= max(_BLOCK_CELLS, k) or len(row) == 1:
            counts += np.bincount(band[:cells], minlength=k + 1)
            cells = 0
    return counts[1:].tolist()


def write_target(H: TargetGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{H.m}\n")
        for u, v in sorted(H.edges):
            f.write(f"{u} {v}\n")


def read_target(path: str) -> TargetGraph:
    with data_lines(path, "target file") as text:
        lines = int_lines(text)
        if not lines or len(lines[0]) != 1 or any(len(ln) != 2 for ln in lines[1:]):
            raise ValueError("expected the line 'm', then one line 'u v' per edge")
        return TargetGraph.from_edges(lines[0][0], lines[1:])
