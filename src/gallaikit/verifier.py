"""Rainbow-substructure searches, Gallai partitions, certificate checks.

All searches are deterministic and return the lexicographically least witness
under vertex order, so test fixtures are reproducible. find_rainbow_clique is
exact for complete targets, with the triangle scan as its first level; the
scan makes one numpy pass per band of rows, in memory that does not grow
with n. One backtracking search, find_rainbow_subgraph, serves every target.
settle_target is the one place that decides a target, by a proof or a search.
find_gallai_partition tries as base colours only the colours on at least n-1
edges, the only ones its first valid base set can hold.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constructor import SplitCertificate, replay_certificate
from .core import (
    MINDEG3_DEGENERACY, STANDARD_DEGENERACY, Colouring, DistributionSequence, TargetGraph,
    _BLOCK_CELLS, _row_blocks, colour_counts, degeneracy,
)
from .errors import PreconditionViolation

FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Embedding:
    """Images of the pattern's vertices 1..m, in order, inside K_n."""

    vertices: tuple[int, ...]

    def witness_line(self, tag: str) -> str:
        return tag + " " + " ".join(str(v) for v in self.vertices)


def embedding_is_rainbow(col: Colouring, H: TargetGraph, emb: Embedding) -> bool:
    """Injectivity plus pairwise-distinct colours on the images of H's edges."""
    img = emb.vertices
    if len(img) != H.m or len(set(img)) != H.m:
        return False
    return len({col.colour_of(img[u - 1], img[v - 1]) for u, v in H.edges}) == len(H.edges)


@dataclass
class SubgraphSearch:
    """Three-valued search outcome: found / exhaustively none / budget ran out.
    proof names the settle_target rung that gave none without a search."""

    status: str
    embedding: Embedding | None = None
    nodes_used: int = 0
    proof: str | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def exhausted(self) -> bool:
        return self.status == NONE


def find_rainbow_triangle(col: Colouring) -> Embedding | None:
    """The least rainbow triangle, or None when col is a Gallai colouring."""
    return find_rainbow_clique(col, 3).embedding


# cells of one band of the triangle scan, whose int32 slice of the matrix is
# then _BLOCK_CELLS bytes: at n = 2000 on a 2-core Xeon VM the scan took 2.2 s
# with these bands and 2.5 s with bands of _BLOCK_CELLS cells
_BAND_CELLS = _BLOCK_CELLS // 4


def _triangle_rows(M: np.ndarray):
    """(i, j, ws) for each pair i < j of 0-based vertices, in lexicographic
    order, with ws the ascending list of every w > j closing a rainbow
    triangle i j w; pairs with no such w are skipped.

    For each i, one numpy pass covers a band of rows j of at most _BAND_CELLS
    cells, written into two buffers made once, so memory is the same at any
    n. (Temporaries made per band left the heap fragmented: 1 MB more peak
    RSS at n = 2000.) Cell (j, w) of a band tells whether i j w is a rainbow
    triangle for every w > i, so a band with no rainbow triangle is left at
    once, and only a band with one is cut to w > j."""
    n = M.shape[0]
    buffers = np.empty((2, max(_BAND_CELLS, n)), dtype=bool)
    for i in range(n - 2):
        lo = i + 1
        while lo < n - 1:
            hi = min(n - 1, lo + max(1, _BAND_CELLS // (n - lo)))
            c = M[i, lo:hi, None]
            a = M[i, None, lo + 1:]
            b = M[lo:hi, lo + 1:]
            mask, t = (x[:b.size].reshape(b.shape) for x in buffers)
            np.not_equal(a, c, out=mask)  # mask[r, s] for j = lo + r, w = lo + 1 + s
            mask &= np.not_equal(b, c, out=t)
            mask &= np.not_equal(b, a, out=t)
            if mask.any():
                mask = np.triu(mask)
                for r in np.flatnonzero(mask.any(axis=1)).tolist():
                    yield i, lo + r, (np.flatnonzero(mask[r]) + lo + 1).tolist()
            lo = hi


def find_rainbow_clique(col: Colouring, m: int,
                        node_budget: int | None = None) -> SubgraphSearch:
    """Exact search for the lexicographically least rainbow K_m, the embedding
    find_rainbow_subgraph returns. Every rainbow K_m holds a rainbow K_{m-1},
    so the rainbow K_j are walked depth first, the least on top of the stack:
    the triangle scan (_triangle_rows) seeds the stack with the rainbow
    triangles of each pair i < j in turn, and one numpy pass over a K_j's rows
    marks each later vertex whose j edges to it take new, distinct colours.
    A node is one rainbow K_j, 3 <= j < m, that is extended; past node_budget
    nodes the search is inconclusive."""
    n, M, nodes = col.n, col.matrix, 0
    if m > n:
        return SubgraphSearch(NONE)
    if m < 3:  # a vertex or an edge is rainbow
        return SubgraphSearch(FOUND, Embedding(tuple(range(1, m + 1))))
    for i, j, ws in _triangle_rows(M):
        stack = [[i, j, w] for w in reversed(ws)]
        while stack:
            clique = stack.pop()
            if len(clique) == m:
                return SubgraphSearch(FOUND, Embedding(tuple(v + 1 for v in clique)), nodes)
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return SubgraphSearch(INCONCLUSIVE, nodes_used=node_budget)
            top = clique[-1] + 1
            rows = M[clique, top:]
            ok = np.logical_and.reduce([(rows[p] != rows[q]) & ~(rows == M[u, v]).any(axis=0)
                                        for (p, u), (q, v) in combinations(enumerate(clique), 2)])
            stack.extend(clique + [x] for x in (np.flatnonzero(ok)[::-1] + top).tolist())
    return SubgraphSearch(NONE, nodes_used=nodes)


def colour_degrees(col: Colouring) -> np.ndarray:
    """Entry v-1 = number of distinct colours on the edges at vertex v.

    Each block of rows is sorted; a row's one 0, its diagonal, sorts first,
    so the nonzero steps between neighbours count its distinct colours.
    """
    M = col.matrix
    degrees = np.empty(col.n, dtype=np.intp)
    for lo, hi in _row_blocks(col.n):
        degrees[lo:hi] = np.count_nonzero(np.diff(np.sort(M[lo:hi], axis=1), axis=1), axis=1)
    return degrees


def find_rainbow_subgraph(col: Colouring, H: TargetGraph,
                          node_budget: int = 1_000_000) -> SubgraphSearch:
    """Backtracking search for a rainbow copy of H, by a loop over H's vertices
    with a cursor into each one's hosts instead of recursion, so that a
    target of any size fits.

    Vertex j of H is placed only on host vertices whose colour degree is at
    least its degree in H, which every rainbow copy satisfies. Returns found
    with the lexicographically least embedding, a definite none only when the
    search completed, and inconclusive once node_budget vertex assignments
    have been tried.
    """
    n, m = col.n, H.m
    if m > n:
        return SubgraphSearch(NONE)
    M = col.matrix
    back = {j: [i for i in range(1, j) if (i, j) in H.edges] for j in range(1, m + 1)}
    adj = H.adjacency()
    degrees = colour_degrees(col)
    hosts = {j: (np.flatnonzero(degrees >= len(adj[j])) + 1).tolist() for j in range(1, m + 1)}
    images = [0] * (m + 1)
    used_v = [False] * (n + 1)
    used_c: set[int] = set()
    fresh: list[list[int]] = [[] for _ in range(m + 1)]
    tried = [0] * (m + 1)  # hosts[j][:tried[j]] have been tried for H's vertex j
    j, nodes = 1, 0
    while j:
        if j > m:
            return SubgraphSearch(FOUND, Embedding(tuple(images[1:])), nodes)
        if images[j]:  # back from a dead end: take vertex j's image back
            used_c.difference_update(fresh[j])
            used_v[images[j]] = False
            images[j] = 0
        while tried[j] < len(hosts[j]):
            u = hosts[j][tried[j]]
            tried[j] += 1
            if used_v[u]:
                continue
            nodes += 1
            if nodes > node_budget:
                return SubgraphSearch(INCONCLUSIVE, nodes_used=node_budget)
            colours = [int(M[images[i] - 1, u - 1]) for i in back[j]]
            if len(set(colours)) == len(colours) and used_c.isdisjoint(colours):
                images[j], used_v[u], fresh[j] = u, True, colours
                used_c.update(colours)
                j += 1
                break
        else:
            tried[j] = 0
            j -= 1
    return SubgraphSearch(NONE, nodes_used=nodes)


def peels_two_colours(col: Colouring) -> bool:
    """True when every vertex can be removed, one at a time, each seeing at
    most two colours on its edges into the vertices still present.

    Then col has no rainbow subgraph of minimum degree >= 3: the first of its
    vertices to be removed has three of its edges into the survivors, and they
    use at most two colours. Removing a vertex never adds a colour elsewhere,
    so the order does not matter. Counts are kept per (vertex, colour) pair
    that occurs, so the table has at most n^2 entries whatever k is.
    """
    n = col.n
    M = col.matrix
    # pair[v, u] names (v, colour of vu) among row v's colours; the diagonal's
    # 0 is one more pair per row, never counted down
    pair = np.empty((n, n), dtype=np.intp)
    colours = np.empty(n, dtype=np.intp)
    first = 0
    for v in range(n):
        used, pair[v] = np.unique(M[v], return_inverse=True)
        pair[v] += first
        first += used.size
        colours[v] = used.size - 1
    count = np.bincount(pair.ravel())
    alive = np.ones(n, dtype=bool)
    stack = np.flatnonzero(colours <= 2).tolist()
    left = n
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        left -= 1
        others = np.flatnonzero(alive)
        ids = pair[others, v]
        count[ids] -= 1
        emptied = others[count[ids] == 0]
        colours[emptied] -= 1
        stack.extend(emptied[colours[emptied] <= 2].tolist())
    return left == 0


def settle_target(col: Colouring, H: TargetGraph, cert_ok: bool,
                  node_budget: int = 1_000_000) -> SubgraphSearch:
    """Does col hold a rainbow copy of H? The first rung that applies decides;
    a proof gives none with its name in proof, a search gives its result.

    "certificate": cert_ok says a split certificate replayed into col, so col
    is a standard colouring. A cycle crosses the first split that separates
    two of its vertices at least twice, in that split's one colour, so col has
    no rainbow cycle; this settles every H that is not a forest.
    "colours": col's colour_counts show fewer colours than H has edges.
    "peel": H has degeneracy >= 3, so it contains a subgraph of minimum
    degree >= 3, and peels_two_colours(col) rules out a rainbow copy of one.
    A complete H then goes to find_rainbow_clique, which is exact and whose
    first level is the triangle scan, so no separate scan is made.
    "gallai": H is not a forest and find_rainbow_triangle finds no rainbow
    triangle. Then col has no rainbow cycle: a chord of a shortest rainbow
    cycle of length >= 4 splits it into two arcs, each closed by the chord
    into a shorter cycle. The chord's colour is on at most one arc, so the
    other arc and the chord form a shorter rainbow cycle, a contradiction.
    Otherwise find_rainbow_subgraph searches under node_budget.
    """
    d = degeneracy(H)
    if cert_ok and d >= STANDARD_DEGENERACY:
        return SubgraphSearch(NONE, proof="certificate")
    if sum(1 for count in colour_counts(col) if count) < len(H.edges):
        return SubgraphSearch(NONE, proof="colours")
    if d >= MINDEG3_DEGENERACY and peels_two_colours(col):
        return SubgraphSearch(NONE, proof="peel")
    if len(H.edges) == H.m * (H.m - 1) // 2:
        return find_rainbow_clique(col, H.m, node_budget)
    if d >= STANDARD_DEGENERACY and find_rainbow_triangle(col) is None:
        return SubgraphSearch(NONE, proof="gallai")
    return find_rainbow_subgraph(col, H, node_budget)


# ---------------------------------------------------------------------------
# Gallai partitions
# ---------------------------------------------------------------------------

@dataclass
class GallaiPartition:
    """Vertex partition whose inter-part edges use at most two base colours,
    one colour per part pair."""

    base_colours: frozenset[int]
    parts: tuple[tuple[int, ...], ...]
    between_colour: dict[tuple[int, int], int]


def _components(join: np.ndarray) -> np.ndarray:
    """Label each vertex with the least vertex (0-based) of its component of
    the symmetric boolean n x n relation join, by a frontier BFS over rows."""
    label = np.full(join.shape[0], -1, dtype=np.intp)
    for v in range(join.shape[0]):
        if label[v] >= 0:
            continue
        label[v] = v
        frontier = np.array([v])
        while frontier.size:
            frontier = np.flatnonzero(join[frontier].any(axis=0) & (label < 0))
            label[frontier] = v
    return label


def find_gallai_partition(col: Colouring) -> GallaiPartition | None:
    """The Gallai partition of the first valid candidate base set, on a
    colouring already known to be Gallai. No rainbow-triangle scan is made: a
    caller that does not know col is Gallai runs find_rainbow_triangle first.

    Tries candidate base sets, singletons then pairs in colour order, of
    the colours on at least n-1 edges; no other colour can be in the first
    valid candidate (see below), so skipping them changes no result. For
    each, the parts are the components of the non-base edges:
    every Gallai partition with that base set keeps each such edge inside a
    part, so this is the finest partition it can be. On a Gallai colouring
    its part pairs are already one colour each: if a-a' is a non-base edge
    and c lies in another part, the triangle a a' c is not rainbow, so
    colour(a,c) = colour(a',c). A candidate whose part pairs are not one
    colour (possible only on a colouring that is not Gallai) is skipped.

    Every Gallai colouring on n >= 2 vertices has a partition with at most
    two base colours (Gallai 1967). Its base set is a candidate, and the
    components for it refine that partition, so they form two or more parts.
    None is therefore returned only on a colouring that is not Gallai.

    On any colouring, each base colour of the result covers at least n-1
    inter-part edges. A valid singleton {a} puts all of them in a. A pair
    {a,b} is tried after {a} failed, so b joins the parts in a connected graph
    (its components, joined only in a, would make {a} valid), and so does a;
    a connected graph on parts of sizes s_i summing to n covers
    sum s_i s_j >= n-1 edges (remove a leaf part at a time). So the first
    valid candidate among all singletons and pairs of used colours has only
    colours on at least n-1 edges, and it is the first valid one tried here.
    """
    if col.n < 2:
        raise PreconditionViolation("need n >= 2")
    M = col.matrix
    wide = [c for c, count in enumerate(colour_counts(col), 1) if count >= col.n - 1]
    for base in [(c,) for c in wide] + list(combinations(wide, 2)):
        join = M != base[0]
        if len(base) == 2:
            join &= M != base[1]
        label = _components(join)
        crossing = label[:, None] != label[None, :]
        if not crossing.any() or (crossing & (M != M[np.ix_(label, label)])).any():
            continue
        reps = np.unique(label)
        between = {(i, j): int(M[reps[i], reps[j]]) for i, j in combinations(range(len(reps)), 2)}
        parts = tuple(tuple((np.flatnonzero(label == r) + 1).tolist()) for r in reps)
        return GallaiPartition(frozenset(between.values()), parts, between)
    return None


def verify_gallai_partition(col: Colouring, p: GallaiPartition) -> bool:
    """Independent re-verification: scans every inter-part edge."""
    flat = [v for part in p.parts for v in part]
    if sorted(flat) != list(range(1, col.n + 1)):
        return False
    if len(p.parts) < 2 or any(not part for part in p.parts):
        return False
    if len(p.base_colours) > 2:
        return False
    for i in range(len(p.parts) - 1):
        for j in range(i + 1, len(p.parts)):
            want = p.between_colour.get((i, j))
            if want is None or want not in p.base_colours:
                return False
            if any(col.colour_of(u, v) != want for u in p.parts[i] for v in p.parts[j]):
                return False
    return True


def partition_line(p: GallaiPartition) -> str:
    return ("PARTITION base=" + ",".join(str(c) for c in sorted(p.base_colours))
            + "".join(" part=" + ",".join(str(v) for v in part) for part in p.parts))


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------

def verify_certificate(cert: SplitCertificate, col: Colouring,
                       seq: DistributionSequence) -> str | None:
    """Replay cert under seq's budgets (replay_certificate checks every step
    precondition, the budgets and that every block is coloured) and compare
    each step's edges with col's as they come. None when cert realises col,
    else the line verify prints: the replay failure if there is one, or else
    the lexicographically least edge on which the two differ. ValueError when
    the three disagree on n or k."""
    if not (cert.n == col.n == seq.n):
        raise ValueError(f"n mismatch: cert={cert.n} colouring={col.n} seq={seq.n}")
    if not (cert.k == col.k == seq.k):
        raise ValueError(f"k mismatch: cert={cert.k} colouring={col.k} seq={seq.k}")
    M, wrong = col.matrix, []
    try:
        for rows, cols, colour in replay_certificate(cert, seq.e):
            differs = M[rows, cols] != colour
            if np.count_nonzero(differs):  # on the small rectangles, faster than .any()
                r, c = divmod(int(differs.argmax()), differs.shape[1])
                wrong.append((rows.start + r + 1, cols.start + c + 1, colour))
    except ValueError as ex:
        return str(ex)
    if not wrong:
        return None
    u, v, colour = min(wrong)
    return (f"certificate replay failed: edge ({u},{v}): certificate gives {colour}, "
            f"colouring has {int(M[u - 1, v - 1])}")
