"""Brute-force ground truth at tiny scale: sequence realizability, exhaustive
realizability tables, and the standard-colouring decision procedure.

Realizability is one depth-first search over per-edge colour domains for
every target; the target enters only through triangle propagation (K3) or
one clash test on each new edge (any other H). It breaks two symmetries, both
of which map rainbow-H-free colourings with the given counts onto each other:
unused colours of equal budget are tried once, and a column of the matrix may
not fall lexicographically below its left neighbour. Neither changes a
verdict or the witness, the lexicographically least valid colouring.

A table (`exact_g`) first asks the constructors' standard search
(`constructor.standard_search`, one memo per table) about each row when H
contains a cycle: a standard colouring has no rainbow cycle, so a row it
realises is realizable. The exhaustive search decides the other rows, those
with no standard colouring and every row of a forest target, and is the only
source of a definite no. Each row keeps the standard search's status, which
`gallaikit oracle` reports as the constructors' verdict, so no row is decided
twice.

Only `is_realizable` is deliberately independent of the constructors it
cross-checks; `is_realizable_standard` is the constructors' own search run
to exhaustion. "inconclusive" is a first-class result and is never converted
to a definite no.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .core import (
    STANDARD_DEGENERACY, Colouring, DistributionSequence, TargetGraph, degeneracy, is_n_good,
    colour_dtype, lex_colouring,
)
from .constructor import standard_search
from .errors import PreconditionViolation

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"
INCONCLUSIVE = "inconclusive"

# exact_g's budget per table: exhaustive search nodes plus standard search states
TOTAL_NODE_BUDGET = 100_000_000
# is_realizable's budget per sequence, and so per row of an exact_g table
SEQUENCE_NODE_BUDGET = 5_000_000


@dataclass
class OracleResult:
    status: str
    colouring: Colouring | None = None
    nodes: int = 0


class _OutOfBudget(Exception):
    pass


def _clash_test(H: TargetGraph, n: int):
    """clashes(M, u, v, c): would colouring the uncoloured edge uv with c
    complete a rainbow copy of H among the coloured (nonzero) entries of M?

    C4 and K4 have closed-form kernels. For any other H each edge of H is
    anchored on uv in both orientations, and the other vertices of H are
    placed one at a time through coloured edges only.
    """
    adj = H.adjacency()
    if H.m == 4 and len(H.edges) == 6:
        def clashes(M, u: int, v: int, c: int) -> bool:
            others = [w for w in range(1, n + 1) if w != u and w != v]
            for ai in range(len(others) - 1):
                w1 = others[ai]
                e1 = M[w1 - 1][u - 1]
                e2 = M[w1 - 1][v - 1]
                if not e1 or not e2:
                    continue
                for w2 in others[ai + 1:]:
                    cols = (c, e1, e2, M[w2 - 1][u - 1], M[w2 - 1][v - 1],
                            M[w1 - 1][w2 - 1])
                    if 0 not in cols and len(set(cols)) == 6:
                        return True
            return False
        return clashes
    if H.m == 4 and len(H.edges) == 4 and all(len(ns) == 2 for ns in adj.values()):
        def clashes(M, u: int, v: int, c: int) -> bool:
            others = [w for w in range(1, n + 1) if w != u and w != v]
            for x in others:
                vx = M[v - 1][x - 1]
                if not vx or vx == c:
                    continue
                for y in others:
                    if y == x:
                        continue
                    cols = (c, vx, M[x - 1][y - 1], M[y - 1][u - 1])
                    if 0 not in cols and len(set(cols)) == 4:
                        return True
            return False
        return clashes

    # per anchored edge (a, b): for each further vertex of H, in placing
    # order, the positions of its neighbours placed before it
    plans = []
    for a, b in sorted(H.edges):
        order = [a, b]
        while len(order) < H.m:
            rest = [z for z in range(1, H.m + 1) if z not in order]
            order.append(max(rest, key=lambda z: len(adj[z].intersection(order))))
        plans.append([[order.index(w) for w in adj[z] if w in order[:j]]
                      for j, z in enumerate(order) if j >= 2])

    def extend(M, back, img: list[int], used: set[int]) -> bool:
        if len(img) == len(back) + 2:
            return True
        for w in range(1, n + 1):
            if w in img:
                continue
            row = M[w - 1]
            fresh: list[int] = []
            for i in back[len(img) - 2]:
                col = row[img[i] - 1]
                if not col or col in used or col in fresh:
                    break
                fresh.append(col)
            else:
                img.append(w)
                used.update(fresh)
                if extend(M, back, img, used):
                    return True
                used.difference_update(fresh)
                img.pop()
        return False

    def clashes(M, u: int, v: int, c: int) -> bool:
        return any(extend(M, back, [s, t], {c}) for back in plans for s, t in ((u, v), (v, u)))
    return clashes


def is_realizable(seq: DistributionSequence, H: TargetGraph,
                  node_budget: int = SEQUENCE_NODE_BUDGET,
                  use_symmetry: bool = True) -> OracleResult:
    """Decide by exhaustive backtracking whether some rainbow-H-free colouring
    has exactly the given colour counts.

    Edges are assigned in lexicographic order, each from a domain of
    admissible colours. A branch is pruned when a colour's remaining budget
    exceeds the uncoloured edges that still admit it, or, for K3, when more
    edges are forced to it than its budget allows. The target enters at one
    point: for K3, two coloured edges of a triangle with distinct colours
    shrink the third edge's domain to that pair; for any other H, a colour is
    refused when it completes a rainbow copy of H through the new edge. A
    witness colouring is returned when realizable; exhausting node_budget
    yields inconclusive with node_budget nodes, never a definite no.

    use_symmetry switches two symmetry rules on together, and skipped
    colours are not counted as nodes. The colour rule tries unused colours
    with equal budgets once. The vertex rule compares column v with column
    v-1 over rows 1..v-2: while the two are equal on every row assigned so
    far, edge (u, v) takes only colours >= M[u][v-1].

    Neither rule changes the result. The search returns the lexicographically
    least valid colouring C, if there is one, which both rules leave
    reachable. Renaming colours of equal budget, in order of first use, gives
    a valid colouring with the same counts that is no larger, so C obeys the
    colour rule. Suppose C breaks the vertex rule: column v first differs
    from column v-1 at row u, with C(u,v) < C(u,v-1). Swap vertices v-1 and
    v. The result is valid, since relabelling vertices keeps a colouring
    rainbow-H-free, and has the same counts. It agrees with C before edge
    (u, v-1) and is smaller there, a contradiction. So the verdict and the
    witness are the same with or without the rules; only the node count
    differs.
    """
    if not is_n_good(seq):
        raise PreconditionViolation("sequence is not n-good")
    n, k = seq.n, seq.k
    if H.m > n:
        return OracleResult(REALIZABLE, lex_colouring(seq))
    if not H.edges:
        # every vertex m-subset is a rainbow copy of an edgeless target
        return OracleResult(UNREALIZABLE)
    triangle = H.m == 3 and len(H.edges) == 3
    if triangle and k == 1:
        return OracleResult(REALIZABLE, lex_colouring(seq))
    clashes = None if triangle else _clash_test(H, n)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    eidx = {e: i for i, e in enumerate(edges)}
    total = len(edges)
    domains = [(1 << k) - 1] * total
    cap = [total] * (k + 1)      # uncoloured edges admitting each colour
    forced = [0] * (k + 1)       # uncoloured edges whose domain is a singleton
    budgets = list(seq.e)
    usage = [0] * (k + 1)
    M = [[0] * n for _ in range(n)]
    # tied[v]: columns v-1 and v agree on the rows 1..v-2 assigned so far;
    # while it holds, edge (u, v) takes no colour below M[u][v-1]
    tied = [True] * (n + 1)
    nodes = 0
    colour_sets: dict[int, tuple[int, ...]] = {}

    def colours(mask: int) -> tuple[int, ...]:
        # the colours of a domain mask, ascending; each mask is listed once per call
        if mask not in colour_sets:
            colour_sets[mask] = tuple(c for c in range(1, k + 1) if mask >> (c - 1) & 1)
        return colour_sets[mask]

    def shrink(j: int, mask: int, trail: list[tuple[int, int]]) -> bool:
        # cap/forced updates must run to completion even on failure, so that
        # restore() can undo them uniformly
        old = domains[j]
        new = old & mask
        if new == old:
            return True
        trail.append((j, old))
        domains[j] = new
        ok = new != 0
        for c in colours(old & ~new):
            cap[c] -= 1
            if cap[c] < budgets[c - 1]:
                ok = False
        if new and new & (new - 1) == 0:
            c = new.bit_length()
            forced[c] += 1
            if forced[c] > budgets[c - 1]:
                ok = False
        return ok

    def restore(trail: list[tuple[int, int]]) -> None:
        while trail:
            j, old = trail.pop()
            new = domains[j]
            if new & (new - 1) == 0 and new:
                forced[new.bit_length()] -= 1
            domains[j] = old
            for c in colours(old & ~new):
                cap[c] += 1

    def assign(idx: int) -> bool:
        nonlocal nodes
        if idx == total:
            return True
        u, v = edges[idx]
        dom = colours(domains[idx])
        single = len(dom) == 1
        # retire this edge from the uncoloured pool; a colour it leaves one
        # edge short of its budget is the only colour it may take (need), and
        # two such colours leave it none (need = -1)
        need = 0
        for c in dom:
            cap[c] -= 1
            if cap[c] < budgets[c - 1]:
                need = c if need == 0 else -1
        if single:
            forced[dom[0]] -= 1
        floor = M[u - 1][v - 2] if use_symmetry and u < v - 1 and tied[v] else 0
        seen_unused: set[int] = set()
        for c in dom:
            b = budgets[c - 1]
            if b == 0:
                continue
            if use_symmetry and usage[c] == 0:
                if b in seen_unused:
                    continue
                seen_unused.add(b)
            if c < floor:
                continue
            nodes += 1
            if nodes > node_budget:
                raise _OutOfBudget
            if (need and need != c) or (clashes and clashes(M, u, v, c)):
                continue
            M[u - 1][v - 1] = c
            M[v - 1][u - 1] = c
            budgets[c - 1] -= 1
            usage[c] += 1
            if floor:
                tied[v] = c == floor
            trail: list[tuple[int, int]] = []
            ok = True
            if triangle:
                # edges are assigned in lexicographic order: uw is coloured
                # iff w < v, vw iff w < u, so exactly one of them is coloured,
                # uw, iff u < w < v
                row_u = M[u - 1]
                for w in range(u + 1, v):
                    a = row_u[w - 1]
                    if a == c:
                        continue
                    if not shrink(eidx[(w, v)], (1 << (a - 1)) | (1 << (c - 1)), trail):
                        ok = False
                        break
            if ok and assign(idx + 1):
                return True
            restore(trail)
            usage[c] -= 1
            budgets[c - 1] += 1
            M[u - 1][v - 1] = 0
            M[v - 1][u - 1] = 0
        if floor:
            tied[v] = True
        if single:
            forced[dom[0]] += 1
        for c in dom:
            cap[c] += 1
        return False

    try:
        hit = assign(0)
    except _OutOfBudget:
        return OracleResult(INCONCLUSIVE, nodes=node_budget)
    if not hit:
        return OracleResult(UNREALIZABLE, nodes=nodes)
    witness = Colouring(n, k, np.array(M, dtype=colour_dtype(k)), copy=False)
    return OracleResult(REALIZABLE, witness, nodes)


# ---------------------------------------------------------------------------
# Exhaustive realizability tables
# ---------------------------------------------------------------------------

def n_good_multisets(n: int, k: int):
    """All descending k-tuples of non-negative integers summing to C(n,2)."""
    total = comb(n, 2)

    # left <= slots * cap at every call: first >= ceil(left/slots) leaves
    # left - first <= (slots - 1) * first
    def parts(left: int, slots: int, cap: int):
        if slots == 1:
            yield (left,)
            return
        for first in range(min(left, cap), (left + slots - 1) // slots - 1, -1):
            for rest in parts(left - first, slots - 1, first):
                yield (first,) + rest

    yield from parts(total, k, total)


@dataclass
class SequenceVerdict:
    e: tuple[int, ...]
    status: str
    # standard_search's status ("certificate" / "infeasible" / "giveup"), "-" if not run
    standard: str = "-"


@dataclass
class ExactGReport:
    target: TargetGraph
    k: int
    n_max: int
    per_n: dict[int, list[SequenceVerdict]] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """Some row is inconclusive, or the table stops short of n_max."""
        cut = max(self.per_n) < self.n_max
        return cut or any(self.all_realizable(n) is None for n in self.per_n)

    def all_realizable(self, n: int) -> bool | None:
        rows = self.per_n[n]
        if any(r.status == INCONCLUSIVE for r in rows):
            return None
        return all(r.status == REALIZABLE for r in rows)

    @property
    def least_all_realizable_from(self) -> int | None:
        """Least N with every n-good sequence realizable for all n in
        [N, n_max]. Finite n_max cannot certify behaviour beyond it, so this
        is a computed observation, not a proof about larger n."""
        best = None
        for n in range(self.n_max, 1, -1):
            if n not in self.per_n or not self.all_realizable(n):
                break
            best = n
        return best

    def table_lines(self, n: int) -> list[str]:
        out = []
        for row in self.per_n[n]:
            out.append(" ".join(str(x) for x in row.e) + " " + row.status.upper())
        return out


def exact_g(H: TargetGraph, k: int, n_max: int,
            node_budget_per_seq: int = SEQUENCE_NODE_BUDGET,
            total_node_budget: int = TOTAL_NODE_BUDGET) -> ExactGReport:
    """For each n <= n_max, decide every n-good sequence (as a descending
    multiset; realizability is permutation-invariant).

    When H contains a cycle (degeneracy >= 2), the standard search runs on
    every row under what is left of total_node_budget, with one memo shared
    by all rows of this call; a row it realises is realizable, one it gives
    up on is inconclusive, and its status is kept as the row's `standard`.
    The exhaustive search `is_realizable` decides the other rows, each under
    node_budget_per_seq or what is left of total_node_budget if less; the
    total bounds the standard search's memo misses plus the exhaustive
    search's nodes. Once it is spent, the rest of the current n is left
    inconclusive and no larger n is enumerated; a sequence that exhausts its
    budget is inconclusive. Either way the report reads partial."""
    if k < 1:
        raise PreconditionViolation(f"need k >= 1, got k={k}")
    if n_max < 2:
        raise PreconditionViolation(f"need n_max >= 2, got n_max={n_max}")
    report = ExactGReport(H, k, n_max)
    memo: dict = {}
    cyclic = degeneracy(H) >= STANDARD_DEGENERACY
    spent = 0
    for n in range(2, n_max + 1):
        rows: list[SequenceVerdict] = []
        for e in n_good_multisets(n, k):
            if spent >= total_node_budget:
                rows.append(SequenceVerdict(e, INCONCLUSIVE))
                continue
            standard = "-"
            if cyclic:
                standard, nodes = standard_search(n, e, memo, total_node_budget - spent)
                spent += nodes
                if standard == "certificate":
                    rows.append(SequenceVerdict(e, REALIZABLE, standard))
                    continue
                if standard == "giveup":
                    rows.append(SequenceVerdict(e, INCONCLUSIVE, standard))
                    continue
            res = is_realizable(DistributionSequence(n, k, e), H,
                                node_budget=min(node_budget_per_seq, total_node_budget - spent))
            spent += res.nodes
            rows.append(SequenceVerdict(e, res.status, standard))
        report.per_n[n] = rows
        if spent >= total_node_budget:
            break
    return report


def is_realizable_standard(seq: DistributionSequence) -> bool:
    """True iff some sequence of standard colouring steps colours all edges:
    constructor.standard_search with a memo of its own, which is exhaustive
    when it has no node budget."""
    if not is_n_good(seq):
        raise PreconditionViolation("sequence is not n-good")
    return standard_search(seq.n, seq.e, {})[0] == "certificate"
