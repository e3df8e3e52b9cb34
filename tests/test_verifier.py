import dataclasses
import random
import tracemalloc
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

import gallaikit
from gallaikit import bounds, cli, verifier
from gallaikit.cli import main
from gallaikit.core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    read_colouring,
    write_colouring,
    write_sequence,
)
from gallaikit.constructor import (
    SplitCertificate,
    StepRecord,
    construct,
    construct_greedy,
    construct_mindeg3,
    read_certificate,
    realize_certificate,
    write_certificate,
)
from gallaikit.verifier import (
    NONE,
    Embedding,
    SubgraphSearch,
    embedding_is_rainbow,
    find_gallai_partition,
    find_rainbow_clique,
    find_rainbow_subgraph,
    find_rainbow_triangle,
    colour_degrees,
    partition_line,
    peels_two_colours,
    settle_target,
    verify_certificate,
    verify_gallai_partition,
)

from conftest import (
    brute_force_rainbow_triangles, moreover_holds, random_colouring, random_sequence,
    reference_peel, searched_blocks, seeded_colouring,
)


def split_k4() -> Colouring:
    """Crossing edges {1,2}x{3,4} coloured 1, (1,2) coloured 2, (3,4) coloured 3."""
    return Colouring.from_edge_colours(
        4, 3, {(1, 2): 2, (3, 4): 3, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1})


def all_distinct(n: int) -> Colouring:
    cols = {}
    c = 1
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            cols[(u, v)] = c
            c += 1
    return Colouring.from_edge_colours(n, comb(n, 2), cols)


class TestRainbowTriangle:
    def test_rainbow_k3(self):
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        assert find_rainbow_triangle(col) == Embedding((1, 2, 3))

    def test_monochromatic(self):
        assert find_rainbow_triangle(Colouring.monochromatic(5)) is None

    def test_split_k4_has_none(self):
        col = split_k4()
        assert find_rainbow_triangle(col) is None
        # exhaustive cross-check of all 4 triangles
        assert brute_force_rainbow_triangles(col) == []

    def test_matches_bruteforce_and_is_lex_least(self, rng):
        for _ in range(60):
            n = rng.randint(3, 12)
            k = rng.randint(1, 6)
            col = random_colouring(rng, n, k)
            brute = brute_force_rainbow_triangles(col)
            got = find_rainbow_triangle(col)
            if brute:
                assert got is not None and got.vertices == min(brute)
            else:
                assert got is None

    def test_agrees_with_bruteforce_at_n50(self, rng):
        col = random_colouring(rng, 50, 3)
        brute = brute_force_rainbow_triangles(col)
        got = find_rainbow_triangle(col)
        assert (got is None) == (not brute)
        if brute:
            assert got.vertices == min(brute)


class TestRainbowSubgraph:
    def test_triangle_found(self):
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        res = find_rainbow_subgraph(col, TargetGraph.complete(3))
        assert res.found and embedding_is_rainbow(col, TargetGraph.complete(3), res.embedding)

    def test_c4_in_monochromatic_none_exhaustive(self):
        # every host has colour degree 1 < 2, so no C4 vertex is ever placed
        res = find_rainbow_subgraph(Colouring.monochromatic(6), TargetGraph.cycle(4))
        assert res.status == "none" and res.nodes_used == 0

    def test_k4_in_all_distinct_k7(self):
        res = find_rainbow_subgraph(all_distinct(7), TargetGraph.complete(4))
        assert res.found
        assert res.embedding.vertices == (1, 2, 3, 4)

    def test_budget_exhaustion_is_inconclusive(self):
        # vertex v joins the lower vertices in colour 1 + v mod 2: every vertex
        # but the last has colour degree 2, so the C4 search has hosts to try
        m = np.zeros((8, 8), dtype=np.int32)
        for v in range(2, 9):
            m[:v - 1, v - 1] = m[v - 1, :v - 1] = 1 + v % 2
        col = Colouring(8, 2, m)
        res = find_rainbow_subgraph(col, TargetGraph.cycle(4), node_budget=3)
        assert res.status == "inconclusive"
        res = find_rainbow_subgraph(col, TargetGraph.cycle(4))
        assert res.status == "none" and res.nodes_used == 611

    def test_target_deeper_than_the_recursion_limit(self):
        # every edge of K_1100 its own colour: the least rainbow P_1050 is the
        # identity, placed with one node per vertex and no backtracking
        n = 1100
        m = np.zeros((n, n), dtype=np.int32)
        upper = np.triu_indices(n, 1)
        m[upper] = np.arange(1, len(upper[0]) + 1)
        col = Colouring(n, len(upper[0]), m + m.T)
        res = find_rainbow_subgraph(col, TargetGraph.path(1050), node_budget=10**4)
        assert res.found and res.embedding.vertices == tuple(range(1, 1051))
        assert res.nodes_used == 1050

    @pytest.mark.parametrize("name, H", [
        ("P3", TargetGraph.path(3)), ("P4", TargetGraph.path(4)),
        ("star3", TargetGraph.star(3)), ("C4", TargetGraph.cycle(4)),
        ("K4", TargetGraph.complete(4)),
    ])
    def test_lex_least_witness_matches_brute_force(self, name, H, rng):
        # permutations yield in lexicographic order, so the first rainbow one
        # is the least witness; none when no permutation is rainbow
        statuses = set()
        for _ in range(40):
            n = rng.randint(2, 7)
            col = random_colouring(rng, n, rng.randint(1, 6))
            brute = next((Embedding(p) for p in permutations(range(1, n + 1), H.m)
                          if embedding_is_rainbow(col, H, Embedding(p))), None)
            res = find_rainbow_subgraph(col, H)
            assert res.status == ("found" if brute else "none")
            assert res.embedding == brute
            statuses.add(res.status)
        assert statuses == {"found", "none"}

    def test_pattern_larger_than_host(self):
        res = find_rainbow_subgraph(Colouring.monochromatic(3), TargetGraph.complete(5))
        assert res.status == "none"

    def test_single_edge_always_found(self, rng):
        # degenerate sanity for m=2: one edge is a rainbow copy by itself
        for k in (1, 2, 5):
            col = random_colouring(rng, 4, k)
            assert find_rainbow_subgraph(col, TargetGraph.complete(2)).found


def _per_pair_clique(col: Colouring, m: int, node_budget: int | None = None) -> SubgraphSearch:
    """find_rainbow_clique with the triangle scan it had before the band
    scan: one numpy pass of length n-j-1 per pair i < j. The reference the
    band scan must match, witness and node count alike."""
    n, M, nodes = col.n, col.matrix, 0
    if m > n:
        return SubgraphSearch(NONE)
    if m < 3:
        return SubgraphSearch("found", Embedding(tuple(range(1, m + 1))))
    for i in range(n - 2):
        row_i = M[i]
        for j in range(i + 1, n - 1):
            c = int(M[i, j])
            a = row_i[j + 1:]
            b = M[j, j + 1:]
            mask = (a != c) & (b != c) & (a != b)
            if not mask.any():
                continue
            stack = [[i, j, w] for w in (np.flatnonzero(mask)[::-1] + j + 1).tolist()]
            while stack:
                clique = stack.pop()
                if len(clique) == m:
                    return SubgraphSearch("found", Embedding(tuple(v + 1 for v in clique)), nodes)
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return SubgraphSearch("inconclusive", nodes_used=node_budget)
                top = clique[-1] + 1
                rows = M[clique, top:]
                ok = np.logical_and.reduce([(rows[p] != rows[q]) & ~(rows == M[u, v]).any(axis=0)
                                            for (p, u), (q, v) in combinations(enumerate(clique), 2)])
                stack.extend(clique + [x] for x in (np.flatnonzero(ok)[::-1] + top).tolist())
    return SubgraphSearch(NONE, nodes_used=nodes)


def _one_rainbow_triangle(n: int, i: int, j: int, w: int) -> Colouring:
    """Colour 1 everywhere but ij in 2 and jw in 3 (1-based i < j < w): every
    other triangle has two edges in colour 1, so i j w is the only rainbow one."""
    m = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(m, 0)
    m[i - 1, j - 1] = m[j - 1, i - 1] = 2
    m[j - 1, w - 1] = m[w - 1, j - 1] = 3
    return Colouring(n, 3, m, copy=False)


class TestRainbowClique:
    def test_band_scan_matches_per_pair_loop(self):
        """Seeded colourings, uniform and Gallai with a rainbow K5 planted:
        the same status, embedding and nodes_used as the per-pair scan for
        m = 3, 4, 5, with and without a node budget that cuts the search."""
        rng = random.Random(27)
        cols = [random_colouring(rng, rng.randint(3, 30), rng.randint(2, 12)) for _ in range(60)]
        for _ in range(20):
            n = rng.randint(8, 60)
            cols.append(_plant_rainbow(_random_gallai(rng, n, 12),
                                       tuple(sorted(rng.sample(range(1, n + 1), 5)))))
        seen = set()
        for col in cols:
            for m in (3, 4, 5):
                for budget in (None, 0, 1, 4):
                    got = find_rainbow_clique(col, m, budget)
                    want = _per_pair_clique(col, m, budget)
                    assert (got.status, got.embedding, got.nodes_used) == (
                        want.status, want.embedding, want.nodes_used), (col.n, m, budget)
                    seen.add((m, got.status))
        assert seen == {(m, s) for m in (3, 4, 5) for s in ("found", "none", "inconclusive")
                        if m > 3 or s != "inconclusive"}

    def test_band_scan_matches_per_pair_loop_across_bands(self):
        # n = 700: the rows j of vertex 1 span several bands, and the planted
        # K5's vertices lie in different ones; the rest is in colours 1 and 2
        rng = random.Random(28)
        base = Colouring(700, 10, random_colouring(rng, 700, 2).matrix)
        col = _plant_rainbow(base, (1, 300, 301, 650, 700))
        for m, budget in ((3, None), (4, None), (5, None), (5, 1)):
            got = find_rainbow_clique(col, m, budget)
            want = _per_pair_clique(col, m, budget)
            assert (got.status, got.embedding, got.nodes_used) == (
                want.status, want.embedding, want.nodes_used), (m, budget)

    @pytest.mark.parametrize("ijw", [(1, 2, 800), (3, 11, 790), (3, 300, 790), (3, 85, 86),
                                     (798, 799, 800)])
    def test_only_triangle_far_apart(self, ijw):
        # at n = 800, bands of 2^16 cells split the rows j of i = 3 at
        # 85 | 86, 176 | 177, 281 | 282, 407 | 408 and 573 | 574 (1-based):
        # j and w lie in different bands but for the last triangle
        col = _one_rainbow_triangle(800, *ijw)
        assert find_rainbow_clique(col, 3) == SubgraphSearch("found", Embedding(ijw), 0)
        assert find_rainbow_clique(col, 4) == SubgraphSearch(NONE, nodes_used=1)
        assert find_rainbow_clique(col, 4, node_budget=0).status == "inconclusive"

    def test_scan_memory_is_flat_in_n(self):
        # the only rainbow triangle lies in row 1, late in j: the scan of
        # vertex 1 crosses every band; one (n-1)^2 mask would be 9 MB
        col = _one_rainbow_triangle(3000, 1, 2990, 2995)
        tracemalloc.start()
        try:
            hit = find_rainbow_triangle(col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit == Embedding((1, 2990, 2995))
        assert peak < 2 * 2 ** 20, peak

    def test_agrees_with_backtracking(self):
        """Seeded corpus, n <= 9 with 2-12 colours: find_rainbow_clique gives
        find_rainbow_subgraph's status and embedding on K3, K4 and K5, and
        find_rainbow_triangle's triangle on K3."""
        rng = random.Random(21)
        seen = set()
        for _ in range(300):
            col = random_colouring(rng, rng.randint(3, 9), rng.randint(2, 12))
            for m in (3, 4, 5):
                got = find_rainbow_clique(col, m)
                want = find_rainbow_subgraph(col, TargetGraph.complete(m))
                assert (got.status, got.embedding) == (want.status, want.embedding), m
                seen.add((m, got.status))
            assert find_rainbow_clique(col, 3).embedding == find_rainbow_triangle(col)
        assert seen == {(m, s) for m in (3, 4, 5) for s in ("found", "none")}

    def test_budget_counts_extended_cliques(self):
        # all-distinct colours: the first rainbow triangle extends at once
        hit = find_rainbow_clique(all_distinct(7), 5, node_budget=2)
        assert hit.found and hit.embedding == Embedding((1, 2, 3, 4, 5)) and hit.nodes_used == 2
        assert find_rainbow_clique(all_distinct(7), 5, node_budget=1).status == "inconclusive"
        assert find_rainbow_clique(Colouring.monochromatic(3), 4).exhausted
        assert find_rainbow_clique(Colouring.monochromatic(3), 2).embedding == Embedding((1, 2))


class TestColourDegree:
    def test_monochromatic(self):
        assert colour_degrees(Colouring.monochromatic(4)).tolist() == [1, 1, 1, 1]

    def test_rainbow_k3(self):
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        assert colour_degrees(col).tolist() == [2, 2, 2]

    def test_star_pattern(self):
        cols = {(1, 2): 1, (1, 3): 2, (1, 4): 2, (1, 5): 3}
        for u, v in combinations(range(2, 6), 2):
            cols[(u, v)] = 1
        col = Colouring.from_edge_colours(5, 3, cols)
        assert colour_degrees(col).tolist() == [3, 1, 2, 2, 2]

    def test_matches_row_sets_in_every_row_block(self, rng):
        # n = 700 spans two row blocks
        n = 700
        gen = np.random.default_rng(rng.randint(0, 10 ** 9))
        m = np.triu(gen.integers(1, 40, (n, n), dtype=np.int32), 1)
        col = Colouring(n, 40, m + m.T)
        want = [len(set(row.tolist()) - {0}) for row in col.matrix]
        assert colour_degrees(col).tolist() == want
        assert colour_degrees(Colouring.monochromatic(1)).tolist() == [0]


class TestRainbowTree:
    def test_p3_all_distinct(self):
        emb = find_rainbow_subgraph(all_distinct(5), TargetGraph.path(3)).embedding
        assert emb is not None
        assert embedding_is_rainbow(all_distinct(5), TargetGraph.path(3), emb)

    def test_p3_monochromatic(self):
        assert find_rainbow_subgraph(Colouring.monochromatic(5), TargetGraph.path(3)).exhausted

    def test_success_is_always_rainbow(self, rng):
        for _ in range(30):
            n = rng.randint(4, 9)
            k = rng.randint(2, comb(n, 2))
            col = random_colouring(rng, n, k)
            H = TargetGraph.path(rng.randint(2, 4))
            emb = find_rainbow_subgraph(col, H).embedding
            if emb is not None:
                assert embedding_is_rainbow(col, H, emb)


def _first_valid_partition(col: Colouring):
    """(parts, base colours) of the first base set, singletons of the used
    colours then pairs in colour order, whose non-base components form at
    least two parts joined in one colour per part pair; None when none is."""
    n = col.n
    M = col.matrix.tolist()
    used = sorted({M[u][v] for u in range(n) for v in range(u + 1, n)})
    for base in [(c,) for c in used] + list(combinations(used, 2)):
        root = list(range(n))

        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x
        for u in range(n):
            for v in range(u + 1, n):
                if M[u][v] not in base:
                    root[find(v)] = find(u)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(find(v), []).append(v)
        parts = sorted(groups.values())
        if len(parts) < 2:
            continue
        between = [{M[u][v] for u in a for v in b} for a, b in combinations(parts, 2)]
        if all(len(cs) == 1 for cs in between):
            return (tuple(tuple(v + 1 for v in part) for part in parts),
                    frozenset(c for cs in between for c in cs))
    return None


def _unfiltered_gallai_partition(col: Colouring):
    """find_gallai_partition as it was before the candidate filter: every
    used colour, then every pair of them, is tried as the base set."""
    M = col.matrix
    used = [c for c, count in enumerate(colour_counts(col), 1) if count]
    for base in [(c,) for c in used] + list(combinations(used, 2)):
        label = verifier._components(~np.isin(M, base))
        crossing = label[:, None] != label[None, :]
        if not crossing.any() or (crossing & (M != M[np.ix_(label, label)])).any():
            continue
        reps = np.unique(label)
        between = {(i, j): int(M[reps[i], reps[j]]) for i, j in combinations(range(len(reps)), 2)}
        parts = tuple(tuple((np.flatnonzero(label == r) + 1).tolist()) for r in reps)
        return verifier.GallaiPartition(frozenset(between.values()), parts, between)
    return None


class TestGallaiPartition:
    def test_candidate_filter_matches_unfiltered_loop(self):
        """Substitution colourings (Gallai), the same with a rainbow triangle
        planted, and uniform colourings that hold one, n <= 16: the same
        partition, or None, as the loop over every used colour and pair."""
        rng = random.Random(29)
        gallai = [seeded_colouring(seed) for seed in range(1, 600) if seed % 3]
        planted = [_plant_rainbow(col, tuple(sorted(rng.sample(range(1, col.n + 1), 3))))
                   for col in gallai if col.n >= 3 and col.k >= 3]
        uniform = [random_colouring(rng, rng.randint(3, 16), rng.randint(3, 6)) for _ in range(400)]
        not_gallai = [col for col in planted + uniform if find_rainbow_triangle(col) is not None]
        outcomes = [find_gallai_partition(col) is None for col in not_gallai]
        assert min(outcomes.count(True), outcomes.count(False)) >= 100
        for col in gallai + not_gallai:
            assert find_gallai_partition(col) == _unfiltered_gallai_partition(col)

    def test_split_k4(self):
        p = find_gallai_partition(split_k4())
        assert p is not None
        assert p.parts == ((1, 2), (3, 4))
        assert p.base_colours == frozenset({1})
        assert verify_gallai_partition(split_k4(), p)
        assert moreover_holds(4, p)

    def test_monochromatic(self):
        col = Colouring.monochromatic(5)
        p = find_gallai_partition(col)
        assert p is not None
        assert verify_gallai_partition(col, p)

    def test_rainbow_triangle_gives_witness(self):
        # the scan names the triangle; the partition search, which makes no
        # scan, finds no partition of it
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        assert find_rainbow_triangle(col) == Embedding((1, 2, 3))
        assert find_gallai_partition(col) is None

    def test_random_gallai_colourings_decompose(self, rng):
        # random 2-colourings are always Gallai; partitions must verify
        for _ in range(25):
            n = rng.randint(2, 10)
            col = random_colouring(rng, n, 2)
            p = find_gallai_partition(col)
            assert p is not None
            assert verify_gallai_partition(col, p)

    def test_outcome_is_partition_or_witness(self, rng):
        for _ in range(40):
            n = rng.randint(2, 9)
            k = rng.randint(1, 5)
            col = random_colouring(rng, n, k)
            w = find_rainbow_triangle(col)
            p = find_gallai_partition(col)
            if w is None:
                assert p is not None
                assert verify_gallai_partition(col, p)
            else:
                a, b, c = w.vertices
                assert len({col.colour_of(a, b), col.colour_of(a, c),
                            col.colour_of(b, c)}) == 3
                assert p is None or verify_gallai_partition(col, p)

    def test_search_outside_gallai_returns_only_valid_partitions(self, rng):
        # a rainbow triangle inside one part leaves a valid partition
        col = Colouring.from_edge_colours(4, 4, {(1, 2): 1, (1, 3): 2, (2, 3): 3,
                                                 (1, 4): 4, (2, 4): 4, (3, 4): 4})
        assert find_gallai_partition(col).parts == ((1, 2, 3), (4,))
        rainbow = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        assert find_gallai_partition(rainbow) is None
        for _ in range(40):
            col = random_colouring(rng, rng.randint(2, 9), rng.randint(3, 5))
            p = find_gallai_partition(col)
            assert p is None or verify_gallai_partition(col, p)

    def test_partition_serialisation(self):
        p = find_gallai_partition(split_k4())
        assert partition_line(p) == "PARTITION base=1 part=1,2 part=3,4"

    @pytest.mark.parametrize("damage", [
        dict(parts=((1,), (3, 4))),                      # vertex 2 missing
        dict(parts=((1, 2), (3, 4), ())),                # an empty part
        dict(base_colours=frozenset({1, 2, 3})),         # three base colours
        dict(between_colour={}),                         # part pair without a colour
        dict(between_colour={(0, 1): 2}),                # colour outside the base set
    ])
    def test_damaged_partition_rejected(self, damage):
        p = find_gallai_partition(split_k4())
        assert verify_gallai_partition(split_k4(), p)
        assert not verify_gallai_partition(split_k4(), dataclasses.replace(p, **damage))

    def test_recoloured_inter_part_edge_rejected(self):
        p = find_gallai_partition(split_k4())
        col = Colouring.from_edge_colours(
            4, 3, {(1, 2): 2, (3, 4): 3, (1, 3): 1, (1, 4): 2, (2, 3): 1, (2, 4): 1})
        assert not verify_gallai_partition(col, p)

    def test_first_valid_base_set_covers_n_minus_1(self):
        # the partition is the first valid candidate, found here by union-find,
        # and each of its base colours covers >= n-1 crossing edges; seeds not
        # divisible by 3 give Gallai substitutions, the others uniform colourings
        partitions = 0
        for seed in range(300, 2400):
            col = seeded_colouring(seed)
            want = _first_valid_partition(col)
            p = find_gallai_partition(col)
            if want is None:
                assert p is None, seed
                continue
            partitions += 1
            assert (p.parts, p.base_colours) == want, seed
            assert moreover_holds(col.n, p), seed
        assert partitions >= 1500

    def test_callers_share_one_routine(self):
        assert cli.find_gallai_partition is verifier.find_gallai_partition
        assert bounds.gallai_parts is verifier.gallai_parts


class TestVerifyCertificate:
    def test_replay_pass(self):
        seq = DistributionSequence.of(6, (7, 8))
        res = construct_greedy(6, seq)
        assert res.status == "certificate"
        col = realize_certificate(res.certificate)
        assert verify_certificate(res.certificate, col, seq) is None

    def test_flipped_edge_fails(self):
        seq = DistributionSequence.of(6, (7, 8))
        cert = construct_greedy(6, seq).certificate
        col = realize_certificate(cert)
        m = col.matrix.copy()
        m.setflags(write=True)
        other = 1 if m[0, 1] == 2 else 2
        m[0, 1] = other
        m[1, 0] = other
        bad = Colouring(6, 2, m)
        line = verify_certificate(cert, bad, seq)
        assert line is not None
        assert "(1,2)" in line

    def test_budget_violation_detected(self):
        # single step colouring 2*2 = 4 edges with a colour holding only 3
        cert = SplitCertificate(4, 2, [StepRecord(1, 4, 2, 1)])
        col = Colouring.from_edge_colours(
            4, 2, {(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (1, 2): 2, (3, 4): 2})
        line = verify_certificate(cert, col, DistributionSequence.of(4, (3, 3)))
        assert line is not None
        assert line.startswith("certificate replay failed at step 1: ")
        assert "budget" in line

    def test_incomplete_certificate_fails(self):
        cert = SplitCertificate(4, 1, [StepRecord(1, 4, 1, 1)])
        col = Colouring.monochromatic(4)
        assert verify_certificate(cert, col, DistributionSequence.of(4, (6,))) is not None

    def test_structural_mismatch_raises(self):
        seq = DistributionSequence.of(6, (7, 8))
        cert = construct_greedy(6, seq).certificate
        col = realize_certificate(cert)
        with pytest.raises(ValueError, match="^k mismatch: cert=2 colouring=2 seq=3$"):
            verify_certificate(cert, col, DistributionSequence.of(6, (7, 8, 0)))


class TestReplayKernel:
    """Damaged copies of one valid certificate: every replay check must fail
    at the right step, in verify_certificate, realize_certificate and the
    CLI."""

    SEQ = DistributionSequence.of(6, (1, 1, 13))
    STEPS = [StepRecord(1, 6, 1, 3), StepRecord(1, 5, 1, 3), StepRecord(1, 4, 2, 3),
             StepRecord(1, 2, 1, 1), StepRecord(3, 4, 1, 2)]
    # name -> (steps, sequence budgets, failed_step, structural)
    CASES = {
        "dropped step": (STEPS[:1] + STEPS[2:], None, 2, True),
        "repeated step": (STEPS[:1] + STEPS, None, 2, True),
        "inactive block": (STEPS[:4] + [StepRecord(5, 6, 1, 2)], None, 5, True),
        "colour 0": (STEPS[:3] + [StepRecord(1, 2, 1, 0)] + STEPS[4:], None, 4, True),
        "colour k+1": (STEPS[:3] + [StepRecord(1, 2, 1, 4)] + STEPS[4:], None, 4, True),
        "t > size/2": (STEPS[:2] + [StepRecord(1, 4, 3, 3)] + STEPS[3:], None, 3, True),
        "over-budget colour": ([StepRecord(1, 6, 1, 1)] + STEPS[1:], None, 1, False),
        "left-over block": (STEPS[:4], None, None, True),
        "not n-good": (STEPS, (1, 1, 14), None, False),
    }

    def test_literal_certificate_is_the_undamaged_one(self):
        # STEPS is not the certificate the constructors emit for SEQ (the
        # descent opens with t = 3); it is kept as a literal so that the damage
        # cases do not move with the step order
        cert = SplitCertificate(6, 3, self.STEPS)
        assert verify_certificate(cert, realize_certificate(cert), self.SEQ) is None

    @pytest.mark.parametrize("case", list(CASES))
    def test_damaged_certificate_fails(self, case, tmp_path, capsys):
        steps, budgets, failed_step, structural = self.CASES[case]
        cert = SplitCertificate(6, 3, steps)
        col = realize_certificate(SplitCertificate(6, 3, self.STEPS))
        seq = DistributionSequence.of(6, budgets) if budgets else self.SEQ
        line = verify_certificate(cert, col, seq)
        assert line is not None
        where = f" at step {failed_step}" if failed_step else ""
        assert line.startswith(f"certificate replay failed{where}: ")
        if structural:
            with pytest.raises(ValueError):
                realize_certificate(cert)

        col_path, cert_path, seq_path = (tmp_path / f for f in ("c.col", "c.cert", "s.seq"))
        write_colouring(col, str(col_path))
        write_certificate(cert, str(cert_path))
        write_sequence(seq, str(seq_path))
        code = main(["verify", "--colouring", str(col_path), "--cert", str(cert_path),
                     "--seq", str(seq_path)])
        out, err = capsys.readouterr()
        assert code == 2, err
        assert "certificate replay failed" in out
        assert line + "\n" in out  # the line verify_certificate returned

    def _verify_swapped(self, steps, tmp_path, capsys) -> tuple[int, str]:
        """verify --cert --seq on the colouring of STEPS with the colours of
        edges (1,2) and (1,6) swapped, against the certificate of steps. The
        swap keeps the counts, so only the certificate check can fail."""
        m = realize_certificate(SplitCertificate(6, 3, self.STEPS)).matrix.copy()
        m[0, 1], m[0, 5] = m[0, 5], m[0, 1]
        m[1, 0], m[5, 0] = m[0, 1], m[0, 5]
        col_path, cert_path, seq_path = (tmp_path / f for f in ("c.col", "c.cert", "s.seq"))
        write_colouring(Colouring(6, 3, m), str(col_path))
        write_certificate(SplitCertificate(6, 3, steps), str(cert_path))
        write_sequence(self.SEQ, str(seq_path))
        code = main(["verify", "--colouring", str(col_path), "--cert", str(cert_path),
                     "--seq", str(seq_path)])
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    def test_mismatch_names_the_least_edge_not_the_first_step(self, tmp_path, capsys):
        # step 1 paints (1,6) and step 4 paints (1,2): the later step holds
        # the lexicographically earlier edge, and that edge is the one named
        assert self._verify_swapped(self.STEPS, tmp_path, capsys) == (
            2, "certificate replay failed: edge (1,2): certificate gives 1, colouring has 3\n")

    @pytest.mark.parametrize("steps, line", [
        (STEPS[:4], "certificate replay failed: 1 blocks left uncoloured"),
        (STEPS[:4] + [StepRecord(5, 6, 1, 2)],
         "certificate replay failed at step 5: no active block [5..6]"),
    ])
    def test_replay_failure_wins_over_a_mismatch(self, steps, line, tmp_path, capsys):
        # both swapped edges are painted, wrongly, before the replay fails
        assert self._verify_swapped(steps, tmp_path, capsys) == (2, line + "\n")


class TestOneTriangleScan:
    """Being Gallai is hereditary, so one rainbow-triangle scan per colouring
    settles it and every block cut from it; the partition search that follows
    makes no scan of its own."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Every triangle scan and partition search, in call order, as
        ("scan", n) and ("partition", n). Each find_rainbow_clique call is one
        scan, its first level; find_rainbow_triangle makes one such call."""
        calls = []
        for name, tag in (("find_rainbow_clique", "scan"),
                          ("find_gallai_partition", "partition")):
            orig = getattr(verifier, name)

            def counted(col, *args, orig=orig, tag=tag):
                calls.append((tag, col.n))
                return orig(col, *args)

            for mod in (gallaikit, verifier, bounds, cli):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted)
        return calls

    @pytest.mark.parametrize("n", [8, 70])
    def test_verify_k3_scans_once(self, n, scans, tmp_path, capsys):
        col_path = tmp_path / "k3.col"
        assert main(["construct", "--target", "builtin:K3", "--n", str(n),
                     "--seq", "balanced", "--k", "3", "--out", str(col_path)]) == 0
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K3"]) == 0
        assert scans == [("scan", n)] + ([("partition", n)] if n <= 64 else [])

    @pytest.mark.parametrize("n", [8, 70])
    def test_verify_c4_scans_once(self, n, scans, tmp_path, capsys):
        # four colours: three would settle C4 with no scan at all
        col_path = tmp_path / "c4.col"
        assert main(["construct", "--target", "builtin:C4", "--n", str(n),
                     "--seq", "balanced", "--k", "4", "--out", str(col_path)]) == 0
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:C4"]) == 0
        assert scans == [("scan", n)]

    def test_verify_c4_in_three_colours_scans_none(self, scans, tmp_path, capsys):
        col_path = tmp_path / "c4.col"
        assert main(["construct", "--target", "builtin:C4", "--n", "70",
                     "--seq", "balanced", "--k", "3", "--out", str(col_path)]) == 0
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:C4"]) == 0
        assert scans == []

    def test_verify_c4_searches_after_the_scan(self, scans, tmp_path, capsys):
        col_path = tmp_path / "distinct.col"
        write_colouring(all_distinct(8), str(col_path))
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:C4"]) == 2
        assert capsys.readouterr().out == "RAINBOW 1 2 3 4\n"
        assert scans == [("scan", 8)]

    @pytest.mark.parametrize("n", [8, 70])
    def test_verify_k3_with_certificate_scans_none(self, n, scans, tmp_path, capsys):
        col_path, cert_path = tmp_path / "k3.col", tmp_path / "k3.cert"
        assert main(["construct", "--target", "builtin:K3", "--n", str(n), "--seq", "balanced",
                     "--k", "3", "--out", str(col_path), "--cert", str(cert_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K3",
                     "--cert", str(cert_path)]) == 0
        partitions = [("partition", n)] if n <= 64 else []
        assert scans == partitions
        with_cert = capsys.readouterr().out
        scans.clear()
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K3"]) == 0
        assert scans == [("scan", n)] + partitions
        assert capsys.readouterr().out == with_cert    # the same PARTITION line at n=8
        assert with_cert.startswith("PARTITION") == (n <= 64)

    def test_damaged_certificate_still_scans(self, scans, tmp_path, capsys):
        col_path, cert_path = tmp_path / "k3.col", tmp_path / "k3.cert"
        assert main(["construct", "--target", "builtin:K3", "--n", "70", "--seq", "balanced",
                     "--k", "3", "--out", str(col_path), "--cert", str(cert_path)]) == 0
        cert = read_certificate(str(cert_path))
        last = cert.steps[-1]
        cert.steps[-1] = dataclasses.replace(last, colour=last.colour % 3 + 1)
        write_certificate(cert, str(cert_path))
        capsys.readouterr()
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K3",
                     "--cert", str(cert_path)]) == 2
        assert "certificate replay failed" in capsys.readouterr().out
        assert scans == [("scan", 70)]

    @pytest.mark.parametrize("target, gallai_scans, code", [("builtin:K4", 0, 0),
                                                            ("builtin:C4", 1, 2)])
    def test_complete_target_skips_the_gallai_scan(self, target, gallai_scans, code, scans,
                                                   monkeypatch, tmp_path, capsys):
        # a planted K5 puts rainbow triangles in a Gallai colouring; the clique
        # search for K4 is the only scan, where the "gallai" scan came first
        calls = []
        orig = verifier.find_rainbow_triangle

        def counted(col):
            calls.append(col.n)
            return orig(col)

        monkeypatch.setattr(verifier, "find_rainbow_triangle", counted)
        col_path = tmp_path / "planted.col"
        write_colouring(_planted_k5(40, 8), str(col_path))
        assert main(["verify", "--colouring", str(col_path), "--target", target]) == code
        assert len(calls) == gallai_scans
        assert scans == [("scan", 40)]

    def test_peel_scans_once(self, scans, monkeypatch):
        # one triangle scan, and a partition search for each block but those
        # whose parts the block before passed on, as reference_peel's
        # partitions of every block show: here blocks 12, 10 and 8 are
        # searched, and the 8 parts in one colour are carried down to 2
        seq = DistributionSequence.of(12, (30, 20, 16))
        col = realize_certificate(construct_greedy(12, seq).certificate)
        steps, partitions = reference_peel(col, 1)
        scans.clear()
        orig = bounds.gallai_parts

        def counted(M, tally):
            scans.append(("partition", len(M)))
            return orig(M, tally)

        monkeypatch.setattr(bounds, "gallai_parts", counted)
        trace = bounds.peel_splitting_process(col, stop=1)
        assert trace.steps == steps and len(steps) > 1
        searched = searched_blocks(steps, partitions)
        assert searched == [12, 10, 8]
        assert scans == [("scan", 12)] + [("partition", x) for x in searched]


K4, K5 = TargetGraph.complete(4), TargetGraph.complete(5)


def _planted_k5(n: int, k: int) -> Colouring:
    """The K3 construction for the balanced sequence with its last five
    vertices recoloured as a proper 5-edge-colouring of K5: the a-th and b-th
    of them get colour (a+b) mod 5 + 1, so each of their triangles is rainbow."""
    col = construct(TargetGraph.complete(3), n, balanced_sequence(n, k)).colouring
    m = col.matrix.copy()
    for a, b in combinations(range(5), 2):
        u, v = n - 5 + a, n - 5 + b
        m[u, v] = m[v, u] = (a + b) % 5 + 1
    return Colouring(n, col.k, m)


def _random_gallai(rng: random.Random, n: int, k: int) -> Colouring:
    """A Gallai colouring by substitution: split the vertices into two or
    more parts, colour every part pair with one of two colours, recurse into
    the parts. A triangle across three parts sees at most two colours; one
    with two vertices in a part sees one colour on its two edges out."""
    m = np.zeros((n, n), dtype=np.int32)

    def fill(vs: list[int]) -> None:
        if len(vs) < 2:
            return
        count = rng.randint(2, len(vs))
        label = [0, 1] + [rng.randrange(count) for _ in vs[2:]]
        base = rng.sample(range(1, k + 1), min(2, k))
        parts = [[v for v, p in zip(vs, label) if p == q] for q in sorted(set(label))]
        for a, b in combinations(range(len(parts)), 2):
            c = rng.choice(base)
            for u in parts[a]:
                m[u, parts[b]] = c
                m[parts[b], u] = c
        for part in parts:
            fill(part)

    fill(list(range(n)))
    return Colouring(n, k, m)


def _plant_rainbow(col: Colouring, vertices: tuple[int, ...]) -> Colouring:
    """col with the edges among vertices recoloured 1, 2, 3, ... in lex order."""
    m = col.matrix.copy()
    for c, (u, v) in enumerate(combinations(vertices, 2), 1):
        m[u - 1, v - 1] = m[v - 1, u - 1] = c
    return Colouring(col.n, col.k, m)


def _late_plant(n: int, k: int, tmp_path):
    """Write the mindeg3 colouring of the balanced sequence with a rainbow K4
    planted on its last four vertices, which the peel cannot remove."""
    col = _plant_rainbow(construct_mindeg3(n, balanced_sequence(n, k)), (n - 3, n - 2, n - 1, n))
    assert not peels_two_colours(col)
    path = tmp_path / "planted.col"
    write_colouring(col, str(path))
    return path


class TestRainbowFreeProofs:
    """settle_target settles a target from a replayed certificate, too few
    colours, the two-colour peel or a triangle scan that finds no rainbow
    triangle, and searches only when none of them does."""

    def test_certificate_settles_cyclic_targets_only(self):
        seq = DistributionSequence.of(12, (30, 20, 16))
        col = realize_certificate(construct_greedy(12, seq).certificate)
        for H in (TargetGraph.complete(3), TargetGraph.cycle(4), K4):
            assert settle_target(col, H, cert_ok=True) == SubgraphSearch(NONE, proof="certificate")
        assert settle_target(col, TargetGraph.path(4), cert_ok=True).proof is None
        # four colours, so the colour count does not settle C4 first
        seq = DistributionSequence.of(12, (30, 16, 12, 8))
        col = realize_certificate(construct_greedy(12, seq).certificate)
        assert settle_target(col, TargetGraph.cycle(4), cert_ok=False) == \
            SubgraphSearch(NONE, proof="gallai")
        assert settle_target(col, TargetGraph.path(4), cert_ok=True).found

    def test_too_few_colours_settle_any_target(self):
        # three colours cannot make a rainbow copy of a graph with four edges
        # or more, forests included; three edges need the search
        seq = DistributionSequence.of(12, (30, 20, 16))
        col = realize_certificate(construct_greedy(12, seq).certificate)
        for H in (TargetGraph.cycle(4), K4, TargetGraph.path(5), TargetGraph.star(4)):
            assert settle_target(col, H, cert_ok=False) == SubgraphSearch(NONE, proof="colours")
        assert settle_target(col, TargetGraph.path(4), cert_ok=False).proof is None
        assert settle_target(all_distinct(5), K4, cert_ok=False).found

    def test_peel_settles_degeneracy_three(self):
        col = construct_mindeg3(20, balanced_sequence(20, 6))
        assert peels_two_colours(col)
        assert settle_target(col, K4, cert_ok=False) == SubgraphSearch(NONE, proof="peel")
        assert find_rainbow_triangle(col) is not None
        hit = settle_target(col, TargetGraph.cycle(4), cert_ok=False)
        assert hit.proof is None and hit.found

    def test_rainbow_cycle_implies_rainbow_triangle(self):
        """The chord argument behind the "gallai" proof, checked on 2000
        seeded colourings with n <= 8: random ones (mostly not Gallai),
        random Gallai substitutions, and substitutions with one edge
        recoloured. An exhaustive search over every cycle length finds a
        rainbow cycle exactly when the triangle scan finds a triangle."""
        rng = random.Random(15)
        gallai = cyclic = 0
        for i in range(2000):
            n = rng.randint(3, 8)
            if i % 3 == 0:
                col = random_colouring(rng, n, rng.randint(2, 6))
            else:
                col = _random_gallai(rng, n, rng.randint(2, 8))
                if i % 3 == 2:
                    u, v = rng.sample(range(n), 2)
                    m = col.matrix.copy()
                    m[u, v] = m[v, u] = rng.randint(1, col.k)
                    col = Colouring(n, col.k, m)
            has_cycle = False
            for L in range(3, n + 1):
                hit = find_rainbow_subgraph(col, TargetGraph.cycle(L), node_budget=10**7)
                assert hit.status != "inconclusive"
                if hit.found:
                    has_cycle = True
                    break
            assert has_cycle == (find_rainbow_triangle(col) is not None)
            gallai += not has_cycle
            cyclic += has_cycle
        assert gallai >= 1000 and cyclic >= 600

    def test_mindeg3_output_verifies_for_k4(self, tmp_path, capsys):
        col_path = tmp_path / "k4.col"
        assert main(["construct", "--target", "builtin:K4", "--n", "200", "--seq", "balanced",
                     "--k", "20", "--out", str(col_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4"]) == 0
        assert capsys.readouterr().out == "OK\n"

    @pytest.mark.parametrize("target", ["builtin:C4", "builtin:K4"])
    def test_standard_colouring_verifies_without_certificate(self, target, tmp_path, capsys):
        # neither the peel nor a 2*10^6-node search settles these; the scan does
        col_path = tmp_path / "c4.col"
        assert main(["construct", "--target", "builtin:C4", "--n", "300", "--seq", "balanced",
                     "--k", "20", "--out", str(col_path)]) == 0
        capsys.readouterr()
        assert not peels_two_colours(read_colouring(str(col_path)))
        assert main(["verify", "--colouring", str(col_path), "--target", target]) == 0
        assert capsys.readouterr().out == "OK\n"

    def test_planted_rainbow_k4_is_found(self, tmp_path, capsys):
        col = _plant_rainbow(construct_mindeg3(200, DistributionSequence.of(200, (995,) * 20)),
                             (50, 100, 150, 200))
        assert not peels_two_colours(col)
        hit = find_rainbow_subgraph(col, K4, node_budget=2_000_000)
        assert hit.embedding == Embedding((1, 50, 100, 150))
        col_path = tmp_path / "planted.col"
        write_colouring(col, str(col_path))
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4"]) == 2
        assert capsys.readouterr().out == "RAINBOW 1 50 100 150\n"

    @pytest.mark.parametrize("n, k", [(100, 10), (200, 20)])
    def test_late_planted_rainbow_k4_is_found(self, n, k, tmp_path, capsys):
        # the backtracking search, which tries vertices in index order, ran
        # out of its 2*10^6 nodes on these
        col_path = _late_plant(n, k, tmp_path)
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4"]) == 2
        assert capsys.readouterr().out == f"RAINBOW {n - 3} {n - 2} {n - 1} {n}\n"

    def test_starved_clique_search_is_inconclusive(self, tmp_path, capsys):
        # the clique search meets 5,028 rainbow triangles before this plant
        col_path = _late_plant(100, 10, tmp_path)
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4",
                     "--budget", "1000"]) == 3
        assert capsys.readouterr() == ("", "inconclusive: rainbow search hit its node budget\n")

    def test_three_colours_settle_k4_without_search(self, tmp_path, capsys):
        # no rainbow K4 in three colours; the clique search spent its budget
        # on the 7,643 rainbow triangles it cannot extend and exited 3
        r = np.triu(np.random.default_rng(3).integers(1, 4, (60, 60)), 1)
        col_path = tmp_path / "random3.col"
        write_colouring(Colouring(60, 3, (r + r.T).astype(np.int32)), str(col_path))
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4",
                     "--budget", "1000"]) == 0
        assert capsys.readouterr() == ("OK\n", "")

    def test_distinct_colours_stop_the_peel(self, tmp_path, capsys):
        n = 40
        m = np.zeros((n, n), dtype=np.int32)
        iu = np.triu_indices(n, 1)
        m[iu] = np.arange(1, comb(n, 2) + 1)
        col = Colouring(n, comb(n, 2), m + m.T)
        assert not peels_two_colours(col)
        col_path = tmp_path / "distinct.col"
        write_colouring(col, str(col_path))
        assert main(["verify", "--colouring", str(col_path), "--target", "builtin:K4"]) == 2
        assert capsys.readouterr().out == "RAINBOW 1 2 3 4\n"

    def test_peel_never_hides_a_rainbow_copy(self):
        """Seeded corpus, n <= 9: random colourings with 2-9 colours and
        mindeg3 outputs. Whenever the peel applies, the exhaustive search
        finds no rainbow K4 or K5; where it does not, some have one. On
        every colouring settle_target agrees with the exhaustive search, and
        gives none whenever it names a proof."""
        rng = random.Random(6)
        applied = found = 0
        for _ in range(300):
            n = rng.randint(4, 9)
            if rng.random() < 0.5:
                col = random_colouring(rng, n, rng.randint(2, 9))
            else:
                col = construct_mindeg3(n, random_sequence(rng, n, rng.randint(1, n // 2)))
            for H in (K4, K5):
                hit = find_rainbow_subgraph(col, H, node_budget=10**7)
                settled = settle_target(col, H, cert_ok=False)
                assert settled.status == hit.status and settled.embedding == hit.embedding
                assert settled.proof is None or hit.exhausted
                if peels_two_colours(col):
                    applied += 1
                    assert hit.exhausted
                else:
                    found += hit.found
        assert applied >= 300 and found >= 20
