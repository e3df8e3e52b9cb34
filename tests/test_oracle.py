import random
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest

from gallaikit import oracle
from gallaikit.core import DistributionSequence, TargetGraph, balanced_sequence, colour_counts
from gallaikit.constructor import construct_greedy, standard_search
from gallaikit.errors import PreconditionViolation
from gallaikit.oracle import (
    INCONCLUSIVE,
    REALIZABLE,
    UNREALIZABLE,
    _clash_test,
    exact_g,
    is_realizable,
    is_realizable_standard,
    n_good_multisets,
)
from gallaikit.verifier import find_rainbow_subgraph

from conftest import random_sequence

K3 = TargetGraph.complete(3)
FIXTURES = Path(__file__).parent / "fixtures"


class TestIsRealizable:
    def test_three_singletons_k3(self):
        assert is_realizable(DistributionSequence.of(3, (1, 1, 1)), K3).status == UNREALIZABLE

    def test_two_colours_always_triangle_free(self):
        res = is_realizable(DistributionSequence.of(4, (3, 3)), K3)
        assert res.status == REALIZABLE

    def test_n5_witness_verified(self):
        seq = DistributionSequence.of(5, (4, 3, 3))
        res = is_realizable(seq, K3)
        assert res.status == REALIZABLE
        assert colour_counts(res.colouring) == list(seq.e)
        assert find_rainbow_subgraph(res.colouring, K3).status == "none"

    def test_witnesses_always_check_out(self, rng):
        for _ in range(30):
            n = rng.randint(3, 6)
            k = rng.randint(1, 3)
            seq = random_sequence(rng, n, k)
            res = is_realizable(seq, K3)
            if res.status == REALIZABLE:
                assert colour_counts(res.colouring) == list(seq.e)
                assert find_rainbow_subgraph(res.colouring, K3).status == "none"

    def test_single_edge_target_never_realizable(self):
        # one edge is always a rainbow copy of a single-edge target
        K2 = TargetGraph.complete(2)
        assert is_realizable(DistributionSequence.of(3, (2, 1)), K2).status == UNREALIZABLE
        assert is_realizable(DistributionSequence.of(3, (3,)), K2).status == UNREALIZABLE

    def test_general_kernel_matches_specialised(self, rng):
        # a path target exercises the anchored clash test of general targets
        P4 = TargetGraph.path(4)
        for _ in range(10):
            seq = random_sequence(rng, 4, 2)
            res = is_realizable(seq, P4)
            assert res.status in (REALIZABLE, UNREALIZABLE)
            if res.status == REALIZABLE:
                assert find_rainbow_subgraph(res.colouring, P4).status == "none"

    def test_budget_yields_inconclusive(self):
        seq = DistributionSequence.of(6, (5, 5, 5))
        res = is_realizable(seq, K3, node_budget=5)
        assert res.status == "inconclusive"

    # (target, largest n) for k = 2, 3, 4; every n-good multiset up to that n
    SYMMETRY_CASES = [(K3, 6), (TargetGraph.cycle(4), 6), (TargetGraph.complete(4), 6),
                      (TargetGraph.path(4), 5), (TargetGraph.star(3), 5)]

    def test_symmetry_pruning_soundness(self):
        # both symmetry rules only cut branches that a colour or vertex
        # relabelling maps onto an earlier one, so the first hit, the
        # lex-least valid colouring, must be the same with and without them
        unrealizable = 0
        for H, n_max in self.SYMMETRY_CASES:
            for k in (2, 3, 4):
                for n in range(2, n_max + 1):
                    for e in n_good_multisets(n, k):
                        seq = DistributionSequence(n, k, e)
                        pruned = is_realizable(seq, H, use_symmetry=True)
                        full = is_realizable(seq, H, use_symmetry=False)
                        assert pruned.status == full.status, (H.edges, e)
                        if full.colouring is None:
                            unrealizable += 1
                            assert pruned.colouring is None
                        else:
                            assert (pruned.colouring.matrix == full.colouring.matrix).all(), \
                                (H.edges, e)
        assert unrealizable > 0

    def test_gallai_but_not_standard(self):
        # a Gallai colouring realises this sequence and no standard colouring
        # does; the search needs the vertex rule to decide it within its
        # default budget
        seq = DistributionSequence.of(9, (17, 10, 3, 2, 2, 2))
        res = is_realizable(seq, K3)
        assert res.status == REALIZABLE
        assert colour_counts(res.colouring) == list(seq.e)
        assert find_rainbow_subgraph(res.colouring, K3).status == "none"
        assert not is_realizable_standard(seq)

    def test_requires_n_good(self):
        with pytest.raises(PreconditionViolation):
            is_realizable(DistributionSequence.of(4, (3, 4)), K3)


def _has_rainbow_copy(colour: dict, H: TargetGraph, n: int) -> bool:
    """Every injective map of V(H) into [n]; rainbow when the images of the
    edges of H are pairwise differently coloured."""
    for img in permutations(range(1, n + 1), H.m):
        cols = {colour[tuple(sorted((img[a - 1], img[b - 1])))] for a, b in H.edges}
        if len(cols) == len(H.edges):
            return True
    return False


def _compositions(total: int, k: int):
    for cuts in combinations(range(total + k - 1), k - 1):
        bounds = (-1,) + cuts + (total + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


class TestGeneralTargetsAgainstBruteForce:
    """Every colouring of K_n, enumerated: the colour counts of the rainbow-H-free
    ones are exactly the sequences the search calls realizable."""

    TARGETS = {"p3": TargetGraph.path(3), "p4": TargetGraph.path(4),
               "star3": TargetGraph.star(3),
               "2k2": TargetGraph.from_edges(4, [(1, 2), (3, 4)])}
    CASES = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)] + [(5, 2)]

    @pytest.mark.parametrize("name", sorted(TARGETS))
    @pytest.mark.parametrize("n, k", CASES)
    def test_statuses_and_witnesses(self, name, n, k):
        H = self.TARGETS[name]
        edges = list(combinations(range(1, n + 1), 2))
        free = set()
        for cols in product(range(1, k + 1), repeat=len(edges)):
            if not _has_rainbow_copy(dict(zip(edges, cols)), H, n):
                free.add(tuple(cols.count(c) for c in range(1, k + 1)))
        for e in _compositions(len(edges), k):
            res = is_realizable(DistributionSequence(n, k, e), H)
            assert res.status == (REALIZABLE if e in free else UNREALIZABLE), e
            if res.colouring is not None:
                assert colour_counts(res.colouring) == list(e)
                colour = {(u, v): res.colouring.colour_of(u, v) for u, v in edges}
                assert not _has_rainbow_copy(colour, H, n)


class TestClashTest:
    """clashes(M, u, v, c) against every injective placement of H, on random
    partial colourings (0 = uncoloured) of K_5."""

    TARGETS = [TargetGraph.path(3), TargetGraph.path(4), TargetGraph.star(3),
               TargetGraph.from_edges(4, [(1, 2), (3, 4)]), TargetGraph.cycle(4),
               TargetGraph.complete(4), TargetGraph.cycle(5)]

    @pytest.mark.parametrize("H", TARGETS, ids=["p3", "p4", "star3", "2k2", "c4", "k4", "c5"])
    def test_matches_brute_force(self, H, rng):
        n, k = 5, len(H.edges) + 1
        clashes = _clash_test(H, n)
        for _ in range(300):
            M = [[0] * n for _ in range(n)]
            for u, v in combinations(range(n), 2):
                M[u][v] = M[v][u] = rng.randint(0, k)
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            M[u - 1][v - 1] = M[v - 1][u - 1] = 0
            c = rng.randint(1, k)
            want = False
            for img in permutations(range(1, n + 1), H.m):
                pairs = [{img[a - 1], img[b - 1]} for a, b in H.edges]
                cols = [c if p == {u, v} else M[min(p) - 1][max(p) - 1] for p in pairs]
                if {u, v} in pairs and 0 not in cols and len(set(cols)) == len(cols):
                    want = True
                    break
            assert clashes(M, u, v, c) == want


class TestExactG:
    def test_two_colours_all_realizable(self):
        rep = exact_g(K3, 2, 6)
        assert not rep.partial
        for n in rep.per_n:
            assert rep.all_realizable(n)
        assert rep.least_all_realizable_from == 2

    def test_k3_table_and_mandatory_entry(self):
        rep = exact_g(K3, 3, 6)
        verdicts = {row.e: row.status for row in rep.per_n[3]}
        assert verdicts[(1, 1, 1)] == UNREALIZABLE
        assert rep.all_realizable(5) and rep.all_realizable(6)
        assert not rep.all_realizable(3) and not rep.all_realizable(4)

    def test_table_matches_committed_fixture(self):
        rep = exact_g(K3, 3, 6)
        lines = ["# target=k3 k=3 n_max=6"]
        for n in sorted(rep.per_n):
            lines.append(f"# n={n}")
            lines.extend(rep.table_lines(n))
        fixture = (FIXTURES / "realizability_k3_k3_n6.txt").read_text().splitlines()
        assert lines == fixture

    @pytest.mark.parametrize("H", [K3, TargetGraph.cycle(4), TargetGraph.path(3)],
                             ids=["K3", "C4", "P3"])
    def test_rows_keep_the_standard_verdict(self, H):
        # the shared memo gives each row the verdict a memo of its own gives;
        # a forest row never runs the standard search
        rep = exact_g(H, 3, 6)
        for n, rows in rep.per_n.items():
            for row in rows:
                if H.m == 3 and len(H.edges) == 2:
                    want = "-"
                else:
                    standard = is_realizable_standard(DistributionSequence(n, 3, row.e))
                    want = "certificate" if standard else "infeasible"
                assert row.standard == want, (n, row.e)

    def test_spent_budget_ends_the_table(self):
        # at every total budget: the rows decided agree with the full table,
        # only the last n holds inconclusive rows, and those end it; a table
        # that stops short of n_max is partial and certifies no threshold.
        # The first inconclusive row may be the one whose standard search
        # (it reads giveup) or exhaustive search the total cut short; the
        # rest are skipped and run no search at all
        full = exact_g(K3, 3, 7)
        assert not full.partial and max(full.per_n) == 7
        for budget in range(1, 120):
            rep = exact_g(K3, 3, 7, total_node_budget=budget)
            last = max(rep.per_n)
            for n in range(2, last + 1):
                rows = rep.per_n[n]
                assert [r.e for r in rows] == [r.e for r in full.per_n[n]]
                skipped = [r.status == INCONCLUSIVE for r in rows]
                assert n == last or not any(skipped), budget
                assert skipped == sorted(skipped), budget
                first = skipped.index(True) if any(skipped) else None
                for i, (row, want) in enumerate(zip(rows, full.per_n[n])):
                    if row.status != INCONCLUSIVE:
                        assert row == want
                    elif i == first:
                        assert row.standard in ("-", "giveup", want.standard), budget
                    else:
                        assert row.standard == "-", budget
            cut = last < 7 or any(r.status == INCONCLUSIVE for r in rep.per_n[7])
            assert rep.partial == cut, budget
            assert rep.least_all_realizable_from == (None if cut else
                                                     full.least_all_realizable_from)

    def test_total_budget_bounds_the_exhaustive_search(self, monkeypatch):
        # each exhaustive call gets at most what is left of the total; before,
        # every call got the full per-row budget, and this table spent 2,052
        # nodes, 1,390 of them in one call
        spent = []

        def counted(*args, **kwargs):
            res = is_realizable(*args, **kwargs)
            spent.append(res.nodes)
            return res

        monkeypatch.setattr(oracle, "is_realizable", counted)
        rep = exact_g(TargetGraph.cycle(4), 5, 7, total_node_budget=1000)
        assert rep.partial and spent
        assert sum(spent) <= 1000

    def test_total_budget_bounds_both_searches(self, monkeypatch):
        # the standard search runs under what is left of the total too, and
        # each search that runs out reports the budget it was given: this
        # table read 47 standard states plus 954 exhaustive nodes, 1,001
        spent = {"standard": 0, "exhaustive": 0}

        def standard(*args, **kwargs):
            status, nodes = standard_search(*args, **kwargs)
            spent["standard"] += nodes
            return status, nodes

        def exhaustive(*args, **kwargs):
            res = is_realizable(*args, **kwargs)
            spent["exhaustive"] += res.nodes
            return res

        monkeypatch.setattr(oracle, "standard_search", standard)
        monkeypatch.setattr(oracle, "is_realizable", exhaustive)
        rep = exact_g(TargetGraph.cycle(4), 5, 7, total_node_budget=1000)
        assert rep.partial and spent["standard"] and spent["exhaustive"]
        assert spent["standard"] + spent["exhaustive"] == 1000

    def test_standard_search_giving_up_leaves_the_row_inconclusive(self):
        rep = exact_g(K3, 3, 7, total_node_budget=9)
        assert rep.partial and max(rep.per_n) == 4
        row = rep.per_n[4][[r.e for r in rep.per_n[4]].index((5, 1, 0))]
        assert (row.status, row.standard) == (INCONCLUSIVE, "giveup")

    def test_spent_search_reports_its_budget(self):
        res = is_realizable(DistributionSequence.of(7, (7, 7, 7)), TargetGraph.cycle(4),
                            node_budget=5)
        assert (res.status, res.nodes) == (INCONCLUSIVE, 5)

    def test_multiset_enumeration_counts(self):
        # descending multisets of C(4,2)=6 into at most 3 parts
        assert len(list(n_good_multisets(4, 3))) == 7
        assert len(list(n_good_multisets(4, 1))) == 1

    def test_multisets_against_brute_force(self):
        for n in range(2, 8):
            for k in range(1, 5):
                total = comb(n, 2)
                want = sorted((e for e in product(range(total + 1), repeat=k)
                               if sum(e) == total and list(e) == sorted(e, reverse=True)),
                              reverse=True)
                assert list(n_good_multisets(n, k)) == want, (n, k)


class TestIsRealizableStandard:
    def test_three_singletons(self):
        assert not is_realizable_standard(DistributionSequence.of(3, (1, 1, 1)))

    def test_n4_balanced_three(self):
        # exhaustively false and cross-checked against the greedy constructor
        seq = DistributionSequence.of(4, (2, 2, 2))
        assert not is_realizable_standard(seq)
        assert construct_greedy(4, seq).status == "infeasible"

    def test_single_colour_always(self, rng):
        for n in (2, 5, 9):
            assert is_realizable_standard(DistributionSequence.of(n, (comb(n, 2),)))

    def test_agrees_with_greedy(self, rng):
        for _ in range(80):
            n = rng.randint(2, 8)
            k = rng.randint(1, 4)
            seq = random_sequence(rng, n, k)
            std = is_realizable_standard(seq)
            greedy = construct_greedy(n, seq).status
            assert std == (greedy == "certificate")

    def test_deep_search_needs_no_recursion(self):
        # one step per vertex: 1999 steps deep, past Python's recursion limit
        assert is_realizable_standard(balanced_sequence(2000, 5))

    def test_agrees_with_greedy_on_every_multiset(self):
        # the search splits only the largest block, since steps on different
        # blocks commute; this enumeration splits any block, by any t, in any
        # colour, memoised on the exact budget vector, and must agree, and so
        # must the greedy constructor, whose descent runs before the search
        def any_split(sizes: tuple, budgets: tuple, memo: dict) -> bool:
            if not sizes:
                return True
            key = (sizes, budgets)
            if key not in memo:
                memo[key] = any(
                    any_split(tuple(sorted(sizes[:i] + sizes[i + 1:]
                                           + tuple(p for p in (s - t, t) if p >= 2))),
                              budgets[:j] + (budgets[j] - t * (s - t),) + budgets[j + 1:],
                              memo)
                    for i, s in enumerate(sizes) for t in range(1, s // 2 + 1)
                    for j in range(len(budgets)) if budgets[j] >= t * (s - t))
            return memo[key]

        memo: dict = {}
        rows = 0
        for k in range(1, 5):
            for n in range(2, 9):
                for e in n_good_multisets(n, k):
                    rows += 1
                    seq = DistributionSequence(n, k, e)
                    std = is_realizable_standard(seq)
                    assert std == any_split((n,), e, memo), e
                    assert std == (construct_greedy(n, seq).status == "certificate"), e
        assert rows == 693
