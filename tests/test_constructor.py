import hashlib
import math
import random
from fractions import Fraction
from math import comb

import pytest

from gallaikit.core import (
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    degeneracy,
)
from gallaikit.constructor import (
    MINDEG3_DEGENERACY,
    STANDARD_DEGENERACY,
    SplitState,
    StageConstants,
    _max_step_size,
    batch_steps,
    construct,
    construct_greedy,
    construct_mindeg3,
    construct_mindeg3_trace,
    construct_staged,
    cushion,
    drain_with_cushion,
    greedy_descent,
    read_certificate,
    realize_certificate,
    reduce_large,
    standard_certificate,
    standard_search,
    write_certificate,
)
from gallaikit.errors import (
    BatchInfeasible,
    BudgetExceeded,
    CushionTooSmall,
    PreconditionViolation,
    StagedInfeasible,
    TooLargeT,
)
from gallaikit.bounds import triangle_hard_sequence
from gallaikit.oracle import is_realizable_standard
from gallaikit.verifier import (
    find_rainbow_subgraph,
    find_rainbow_triangle,
    verify_certificate,
)

from conftest import random_sequence

# A paper-regime draw (k = 20, n = 39, c = 0.75) on which the best-fit descent
# stalls and the standard search realises it.
SEARCH_39 = (14, 11, 35, 4, 10, 65, 15, 109, 16, 56, 19, 4, 26, 8, 78, 37, 24, 79, 25, 106)


class TestStandardStep:
    def test_arithmetic(self):
        st = SplitState.synthetic([6], [9, 6])
        st.apply_step(1, 2, 1)
        assert st.budgets == [1, 6]
        assert sorted(st.blocks.items()) == [(1, 4), (5, 6)]

    def test_too_large_t(self):
        st = SplitState.synthetic([5], [10])
        with pytest.raises(TooLargeT):
            st.apply_step(1, 3, 1)

    def test_budget_exceeded(self):
        st = SplitState.synthetic([6], [7, 8])
        with pytest.raises(BudgetExceeded):
            st.apply_step(1, 2, 1)

    def test_conservation_after_any_legal_step(self, rng):
        # state {K5, K3, K2} with budgets summing to 10+3+1 = 14
        for _ in range(50):
            budgets = [0, 0, 0]
            for _ in range(14):
                budgets[rng.randint(0, 2)] += 1
            st = SplitState.synthetic([5, 3, 2], budgets)
            moves = []
            for lo, hi in st.blocks.items():
                size = hi - lo + 1
                for t in range(1, size // 2 + 1):
                    for c in range(1, 4):
                        if budgets[c - 1] >= t * (size - t):
                            moves.append((lo, t, c))
            if not moves:
                continue
            lo, t, c = rng.choice(moves)
            st.apply_step(lo, t, c)
            assert st.conservation_holds()


class TestSimpleStep:
    def test_colours_m_minus_one(self):
        st = SplitState.synthetic([7], [21])
        st.apply_step(1, 1, 1)
        assert st.budgets == [15]

    def test_block_of_two_dissolves(self):
        st = SplitState.synthetic([2], [1])
        st.apply_step(1, 1, 1)
        assert st.done

    def test_budget_short_by_one(self):
        st = SplitState.synthetic([5, 2], [3, 8])
        with pytest.raises(BudgetExceeded):
            st.apply_step(1, 1, 1)


class TestCushion:
    def test_example(self):
        st = SplitState.synthetic([5, 3, 2], [14])
        assert cushion(st, 1) == comb(3, 2) + comb(2, 2)  # 3 + 1 = 4

    def test_single_block(self):
        st = SplitState.synthetic([6], [15])
        assert cushion(st, 1) == 0

    def test_two_equal_blocks(self):
        st = SplitState.synthetic([4, 4], [12])
        assert cushion(st, 1) == 6
        assert cushion(st, 5) == 6


class TestReduceLarge:
    def test_balanced_example(self):
        st = SplitState.synthetic([12], [22, 22, 22])
        reduce_large(st, 1)
        assert st.block_size(1) == 5  # 2k - 1 for k = 3

    def test_exactly_2k_takes_one_step(self):
        st = SplitState.synthetic([6], [10, 4, 1])
        reduce_large(st, 1)
        assert st.block_size(1) == 5

    def test_below_2k_is_noop(self):
        st = SplitState.synthetic([5], [5, 4, 1])
        reduce_large(st, 1)
        assert st.block_size(1) == 5 and not st.steps


class TestDrainWithCushion:
    def test_k2_example(self):
        st = SplitState.synthetic([4, 2], [6, 1])
        drain_with_cushion(st, 1)
        assert 1 not in st.blocks
        assert len(st.steps) == 3

    def test_k3_all_splits_of_18(self):
        # state {K6, K3}: cushion 3 = min{(9-3)/2, 18}; every budget split works
        for a in range(19):
            for b in range(19 - a):
                c = 18 - a - b
                st = SplitState.synthetic([6, 3], [a, b, c])
                drain_with_cushion(st, 1)
                assert 1 not in st.blocks

    def test_cushion_zero_rejected(self):
        st = SplitState.synthetic([4], [6, 0])
        with pytest.raises(CushionTooSmall):
            drain_with_cushion(st, 1)

    def test_fuzz_never_fails_when_precondition_holds(self, rng):
        # randomized states: a main block plus filler blocks providing cushion
        trials = 100_000
        done = 0
        while done < trials:
            k = rng.randint(2, 8)
            m = rng.randint(2, 20)
            need = min((k * k - k) // 2, k * m)
            filler = []
            pool = 0
            while pool < need:
                s = rng.randint(2, 9)
                filler.append(s)
                pool += comb(s, 2)
            total = comb(m, 2) + pool
            budgets = [0] * k
            for _ in range(total):
                budgets[rng.randint(0, k - 1)] += 1
            st = SplitState.synthetic([m] + filler, budgets)
            drain_with_cushion(st, 1)  # must not raise
            assert 1 not in st.blocks
            done += 1


class TestBatchSteps:
    def test_capacity_example(self):
        st = SplitState.synthetic([20, 4, 4], [100, 60, 42])
        out = batch_steps(st, 1, 1, 5, [1, 2, 3])
        assert len(out) == 5
        assert st.block_size(1) == 15

    def test_boundary_is_infeasible(self):
        # sum of budgets exactly t*n'*(count+k) must be rejected
        st = SplitState.synthetic([20], [100, 40, 20, 30])
        assert sum(st.budgets[j - 1] for j in (1, 2, 3)) == 160 == 1 * 20 * (5 + 3)
        with pytest.raises(BatchInfeasible):
            batch_steps(st, 1, 1, 5, [1, 2, 3])

    def test_count_zero_noop(self):
        st = SplitState.synthetic([20], [190])
        assert batch_steps(st, 1, 2, 0, [1]) == []
        assert not st.steps

    def test_block_too_small(self):
        st = SplitState.synthetic([10], [45])
        with pytest.raises(BatchInfeasible):
            batch_steps(st, 1, 2, 5, [1])


class TestConstructGreedy:
    def test_k3_three_singles_infeasible(self):
        res = construct_greedy(3, DistributionSequence.of(3, (1, 1, 1)))
        assert res.status == "infeasible"

    def test_n4_two_colours(self):
        seq = DistributionSequence.of(4, (3, 3))
        res = construct_greedy(4, seq)
        assert res.status == "certificate"
        assert colour_counts(realize_certificate(res.certificate)) == [3, 3]

    def test_single_colour(self):
        seq = DistributionSequence.of(6, (15,))
        res = construct_greedy(6, seq)
        assert res.status == "certificate"
        assert all(s.colour == 1 for s in res.certificate.steps)

    def test_agrees_with_standard_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            k = rng.randint(1, 3)
            seq = random_sequence(rng, n, k)
            greedy = construct_greedy(n, seq).status
            assert (greedy == "certificate") == is_realizable_standard(seq)

    def test_certificates_replay(self, rng):
        for _ in range(30):
            n = rng.randint(2, 10)
            k = rng.randint(1, 6)
            seq = random_sequence(rng, n, k)
            res = construct_greedy(n, seq)
            if res.status == "certificate":
                col = realize_certificate(res.certificate)
                assert colour_counts(col) == list(seq.e)
                assert verify_certificate(res.certificate, col, seq) is None

    @pytest.mark.parametrize("line, nodes, steps_sha256", [
        ("39 14 11 35 4 10 65 15 109 16 56 19 4 26 8 78 37 24 79 25 106", 156,
         "0b92b6189436adaff30388187e5da7138b815cb2ffdc528236e717e34058b17c"),
        ("20 12 7 29 8 15 3 21 22 18 3 1 17 15 19", 502,
         "f2ed923759def59081a0d515bf62d0bb33721f363e0e21f1e942d7e9eac356a5"),
    ])
    def test_search_nodes_and_steps_pinned(self, line, nodes, steps_sha256):
        # a paper-regime draw (k = 20, c = 0.75) and a seeded gamma draw on
        # which the best-fit descent stalls; the standard search must visit
        # the same nodes and emit the same steps as when it came to try its
        # moves in the descent's order
        n, *e = (int(x) for x in line.split())
        assert not greedy_descent(SplitState.initial(n, e))
        memo: dict = {}
        assert standard_search(n, e, memo) == ("certificate", nodes)
        text = "".join(f"{s.lo} {s.hi} {s.t} {s.colour}\n"
                       for s in standard_certificate(n, e, memo).steps)
        assert hashlib.sha256(text.encode()).hexdigest() == steps_sha256

    def test_search_first_dive_is_best_fit(self, rng):
        # the search tries each state's moves in the descent's order, the
        # (t, colour) that leaves the least budget first, so wherever the
        # best-fit descent colours everything the search takes its steps,
        # one node per step
        hits = 0
        for _ in range(300):
            n = rng.randint(2, 40)
            seq = random_sequence(rng, n, rng.randint(1, 8))
            st = SplitState.initial(n, seq.e)
            if greedy_descent(st):
                hits += 1
                memo: dict = {}
                assert standard_search(n, seq.e, memo) == ("certificate", len(st.steps))
                assert standard_certificate(n, seq.e, memo).steps == st.steps, seq.e
        assert hits > 100

    def test_search_runs_only_when_the_descent_fails(self):
        # the descent realises these two, once pinned search sequences,
        # without a search node; on the paper-regime draw it stalls
        for n, e in ((42, (129, 34, 214, 62, 5, 16, 78, 177, 40, 106)),
                     (48, (67, 167, 126, 48, 131, 201, 72, 36, 65, 80, 33, 102))):
            res = construct_greedy(n, DistributionSequence.of(n, e))
            assert res.status == "certificate" and res.nodes == 0
        res = construct_greedy(39, DistributionSequence.of(39, SEARCH_39))
        assert res.status == "certificate" and res.nodes == 156
        assert res.certificate.metadata == {"strategy": "greedy"}

    def test_search_gives_up_past_its_node_budget(self):
        # the same draw needs 156 nodes; at 10 the search stops on node 11
        # and reports the 10 it was given
        res = construct_greedy(39, DistributionSequence.of(39, SEARCH_39), node_budget=10)
        assert (res.status, res.nodes, res.certificate) == ("giveup", 10, None)


def _gamma_sequence(rng: random.Random, n: int, k: int, shape: float) -> DistributionSequence:
    """C(n,2) cut into k parts at the rounded prefix sums of gamma weights."""
    w = [rng.gammavariate(shape, 1.0) for _ in range(k)]
    total, scale = comb(n, 2), sum(w)
    cuts, acc = [0], 0.0
    for x in w[:-1]:
        acc += x
        cuts.append(round(total * acc / scale))
    cuts.append(total)
    return DistributionSequence.of(n, [b - a for a, b in zip(cuts, cuts[1:])])


class TestGreedyDescent:
    def test_step_size_against_brute_force(self):
        # the largest fitting t <= x/2, and clamped to (x-1)//2 the t that
        # construct_staged's stage 2 took before the cap moved to x/2
        for x in range(2, 80):
            for budget in range(x * x // 4 + 2):
                fits = [t for t in range(1, x // 2 + 1) if t * (x - t) <= budget]
                assert _max_step_size(x, budget) == max(fits, default=0), (x, budget)
                below = [t for t in fits if t <= (x - 1) // 2]
                assert min(_max_step_size(x, budget), (x - 1) // 2) == max(below, default=0)

    def test_step_size_by_linear_scan_to_x_200(self):
        # every budget from x-1, where t = 1 first fits, to past x^2/4, where
        # t = x/2 fits; the largest fitting t grows with the budget, so one
        # upward scan per x gives it
        for x in range(2, 200):
            t = 1
            for budget in range(x - 1, x * x // 4 + 2):
                while t + 1 <= x // 2 and (t + 1) * (x - t - 1) <= budget:
                    t += 1
                assert _max_step_size(x, budget) == t, (x, budget)

    def test_block_of_two_splits(self):
        st = SplitState.synthetic([2, 2], [1, 1])
        assert greedy_descent(st)
        assert [(s.lo, s.t, s.colour) for s in st.steps] == [(1, 1, 1), (3, 1, 2)]

    def test_largest_fitting_t_leaves_the_least(self):
        # t(6-t) <= 9 allows t = 3, the whole half, and spends colour 2; then
        # colours 1 and 3 tie at leftover 1, and the tie goes to colour 1
        st = SplitState.synthetic([6], [3, 9, 3])
        assert greedy_descent(st)
        assert [(s.t, s.colour) for s in st.steps] == [(3, 2), (1, 1), (1, 3), (1, 1), (1, 3)]

    def test_leftover_ties_go_to_the_smaller_t(self):
        # on size 6, t = 1 spends colour 1's 5 and t = 2 spends colour 2's 8:
        # both leave 0, and t = 1 wins; on size 5, colour 2 then leaves
        # 8 - 6 = 2 at t = 2, while colour 3's 2 cannot pay t = 1's 4
        st = SplitState.synthetic([6], [5, 8, 2])
        assert greedy_descent(st)
        assert [(s.t, s.colour) for s in st.steps] == [(1, 1), (2, 2), (1, 2), (1, 3), (1, 3)]

    def test_stalls_below_s_minus_one(self):
        st = SplitState.synthetic([4], [2, 2, 2])
        assert not greedy_descent(st) and not st.steps

    def test_certificates_replay_to_the_counts(self, rng):
        realised = 0
        for _ in range(300):
            n = rng.randint(2, 40)
            seq = random_sequence(rng, n, rng.randint(1, 8))
            st = SplitState.initial(n, seq.e)
            if greedy_descent(st):
                realised += 1
                col = realize_certificate(st.to_certificate({}))
                assert colour_counts(col) == list(seq.e)
        assert realised > 100

    def test_agrees_with_a_scan_of_every_step(self):
        # the reference scans every (t, colour) on the largest block for the
        # least (leftover, t, colour); the two must take the same steps and
        # stall on the same state
        def scan_descent(st: SplitState) -> bool:
            while (big := st.largest_block()) is not None:
                size = big[1] - big[0] + 1
                fits = [(b - t * (size - t), t, colour)
                        for colour, b in enumerate(st.budgets, start=1)
                        for t in range(1, size // 2 + 1) if t * (size - t) <= b]
                if not fits:
                    return False
                _, t, colour = min(fits)
                st.apply_step(big[0], t, colour)
            return True

        rng = random.Random(26)
        stalls = 0
        for _ in range(2000):
            n, k = rng.randint(2, 50), rng.randint(1, 12)
            seq = (random_sequence(rng, n, k) if rng.random() < 0.5
                   else _gamma_sequence(rng, n, k, rng.choice((0.3, 0.7, 1, 3))))
            fast, slow = SplitState.initial(n, seq.e), SplitState.initial(n, seq.e)
            done = greedy_descent(fast)
            assert scan_descent(slow) == done and fast.steps == slow.steps, seq.e
            stalls += not done
        assert 100 < stalls < 1900

    def test_skewed_draws_and_balanced_grid_need_no_search(self):
        # 20 gamma(0.7) draws at each (k, n) from one seeded generator, and the
        # balanced sequence at n = 2k-1 + 7i, i < 29: the descent colours
        # every one of them
        rng = random.Random(3)
        seqs = [_gamma_sequence(rng, n, k, 0.7)
                for k, n in ((40, 80), (80, 180), (80, 250), (160, 500)) for _ in range(20)]
        seqs += [balanced_sequence(2 * k - 1 + 7 * i, k)
                 for k in (20, 50, 100, 300) for i in range(29)]
        assert len(seqs) == 196
        for seq in seqs:
            assert greedy_descent(SplitState.initial(seq.n, seq.e)), (seq.n, seq.k)

    @pytest.mark.parametrize("k, n", [(20, 104), (40, 264), (80, 684),
                                      (20, 52), (40, 132), (80, 342),
                                      (20, 39), (40, 99), (80, 257), (160, 674)])
    def test_paper_regime_constructs(self, k, n):
        # n = ceil(c k^1.5 / sqrt(ln k)) with c = 2, 1 or 0.75: the balanced
        # sequence and six seeded gamma compositions each get a certificate
        # that verifies; at c = 0.75 one k = 20 draw needs the standard search
        assert n in [math.ceil(c * k ** 1.5 / math.sqrt(math.log(k))) for c in (2, 1, 0.75)]
        rng = random.Random(k)
        seqs = [balanced_sequence(n, k)] + [
            _gamma_sequence(rng, n, k, shape) for shape in (0.3, 0.3, 1, 1, 3, 3)]
        for seq in seqs:
            res = construct(TargetGraph.complete(3), n, seq)
            assert res.status == "ok" and res.strategy == "greedy", seq.e
            assert verify_certificate(res.certificate, res.colouring, seq) is None


class TestConstructStaged:
    def test_desk_scale_balanced(self):
        sc = StageConstants(beta=Fraction(60))
        k = 10
        n = 1250
        seq = balanced_sequence(n, k)
        cert = construct_staged(n, seq, sc)
        col = realize_certificate(cert)
        assert colour_counts(col) == list(seq.e)
        assert verify_certificate(cert, col, seq) is None
        assert cert.metadata["case"] == "2"
        assert cert.metadata["r"] == "4"

    def test_case1_path(self):
        # two huge colours concentrate > 0.1 of all edges, so J1 is non-empty
        # and carries enough capacity for the fixed-size cushion steps
        sc = StageConstants(beta=Fraction(60))
        k = 10
        n = 1250
        total = comb(n, 2)
        big = (total * 2) // 5
        rest = total - 2 * big
        q, r = divmod(rest, 8)
        seq = DistributionSequence.of(n, (big, big) + (q,) * (8 - r) + (q + 1,) * r)
        cert = construct_staged(n, seq, sc)
        assert cert.metadata["case"] == "1"
        col = realize_certificate(cert)
        assert colour_counts(col) == list(seq.e)
        assert verify_certificate(cert, col, seq) is None

    def test_hard_sequence_must_fail(self):
        # the skewed sequence admits no Gallai colouring, so no standard
        # colouring either; both constructors have to refuse
        seq, p = triangle_hard_sequence(1000)
        with pytest.raises(StagedInfeasible):
            construct_staged(p.n, seq, StageConstants())
        assert construct_greedy(p.n, seq).status == "infeasible"

    def test_small_n_infeasible(self):
        seq = balanced_sequence(5, 3)
        with pytest.raises(StagedInfeasible):
            construct_staged(5, seq, StageConstants())

    def test_rejects_bad_sequence(self):
        with pytest.raises(PreconditionViolation):
            construct_staged(5, DistributionSequence.of(5, (9, 0)), StageConstants())


class TestConstructMindeg3:
    def test_single_rare_edge_n4(self):
        seq = DistributionSequence.of(4, (5, 1))
        col, recs = construct_mindeg3_trace(4, seq)
        assert colour_counts(col) == [5, 1]
        lo, hi, _, _ = recs[0]
        assert lo == hi == 4
        v4_colours = sorted(col.colour_of(u, 4) for u in (1, 2, 3))
        assert v4_colours == [1, 1, 2]
        res = find_rainbow_subgraph(col, TargetGraph.complete(4))
        assert res.status == "none"

    def test_balanced_2k_no_rainbow_k4(self):
        seq = balanced_sequence(8, 4)
        col = construct_mindeg3(8, seq)
        assert colour_counts(col) == list(seq.e)
        assert find_rainbow_subgraph(col, TargetGraph.complete(4)).status == "none"

    def test_single_colour_monochromatic(self):
        col = construct_mindeg3(5, DistributionSequence.of(5, (10,)))
        assert colour_counts(col) == [10]

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionViolation):
            construct_mindeg3(3, DistributionSequence.of(3, (1, 1, 1)))

    def test_peel_batches_use_two_colours_within_their_level(self, rng):
        # within the graph alive at its peel, a batch's incident edges carry
        # at most the two colours of that level
        for _ in range(25):
            k = rng.randint(1, 4)
            n = rng.randint(2 * k, 2 * k + 4)
            seq = random_sequence(rng, n, k)
            col, recs = construct_mindeg3_trace(n, seq)
            assert colour_counts(col) == list(seq.e)
            for lo, hi, colours, _ in recs:
                allowed = set(colours)
                for v in range(lo, hi + 1):
                    for u in range(1, hi + 1):
                        if u != v:
                            assert col.colour_of(u, v) in allowed


class TestConstructDispatch:
    def test_k4_routes_to_mindeg3(self):
        seq = balanced_sequence(12, 3)
        res = construct(TargetGraph.complete(4), 12, seq)
        assert res.status == "ok" and res.strategy == "mindeg3"
        assert find_rainbow_subgraph(res.colouring, TargetGraph.complete(4)).status == "none"

    def test_k3_routes_to_standard(self):
        seq = DistributionSequence.of(6, (7, 8))
        res = construct(TargetGraph.complete(3), 6, seq)
        assert res.status == "ok"
        assert res.certificate is not None
        assert find_rainbow_triangle(res.colouring) is None
        assert colour_counts(res.colouring) == [7, 8]

    def test_tree_target_all_singletons_not_constructed(self):
        seq = DistributionSequence.of(6, (1,) * 15)
        res = construct(TargetGraph.path(3), 6, seq)
        assert res.status == "unknown" and res.colouring is None
        assert res.witness is not None

    def test_infeasible_with_clash_certificate(self):
        seq = DistributionSequence.of(3, (1, 1, 1))
        res = construct(TargetGraph.complete(3), 3, seq)
        assert res.status == "infeasible"
        assert res.infeasibility is not None and res.infeasibility.verify()

    def test_pattern_too_large_is_trivial(self):
        seq = DistributionSequence.of(3, (1, 1, 1))
        res = construct(TargetGraph.complete(5), 3, seq)
        assert res.status == "ok"
        assert colour_counts(res.colouring) == [1, 1, 1]

    def test_edgeless_target_unrealisable(self):
        seq = balanced_sequence(5, 2)
        res = construct(TargetGraph(3, frozenset()), 5, seq)
        assert res.status == "unknown" and res.witness is None


SMALL_TARGETS = {
    "P3": TargetGraph.path(3),
    "star3": TargetGraph.star(3),
    "P4": TargetGraph.path(4),
    "C4": TargetGraph.cycle(4),
    "K3": TargetGraph.complete(3),
    "K4": TargetGraph.complete(4),
}


def _greedy_colouring(n: int, seq: DistributionSequence):
    res = construct_greedy(n, seq)
    return realize_certificate(res.certificate) if res.status == "certificate" else None


# Each link of construct's chain: the degeneracy from which its proof rules
# out a rainbow copy of the target, and the colouring it builds.
LINKS = {
    "staged": (STANDARD_DEGENERACY, lambda n, seq: realize_certificate(construct_staged(n, seq))),
    "greedy": (STANDARD_DEGENERACY, _greedy_colouring),
    "mindeg3": (MINDEG3_DEGENERACY, construct_mindeg3),
}


@pytest.mark.parametrize("name", SMALL_TARGETS)
@pytest.mark.parametrize("link", ["auto", *LINKS])
def test_no_colouring_without_proof(link, name, rng):
    """construct either gives up with its reasons, proves infeasibility, or
    returns a colouring with the asked counts in which the exhaustive search
    finds no rainbow copy of the target. A link's own colouring (None where
    it builds none) passes the same search wherever its proof covers the
    target; elsewhere construct returns that link's colouring only after the
    search has cleared it."""
    H = SMALL_TARGETS[name]
    covered = link != "auto" and degeneracy(H) >= LINKS[link][0]
    for _ in range(30):
        n = rng.randint(2, 8)
        seq = random_sequence(rng, n, rng.randint(1, 4))
        try:
            if covered:
                col = LINKS[link][1](n, seq)
            else:
                res = construct(H, n, seq)
                if res.status == "infeasible":
                    assert res.infeasibility.verify()
                    continue
                if res.status == "unknown":
                    assert res.reasons and res.colouring is None
                    assert res.witness is None or len(res.witness.vertices) == H.m
                    continue
                if res.strategy == link:
                    assert res.reasons == ["verified rainbow-free explicitly"]
                col = res.colouring
        except (PreconditionViolation, StagedInfeasible):
            continue
        if col is None:
            continue
        assert colour_counts(col) == list(seq.e)
        assert find_rainbow_subgraph(col, H).exhausted, (n, seq.e)


class TestCertificateFiles:
    def test_roundtrip(self, tmp_path):
        seq = DistributionSequence.of(7, (11, 10))
        cert = construct_greedy(7, seq).certificate
        cert.metadata["strategy"] = "greedy"
        p = tmp_path / "c.cert"
        write_certificate(cert, p)
        back = read_certificate(p)
        assert back.n == cert.n and back.k == cert.k
        assert back.steps == cert.steps

    def test_bad_step_line(self, tmp_path):
        p = tmp_path / "c.cert"
        p.write_text("4 2\n1 4 1\n")
        with pytest.raises(ValueError):
            read_certificate(p)
