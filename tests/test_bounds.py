import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, log

import mpmath as mp
import numpy as np
import pytest

from gallaikit import bounds
from gallaikit.core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    is_n_good,
)
from gallaikit.bounds import (
    PeelTrace,
    _log_upper,
    balanced_tree_forced_check,
    clash_bound_check,
    general_lower_sequence,
    peel_splitting_process,
    read_infeasibility,
    smallest_certified_k,
    tree_forced_check,
    tree_threshold,
    triangle_hard_sequence,
    triangle_infeasibility_check,
    write_infeasibility,
)
from gallaikit.constructor import construct_greedy, realize_certificate
from gallaikit.errors import NotGallai, PreconditionViolation, RangeError
from gallaikit.oracle import is_realizable

from conftest import random_sequence, reference_peel, searched_blocks


class TestClashBound:
    def test_all_singletons_n5(self):
        seq = DistributionSequence.of(5, (1,) * 10)
        cert = clash_bound_check(seq, 3)
        assert cert is not None
        assert cert.a == 0 and cert.margin == Fraction(10)
        assert cert.verify()

    def test_five_threes_n6(self):
        seq = DistributionSequence.of(6, (3,) * 5)
        cert = clash_bound_check(seq, 3)
        assert cert is not None and cert.margin == Fraction(5)
        # the oracle agrees there is no rainbow-triangle-free colouring
        assert is_realizable(seq, TargetGraph.complete(3)).status == "unrealizable"

    def test_monochromatic_inconclusive(self):
        seq = DistributionSequence.of(6, (15,))
        assert clash_bound_check(seq, 3) is None

    def test_precondition(self):
        with pytest.raises(PreconditionViolation):
            clash_bound_check(DistributionSequence.of(2, (1,)), 3)


class TestTriangleHardSequence:
    def test_k1000_frozen_values(self):
        seq, p = triangle_hard_sequence(1000)
        assert (p.n, p.b, p.a, p.c) == (1203, 500, 946, 3)
        assert is_n_good(seq)
        assert seq.e[:3] == (947, 947, 947)
        assert seq.e[3] == 946 and seq.e[499] == 946
        assert seq.e[500] == 500 and seq.e[-1] == 500

    def test_k100_out_of_range(self):
        with pytest.raises(RangeError) as exc:
            triangle_hard_sequence(100)
        assert exc.value.quantity == "a"

    def test_outputs_always_n_good(self):
        for k in (293, 300, 500, 777, 1000, 1500):
            seq, _ = triangle_hard_sequence(k)
            assert is_n_good(seq)


class TestTriangleInfeasibility:
    def test_k1000_certificate(self):
        cert = triangle_infeasibility_check(1000)
        assert cert is not None
        assert cert.margin > 0
        # independent high-precision recomputation of the margin
        with mp.workdps(80):
            margin = mp.mpf(500) ** 2 / 3 - 4 * 947 * mp.log(mp.mpf(1203) / 500)
            assert margin > 0
            assert abs(float(cert.margin) - float(margin)) < 1e-6
        assert cert.verify()

    def test_first_certified_k_is_293(self):
        assert smallest_certified_k(400) == 293
        assert triangle_infeasibility_check(283) is None  # a >= 0 but margin chain fails
        assert triangle_infeasibility_check(293) is not None

    def test_certificate_reproduces_hard_sequence(self):
        cert = triangle_infeasibility_check(1000)
        _, p = triangle_hard_sequence(1000)
        assert (cert.n, cert.a, cert.b, cert.c) == (p.n, p.a, p.b, p.c)

    def test_file_roundtrip_reverifies(self, tmp_path):
        cert = triangle_infeasibility_check(1000)
        path = tmp_path / "hard.cert"
        write_infeasibility(cert, path)
        back = read_infeasibility(path)
        assert back == cert
        # tampering is caught on load
        lines = path.read_text().splitlines()
        bad = lines[0].split()
        bad[4] = "900"
        path.write_text(" ".join(bad) + "\n")
        with pytest.raises(ValueError):
            read_infeasibility(path)

    @pytest.mark.parametrize("field", ["k", "n", "a", "b", "c", "margin"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_verify_rejects_each_mutated_field(self, field, delta, tmp_path):
        # verify() checks the stored fields on their own, with no rebuild of
        # the hard sequence, so every single-field change must be caught
        cert = triangle_infeasibility_check(1000)
        bad = dataclasses.replace(cert, **{field: getattr(cert, field) + delta})
        assert not bad.verify()
        path = tmp_path / "bad.cert"
        write_infeasibility(bad, path)
        with pytest.raises(ValueError):
            read_infeasibility(path)

    def test_verify_needs_no_stage_constants(self):
        # a certificate is checked from its fields: the hard sequence at a
        # different alpha verifies as well when its own margin is positive
        cert = triangle_infeasibility_check(1000)
        n = cert.n + 20
        half_up, b = 500, 500
        a, c = divmod(comb(n, 2) - b * b, half_up)
        margin = Fraction(b * b, 3) - 4 * (a + 1) * _log_upper(n, b)
        other = dataclasses.replace(cert, n=n, a=a, c=c, margin=margin)
        assert other.verify()


class TestTreeThreshold:
    def test_m2_two_evaluation_paths(self):
        by_pow = tree_threshold(2)
        by_mult = 1
        for _ in range(12):
            by_mult *= 12
        assert by_pow == by_mult == 8916100448256

    def test_m3(self):
        assert tree_threshold(3) == 18 ** 18

    def test_monotone(self):
        for m in range(2, 8):
            assert tree_threshold(m + 1) > tree_threshold(m)

    def test_m_too_small(self):
        with pytest.raises(PreconditionViolation):
            tree_threshold(1)


class TestTreeForced:
    def test_small_sequences_inconclusive(self):
        seq = DistributionSequence.of(6, (1,) * 15)
        assert tree_forced_check(seq, 2) is None

    def test_balanced_concrete_triple(self):
        # smallest n with C(n,2) >= 2*D(2), and k = 2*D(2) colours: the
        # balanced sequence has entries in {1, 2} and max entry 2 <= C(n,2)/D
        d = tree_threshold(2)
        k = 2 * d
        n = 1
        while comb(n, 2) < k:
            n = max(n + 1, isqrt(2 * k))
        cert = balanced_tree_forced_check(n, k, 2)
        assert cert is not None and cert.verify()
        # the defining inequality chain, checked exactly
        q, r = divmod(comb(n, 2), k)
        max_e = q + (1 if r else 0)
        assert Fraction(max_e) <= 1 + Fraction(comb(n, 2), k) <= Fraction(comb(n, 2), d)

    def test_certificate_margin_exact(self):
        d = tree_threshold(2)
        n = 5_000_000
        k = comb(n, 2)  # all budgets equal 1
        cert = balanced_tree_forced_check(n, k, 2)
        assert cert is not None
        assert cert.margin == Fraction(comb(n, 2), d) - 1


class TestGeneralLower:
    def test_k3_target_k2000(self):
        seq, m, cert = general_lower_sequence(TargetGraph.complete(3), 2000)
        assert seq.n == 74 and m == 3
        assert cert.verify()
        fresh = clash_bound_check(seq, m)
        assert fresh is not None and fresh.margin == cert.margin

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_every_valid_k_gets_a_certificate(self, m):
        # valid k have C(n,2) >= k at n = k // m^3, so n >= 2m^3 + 1; the
        # smallest is k = m^3 (2m^3 + 1), and the rest are drawn up to 10^5
        rng = random.Random(m)
        low = m ** 3 * (2 * m ** 3 + 1)
        ks = [low] + [rng.randint(low, 100_000) for _ in range(12)]
        for k in ks:
            n = k // m ** 3
            if comb(n, 2) < k:
                continue
            seq, _, cert = general_lower_sequence(TargetGraph.complete(m), k)
            assert seq.n == n and cert.verify(), k

    def test_too_small_k(self):
        with pytest.raises(RangeError):
            general_lower_sequence(TargetGraph.complete(3), 27)

    def test_small_target_rejected(self):
        with pytest.raises(PreconditionViolation):
            general_lower_sequence(TargetGraph.complete(2), 100)


def _substitution(rng: random.Random, n: int, k: int) -> Colouring:
    """A Gallai colouring by recursive substitution on shuffled vertices: each
    level splits its vertices into 2-6 parts and joins every part pair in
    one colour, drawn from a one-colour or a two-colour base for that level."""
    m = np.zeros((n, n), dtype=np.int64)

    def fill(vs: list[int]) -> None:
        if len(vs) < 2:
            return
        q = rng.randint(2, min(6, len(vs)))
        label = list(range(q)) + [rng.randrange(q) for _ in vs[q:]]
        rng.shuffle(label)
        parts = [[v for v, p in zip(vs, label) if p == i] for i in range(q)]
        base = rng.sample(range(1, k + 1), rng.choice((1, 2)))
        for a, b in combinations(parts, 2):
            m[np.ix_(a, b)] = rng.choice(base)
        for part in parts:
            fill(part)

    vertices = list(range(n))
    rng.shuffle(vertices)
    fill(vertices)
    return Colouring(n, k, np.maximum(m, m.T))


def _chain(rng: random.Random, n: int, k: int) -> Colouring:
    """Vertex v joins every lower vertex in one random colour."""
    m = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        m[v, :v] = m[:v, v] = rng.randint(1, k)
    return Colouring(n, k, m)


class TestPeelSplitting:
    def test_matches_the_block_by_block_loop(self, monkeypatch):
        """The peel gives reference_peel's trace, which searches every block
        with find_gallai_partition; it searches just the blocks that
        searched_blocks names, and finds the same partition in each."""
        rng = random.Random(34)
        cols = [_substitution(rng, rng.randint(2, 60), rng.randint(2, 9)) for _ in range(120)]
        cols += [_chain(random.Random(seed), 90, 8) for seed in range(4)]
        found = []
        orig = bounds.gallai_parts

        def recorded(M, tally):
            found.append(orig(M, tally))
            return found[-1]

        monkeypatch.setattr(bounds, "gallai_parts", recorded)
        kinds = {"carried": 0, "two colours": 0}
        for col in cols:
            for stop in (1, 10):
                found.clear()
                steps, partitions = reference_peel(col, stop)
                assert peel_splitting_process(col, stop) == PeelTrace(col.n, stop, steps)
                by_size = {s.x_before: p for s, p in zip(steps, partitions)}
                searched = searched_blocks(steps, partitions)
                assert len(found) == len(searched)
                for x, (base, parts) in zip(searched, found):
                    p = by_size[x]
                    assert base == tuple(sorted(p.base_colours))
                    assert tuple(tuple((part + 1).tolist()) for part in parts) == p.parts
                kinds["carried"] += len(steps) - len(searched)
                kinds["two colours"] += sum(len(s.base_colours) == 2 for s in steps)
        assert min(kinds.values()) >= 300, kinds

    def test_monochromatic_k5(self):
        trace = peel_splitting_process(Colouring.monochromatic(5), 1)
        assert trace.sizes_consistent()
        assert all(s.base_colours == (1,) for s in trace.steps)
        assert trace.steps[-1].x_after == 1

    def test_rainbow_triangle_rejected(self):
        col = Colouring.from_edge_colours(3, 3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        with pytest.raises(NotGallai):
            peel_splitting_process(col, 1)

    def test_realized_certificates_peel_fully(self, rng):
        done = 0
        while done < 15:
            n = rng.randint(4, 12)
            k = rng.randint(1, 5)
            seq = random_sequence(rng, n, k)
            res = construct_greedy(n, seq)
            if res.status != "certificate":
                continue
            col = realize_certificate(res.certificate)
            trace = peel_splitting_process(col, 1)
            assert trace.sizes_consistent()
            assert all(2 * s.t <= s.x_before for s in trace.steps)
            # inter-part totals account for all edges outside the peeled parts
            claimed = trace.total_base_edges
            x_final = trace.steps[-1].x_after
            internal = sum(comb(s.t, 2) for s in trace.steps)
            assert claimed == comb(n, 2) - comb(x_final, 2) - internal
            done += 1

    def test_peel_bound_under_frequency_cap(self):
        # t <= 2*cap/x whenever the base colours are rare enough
        col = Colouring.from_edge_colours(
            4, 3, {(1, 2): 2, (3, 4): 3, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1})
        cap = 5
        trace = peel_splitting_process(col, 1)
        assert trace.sizes_consistent()
        capped = [s for s in trace.steps if s.base_freq <= cap]
        assert capped
        assert all(s.t * s.x_before <= 2 * cap for s in capped)

    def test_stop_threshold_respected(self):
        trace = peel_splitting_process(Colouring.monochromatic(8), 4)
        assert trace.steps[-1].x_after <= 4
        assert all(s.x_before > 4 for s in trace.steps)
