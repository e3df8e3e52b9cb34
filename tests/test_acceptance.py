"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion PASS lines;
each criterion is also an ordinary assertion, so a plain pytest run fails
loudly when one regresses.
"""
import random
import time
from fractions import Fraction
from math import comb

import pytest

from gallaikit.core import (
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    is_n_good,
)
from gallaikit.constructor import (
    SplitState,
    StageConstants,
    construct,
    construct_greedy,
    construct_mindeg3,
    construct_staged,
    realize_certificate,
)
from gallaikit.bounds import (
    balanced_tree_forced_check,
    clash_bound_check,
    peel_splitting_process,
    read_infeasibility,
    tree_threshold,
    triangle_hard_sequence,
    triangle_infeasibility_check,
    write_infeasibility,
)
from gallaikit.oracle import exact_g, is_realizable
from gallaikit.verifier import (
    find_gallai_partition,
    find_rainbow_subgraph,
    find_rainbow_triangle,
    verify_certificate,
    verify_gallai_partition,
)

from conftest import random_composition

K3 = TargetGraph.complete(3)
K4 = TargetGraph.complete(4)


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_conservation():
    """10^5 randomized constructions, n <= 40, k <= 8: after every single
    step both sides of the conservation relation are recomputed and must be
    equal. Zero tolerance; runtime < 1 min."""
    rng = random.Random(101)
    t0 = time.monotonic()
    runs = 0
    steps = 0
    while runs < 100_000:
        n = rng.randint(2, 40)
        k = rng.randint(1, 8)
        e = random_composition(rng, comb(n, 2), k)
        st = SplitState.initial(n, e)
        budgets = st.budgets
        while True:
            big = st.largest_block()
            if big is None:
                break
            lo, hi = big
            size = hi - lo + 1
            placed = False
            for t in range(1, size // 2 + 1):
                need = t * (size - t)
                best, best_b = 0, -1
                for j in range(k):
                    b = budgets[j]
                    if b >= need and (best_b < 0 or b < best_b):
                        best, best_b = j + 1, b
                if best:
                    st.apply_step(lo, t, best)
                    steps += 1
                    assert st.conservation_holds(), \
                        f"criterion 1: conservation broken at run {runs}"
                    placed = True
                    break
            if not placed:
                break
        runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 1: {elapsed:.1f}s >= 1 min"
    report(1, f"{runs} constructions, {steps} steps checked exactly, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def realized_corpus():
    """>= 500 certificate-realized colourings with n <= 10, plus 200 with
    n <= 12, shared across criteria 2, 3 and 9."""
    rng = random.Random(202)
    small = []   # (seq, cert, colouring) with n <= 10
    upto12 = []  # same with n <= 12
    while len(small) < 500 or len(upto12) < 200:
        n = rng.randint(2, 12)
        k = rng.randint(1, 8)
        seq = DistributionSequence(n, k, random_composition(rng, comb(n, 2), k))
        res = construct_greedy(n, seq)
        if res.status != "certificate":
            continue
        item = (seq, res.certificate, realize_certificate(res.certificate))
        if n <= 10 and len(small) < 500:
            small.append(item)
        if len(upto12) < 200:
            upto12.append(item)
    return small, upto12


def test_criterion_2_rainbow_cycle_freeness(realized_corpus):
    """Every certificate-realized colouring with n <= 10 (500 instances) is
    exhaustively rainbow-cycle-free: no rainbow L-cycle for any L from 3 to
    n, skipping the L above the number of colours used, since a rainbow
    L-cycle needs L colours. Zero tolerance."""
    small, _ = realized_corpus
    assert len(small) >= 500
    for seq, cert, col in small:
        used = sum(1 for c in colour_counts(col) if c)
        for L in range(3, min(seq.n, used) + 1):
            assert find_rainbow_subgraph(col, TargetGraph.cycle(L)).exhausted, \
                f"criterion 2: rainbow {L}-cycle in realization of {seq.e}"
    report(2, f"{len(small)} realized colourings, all exhaustively cycle-free")


def test_criterion_3_distribution_exactness(realized_corpus):
    """Every successful construction realises its sequence bit-exactly, across
    the randomized suite and every constructor."""
    small, upto12 = realized_corpus
    checked = 0
    for seq, cert, col in small + upto12:
        assert colour_counts(col) == list(seq.e), \
            f"criterion 3: counts off for {seq.e}"
        assert verify_certificate(cert, col, seq) is None
        checked += 1
    rng = random.Random(303)
    for _ in range(100):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 2 * k + 4)
        seq = DistributionSequence(n, k, random_composition(rng, comb(n, 2), k))
        col = construct_mindeg3(n, seq)
        assert colour_counts(col) == list(seq.e)
        checked += 1
    sc = StageConstants(beta=Fraction(60))
    n = 1250
    seq = balanced_sequence(n, 10)
    cert = construct_staged(n, seq, sc)
    assert colour_counts(realize_certificate(cert)) == list(seq.e)
    checked += 1
    report(3, f"{checked} successful constructions, all counts bit-exact")


def test_criterion_4_mindeg3_no_rainbow_k4():
    """For k <= 4, n = 2k..2k+4, 100 random n-good sequences each, the
    min-degree-3 construction contains no rainbow K4 (exhaustive search).
    Zero failures; runtime < 5 min."""
    rng = random.Random(404)
    t0 = time.monotonic()
    runs = 0
    for k in range(1, 5):
        for n in range(2 * k, 2 * k + 5):
            if n < 2:
                continue
            for _ in range(100):
                seq = DistributionSequence(n, k, random_composition(rng, comb(n, 2), k))
                col = construct_mindeg3(n, seq)
                assert colour_counts(col) == list(seq.e)
                if n >= 4:
                    res = find_rainbow_subgraph(col, K4, node_budget=10_000_000)
                    assert res.status == "none", \
                        f"criterion 4: rainbow K4 in mindeg3 output for n={n} {seq.e}"
                runs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 4: {elapsed:.1f}s >= 5 min"
    report(4, f"{runs} constructions, zero rainbow K4s, {elapsed:.1f}s")


def test_criterion_5_oracle_agreement():
    """For n <= 6, k <= 3, H = K3: the exhaustive realizability table matches
    greedy success/infeasible on every n-good sequence; the n=3 (1,1,1)
    unrealizable entry is mandatory. Runtime < 10 min."""
    t0 = time.monotonic()
    checked = 0
    mandatory_seen = False
    for k in (1, 2, 3):
        rep = exact_g(K3, k, 6)
        assert not rep.partial
        for n, rows in rep.per_n.items():
            for row in rows:
                seq = DistributionSequence(n, k, row.e)
                greedy = construct_greedy(n, seq).status
                assert greedy in ("certificate", "infeasible")
                assert (row.status == "realizable") == (greedy == "certificate"), \
                    f"criterion 5: mismatch at n={n} k={k} {row.e}"
                if n == 3 and row.e == (1, 1, 1):
                    mandatory_seen = True
                    assert row.status == "unrealizable"
                checked += 1
    assert mandatory_seen
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(5, f"{checked} sequences agree across oracle and greedy, {elapsed:.1f}s")


def _clash_corpus(limit: int = 200):
    """Deterministic corpus: all bound-satisfying multisets for n = 4..6, then
    n = 7 ones ordered by ascending largest part (most fragmented first)."""
    def partitions(total):
        def rec(left, maxpart):
            if left == 0:
                yield ()
                return
            for first in range(min(left, maxpart), 0, -1):
                for rest in rec(left - first, first):
                    yield (first,) + rest
        yield from rec(total, total)

    out = []
    for n in range(4, 8):
        total = comb(n, 2)
        rhs = Fraction(n * (n - 1) * (n - 2), 6)
        rows = [p for p in partitions(total) if sum(comb(x, 2) for x in p) < rhs]
        if n == 7:
            rows.sort(key=lambda p: (p[0], p))
        out.extend((n, p) for p in rows)
        if len(out) >= limit:
            break
    return out[:limit]


def test_criterion_6_clash_bound_vs_oracle():
    """200 sequences at n <= 7, m = 3, satisfying the clash bound: the oracle
    confirms unrealizability for every one. Zero contradictions."""
    corpus = _clash_corpus(200)
    assert len(corpus) == 200
    t0 = time.monotonic()
    for n, parts in corpus:
        seq = DistributionSequence.of(n, parts)
        cert = clash_bound_check(seq, 3)
        assert cert is not None and cert.verify()
        res = is_realizable(seq, K3, node_budget=200_000_000)
        assert res.status == "unrealizable", \
            f"criterion 6: oracle did not refute {parts} at n={n} ({res.status})"
    report(6, f"200 clash-bound sequences refuted by search, {time.monotonic()-t0:.1f}s")


def test_criterion_7_triangle_hard_sequence(tmp_path):
    """k=1000 gives n=1203, b=500, a=946, c=3 under natural log; the sequence
    is n-good; the margin is strictly positive; reloading re-verifies.
    Runtime < 1 s."""
    t0 = time.monotonic()
    seq, p = triangle_hard_sequence(1000)
    assert (p.n, p.b, p.a, p.c) == (1203, 500, 946, 3)
    assert is_n_good(seq)
    cert = triangle_infeasibility_check(1000)
    assert cert is not None and cert.margin > 0
    path = tmp_path / "hard1000.cert"
    write_infeasibility(cert, path)
    reloaded = read_infeasibility(path)
    assert reloaded == cert
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 7: {elapsed:.2f}s >= 1 s"
    report(7, f"n=1203 b=500 a=946 c=3, margin={float(cert.margin):.1f} > 0, {elapsed:.2f}s")


def test_criterion_8_tree_threshold():
    """(6m)^(6m) at m=2 equals 12^12 via two independent evaluation paths, and
    the balanced-sequence forcing check accepts a concrete (n, k, m=2) triple.
    Runtime < 1 s."""
    t0 = time.monotonic()
    by_pow = tree_threshold(2)
    by_mult = 1
    for _ in range(12):
        by_mult *= 12
    assert by_pow == by_mult == 8916100448256
    d = by_pow
    k = 2 * d
    n = 5_972_053
    assert comb(n, 2) >= k
    cert = balanced_tree_forced_check(n, k, 2)
    assert cert is not None and cert.verify()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 8: {elapsed:.2f}s >= 1 s"
    report(8, f"12^12 = {by_pow} twice over; balanced (n={n}, k=2*12^12) forced, {elapsed:.2f}s")


def test_criterion_9_gallai_partitions(realized_corpus):
    """On 200 certificate-realized colourings (n <= 12): every partition found
    passes independent inter-part re-verification, the peel process reaches
    stop=1 with consistent sizes, and the search finds a partition every time."""
    _, upto12 = realized_corpus
    assert len(upto12) >= 200
    missing = 0
    for seq, cert, col in upto12[:200]:
        if col.n < 2:
            continue
        p = find_gallai_partition(col)
        if p is None:
            missing += 1
            continue
        assert verify_gallai_partition(col, p), \
            f"criterion 9: partition failed re-verification on {seq.e}"
        trace = peel_splitting_process(col, 1)
        assert trace.sizes_consistent()
        x = col.n
        for s in trace.steps:
            assert s.x_before == x and s.x_after == x - s.t
            x = s.x_after
        assert x == 1
    assert missing == 0, f"criterion 9: no partition found on {missing} colourings"
    report(9, "200 realized colourings: partitions re-verified, peels complete, 0 failures")


def test_criterion_10_scale_smoke():
    """construct (auto, K3) at n=2000, k=50 balanced completes in < 10 s with a
    clean replay; find_rainbow_triangle at n=300 completes in < 5 s."""
    seq = balanced_sequence(2000, 50)
    t0 = time.monotonic()
    result = construct(K3, 2000, seq)
    build_time = time.monotonic() - t0
    assert result.status == "ok" and result.certificate is not None
    assert build_time < 10.0, f"criterion 10: construction took {build_time:.1f}s"
    col = result.colouring
    assert verify_certificate(result.certificate, col, seq) is None
    assert colour_counts(col) == list(seq.e)

    seq300 = balanced_sequence(300, 10)
    res300 = construct_greedy(300, seq300)
    assert res300.status == "certificate"
    col300 = realize_certificate(res300.certificate)
    t1 = time.monotonic()
    w = find_rainbow_triangle(col300)
    scan_time = time.monotonic() - t1
    assert w is None
    assert scan_time < 5.0, f"criterion 10: triangle scan took {scan_time:.1f}s"
    report(10, f"n=2000 build {build_time:.1f}s with clean replay; "
               f"n=300 triangle scan {scan_time:.1f}s")
