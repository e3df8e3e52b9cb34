"""Standard-colouring engine: split states, step primitives, and the staged,
greedy and min-degree-3 constructors, all emitting replayable certificates.
The greedy constructor is one best-fit descent, then standard_search, which
tries its steps in the descent's order and is also the oracle's
standard-colouring decision procedure.

A standard colouring step splits an uncoloured block of size m into sizes t
and m-t and paints all t(m-t) crossing edges with one colour. Blocks are
contiguous vertex intervals and a step always splits off the top t vertices,
so a certificate is replayable without a block registry.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .core import (
    MINDEG3_DEGENERACY, STANDARD_DEGENERACY, Colouring, DistributionSequence, TargetGraph,
    data_lines, degeneracy, int_lines, is_n_good, lex_colouring, zero_matrix,
)
from .errors import (
    BadSize,
    BatchInfeasible,
    BudgetExceeded,
    CushionTooSmall,
    GallaiKitError,
    PreconditionViolation,
    StagedInfeasible,
    TooLargeT,
)


@dataclass(frozen=True)
class StepRecord:
    """Split the top t vertices off block [lo..hi]; colour the crossing edges."""

    lo: int
    hi: int
    t: int
    colour: int


@dataclass
class SplitCertificate:
    """Replayable log of standard colouring steps starting from {[1..n]}."""

    n: int
    k: int
    steps: list[StepRecord]
    metadata: dict[str, str] = field(default_factory=dict)


class SplitState:
    """Live multiset of uncoloured blocks plus per-colour budgets.

    The edges the blocks hold must equal the budget total (the conservation
    relation); __init__ refuses a state where they differ. A step keeps it:
    C(s-t,2) + C(t,2) - C(s,2) = -t(s-t), so both sides fall by the t(s-t)
    the step spends.
    """

    __slots__ = ("n", "k", "budgets", "blocks", "steps")

    def __init__(self, n: int, k: int, budgets: list[int], blocks: dict[int, int]):
        self.n = n
        self.k = k
        self.budgets = budgets
        self.blocks = blocks
        self.steps: list[StepRecord] = []
        pairs = sum(comb(hi - lo + 1, 2) for lo, hi in blocks.items())
        if pairs != sum(budgets):
            raise ValueError(f"blocks hold {pairs} edges but budgets sum to {sum(budgets)}")

    @staticmethod
    def initial(n: int, e) -> "SplitState":
        budgets = [int(x) for x in e]
        blocks = {1: n} if n >= 2 else {}
        return SplitState(n, len(budgets), budgets, blocks)

    @staticmethod
    def synthetic(block_sizes: list[int], budgets: list[int]) -> "SplitState":
        """State with given block sizes laid out left to right; for fuzzing."""
        blocks: dict[int, int] = {}
        lo = 1
        for size in block_sizes:
            if size >= 2:
                blocks[lo] = lo + size - 1
            lo += size
        return SplitState(lo - 1, len(budgets), list(budgets), blocks)

    def block_size(self, lo: int) -> int:
        return self.blocks[lo] - lo + 1

    def largest_block(self) -> tuple[int, int] | None:
        """Largest active block, ties broken towards the smallest lo."""
        best = None
        best_size = 1
        for lo, hi in self.blocks.items():
            size = hi - lo + 1
            if size > best_size or (size == best_size and best is not None and lo < best[0]):
                best = (lo, hi)
                best_size = size
        return best

    @property
    def done(self) -> bool:
        return not self.blocks

    def conservation_holds(self) -> bool:
        """Recompute both sides of the conservation relation from scratch."""
        pairs = sum(comb(hi - lo + 1, 2) for lo, hi in self.blocks.items())
        return pairs == sum(self.budgets)

    def apply_step(self, lo: int, t: int, colour: int) -> None:
        hi = self.blocks.get(lo)
        if hi is None:
            raise BadSize(f"no active block starting at {lo}")
        size = hi - lo + 1
        if size < 2:
            raise BadSize(f"block [{lo}..{hi}] has size {size} < 2")
        if not 1 <= t <= size // 2:
            raise TooLargeT(f"t={t} violates 1 <= t <= floor({size}/2) = {size // 2}")
        if not 1 <= colour <= self.k:
            raise PreconditionViolation(f"colour {colour} outside [1..{self.k}]")
        need = t * (size - t)
        if self.budgets[colour - 1] < need:
            raise BudgetExceeded(
                f"colour {colour}: budget {self.budgets[colour - 1]} < t(m-t) = {need}")
        self.budgets[colour - 1] -= need
        del self.blocks[lo]
        if size - t >= 2:
            self.blocks[lo] = hi - t
        if t >= 2:
            self.blocks[hi - t + 1] = hi
        self.steps.append(StepRecord(lo, hi, t, colour))

    def to_certificate(self, metadata: dict[str, str]) -> SplitCertificate:
        return SplitCertificate(self.n, self.k, list(self.steps), dict(metadata))


def replay_certificate(cert: SplitCertificate, budgets):
    """Apply cert's steps to {[1..n]} under the given per-colour budgets and
    yield each step's crossing edges as (rows, cols, colour): rows and cols
    are the 0-based slices of the rectangle above the diagonal.

    ValueError, with the line verify prints, at the first step whose block is
    not active or that SplitState.apply_step refuses, and when the budgets do
    not sum to C(n,2) or blocks are left uncoloured. A replay that raises
    none has yielded each edge exactly once.
    """
    try:
        state = SplitState.initial(cert.n, budgets)
    except ValueError as ex:
        raise ValueError(f"certificate replay failed: {ex}") from None
    for idx, step in enumerate(cert.steps, start=1):
        lo, hi, t = step.lo, step.hi, step.t
        try:
            if state.blocks.get(lo) != hi:
                raise BadSize(f"no active block [{lo}..{hi}]")
            state.apply_step(lo, t, step.colour)
        except GallaiKitError as ex:
            raise ValueError(f"certificate replay failed at step {idx}: {ex}") from None
        yield slice(lo - 1, hi - t), slice(hi - t, hi), step.colour
    if state.blocks:
        raise ValueError(f"certificate replay failed: {len(state.blocks)} blocks left uncoloured")


# ---------------------------------------------------------------------------
# Step primitives
# ---------------------------------------------------------------------------

def cushion(state: SplitState, block_lo: int) -> int:
    """Spare budget for a block: total budgets minus C(size,2), which equals
    the edges still held by all other blocks. Both formulas are computed and
    must agree."""
    hi = state.blocks.get(block_lo)
    if hi is None:
        raise BadSize(f"no active block starting at {block_lo}")
    size = hi - block_lo + 1
    via_budgets = sum(state.budgets) - comb(size, 2)
    via_blocks = sum(comb(h - l + 1, 2) for l, h in state.blocks.items() if l != block_lo)
    assert via_budgets == via_blocks, "cushion formulas disagree (internal bug)"
    return via_budgets


def _pick_colour(budgets: list[int], need: int, allowed=None) -> int | None:
    """Largest-budget colour with budget >= need, ties to the smallest index."""
    best = None
    best_b = need - 1
    idxs = range(1, len(budgets) + 1) if allowed is None else allowed
    for j in idxs:
        b = budgets[j - 1]
        if b > best_b:
            best = j
            best_b = b
    return best


def reduce_large(state: SplitState, block_lo: int) -> SplitState:
    """Simple steps on the block until its size drops below 2k.

    While size >= 2k some colour holds at least a 1/k share of C(size,2)
    edges, which is >= size-1, so a qualifying colour always exists.
    """
    k = state.k
    while block_lo in state.blocks and state.block_size(block_lo) >= 2 * k:
        size = state.block_size(block_lo)
        colour = _pick_colour(state.budgets, size - 1)
        assert colour is not None, \
            f"no colour with budget >= {size - 1} at size {size} >= 2k (internal bug)"
        state.apply_step(block_lo, 1, colour)
    return state


def drain_with_cushion(state: SplitState, block_lo: int) -> SplitState:
    """Fully colour a block with m-1 consecutive simple steps.

    Requires cushion >= min{(k^2-k)/2, k*m}; under that bound a colour with
    budget >= remaining_size-1 exists at every sub-step.
    """
    hi = state.blocks.get(block_lo)
    if hi is None:
        raise BadSize(f"no active block starting at {block_lo}")
    m = hi - block_lo + 1
    k = state.k
    cush = cushion(state, block_lo)
    need = min((k * k - k) // 2, k * m)
    if cush < need:
        raise CushionTooSmall(f"cushion {cush} < min{{(k^2-k)/2, k*m}} = {need}")
    for _ in range(m - 1):
        size = state.block_size(block_lo)
        colour = _pick_colour(state.budgets, size - 1)
        assert colour is not None, \
            f"drain ran out of colours at size {size} despite cushion (internal bug)"
        state.apply_step(block_lo, 1, colour)
    return state


def batch_steps(state: SplitState, block_lo: int, t: int, count: int,
                allowed_colours) -> list[tuple[int, int]]:
    """count standard steps of size t on the shrinking block, colours drawn
    from allowed_colours. Requires block size > t*count and the strict capacity
    inequality sum(budgets over allowed) > t*size*(count + |allowed|).

    Returns the split-off blocks as (lo, hi) pairs, newest last.
    """
    if count == 0:
        return []
    hi = state.blocks.get(block_lo)
    if hi is None:
        raise BadSize(f"no active block starting at {block_lo}")
    size = hi - block_lo + 1
    allowed = sorted(set(allowed_colours))
    if not (size > t * count):
        raise BatchInfeasible(f"block size {size} <= t*count = {t * count}")
    pool = sum(state.budgets[j - 1] for j in allowed)
    bound = t * size * (count + len(allowed))
    if not (pool > bound):
        raise BatchInfeasible(
            f"sum of allowed budgets {pool} <= t*n'*(count+|allowed|) = {bound}")
    out: list[tuple[int, int]] = []
    for _ in range(count):
        cur = state.block_size(block_lo)
        colour = _pick_colour(state.budgets, t * (cur - t), allowed)
        assert colour is not None, "batch capacity argument failed (internal bug)"
        top = (state.blocks[block_lo] - t + 1, state.blocks[block_lo])
        state.apply_step(block_lo, t, colour)
        out.append(top)
    return out


# ---------------------------------------------------------------------------
# Stage constants
# ---------------------------------------------------------------------------

def _atanh_low(x: int, z: int, w: int) -> tuple[int, int]:
    """(s, err) with s <= 2^w atanh(x/z) < s + err, for 0 <= x/z <= 1/3."""
    p, s, j = (x << w) // z, 0, 0
    while p:
        s += p // (2 * j + 1)
        p = p * x * x // (z * z)
        j += 1
    return s, 2 * j + 2


def log_bounds(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits log(num/den) <= hi, for positive integers num, den.

    With num/den = 2^e r and r in [1, 2), log(num/den) = 2 atanh(y) +
    2e atanh(1/3) where y = (r-1)/(r+1) < 1/3. Each series sum x^(2j+1)/(2j+1)
    is summed in integers at 2^(bits+g). Every floor division rounds down, by
    less than one unit, so the power x^(2j+1) carries a loss below
    1/(1-x^2) <= 9/8 and each term is low by less than 2 units; once the power
    floors to 0 the untaken tail is below (9/8)^2 < 2 units. A series of J
    terms is thus low by less than 2J + 2 units, never high.
    """
    if num <= 0 or den <= 0:
        raise ValueError(f"log of {num}/{den}")
    e = num.bit_length() - den.bit_length()
    u, v = num << max(-e, 0), den << max(e, 0)
    if u < v:
        e, u = e - 1, u << 1
    g = bits.bit_length() + abs(e).bit_length() + 4
    s, es = _atanh_low(u - v, u + v, bits + g)
    t, et = _atanh_low(1, 3, bits + g)
    lo = 2 * (s + e * t + min(e, 0) * et)
    hi = 2 * (s + es + e * t + max(e, 0) * et)
    return lo >> g, -(-hi >> g)


def floor_root(R: Fraction, p: int, q: int, num: int, den: int = 1) -> int:
    """floor(X) for the X > 0 with X^p = R log(num/den)^q, where R > 0,
    p in {1, 2, 4}, q != 0 and num > den > 0.

    log(num/den) is transcendental, so X is irrational: doubling the bits of
    the log enclosure ends once no integer lies between its bounds on X^p.
    """
    if not num > den > 0:
        raise ValueError(f"need num > den > 0, got {num}/{den}")
    bits = 64
    while True:
        lo, hi = log_bounds(num, den, bits)
        if lo > 0:
            low, high = sorted(R * Fraction(x, 1 << bits) ** q for x in (lo, hi))
            root = math.floor(low)
            for _ in range(p.bit_length() - 1):  # p-th root as repeated isqrt
                root = math.isqrt(root)
            if (root + 1) ** p > high:
                return root
        bits *= 2


@dataclass(frozen=True)
class StageConstants:
    """Constants of the staged construction and of the hard-sequence bound.

    All logarithms are natural; alpha drives the lower-bound sequence, beta
    the staged split sizes, and floor_root decides every floor exactly. At
    desk scale the raw r and c are clamped into [1, floor(n/(3k))] and the
    clamp is recorded in certificate metadata.
    """

    alpha: Fraction = Fraction(1, 10)
    beta: Fraction = Fraction(5_000_000)

    def lower_n(self, k: int) -> int:
        """floor(alpha * k^1.5 / sqrt(log k))"""
        return floor_root(self.alpha ** 2 * k ** 3, 2, -1, k)

    def derive(self, n: int, k: int) -> "StageDerived":
        if k < 2 or n < 2:
            raise PreconditionViolation("stage constants need n >= 2 and k >= 2")
        # L = log k: r_raw = floor(beta sqrt(k/L) / 30), c_raw = floor((k/L)^(3/4)),
        # j1_min - 1 = floor(beta^2 k^(9/4) / L^(5/4)), j2_max = floor(beta^2 k^2 / (30 L)),
        # stop_below = ceil(2 sqrt(beta) k^(5/4) / L^(1/4)), count_case1 =
        # ceil(k^(3/4) L^(1/4)); all are irrational, so each ceil is floor + 1
        beta2 = self.beta ** 2
        r_raw = floor_root(beta2 * k / 900, 2, -1, k)
        c_raw = floor_root(Fraction(k ** 3), 4, -3, k)
        cap = n // (3 * k)
        r = max(1, min(r_raw, cap) if cap >= 1 else 1)
        c = max(1, min(c_raw, cap) if cap >= 1 else 1)
        j1_min = floor_root(beta2 ** 4 * k ** 9, 4, -5, k) + 1
        j2_max = floor_root(beta2 * k * k / 30, 1, -1, k)
        stop_below = floor_root(16 * beta2 * k ** 5, 4, -1, k) + 1
        count_case1 = floor_root(Fraction(k ** 3), 4, 1, k) + 1
        return StageDerived(r_raw, c_raw, r, c, r != r_raw, c != c_raw,
                            j1_min, j2_max, stop_below, count_case1)


@dataclass(frozen=True)
class StageDerived:
    r_raw: int
    c_raw: int
    r: int
    c: int
    r_clamped: bool
    c_clamped: bool
    j1_min_budget: int
    j2_max_budget: int
    stop_below: int
    count_case1: int


# ---------------------------------------------------------------------------
# Staged constructor
# ---------------------------------------------------------------------------

def _require_good(n: int, seq: DistributionSequence) -> None:
    if seq.n != n:
        raise PreconditionViolation(f"sequence is for n={seq.n}, not {n}")
    if not is_n_good(seq):
        raise PreconditionViolation("sequence is not n-good")


def _max_step_size(x: int, budget: int) -> int:
    """Largest c with 1 <= c <= x//2 and c*(x-c) <= budget; 0 when none."""
    cap = x // 2
    if cap < 1 or budget < x - 1:
        return 0
    disc = x * x - 4 * budget
    if disc <= 0:
        return cap
    # c(x-c) <= budget holds exactly for c <= r = (x - sqrt(disc))/2 on
    # [0, x/2], and r >= 1 as budget >= x-1. sqrt(disc) - 1 < isqrt(disc)
    # <= sqrt(disc), so c <= x/2 is floor(r) or floor(r) + 1
    c = (x - math.isqrt(disc)) // 2
    return c - 1 if c * (x - c) > budget else c


def construct_staged(n: int, seq: DistributionSequence,
                     constants: StageConstants | None = None) -> SplitCertificate:
    """Three-stage standard colouring: a reservoir of k size-r blocks, a big
    cushion collection, then reduce-and-drain of everything.

    Raises StagedInfeasible naming the stage and inequality whenever a stage
    precondition fails at this scale; callers fall back to construct_greedy.
    """
    _require_good(n, seq)
    constants = constants or StageConstants()
    k = seq.k
    if k < 2:
        raise StagedInfeasible(1, "staged construction needs k >= 2")
    d = constants.derive(n, k)
    e_total = comb(n, 2)
    state = SplitState.initial(n, seq.e)
    meta = {
        "strategy": "staged",
        "alpha": str(constants.alpha),
        "beta": str(constants.beta),
        "log": "natural",
        "r_raw": str(d.r_raw), "r": str(d.r), "r_clamped": str(d.r_clamped),
        "c_raw": str(d.c_raw), "c": str(d.c), "c_clamped": str(d.c_clamped),
    }

    # Stage 1: reservoir of k blocks of size r.
    try:
        reservoir = batch_steps(state, 1, d.r, k, range(1, k + 1))
    except BatchInfeasible as ex:
        raise StagedInfeasible(1, str(ex)) from ex
    meta["stage1_end"] = str(len(state.steps))

    # Stage 2: build the cushion collection.
    j1 = [j for j in range(1, k + 1) if state.budgets[j - 1] >= d.j1_min_budget]
    sum_j1 = sum(state.budgets[j - 1] for j in j1)
    cushion_blocks: list[tuple[int, int]]
    if j1 and 10 * sum_j1 >= e_total:
        meta["case"] = "1"
        try:
            cushion_blocks = batch_steps(state, 1, d.c, d.count_case1, j1)
        except BatchInfeasible as ex:
            raise StagedInfeasible(2, str(ex)) from ex
    else:
        meta["case"] = "2"
        j2 = [j for j in range(1, k + 1)
              if j not in j1 and state.budgets[j - 1] <= d.j2_max_budget]
        j3 = [j for j in range(1, k + 1) if j not in j1 and j not in j2]
        # Exhaust the small and huge colours with simple steps on the largest block.
        for j in sorted(j1 + j2, key=lambda j: (state.budgets[j - 1], j)):
            while True:
                big = state.largest_block()
                if big is None:
                    break
                size = big[1] - big[0] + 1
                if size < 2 or state.budgets[j - 1] < size - 1:
                    break
                state.apply_step(big[0], 1, j)
        # Maximal-size splitting process over the mid-range colours.
        cushion_blocks = []
        for j in j3:
            big = state.largest_block()
            if big is None:
                break
            x = big[1] - big[0] + 1
            if x < d.stop_below:
                break
            # stage 2 keeps t < x/2; c(x-c) grows up to x/2, so the clamp is
            # the largest fitting c below that cap
            cj = min(_max_step_size(x, state.budgets[j - 1]), (x - 1) // 2)
            if cj < 1:
                raise StagedInfeasible(
                    2, f"colour {j}: budget {state.budgets[j - 1]} < x-1 = {x - 1}")
            top = (big[1] - cj + 1, big[1])
            state.apply_step(big[0], cj, j)
            cushion_blocks.append(top)
    meta["stage2_end"] = str(len(state.steps))

    # Stage 3: reduce the big block, drain it, drain the cushions, then the
    # reservoir by pigeonhole.
    big = state.largest_block()
    if big is not None and big[1] - big[0] + 1 >= 2 * k:
        reduce_large(state, big[0])
    big = state.largest_block()
    if big is not None and big[0] in state.blocks:
        try:
            drain_with_cushion(state, big[0])
        except CushionTooSmall as ex:
            raise StagedInfeasible(3, f"main block: {ex}") from ex
    for lo, hi in sorted(cushion_blocks, key=lambda b: (b[0] - b[1], b[0])):
        if lo in state.blocks:
            try:
                drain_with_cushion(state, lo)
            except CushionTooSmall as ex:
                raise StagedInfeasible(3, f"cushion block [{lo}..{hi}]: {ex}") from ex
    while True:
        big = state.largest_block()
        if big is None:
            break
        size = big[1] - big[0] + 1
        colour = _pick_colour(state.budgets, size - 1)
        if colour is None:
            raise StagedInfeasible(
                3, f"reservoir pigeonhole: no colour with budget >= {size - 1}")
        state.apply_step(big[0], 1, colour)
    assert state.done and all(b == 0 for b in state.budgets)
    return state.to_certificate(meta)


# ---------------------------------------------------------------------------
# Greedy constructor
# ---------------------------------------------------------------------------

def greedy_descent(state: SplitState) -> bool:
    """Straight-line best-fit pass: split the largest block s with the
    (t, colour) that leaves the least budget b - t(s-t), ties to the smaller
    t, then the lower colour. For one colour the largest fitting t,
    _max_step_size(s, b), leaves the least, so a step costs O(k). Never
    backtracks; True when the state is fully coloured, False once no budget
    pays s-1."""
    budgets = state.budgets
    # (-size, lo) pops the block SplitState.largest_block would pick, in
    # O(log n) where it scans every block
    heap = [(lo - hi, lo) for lo, hi in state.blocks.items()]
    heapq.heapify(heap)
    while heap:
        lo = heapq.heappop(heap)[1]
        hi = state.blocks[lo]
        size = hi - lo + 1
        best = None
        for colour, b in enumerate(budgets, start=1):
            if b >= size - 1:
                t = _max_step_size(size, b)
                step = (b - t * (size - t), t, colour)
                if best is None or step < best:
                    best = step
        if best is None:
            return False
        _, t, colour = best
        state.apply_step(lo, t, colour)
        for part in (lo, hi - t + 1):
            if part in state.blocks:
                heapq.heappush(heap, (part - state.blocks[part], part))
    return True


@dataclass
class GreedyResult:
    status: str  # "certificate" | "infeasible" | "giveup"
    certificate: SplitCertificate | None = None
    nodes: int = 0


def construct_greedy(n: int, seq: DistributionSequence,
                     node_budget: int = 500_000) -> GreedyResult:
    """The best-fit descent, then the standard search in the same step order.

    When greedy_descent colours every block its steps are the certificate,
    with 0 search nodes. Only when it stalls does standard_search run, with
    a fresh memo and node_budget; its first dive retraces the descent.
    """
    _require_good(n, seq)
    state = SplitState.initial(n, seq.e)
    if greedy_descent(state):
        return GreedyResult("certificate", state.to_certificate({"strategy": "greedy"}))
    memo: dict = {}
    status, nodes = standard_search(n, seq.e, memo, node_budget)
    cert = standard_certificate(n, seq.e, memo) if status == "certificate" else None
    return GreedyResult(status, cert, nodes)


def _state_key(sizes, budgets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted block sizes >= 2, sorted nonzero budgets): a state up to the
    order of its blocks and of its colours."""
    return tuple(sorted(s for s in sizes if s >= 2)), tuple(sorted(b for b in budgets if b))


def _moves(sizes: tuple[int, ...], budgets: tuple[int, ...]):
    """The steps on the largest block of a state key, in greedy_descent's
    order: least leftover budget b - t(size-t) first, ties to the smaller t;
    each equal budget once (equal-budget colours are interchangeable).
    Yields ((t, budget), child key)."""
    size = sizes[-1]
    # each budget enters at its largest fitting t, which leaves it the least;
    # taking (t, b) queues (t-1, b), whose leftover is larger
    heap = []
    for i, b in enumerate(budgets):
        t = _max_step_size(size, b)
        if t and (i == 0 or b != budgets[i - 1]):
            heap.append((b - t * (size - t), t, i))
    heapq.heapify(heap)
    while heap:
        left, t, i = heapq.heappop(heap)
        b = budgets[i]
        if t > 1:
            heapq.heappush(heap, (b - (t - 1) * (size - t + 1), t - 1, i))
        child_sizes = tuple(sorted(sizes[:-1] + tuple(p for p in (size - t, t) if p >= 2)))
        rest = budgets[:i] + budgets[i + 1:] + ((left,) if left else ())
        yield (t, b), (child_sizes, tuple(sorted(rest)))


def standard_search(n: int, e, memo: dict, node_budget: int | None = None) -> tuple[str, int]:
    """Does some sequence of standard colouring steps on K_n spend exactly
    the budgets e? Returns (status, nodes), status as in GreedyResult; the
    search is exhaustive whenever it ends within node_budget.

    Only the largest block is split: steps on different blocks commute, since
    budgets only go down, so every block left to split can be split first.
    Moves come in _moves' order, least leftover budget first, so on a fresh
    memo the first dive is greedy_descent's. memo maps each expanded
    state, (sorted block sizes, sorted nonzero budgets), to the (t, budget)
    it took towards a full colouring, or to None when no step leads to one;
    it may be shared by many calls, and standard_certificate reads a found
    colouring off it. Each memo miss is one node; a search that gives up
    reports node_budget nodes.
    """
    # One [key, untried moves, move taken] frame per state being expanded.
    # An explicit stack, not recursion: a search can be n steps deep.
    stack: list[list] = []
    nodes = 0
    key = _state_key((n,), e)
    while True:
        if key[0] and key not in memo:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return "giveup", node_budget
            stack.append([key, _moves(*key), None])
        elif not key[0] or memo[key] is not None:
            for frame in stack:
                memo[frame[0]] = frame[2]
            return "certificate", nodes
        while stack and (move := next(stack[-1][1], None)) is None:
            memo[stack.pop()[0]] = None
        if not stack:
            return "infeasible", nodes
        stack[-1][2], key = move


def standard_certificate(n: int, e, memo: dict) -> SplitCertificate:
    """The colouring that standard_search found for (n, e), read off its
    memo: each step splits the largest block in the lowest colour holding
    the memoised budget."""
    state = SplitState.initial(n, e)
    while (big := state.largest_block()) is not None:
        t, b = memo[_state_key((hi - lo + 1 for lo, hi in state.blocks.items()),
                                state.budgets)]
        state.apply_step(big[0], t, state.budgets.index(b) + 1)
    return state.to_certificate({"strategy": "greedy"})


# ---------------------------------------------------------------------------
# Min-degree-3 constructor
# ---------------------------------------------------------------------------

def construct_mindeg3_trace(n: int, seq: DistributionSequence) -> tuple[Colouring, list[tuple]]:
    """construct_mindeg3 plus its peel log: the lex records (lo, hi, colours,
    ends) that Colouring.painted paints, one a level. A peel of [lo..hi] is
    (lo, hi, (rare, bulk), (rare edges, all its edges)): in lex order its rare
    edges come first. The base fill is (1, hi, (c,), (C(hi,2),))."""
    _require_good(n, seq)
    live = [(e, j + 1) for j, e in enumerate(seq.e) if e > 0]
    k_eff = len(live)
    if n < 2 * k_eff:
        raise PreconditionViolation(
            f"need n >= 2k for the {k_eff} colours with positive budget; n={n}")
    budgets = {j: e for e, j in live}
    active = n
    records = []
    while budgets and active >= 1:
        order = sorted(budgets, key=lambda j: (-budgets[j], j))
        if len(order) == 1:
            c = order[0]
            assert budgets[c] == comb(active, 2), "base fill out of balance (internal bug)"
            records.append((1, active, (c,), (comb(active, 2),)))
            break
        top, bot = order[0], order[-1]
        e_bot = budgets[bot]
        t = 1
        while comb(t, 2) + t * (active - t) < e_bot:
            t += 1
        f = comb(t, 2) + t * (active - t)
        lo = active - t + 1
        budgets[top] -= f - e_bot
        assert budgets[top] > 0, "bulk colour exhausted (internal bug)"
        del budgets[bot]
        records.append((lo, active, (bot, top), (e_bot, f)))
        active -= t
    return Colouring.painted(n, seq.k, records), records


def construct_mindeg3(n: int, seq: DistributionSequence) -> Colouring:
    """Recursive peel construction realising seq exactly; the edges incident
    to each peeled batch use at most two colours inside the graph surviving at
    that level, so no subgraph of minimum degree 3 can be rainbow."""
    return construct_mindeg3_trace(n, seq)[0]


# ---------------------------------------------------------------------------
# Realisation and dispatch
# ---------------------------------------------------------------------------

def realize_certificate(cert: SplitCertificate) -> Colouring:
    """Replay a certificate into the concrete edge colouring it describes,
    under the per-colour totals its own steps spend; ValueError when the
    replay fails. Each step paints its rectangle and the mirror image."""
    totals = [0] * cert.k
    for s in cert.steps:
        if 1 <= s.colour <= cert.k:
            totals[s.colour - 1] += s.t * (s.hi - s.lo + 1 - s.t)
    matrix = zero_matrix(cert.n)
    for rows, cols, colour in replay_certificate(cert, totals):
        matrix[rows, cols] = colour
        matrix[cols, rows] = colour
    return Colouring(cert.n, cert.k, matrix, copy=False)


@dataclass
class ConstructionResult:
    status: str  # "ok" | "infeasible" | "unknown"
    colouring: Colouring | None = None
    certificate: SplitCertificate | None = None
    strategy: str = ""
    infeasibility: object | None = None
    reasons: list[str] = field(default_factory=list)
    witness: object | None = None  # "unknown": a rainbow copy of H in the tried colouring


def construct(H: TargetGraph, n: int, seq: DistributionSequence) -> ConstructionResult:
    """Build a rainbow-H-free colouring realising seq, or prove that none exists.

    One chain of links, each tried only where its proof covers H: the trivial
    fill when H does not fit in K_n; mindeg3 at degeneracy >= 3 and n >= 2k;
    staged, then greedy or the clash bound, at degeneracy >= 2; and for
    forests the forest step, which returns a colouring only after
    verifier.settle_target finds no rainbow copy of H in it. Status "unknown",
    with the reason chain, when no link succeeds and no infeasibility
    certificate applies.
    """
    from . import bounds
    from .verifier import settle_target

    _require_good(n, seq)
    deg = degeneracy(H)
    k_eff = sum(1 for e in seq.e if e > 0)
    reasons: list[str] = []

    if H.m > n:
        # No copy of H fits at all; any colouring with the right counts works.
        return ConstructionResult("ok", lex_colouring(seq),
                                  strategy="trivial-fill",
                                  reasons=[f"target has {H.m} > {n} vertices"])

    if deg >= MINDEG3_DEGENERACY:
        if n >= 2 * k_eff:
            return ConstructionResult("ok", construct_mindeg3(n, seq), strategy="mindeg3")
        reasons.append(f"n={n} < 2k for mindeg3; target contains a cycle, "
                       "falling through to standard colouring")

    if deg >= STANDARD_DEGENERACY:
        try:
            cert = construct_staged(n, seq)
            return ConstructionResult("ok", realize_certificate(cert), cert, "staged")
        except StagedInfeasible as ex:
            reasons.append(str(ex))
    elif not H.edges:
        return ConstructionResult("unknown", reasons=[
            f"edgeless target on {H.m} <= {n} vertices is contained rainbow-ly "
            "in every colouring; no sequence is realisable"])

    res = construct_greedy(n, seq)
    cert = res.certificate  # None unless res.status is "certificate"
    if cert is None:
        reasons.append(f"greedy: {res.status}")
    elif deg >= STANDARD_DEGENERACY:
        return ConstructionResult("ok", realize_certificate(cert), cert, "greedy")
    if deg >= STANDARD_DEGENERACY:
        # degeneracy >= 2 needs H.m >= 3, and H.m <= n past the trivial fill
        clash = bounds.clash_bound_check(seq, H.m)
        if clash is not None:
            return ConstructionResult(
                "infeasible", infeasibility=clash,
                reasons=reasons + ["clash bound forces a rainbow complete graph"])
        reasons.append("clash bound inconclusive")
        return ConstructionResult("unknown", reasons=reasons)

    # Forests: realisability is the exception, not the rule.
    # tree_forced_check is not tried: as max e >= C(n,2)/k, its max e <= C(n,2)/(6m)^(6m)
    # needs k >= 12^12 listed budgets (m >= 2). `certify --kind tree` needs only n and k.
    # Attempt some realisation of the counts and search it exhaustively; a
    # standard colouring carries no guarantee against rainbow trees.
    if cert is not None:
        col, attempt = realize_certificate(cert), "greedy"
    else:
        col, attempt = lex_colouring(seq), "lex-fill"
    search = settle_target(col, H, cert_ok=False)
    if search.exhausted:
        return ConstructionResult("ok", col, cert, attempt,
                                  reasons=["verified rainbow-free explicitly"])
    if search.found:
        return ConstructionResult("unknown", reasons=reasons + [
            f"{attempt} colouring contains a rainbow copy of the forest target"],
            witness=search.embedding)
    return ConstructionResult("unknown", reasons=reasons + [
        f"{attempt} colouring: rainbow search hit its node budget of "
        f"{search.nodes_used} nodes"])


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------

def write_certificate(cert: SplitCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{cert.n} {cert.k}\n")
        for s in cert.steps:
            f.write(f"{s.lo} {s.hi} {s.t} {s.colour}\n")
        for key in sorted(cert.metadata):
            f.write(f"# {key}={cert.metadata[key]}\n")


def read_certificate(path: str) -> SplitCertificate:
    """The metadata comments write_certificate appends are not read back."""
    with data_lines(path, "certificate file") as text:
        lines = int_lines(text)
        if not lines or len(lines[0]) != 2 or any(len(ln) != 4 for ln in lines[1:]):
            raise ValueError("expected the line 'n k', then one line 'lo hi t colour' per step")
        return SplitCertificate(*lines[0], [StepRecord(*step) for step in lines[1:]])
