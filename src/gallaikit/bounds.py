"""Infeasibility and forcing certificates from exact lower-bound arithmetic.

Every certificate stores the parameters and margin needed to re-evaluate its
inequality from scratch. Rational parts are exact, and the one logarithm that
appears is bounded from above by exact integer arithmetic with a recorded
width, so a reported certificate is rigorous outright.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .core import (
    Colouring,
    DistributionSequence,
    TargetGraph,
    balanced_sequence,
    colour_counts,
    data_lines,
    int_tokens,
    is_n_good,
)
from .constructor import StageConstants, floor_root
from .errors import NotGallai, PreconditionViolation, RangeError
from .verifier import find_gallai_partition, find_rainbow_triangle

KIND_RAINBOW_KM = "RainbowKmForced"
KIND_TREE = "TreeForced"
KIND_TRIANGLE_HARD = "TriangleHardSequence"

_KIND_TOKENS = {
    KIND_RAINBOW_KM: "RAINBOWKM",
    KIND_TREE: "TREEFORCED",
    KIND_TRIANGLE_HARD: "TRIANGLEHARD",
}
_TOKEN_KINDS = {v: k for k, v in _KIND_TOKENS.items()}

# Log bounds live on a fixed dyadic grid at 2^-80. floor_root is exact, so one
# ulp above the floor is already an upper bound; the width stays 4 ulps so that
# certificate lines keep their bytes and the bound stays above the 40-term
# series bound that perfbench/checks.py re-checks certificates against.
_LOG_SCALE = 1 << 80
_LOG_SLACK = 4
_LOG_WIDTH = Fraction(_LOG_SLACK, _LOG_SCALE)


def _log_upper(num: int, den: int) -> Fraction:
    """log(num/den) rounded down to the 2^-80 grid, plus _LOG_WIDTH; num > den > 0."""
    return Fraction(floor_root(_LOG_SCALE, 1, 1, num, den) + _LOG_SLACK, _LOG_SCALE)


def _margin(kind: str, k: int, n: int, m: int, a: int, b: int, c: int) -> Fraction | None:
    """The margin of kind's inequality on these fields when it and all of the kind's
    side conditions hold, else None; the makers and verify() both evaluate it here."""
    if kind == KIND_RAINBOW_KM:
        # a = sum C(e_i,2) < n(n-1)(n-2)/(m(m-1)(m-2)) forces a rainbow K_m
        if n >= m >= 3 and a >= 0 and b == c == 0:
            margin = Fraction(n * (n - 1) * (n - 2), m * (m - 1) * (m - 2)) - a
            return margin if margin > 0 else None
    elif kind == KIND_TREE:
        # a = max e_i <= C(n,2)/(6m)^(6m); a = 0 is n-good only at n <= 1, where K_n has
        # no tree. (6m)^(6m) >= 2^(6m(bits(6m)-1)), so no a >= 1 fits unless that < C(n,2)
        total, x = comb(n, 2), 6 * m
        if m >= 2 and a >= 1 and b == c == 0 and x * (x.bit_length() - 1) < total.bit_length():
            margin = Fraction(total, tree_threshold(m)) - a
            return margin if margin >= 0 else None
    elif kind == KIND_TRIANGLE_HARD:
        # b^2/3 - 4(a+1)log(n/b) > 0, the log rounded against it, for the
        # n-good sequence of c entries a+1, ceil(k/2)-c entries a and floor(k/2)
        # entries b, with 5b^2 >= k^2, 4(a+1) <= 5a, a*ceil(k/2) <= C(n,2), n <= bk
        half_up = (k + 1) // 2
        if (k >= 3 and n >= 2 and m == 3 and b == k // 2 and 0 <= c < half_up
                and c * (a + 1) + (half_up - c) * a + (k // 2) * b == comb(n, 2)
                and 5 * b * b >= k * k and 4 * (a + 1) <= 5 * a
                and a * half_up <= comb(n, 2) and n <= b * k):
            margin = Fraction(b * b, 3) - 4 * (a + 1) * _log_upper(n, b)
            return margin if margin > 0 else None
    return None


def _certificate(kind: str, k: int, n: int, m: int, a: int, b: int = 0, c: int = 0
                 ) -> InfeasibilityCertificate | None:
    """kind's certificate on these fields, or None when its inequality fails."""
    margin = _margin(kind, k, n, m, a, b, c)
    if margin is None:
        return None
    log_error = _LOG_WIDTH if kind == KIND_TRIANGLE_HARD else Fraction(0)
    return InfeasibilityCertificate(kind, k, n, m, a, b, c, margin, log_error)


@dataclass
class InfeasibilityCertificate:
    """Machine-checkable arithmetic witness; verify() re-evaluates the stored
    inequality from the stored parameters alone.

    verify() accepts a TRIANGLEHARD line at any n whose margin is positive
    and whose side conditions hold, not only at the n that alpha = 1/10 gives:
    at k = 80 it accepts n = 60..115, while alpha gives n = 34. The paper's
    lemma is known only at alpha's n; whether the wider lines are sound is
    open, and the toolkit itself writes them only at alpha's n."""

    kind: str
    k: int
    n: int
    m: int
    a: int  # TriangleHard: a; RainbowKm: sum of C(e_i,2); Tree: max budget
    b: int
    c: int
    margin: Fraction
    log_error: Fraction = Fraction(0)

    def verify(self) -> bool:
        """True when the makers' certificate on these fields, margin and log error too, is self."""
        return _certificate(self.kind, self.k, self.n, self.m, self.a, self.b, self.c) == self

    def inequality_text(self) -> str:
        if self.kind == KIND_RAINBOW_KM:
            return (f"sum C(e_i,2) = {self.a} < n(n-1)(n-2)/(m(m-1)(m-2)) = "
                    f"{self.n * (self.n - 1) * (self.n - 2)}/{self.m * (self.m - 1) * (self.m - 2)}")
        if self.kind == KIND_TREE:
            return (f"max e_i = {self.a} <= C({self.n},2)/(6m)^(6m) with m={self.m}")
        return (f"b^2/3 - 4(a+1)log(n/b) >= {self.margin} > 0 "
                f"with n={self.n} a={self.a} b={self.b} c={self.c}")

    def to_line(self) -> str:
        return " ".join(str(x) for x in (
            _KIND_TOKENS[self.kind], self.k, self.n, self.m, self.a, self.b, self.c,
            self.margin.numerator, self.margin.denominator, self.log_error))

    @staticmethod
    def from_line(line: str) -> "InfeasibilityCertificate":
        parts = line.split()
        if len(parts) == 10 and parts[0] in _TOKEN_KINDS:
            k, n, m, a, b, c, num, den, *log_error = int_tokens(
                parts[1:9] + parts[9].split("/"), "certificate line")
            if len(log_error) <= 2 and 0 not in (den, *log_error[1:]):
                return InfeasibilityCertificate(_TOKEN_KINDS[parts[0]], k, n, m, a, b, c,
                                                Fraction(num, den), Fraction(*log_error))
        raise ValueError(f"bad certificate line: {line!r}")


def write_infeasibility(cert: InfeasibilityCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(cert.to_line() + "\n")
        f.write(f"# {cert.inequality_text()}\n")


def read_infeasibility(path: str) -> InfeasibilityCertificate:
    with data_lines(path, "certificate file") as lines:
        if len(lines) != 1:
            raise ValueError(f"expected 1 data line, got {len(lines)}")
        cert = InfeasibilityCertificate.from_line(lines[0])
        if not cert.verify():
            raise ValueError("failed re-verification")
        return cert


# ---------------------------------------------------------------------------
# Clash bound: too few monochromatic edge pairs forces a rainbow K_m.
# ---------------------------------------------------------------------------

def clash_bound_check(seq: DistributionSequence, m: int) -> InfeasibilityCertificate | None:
    """If sum C(e_i,2) < n(n-1)(n-2)/(m(m-1)(m-2)) strictly, every colouring
    with these counts contains a rainbow K_m, so seq is infeasible for any
    target on m vertices. Returns None (no conclusion) otherwise."""
    n = seq.n
    if not (n >= m >= 3):
        raise PreconditionViolation(f"need n >= m >= 3, got n={n}, m={m}")
    return _certificate(KIND_RAINBOW_KM, seq.k, n, m, sum(comb(e, 2) for e in seq.e))


# ---------------------------------------------------------------------------
# The hard sequence for triangle targets, and its infeasibility margin.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardSequenceParams:
    n: int
    a: int
    b: int
    c: int


def triangle_hard_sequence(k: int) -> tuple[DistributionSequence, HardSequenceParams]:
    """The skewed distribution on n = floor(alpha k^1.5 / sqrt(log k)) vertices:
    c entries of a+1, then ceil(k/2)-c entries of a, then floor(k/2) entries of b.

    Raises PreconditionViolation for k < 1, and RangeError naming the failing
    quantity when k is too small for the derived a to be non-negative.
    """
    if k < 1:
        raise PreconditionViolation(f"need k >= 1, got k={k}")
    if k < 3:
        raise RangeError("k", k)
    n = StageConstants().lower_n(k)
    if n < 2:
        raise RangeError("n", n)
    b = k // 2
    half_up = (k + 1) // 2
    a, c = divmod(comb(n, 2) - b * (k // 2), half_up)
    if a < 0:
        raise RangeError("a", a)
    e = (a + 1,) * c + (a,) * (half_up - c) + (b,) * (k // 2)
    seq = DistributionSequence(n, k, e)
    assert is_n_good(seq), "hard sequence must be n-good by construction"
    return seq, HardSequenceParams(n, a, b, c)


def triangle_infeasibility_check(k: int) -> InfeasibilityCertificate | None:
    """The hard sequence's certificate when its margin and side conditions hold.

    A certificate asserts no Gallai colouring of K_n realises the hard
    sequence, hence forcing a rainbow triangle. It is made only at the n that
    alpha = 1/10 gives, where the paper's lemma applies; verify() is wider.
    """
    _, p = triangle_hard_sequence(k)
    return _certificate(KIND_TRIANGLE_HARD, k, p.n, 3, p.a, p.b, p.c)


def smallest_certified_k(k_max: int = 1000) -> int | None:
    """First k whose full side-condition chain verifies; found by scanning."""
    for k in range(3, k_max + 1):
        try:
            if triangle_infeasibility_check(k) is not None:
                return k
        except RangeError:
            continue
    return None


# ---------------------------------------------------------------------------
# Tree forcing
# ---------------------------------------------------------------------------

def tree_threshold(m: int) -> int:
    """Exact (6m)^(6m) as an arbitrary-precision integer."""
    if m < 2:
        raise PreconditionViolation("need m >= 2")
    return (6 * m) ** (6 * m)


def tree_forced_check(seq: DistributionSequence, m: int) -> InfeasibilityCertificate | None:
    """If every colour is used at most C(n,2)/(6m)^(6m) times, every colouring
    with these counts contains a rainbow copy of every m-vertex tree."""
    if m < 2:
        raise PreconditionViolation("need m >= 2")
    return _certificate(KIND_TREE, seq.k, seq.n, m, max(seq.e))


def balanced_tree_forced_check(n: int, k: int, m: int) -> InfeasibilityCertificate | None:
    """tree_forced_check for the balanced sequence on (n, k), computed from the
    maximum entry alone so that astronomically long sequences need not be
    materialised."""
    if n < 1 or k < 1:
        raise PreconditionViolation(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if m < 2:
        raise PreconditionViolation("need m >= 2")
    return _certificate(KIND_TREE, k, n, m, -(-comb(n, 2) // k))


# ---------------------------------------------------------------------------
# The balanced sequence that forces a rainbow K_m at n = floor(k/m^3).
# ---------------------------------------------------------------------------

def general_lower_sequence(H: TargetGraph, k: int
                           ) -> tuple[DistributionSequence, int, InfeasibilityCertificate]:
    """Balanced sequence at n = floor(k/m^3) with the clash-bound certificate
    that it forces a rainbow K_m (m = H's vertex count)."""
    m = H.m
    if m < 3:
        raise PreconditionViolation("need a target on at least 3 vertices")
    if k < 1:
        raise PreconditionViolation(f"need k >= 1, got k={k}")
    n = k // m ** 3
    if n < 1 or comb(n, 2) < k:
        raise RangeError("C(n,2)", comb(n, 2) if n >= 1 else 0)
    seq = balanced_sequence(n, k)
    cert = clash_bound_check(seq, m)
    # C(n,2) >= k >= n m^3 makes n >= 2m^3 + 1 >= 55, and q = floor(C(n,2)/k)
    # <= (n-1)/(2m^3), so sum C(e_i,2) <= q C(n,2)/2 <= n(n-1)^2/(8m^3), below
    # n(n-1)(n-2)/m^3 <= the clash bound's right side
    assert cert is not None, "clash bound fails on the balanced sequence (internal bug)"
    return seq, m, cert


# ---------------------------------------------------------------------------
# Splitting process: iterated Gallai-partition peeling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeelStep:
    x_before: int
    t: int
    x_after: int
    base_colours: tuple[int, ...]
    base_edges: int   # inter edges coloured by base colours at this peel
    base_freq: int    # total edges of the base colours inside the block


@dataclass
class PeelTrace:
    start_n: int
    stop: int
    steps: list[PeelStep] = field(default_factory=list)

    @property
    def total_base_edges(self) -> int:
        return sum(s.base_edges for s in self.steps)

    def sizes_consistent(self) -> bool:
        x = self.start_n
        for s in self.steps:
            if s.x_before != x or s.x_after != x - s.t or 2 * s.t > s.x_before:
                return False
            x = s.x_after
        return x <= self.stop or not self.steps


def peel_splitting_process(col: Colouring, stop: int) -> PeelTrace:
    """Repeatedly find a Gallai partition of the current block, peel its
    smallest part, and record sizes, base colours, and base-colour counts,
    until at most `stop` vertices remain."""
    if stop < 1:
        raise PreconditionViolation("stop must be >= 1")
    tri = find_rainbow_triangle(col)
    if tri is not None:
        raise NotGallai(tri)
    active = list(range(1, col.n + 1))
    trace = PeelTrace(col.n, stop)
    while len(active) > stop:
        sub = col.induced(active)
        # induced sub-colourings of a Gallai colouring are Gallai: no rescan
        x = len(active)
        p = find_gallai_partition(sub)
        assert p is not None, f"{x}-vertex Gallai block without a partition (internal bug)"
        smallest = min(p.parts, key=lambda part: (len(part), part))
        t = len(smallest)
        base = tuple(sorted(p.base_colours))
        base_freq = sum(colour_counts(sub)[c - 1] for c in base)
        trace.steps.append(PeelStep(x, t, x - t, base, t * (x - t), base_freq))
        peeled = {active[v - 1] for v in smallest}
        active = [v for v in active if v not in peeled]
    return trace
