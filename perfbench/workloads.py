"""The workloads: inputs made from the seed, the operations of one round, and
the checks of the outputs of a round.

Operations are gallaikit CLI calls (`gallaikit.cli.main(argv)`) on files the
workload writes, and library calls where the CLI has no command. Every round
runs the same operations on the same inputs.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from gallaikit import bounds as gk_bounds
from gallaikit import oracle as gk_oracle
from gallaikit.core import Colouring, DistributionSequence, TargetGraph

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    argv: list[str] | None = None            # a gallaikit CLI call
    call: Callable[[], object] | None = None  # a library call
    outputs: tuple[Path, ...] = ()


@dataclass
class Outcome:
    rc: int | None       # exit code; None when the call raised
    seconds: float
    stdout: str
    stderr: str
    result: object = None


def random_composition(rng: random.Random, total: int, k: int) -> tuple[int, ...]:
    """total cut into k positive parts at k-1 distinct uniform cut points."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def write_sequence_file(path, n: int, e) -> None:
    """The sequence format gallaikit reads: "n k", then the k budgets."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{n} {len(e)}\n" + " ".join(map(str, e)) + "\n")


def best_fit_descent_completes(n: int, e) -> bool:
    """Straight-line standard colouring of K_n: on the largest block take the
    smallest t, then the smallest budget that pays t(size-t). The greedy
    constructor tries this descent first; sequences on which it stalls send
    the constructor into its depth-first search."""
    budgets = list(e)
    blocks = [-n] if n >= 2 else []
    while blocks:
        size = -heapq.heappop(blocks)
        for t in range(1, size // 2 + 1):
            need = t * (size - t)
            fits = [(b, j) for j, b in enumerate(budgets) if b >= need]
            if fits:
                budgets[min(fits)[1]] -= need
                for piece in (t, size - t):
                    if piece >= 2:
                        heapq.heappush(blocks, -piece)
                break
        else:
            return False
    return True


def chain_colouring(rng: random.Random, n: int, k: int) -> np.ndarray:
    """Vertex v joins every lower vertex in one random colour: the colouring
    that n-1 simple standard steps paint, and a Gallai colouring."""
    m = np.zeros((n, n), dtype=np.int32)
    for v in range(1, n):
        c = rng.randint(1, k)
        m[v, :v] = c
        m[:v, v] = c
    return m


def flip(m: np.ndarray, u: int, v: int, k: int) -> np.ndarray:
    """A copy of m with edge (u, v) (0-based) moved to the next colour."""
    out = m.copy()
    out[u, v] = out[v, u] = m[u, v] % k + 1
    return out


def plant_rainbow_triangle(m: np.ndarray, k: int) -> np.ndarray:
    """Flip one edge of a two-coloured triangle to a third colour."""
    n = m.shape[0]
    for u, v, w in itertools.combinations(range(n), 3):
        a, b, c = m[u, v], m[u, w], m[v, w]
        if len({a, b, c}) == 2:
            u2, v2 = (u, v) if a in (b, c) else (u, w)
            out = m.copy()
            out[u2, v2] = out[v2, u2] = next(x for x in range(1, k + 1) if x not in (a, b, c))
            return out
    raise ValueError("no two-coloured triangle to flip")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.ops: list[Op] = []

    def check(self, out: dict[str, Outcome]) -> list[str]:
        """Problems in the outputs of one round; [] when all is right."""
        raise NotImplementedError

    def self_test(self, out: dict[str, Outcome]) -> list[str]:
        """Damage outputs and report every checker that does not object."""
        raise NotImplementedError


def _expect(problems: list[str], what: str) -> list[str]:
    return [] if problems else [f"self-test: {what} was not rejected"]


class _K3Instances(Workload):
    """construct + verify round trips for K3 on sequences written to files."""

    brute_force_up_to = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances: list[tuple[str, int, tuple[int, ...]]] = []

    def add_instance(self, tag: str, n: int, e: tuple[int, ...], balanced_k: int | None = None):
        seq = self.dir / f"{tag}.seq"
        col = self.dir / f"{tag}.col"
        cert = self.dir / f"{tag}.cert"
        write_sequence_file(seq, n, e)
        given = ["balanced", "--k", str(balanced_k)] if balanced_k else [str(seq)]
        self.ops.append(Op(f"construct {tag}", [
            "construct", "--target", "builtin:K3", "--n", str(n), "--seq", *given,
            "--out", str(col), "--cert", str(cert)], outputs=(col, cert)))
        self.ops.append(Op(f"verify {tag}", [
            "verify", "--target", "builtin:K3", "--colouring", str(col),
            "--cert", str(cert), "--seq", str(seq)]))
        self.instances.append((tag, n, e))

    def _load(self, tag):
        n, k, m = checks.read_colouring_file(self.dir / f"{tag}.col")
        _, _, steps = checks.read_certificate_file(self.dir / f"{tag}.cert")
        return n, k, m, steps

    def check(self, out):
        problems = []
        for tag, n, e in self.instances:
            if f"construct {tag}" not in out:
                continue            # failed operations are counted, not checked
            p = []
            head = out[f"construct {tag}"].stdout
            if not head.startswith(f"constructed n={n} k={len(e)} "):
                p.append(f"construct printed {head!r}")
            cn, k, m, steps = self._load(tag)
            if (cn, k) != (n, len(e)):
                p.append(f"colouring is for n={cn} k={k}")
            else:
                p += checks.count_problems(m, k, e)
                p += checks.replay_problems(n, k, e, steps, m)
            if n <= self.brute_force_up_to and checks.rainbow_triangle(m) is not None:
                p.append("brute force finds a rainbow triangle")
            if f"verify {tag}" in out:
                said = out[f"verify {tag}"].stdout.splitlines()
                if not said or said[-1] != "OK":
                    p.append(f"verify printed {said[-1:]}")
                parts = [ln for ln in said if ln.startswith("PARTITION")]
                if n <= 64 and not parts:
                    p.append("verify printed no Gallai partition")
                for ln in parts:
                    p += checks.partition_problems(m, *checks.parse_partition_line(ln))
            problems += [f"{tag}: {x}" for x in p]
        return problems

    def self_test(self, out):
        done = [inst for inst in self.instances
                if f"construct {inst[0]}" in out and f"verify {inst[0]}" in out]
        if not done:
            return []
        tag, n, e = min(done, key=lambda inst: inst[1])
        _, k, m, steps = self._load(tag)
        bad = flip(m, 0, 1, k)
        problems = _expect(checks.count_problems(bad, k, e), "a flipped edge (counts)")
        problems += _expect(checks.replay_problems(n, k, e, steps, bad), "a flipped edge (replay)")
        for drop in (0, len(steps) // 2, len(steps) - 1):
            problems += _expect(checks.replay_problems(n, k, e, steps[:drop] + steps[drop + 1:], m),
                                f"a dropped step {drop + 1}")
        problems += _expect([] if checks.rainbow_triangle(plant_rainbow_triangle(m, k)) is None
                            else ["found"], "a planted rainbow triangle")
        lines = [ln for ln in out[f"verify {tag}"].stdout.splitlines() if ln.startswith("PARTITION")]
        if lines:
            base, parts = checks.parse_partition_line(lines[0])
            p, q = next((p, q) for p, q in itertools.combinations(parts, 2)
                        if len(p) * len(q) >= 2)
            u, v = p[0] - 1, q[0] - 1
            problems += _expect(checks.partition_problems(flip(m, u, v, k), base, parts),
                                "a flipped edge between parts")
        return problems


class K3Roundtrip(_K3Instances):
    """The K3 round trip users run, at n = 700: one balanced and one random
    sequence, k drawn from [16, 24], both on the descent path."""

    name = "k3-roundtrip"
    N = 700
    K_RANGE = (16, 24)
    brute_force_up_to = 0       # the certificate replay is the proof at this size

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        while True:
            k = self.rng.randint(*self.K_RANGE)
            if best_fit_descent_completes(self.N, checks.balanced(self.N, k)):
                break
        self.add_instance("balanced", self.N, checks.balanced(self.N, k), balanced_k=k)
        while True:
            k = self.rng.randint(*self.K_RANGE)
            e = random_composition(self.rng, comb(self.N, 2), k)
            if best_fit_descent_completes(self.N, e):
                break
        self.add_instance("random", self.N, e)


class K3Search(_K3Instances):
    """K3 constructs that need the depth-first search, drawn from the pool,
    then the splitting process on a chain colouring at n = 90. From each
    (n, k) stratum the seed draws one pair: the instance with the i-th fewest
    search nodes and the one with the i-th most, so that the search work of
    one seed's draw is close to another's."""

    name = "k3-search"
    PEEL_N, PEEL_K, PEEL_STOP = 90, 8, 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        strata: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for ln in (HERE / "data" / "k3_search_pool.txt").read_text().splitlines():
            body, _, note = ln.partition("#")
            fields = body.split()
            if fields:
                nodes = int(note.split("nodes=")[1])
                strata.setdefault(int(fields[0]), []).append(
                    (nodes, tuple(int(x) for x in fields[1:])))
        for n, pool in sorted(strata.items()):
            ranked = [e for _, e in sorted(pool)]
            i = self.rng.randrange(len(ranked) // 2)
            self.add_instance(f"n{n}-0", n, ranked[i])
            self.add_instance(f"n{n}-1", n, ranked[-1 - i])
        col = Colouring(self.PEEL_N, self.PEEL_K,
                        chain_colouring(self.rng, self.PEEL_N, self.PEEL_K))
        self.ops.append(Op("peel", call=lambda: gk_bounds.peel_splitting_process(
            col, self.PEEL_STOP)))

    @staticmethod
    def _steps(trace):
        return [(s.x_before, s.t, s.x_after, s.base_colours, s.base_edges, s.base_freq)
                for s in trace.steps]

    def check(self, out):
        problems = super().check(out)
        if "peel" in out:
            problems += [f"peel: {p}" for p in checks.peel_trace_problems(
                self.PEEL_N, self.PEEL_STOP, self._steps(out["peel"].result))]
        return problems

    def self_test(self, out):
        problems = super().self_test(out)
        if "peel" in out:
            steps = self._steps(out["peel"].result)
            problems += _expect(checks.peel_trace_problems(self.PEEL_N, self.PEEL_STOP, steps[1:]),
                                "a dropped peel")
        return problems


class K4Bulk(Workload):
    """mindeg3 construct + verify --seq for K4 at n = 2400 on a random
    sequence with k drawn from [60, 100]."""

    name = "k4-bulk"
    N = 2400
    K_RANGE = (60, 100)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        k = self.rng.randint(*self.K_RANGE)
        self.e = random_composition(self.rng, comb(self.N, 2), k)
        seq, col = self.dir / "bulk.seq", self.dir / "bulk.col"
        write_sequence_file(seq, self.N, self.e)
        self.ops = [
            Op("construct", ["construct", "--target", "builtin:K4", "--n", str(self.N),
                             "--seq", str(seq), "--out", str(col)], outputs=(col,)),
            Op("verify", ["verify", "--colouring", str(col), "--seq", str(seq)]),
        ]

    def check(self, out):
        problems = []
        k = len(self.e)
        if "verify" in out and out["verify"].stdout.splitlines()[-1:] != ["OK"]:
            problems.append(f"verify printed {out['verify'].stdout!r}")
        if "construct" not in out:
            return problems
        head = out["construct"].stdout
        if not head.startswith(f"constructed n={self.N} k={k} strategy=mindeg3"):
            problems.append(f"construct printed {head!r}")
        n, ck, m = checks.read_colouring_file(self.dir / "bulk.col")
        if (n, ck) != (self.N, k):
            return problems + [f"colouring is for n={n} k={ck}"]
        self.m = m
        return problems + checks.count_problems(m, k, self.e) + checks.peel_order_problems(m)

    def self_test(self, out):
        k = len(self.e)
        problems = []
        if hasattr(self, "m"):
            problems += _expect(checks.count_problems(flip(self.m, 0, 1, k), k, self.e),
                                "a flipped edge (counts)")
        # vertex 4 sees two colours, so the peel check passes; recolouring
        # edge (1, 4) makes the K4 rainbow
        k4 = np.array([[0, 3, 4, 1], [3, 0, 5, 1], [4, 5, 0, 2], [1, 1, 2, 0]])
        if checks.peel_order_problems(k4):
            problems.append("self-test: the peel check rejects a peelable K4")
        k4[0, 3] = k4[3, 0] = 6
        problems += _expect(checks.peel_order_problems(k4), "a rainbow K4 (peel order)")
        return problems


class Oracle(Workload):
    """Exhaustive realizability tables with their agreement reports, and one
    certify call of each kind on inputs drawn from the seed."""

    name = "oracle"
    TABLES = (("K3", 4, 8), ("K3", 5, 6), ("C4", 4, 7), ("C4", 5, 5), ("K4", 6, 6))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        for target, k, n_max in self.TABLES:
            t = target.lower()
            d = self.dir / f"{t}-k{k}"
            self.ops.append(Op(f"oracle {t} k={k}", [
                "oracle", "--target", f"builtin:{target}", "--k", str(k), "--n-max", str(n_max),
                "--out-dir", str(d)], outputs=(d / f"realizability_{t}_k{k}.txt",
                                               d / f"agreement_{t}_k{k}.txt")))
        self.tri_k = rng.randint(300, 1200)
        n = rng.randint(24, 32)
        self.clash = (n, random_composition(rng, comb(n, 2), rng.randint(comb(n, 2) // 2,
                                                                          comb(n, 2) - 1)),
                      rng.choice((3, 4)))
        write_sequence_file(self.dir / "clash.seq", n, self.clash[1])
        n = rng.randint(10**8, 10**9)
        self.tree = (n, comb(n, 2) // rng.randint(1, 500), 2)
        self.general_k = rng.randint(27 * 60, 27 * 200)
        self.ops += [
            Op("certify triangle", ["certify", "--kind", "triangle", "--k", str(self.tri_k)]),
            Op("certify clash", ["certify", "--kind", "clash", "--m", str(self.clash[2]),
                                 "--seq", str(self.dir / "clash.seq")]),
            Op("certify tree", ["certify", "--kind", "tree", "--n", str(self.tree[0]),
                                "--k", str(self.tree[1]), "--m", str(self.tree[2])]),
            Op("certify general", ["certify", "--kind", "general", "--k", str(self.general_k),
                                   "--target", "builtin:K3"]),
        ]

    @staticmethod
    def _cert_lines(out) -> dict[str, str]:
        return {op.split()[1]: out[op].stdout.strip() for op in out if op.startswith("certify")}

    def _cert_problems(self, kind: str, line: str) -> list[str]:
        if kind == "triangle":
            return checks.triangle_cert_problems(line, self.tri_k)
        if kind == "clash":
            n, e, m = self.clash
            return checks.clash_cert_problems(line, n, e, m)
        if kind == "tree":
            return checks.tree_cert_problems(line, *self.tree)
        gn = self.general_k // 27
        return checks.clash_cert_problems(line, gn, checks.balanced(gn, self.general_k), 3)

    def _table_problems(self, target: str, k: int, n_max: int) -> list[str]:
        t = target.lower()
        d = self.dir / f"{t}-k{k}"
        header, rows = checks.read_oracle_table(d / f"realizability_{t}_k{k}.txt")
        agreement = (d / f"agreement_{t}_k{k}.txt").read_text().splitlines()
        H = {"k3": TargetGraph.complete(3), "k4": TargetGraph.complete(4),
             "c4": TargetGraph.cycle(4)}[t]
        problems = []
        if "PARTIAL" in header or agreement[-1] != "# disagreements=0":
            problems.append(f"table {header!r}, agreement {agreement[-1]!r}")
        for n in range(2, n_max + 1):
            got = sorted(e for rn, e, _ in rows if rn == n)
            if got != sorted(checks.descending_sequences(n, k)):
                problems.append(f"n={n}: the rows are not every n-good sequence once")
        for n, e, status in rows:
            if status == "REALIZABLE":
                res = gk_oracle.is_realizable(DistributionSequence(n, k, e), H)
                w = None if res.colouring is None else np.asarray(res.colouring.matrix)
                if w is None:
                    problems.append(f"{e}: no witness")
                elif checks.count_problems(w, k, e) or checks.rainbow_copy(w, t):
                    problems.append(f"{e}: the witness has other counts or a rainbow {target}")
            elif status == "UNREALIZABLE":
                if checks.has_standard_colouring(n, e):
                    problems.append(f"{e}: a standard colouring exists")
                elif n <= 5 and checks.rainbow_free_colouring_exists(n, e, t):
                    problems.append(f"{e}: a colouring without a rainbow {target} exists")
            else:
                problems.append(f"{e}: status {status}")
        return [f"{t} k={k}: {p}" for p in problems]

    def check(self, out):
        problems = []
        for target, k, n_max in self.TABLES:
            if f"oracle {target.lower()} k={k}" in out:
                problems += self._table_problems(target, k, n_max)
        for kind, line in self._cert_lines(out).items():
            problems += [f"certify {kind}: {p}" for p in self._cert_problems(kind, line)]
        return problems

    def self_test(self, out):
        problems = []
        for kind, line in self._cert_lines(out).items():
            f = line.split()
            f[4] = str(int(f[4]) + 1)
            problems += _expect(self._cert_problems(kind, " ".join(f)),
                                f"a changed {kind} certificate")
        seq = DistributionSequence(5, 4, (4, 3, 2, 1))
        w = np.asarray(gk_oracle.is_realizable(seq, TargetGraph.complete(3)).colouring.matrix)
        problems += _expect(checks.count_problems(flip(w, 0, 1, 4), 4, seq.e),
                            "a flipped witness edge")
        problems += _expect([] if checks.rainbow_copy(plant_rainbow_triangle(w, 4), "k3") is None
                            else ["found"], "a planted rainbow triangle")
        problems += _expect(["exists"] if checks.has_standard_colouring(5, seq.e) else [],
                            "a standard-realizable sequence")
        problems += _expect(["exists"] if checks.rainbow_free_colouring_exists(5, seq.e, "k3")
                            else [], "a realizable sequence")
        return problems


WORKLOADS = {w.name: w for w in (K3Roundtrip, K4Bulk, K3Search, Oracle)}
